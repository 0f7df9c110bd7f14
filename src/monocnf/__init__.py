"""CNF reduction toolkit: monotone 3-SAT rewrites with bounded variable
occurrences, plus exhaustive and DPLL satisfiability checking."""

from .bench import (
    CSV_HEADER,
    GenConfig,
    GenerationError,
    blowup_rows,
    generate,
)
from .dimacs import DimacsDocument, DimacsError, dump, load, parse, serialize
from .formula import Clause, CnfFormula, FormulaError, occurrences
from .profiles import PROFILES, Profile, Violation, ViolationReport, check_profile
from .reduce import (
    FORCE_FALSE_GADGET,
    FORCE_TRUE_GADGET,
    GADGET_DESIGNATED,
    TARGETS,
    FreshAllocator,
    ProfileError,
    Target,
    apply_r1,
    apply_r2,
    apply_r3,
    eliminate_mixed,
    gold_step,
    instantiate_gadget,
    to_monotone_3sat4,
    to_monotone_3sat5,
)
from .solve import (
    ForcingReport,
    SatVerdict,
    VariableLimitError,
    check_equisat,
    evaluate,
    solve_dpll,
    solve_exhaustive,
    verify_forcing,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "Clause",
    "CnfFormula",
    "DimacsDocument",
    "DimacsError",
    "FORCE_FALSE_GADGET",
    "FORCE_TRUE_GADGET",
    "ForcingReport",
    "FormulaError",
    "FreshAllocator",
    "GADGET_DESIGNATED",
    "GenConfig",
    "GenerationError",
    "PROFILES",
    "Profile",
    "ProfileError",
    "SatVerdict",
    "TARGETS",
    "Target",
    "VariableLimitError",
    "Violation",
    "ViolationReport",
    "apply_r1",
    "apply_r2",
    "apply_r3",
    "blowup_rows",
    "check_equisat",
    "check_profile",
    "dump",
    "eliminate_mixed",
    "evaluate",
    "generate",
    "gold_step",
    "instantiate_gadget",
    "load",
    "occurrences",
    "parse",
    "serialize",
    "solve_dpll",
    "solve_exhaustive",
    "to_monotone_3sat4",
    "to_monotone_3sat5",
    "verify_forcing",
]
