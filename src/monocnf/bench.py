"""Seeded random 3-SAT-4 instance generation and reduction blowup accounting.

The generator draws width-3 clauses over distinct variables with
independent random polarities, keeping every variable within four clause
memberships (the occurrence budget), in time linear in the clause count.
Randomness comes from SplitMix64, a fixed 64-bit stream generator, so a
seed reproduces the same instance on any platform and Python version.

Blowup accounting runs every target of ``reduce.TARGETS`` on an
instance, reports output sizes and wall time as CSV rows, and checks the
measured counts against the closed forms given by each target's growth.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass

from .dimacs import _clip
from .formula import Clause, CnfFormula, _trusted_clause, _trusted_formula
from .reduce import TARGETS


class GenerationError(ValueError):
    """Raised for infeasible generator configurations."""


_U64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudorandom stream: 64-bit state advanced by the
    golden-ratio increment, output scrambled by two xor-multiply rounds.

    Fixed algorithm, no platform dependence; documented in the README so
    seeds stay reproducible.
    """

    def __init__(self, seed: int):
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection to avoid modulo bias."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = _U64 + 1 - ((_U64 + 1) % bound)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound

    def coin(self) -> bool:
        return bool(self.next_u64() & 1)


# generate sizes its lists by the variable count, so it is bounded first
_MAX_VARIABLES = 1 << 22


@dataclass(frozen=True)
class GenConfig:
    """Generator parameters: clause_count width-3 clauses over
    variable_count variables, each variable in at most 4 clauses."""

    variable_count: int
    clause_count: int
    seed: int

    def __post_init__(self) -> None:
        # counts are echoed clipped: a command line may give thousands of digits
        if self.variable_count < 3:
            raise GenerationError(f"need at least 3 variables, got {_clip(str(self.variable_count))}")
        if self.variable_count > _MAX_VARIABLES:
            raise GenerationError(f"variable count exceeds the generator limit of {_MAX_VARIABLES}")
        if self.clause_count < 0:
            raise GenerationError(f"clause count must be nonnegative, got {_clip(str(self.clause_count))}")
        budget = 4 * self.variable_count
        needed = 3 * self.clause_count
        if needed > budget:
            raise GenerationError(
                f"{_clip(str(self.clause_count))} clauses need {_clip(str(needed))} occurrences "
                f"but {self.variable_count} variables allow only {budget}"
            )


_MAX_ATTEMPTS = 1000


def generate(cfg: GenConfig) -> CnfFormula:
    """Deterministic random 3-SAT-4 instance for the given config.

    Each clause swap-removes 3 distinct variables, uniformly, from the
    ascending list of those with occurrence budget left (simulated in
    ``moved``, without a copy) and flips a sign coin per literal; a
    variable leaves the list when its budget reaches 0.  If fewer than 3
    are left before the clause count is met, generation restarts on the
    same stream, so tight configurations still end deterministically.
    """
    rng = SplitMix64(cfg.seed)
    for _ in range(_MAX_ATTEMPTS):
        budget = [4] * (cfg.variable_count + 1)
        eligible = list(range(1, cfg.variable_count + 1))
        clauses: list[Clause] = []
        for _ in range(cfg.clause_count):
            size = len(eligible)
            if size < 3:
                break
            moved: dict[int, int] = {}
            picks = []
            for last in range(size - 1, size - 4, -1):
                i = rng.below(last + 1)
                picks.append(moved.get(i, eligible[i]))
                moved[i] = moved.get(last, eligible[last])
            picks.sort()
            clauses.append(_trusted_clause(v if rng.coin() else -v for v in picks))
            for v in picks:
                budget[v] -= 1
                if not budget[v]:
                    del eligible[bisect_left(eligible, v)]
        else:
            return _trusted_formula(clauses, cfg.variable_count)
    raise GenerationError(
        f"no valid instance after {_MAX_ATTEMPTS} attempts for "
        f"vars={cfg.variable_count} clauses={cfg.clause_count} seed={_clip(str(cfg.seed))}"
    )


CSV_HEADER = (
    "seed",
    "input_vars",
    "input_clauses",
    "mixed",
    "pos2",
    "neg2",
    "pipeline",
    "out_vars",
    "out_clauses",
    "millis",
)


def blowup_rows(seed: int, formula: CnfFormula) -> list[tuple[str, ...]]:
    """Run every target on a 3-SAT-4 instance and return one CSV row per
    target, matching CSV_HEADER.  Raises RuntimeError when a target's
    measured size differs from the closed form given by its growth."""
    mixed = sum(1 for c in formula.clauses if c.is_mixed)
    rows = []
    for name, target in TARGETS.items():
        start = time.perf_counter()
        out, _ = target.reduce(formula)
        millis = (time.perf_counter() - start) * 1000.0
        if name == "mono23sat4":  # the 2-clause census of mixed elimination, TARGETS' first entry
            pos2 = sum(1 for c in out.clauses if len(c) == 2 and c.is_positive)
            neg2 = sum(1 for c in out.clauses if len(c) == 2 and c.is_negative)
        var_growth, clause_growth = target.growth
        measured = (out.num_vars, len(out.clauses))
        expected = (
            formula.num_vars + mixed + var_growth * (pos2 + neg2),
            len(formula.clauses) + mixed + clause_growth * (pos2 + neg2),
        )
        if measured != expected:
            raise RuntimeError(
                f"blowup identity violated for {name}: measured vars/clauses {measured}, expected {expected}"
            )
        prefix = (seed, formula.num_vars, len(formula.clauses), mixed, pos2, neg2, name)
        rows.append(tuple(map(str, prefix + measured)) + (f"{millis:.3f}",))
    return rows
