"""Desk-scale satisfiability: exhaustive enumeration, DPLL, forcing checks.

The exhaustive engine evaluates the whole truth table bit-parallel: each
variable maps to a big-integer column whose bit ``j`` is that variable's
value in assignment number ``j`` (variable ``i`` is bit ``i - 1`` of an
ascending assignment counter).  A clause mask ORs its literal columns, a
formula mask ANDs its clause masks, and the surviving bits are exactly
the models.  This keeps full enumeration over 2^21 assignments in the
tens of milliseconds while remaining an exact, deterministic sweep.

DPLL (Davis, Logemann & Loveland, 1962) runs depth-first over an explicit
stack of residual clause lists.  One loop sets every literal, whether a
branch, a unit or a pure one, and ``_forced`` alone chooses which unit or
pure literal comes next.

Each oracle job has one engine: ``check_equisat`` decides both sides by
DPLL, while ``solve_exhaustive`` and ``verify_forcing`` share the truth
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .formula import Clause, CnfFormula

Assignment = dict[int, bool]

DEFAULT_VAR_LIMIT = 24
# DPLL's witness lists every declared variable; a mono3sat4 output at n=100k has ~2.3M
WITNESS_VAR_LIMIT = 1 << 22


class VariableLimitError(ValueError):
    """Raised when a formula is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class SatVerdict:
    satisfiable: bool
    witness: Assignment | None
    explored: int  # assignments enumerated, or branching decisions taken


@dataclass(frozen=True)
class ForcingReport:
    """Exhaustive summary of which variables every model agrees on."""

    satisfiable: bool
    forced_true: frozenset[int]
    forced_false: frozenset[int]
    model_count: int


def evaluate(formula: CnfFormula, assignment: Mapping[int, bool]) -> bool:
    """True iff every clause has at least one satisfied literal.

    The assignment must cover every variable the formula references.
    """
    missing = sorted(formula.variables() - assignment.keys())
    if missing:
        raise ValueError(f"partial assignment: missing variables {missing}")
    for clause in formula.clauses:
        for lit in clause:
            if assignment[abs(lit)] == (lit > 0):
                break
        else:
            return False
    return True


def _truth_table(clauses: Iterable[Clause], variables: Sequence[int]) -> tuple[int, dict[int, int], int]:
    """Evaluate clauses over every assignment of ``variables`` at once.

    ``variables[i]`` is bit ``i`` of the assignment counter.  Returns the
    model mask, the columns built for the variables the clauses reference
    (all of them unless the mask emptied first), and the full mask.
    """
    size = 1 << len(variables)
    full = (1 << size) - 1
    position = {v: i for i, v in enumerate(variables)}
    columns: dict[int, int] = {}
    mask = full
    for clause in clauses:
        clause_mask = 0
        for lit in clause:
            var = abs(lit)
            col = columns.get(var)
            if col is None:
                half = 1 << position[var]
                col = ((1 << half) - 1) << half
                width = half << 1
                while width < size:
                    col |= col << width
                    width <<= 1
                columns[var] = col
            clause_mask |= col if lit > 0 else full ^ col
        mask &= clause_mask
        if not mask:
            break
    return mask, columns, full


def _check_exhaustive_limit(count: int) -> None:
    # Runs before any table is sized; the message does not echo a count
    # that may be thousands of digits long.
    if count > DEFAULT_VAR_LIMIT:
        raise VariableLimitError(f"variable count exceeds the exhaustive limit of {DEFAULT_VAR_LIMIT}")


def solve_exhaustive(formula: CnfFormula) -> SatVerdict:
    """Decide satisfiability by enumerating all 2^num_vars assignments.

    The witness is the first satisfying assignment in ascending counter
    order.  Raises VariableLimitError when num_vars exceeds
    DEFAULT_VAR_LIMIT.
    """
    _check_exhaustive_limit(formula.num_vars)
    mask, _, _ = _truth_table(formula.clauses, range(1, formula.num_vars + 1))
    explored = 1 << formula.num_vars
    if not mask:
        return SatVerdict(satisfiable=False, witness=None, explored=explored)
    first = (mask & -mask).bit_length() - 1
    witness = {v: bool(first >> (v - 1) & 1) for v in range(1, formula.num_vars + 1)}
    if not evaluate(formula, witness):
        raise RuntimeError("internal error: exhaustive witness failed re-evaluation")
    return SatVerdict(satisfiable=True, witness=witness, explored=explored)


def verify_forcing(clauses: Sequence[Clause], designated: int) -> ForcingReport:
    """Enumerate all assignments of a clause collection and report the
    variables fixed to the same value in every model.

    The designated variable must occur in the collection.  Variable
    indices need not be contiguous; enumeration runs over the referenced
    variables only.
    """
    universe = CnfFormula(clauses).variables()
    if designated not in universe:
        raise ValueError(f"designated variable {designated} does not occur in the clauses")
    _check_exhaustive_limit(len(universe))
    mask, columns, full = _truth_table(clauses, sorted(universe))
    count = mask.bit_count()
    # with no model, every variable would read as forced both ways
    live = columns.items() if count else ()
    return ForcingReport(
        satisfiable=count > 0,
        forced_true=frozenset(v for v, col in live if not mask & (full ^ col)),
        forced_false=frozenset(v for v, col in live if not mask & col),
        model_count=count,
    )


def _assign(clauses: list[list[int]], lit: int) -> list[list[int]] | None:
    # Returns the simplified clause list, or None on an emptied clause.
    out: list[list[int]] = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            reduced = [l for l in clause if l != -lit]
            if not reduced:
                return None
            out.append(reduced)
        else:
            out.append(clause)
    return out


def _forced(clauses: list[list[int]]) -> int | None:
    """The literal propagation sets next: the first unit clause's literal,
    else the pure literal of the lowest variable, else None.  A literal is
    pure when its negation does not occur in the clauses."""
    for clause in clauses:
        if len(clause) == 1:
            return clause[0]
    present = {lit for clause in clauses for lit in clause}
    return min((lit for lit in present if -lit not in present), key=abs, default=None)


def solve_dpll(formula: CnfFormula) -> SatVerdict:
    """Decide satisfiability by DPLL search.

    Before each decision, propagation sets literals until none is forced:
    the first unit clause in input order, else the pure literal of the
    lowest variable.  Then the search branches on the lowest live
    variable, true branch first, so runs are deterministic; ``explored``
    counts the branches taken.  Raises VariableLimitError, before any
    search, when num_vars exceeds WITNESS_VAR_LIMIT.
    """
    if formula.num_vars > WITNESS_VAR_LIMIT:
        raise VariableLimitError(f"declared variable count exceeds the witness limit of {WITNESS_VAR_LIMIT}")
    decisions = 0
    # Depth-first over pending nodes: a node is a residual formula, its
    # assignment, and the branch literal to take (None at the root).  The
    # false branch is pushed first so the true one runs first.
    pending: list[tuple[list[list[int]], Assignment, int | None]] = [
        ([list(clause) for clause in formula.clauses], {}, None)
    ]
    while pending:
        clauses, assignment, lit = pending.pop()
        if lit is None:
            lit = _forced(clauses)
        else:
            decisions += 1
        assignment = dict(assignment)
        while lit is not None:
            assignment[abs(lit)] = lit > 0
            clauses = _assign(clauses, lit)
            lit = None if clauses is None else _forced(clauses)
        if clauses is None:
            continue
        if not clauses:
            witness = {v: assignment.get(v, False) for v in range(1, formula.num_vars + 1)}
            if not evaluate(formula, witness):
                raise RuntimeError("internal error: DPLL witness failed re-evaluation")
            return SatVerdict(satisfiable=True, witness=witness, explored=decisions)
        var = min(abs(lit) for clause in clauses for lit in clause)
        pending.append((clauses, assignment, -var))
        pending.append((clauses, assignment, var))
    return SatVerdict(satisfiable=False, witness=None, explored=decisions)


def check_equisat(original: CnfFormula, reduced: CnfFormula) -> bool:
    """True iff both formulas have the same SAT verdict, each decided by
    ``solve_dpll``, so its WITNESS_VAR_LIMIT applies to both sides."""
    return solve_dpll(original).satisfiable == solve_dpll(reduced).satisfiable
