"""Desk-scale satisfiability: exhaustive enumeration, DPLL, forcing checks.

The exhaustive engine sweeps the truth table bit-parallel, one slice of
2^16 consecutive assignments at a time (variable ``i`` is bit ``i - 1`` of
an ascending assignment counter).  Each of the low 16 variables maps to a
big-integer column of 8 KiB whose bit ``j`` is that variable's value in
assignment ``j`` of the slice; a higher variable is constant over the
slice.  A clause mask ORs its literal columns, a slice's mask ANDs its
clause masks, and the surviving bits are exactly the slice's models.  So
memory stays at a slice's columns, 256 KiB with both signs, whatever the
variable count, and a search stops at the first slice holding a model:
the gadget's 2^21 assignments take a few milliseconds, an exact,
deterministic sweep.

DPLL (Davis, Logemann & Loveland, 1962) runs depth-first over an explicit
stack of pending branches.  Propagation is incremental, as in Chaff
(Moskewicz et al., 2001) and MiniSat (Een & Sorensson, 2003): occurrence
lists per literal, true and unassigned counts per clause, live occurrence
counts per literal, and a trail of set literals that a backtrack undoes.
Setting a literal costs the clauses it occurs in, not a pass over the
formula.

``solve_exhaustive`` and ``verify_forcing`` share the sweep.
``check_equisat`` first tries to prove the verdicts equal without deciding
either side: the reductions replace each input clause C with clauses T
over C's variables and fresh ones Z that occur nowhere else, and when
∃Z. T ≡ C for every replacement, the output is equisatisfiable with the
input at every size.  The replacements are the rows of ``Target.rows``,
one per input shape and sign.  The sweep checks that lemma once per
row.  One linear pass compares the output's flat literals, 0-terminated
clauses as a ``CnfFormula`` stores them, with the runs on the input,
``reduce.Runs``, which number the fresh variables as the reduction does,
of each target whose clause count is the output's.  ``check_equisat_body``
runs that pass on a DIMACS body block by block as it is tokenized, and
never builds the output.  Any other output, a renumbered one included, is
left to DPLL, which decides both sides; only that fallback is bounded by
DPLL's witness limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .dimacs import Body, parse
from .formula import Clause, CnfFormula
from .reduce import TARGETS, Run, Runs, Target, _census, _over

Assignment = dict[int, bool]

DEFAULT_VAR_LIMIT = 24
# DPLL's witness lists every declared variable; a mono3sat4 output at n=100k has ~2.3M
WITNESS_VAR_LIMIT = 1 << 22
# the exhaustive sweep covers 2^16 assignments at a time: a column is 8 KiB
_SLICE_VARS = 16


class VariableLimitError(ValueError):
    """Raised when a formula is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class SatVerdict:
    satisfiable: bool
    witness: Assignment | None
    # branching decisions taken, or the exhaustive table's size 2^num_vars,
    # even when its sweep stops at the first slice holding a model
    explored: int


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
    if not all(map(assignment.__contains__, map(abs, filter(None, formula.flat)))):  # builds no set
        missing = formula.variables() - assignment.keys()  # quote the first and count the rest: one line
        more = f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""
        raise ValueError(f"partial assignment: missing variables: {min(missing)}{more}")
    for clause in formula.rows():
        for lit in clause:
            if assignment[abs(lit)] == (lit > 0):
                break
        else:
            return False
    return True


def _sweep(clauses: Iterable[Sequence[int]], variables: Sequence[int]) -> Iterator[int]:
    """Yield the model mask of each slice of 2^_SLICE_VARS consecutive
    assignment counter values, in ascending order.

    ``variables[i]`` is bit ``i`` of the counter, so the low variables
    are bit-parallel columns within a slice and each higher one is
    constant over it: a clause it satisfies is skipped and a literal it
    falsifies is dropped.  Bit ``j`` of slice ``s``'s mask is counter
    value ``s << _SLICE_VARS | j``.
    """
    clauses = list(clauses)
    low, high = variables[:_SLICE_VARS], variables[_SLICE_VARS:]
    full = (1 << (1 << len(low))) - 1
    column: dict[int, int] = {}
    for var, col in zip(low, _columns(len(low))):
        column[var], column[-var] = col, full ^ col
    place = {var: i for i, var in enumerate(high)}
    for s in range(1 << len(high)):
        mask = full
        for clause in clauses:
            clause_mask = 0
            for lit in clause:
                i = place.get(abs(lit))
                if i is None:
                    clause_mask |= column[lit]
                elif (s >> i & 1) == (lit > 0):
                    break
            else:
                mask &= clause_mask
                if not mask:
                    break
        yield mask


@cache
def _columns(count: int) -> tuple[int, ...]:
    """Column ``i`` of a slice over ``count`` variables: bit ``j`` is bit ``i``
    of ``j``.  Kept for each count up to 16, about 256 KiB in all."""
    size = 1 << count
    columns = []
    for i in range(count):
        half = 1 << i
        col = ((1 << half) - 1) << half
        width = half << 1
        while width < size:
            col |= col << width
            width <<= 1
        columns.append(col)
    return tuple(columns)


def _check_exhaustive_limit(count: int) -> None:
    # Runs before any table is sized; the message does not echo a count
    # that may be thousands of digits long.
    if count > DEFAULT_VAR_LIMIT:
        raise VariableLimitError(f"variable count exceeds the exhaustive limit of {DEFAULT_VAR_LIMIT}")


def solve_exhaustive(formula: CnfFormula) -> SatVerdict:
    """Decide satisfiability by enumerating the 2^num_vars assignments,
    slice by slice, up to the first slice holding a model.

    The witness is the first satisfying assignment in ascending counter
    order.  Raises VariableLimitError when num_vars exceeds
    DEFAULT_VAR_LIMIT.
    """
    _check_exhaustive_limit(formula.num_vars)
    variables = range(1, formula.num_vars + 1)
    explored = 1 << formula.num_vars
    for s, mask in enumerate(_sweep(formula.rows(), variables)):
        if mask:
            first = s << _SLICE_VARS | ((mask & -mask).bit_length() - 1)
            break
    else:
        return SatVerdict(satisfiable=False, witness=None, explored=explored)
    witness = {v: bool(first >> (v - 1) & 1) for v in variables}
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
    variables = sorted(universe)
    # the OR of the model masks, of the numbers of the slices holding a model, and of their complements
    union = ones = zeros = count = 0
    for s, mask in enumerate(_sweep(clauses, variables)):
        if mask:
            count += mask.bit_count()
            union, ones, zeros = union | mask, ones | s, zeros | ~s
    # bit i is set when some model sets variables[i] true, or false
    low = _columns(min(len(variables), _SLICE_VARS))
    some_true = ones << len(low) | sum(1 << i for i, col in enumerate(low) if union & col)
    some_false = zeros << len(low) | sum(1 << i for i, col in enumerate(low) if union & ~col)
    if not count:  # with no model, every variable would read as forced both ways
        some_true = some_false = -1
    return ForcingReport(
        satisfiable=count > 0,
        forced_true=frozenset(v for i, v in enumerate(variables) if not some_false >> i & 1),
        forced_false=frozenset(v for i, v in enumerate(variables) if not some_true >> i & 1),
        model_count=count,
    )


def _check_witness_limit(*counts: int) -> None:
    if max(counts) > WITNESS_VAR_LIMIT:
        raise VariableLimitError(f"declared variable count exceeds the witness limit of {WITNESS_VAR_LIMIT}")


def solve_dpll(formula: CnfFormula) -> SatVerdict:
    """Decide satisfiability by DPLL search.

    Before each decision, propagation sets literals until none is forced:
    the first unit clause in input order, else the pure literal of the
    lowest variable.  Then the search branches on the lowest live
    variable, true branch first, so runs are deterministic; ``explored``
    counts the branches taken.  Unset variables are false in the witness,
    and so is every declared variable that no clause holds.
    Raises VariableLimitError, before any search, when num_vars exceeds
    WITNESS_VAR_LIMIT.
    """
    n = formula.num_vars
    _check_witness_limit(n)
    clauses = list(formula.rows())
    # The search runs over variables 1..m, m the largest a clause holds (a
    # clause is sorted by variable): a header may declare millions more.
    m = max(map(abs, map(itemgetter(-1), clauses)), default=0)
    # Lists indexed by literal have 2m + 1 slots, so -v lands on slot 2m + 1 - v.
    # Every literal no clause holds shares one empty tuple.
    occurs: list[Sequence[int]] = [()] * (2 * m + 1)
    for index, clause in enumerate(clauses):
        for lit in clause:
            if not occurs[lit]:
                occurs[lit] = []
            occurs[lit].append(index)
    live = [len(indices) for indices in occurs]  # unsatisfied clauses holding the literal
    true = [0] * len(clauses)  # true literals per clause
    free = [len(clause) for clause in clauses]  # unassigned literals per clause
    value: list[bool | None] = [None] * (m + 1)
    trail: list[int] = []
    # Min-heaps, checked lazily: along one path a unit clause only becomes
    # satisfied, and a pure variable only becomes set or dead.
    units = [index for index, clause in enumerate(clauses) if len(clause) == 1]
    pures = [v for v in range(1, m + 1) if (live[v] == 0) != (live[-v] == 0)]

    def assign(lit: int) -> bool:
        """Set ``lit`` true; False when that empties a clause."""
        value[abs(lit)] = lit > 0
        trail.append(lit)
        for index in occurs[lit]:
            free[index] -= 1
            true[index] += 1
            if true[index] == 1:  # newly satisfied: its literals lose an occurrence
                for other in clauses[index]:
                    live[other] -= 1
                    if not live[other] and live[-other] and value[abs(other)] is None:
                        heappush(pures, abs(other))
        consistent = True
        for index in occurs[-lit]:
            free[index] -= 1
            if not true[index]:
                if free[index] == 1:
                    heappush(units, index)
                elif not free[index]:
                    consistent = False
        return consistent

    def undo(mark: int) -> None:
        while len(trail) > mark:
            lit = trail.pop()
            value[abs(lit)] = None
            for index in occurs[lit]:
                free[index] += 1
                true[index] -= 1
                if not true[index]:
                    for other in clauses[index]:
                        live[other] += 1
            for index in occurs[-lit]:
                free[index] += 1

    def forced() -> int | None:
        while units:
            index = heappop(units)
            if not true[index] and free[index] == 1:
                return next(lit for lit in clauses[index] if value[abs(lit)] is None)
        while pures:
            var = heappop(pures)
            if value[var] is None and (live[var] == 0) != (live[-var] == 0):
                return var if live[var] else -var
        return None

    decisions = 0
    # Depth-first over pending nodes: a node is the branch literal to take
    # (None at the root), the trail length at its decision point, and the
    # variable the next branch scan starts from; along one path the branch
    # variables only ascend.  The false branch is pushed first so the true
    # one runs first.  A decision point forced nothing, so the heaps are
    # emptied when one is restored.
    pending: list[tuple[int | None, int, int]] = [(None, 0, 1)]
    while pending:
        lit, mark, start = pending.pop()
        if lit is None:
            lit = forced()
        else:
            decisions += 1
            undo(mark)
            units.clear()
            pures.clear()
        while lit is not None and assign(lit):
            lit = forced()
        if lit is not None:  # it emptied a clause
            continue
        # with no conflict, every unsatisfied clause holds a live variable
        var = next((v for v in range(start, m + 1) if value[v] is None and (live[v] or live[-v])), None)
        if var is None:
            witness = dict.fromkeys(range(1, n + 1), False)
            witness.update((v, True) for v in range(1, m + 1) if value[v])
            if not evaluate(formula, witness):
                raise RuntimeError("internal error: DPLL witness failed re-evaluation")
            return SatVerdict(satisfiable=True, witness=witness, explored=decisions)
        mark = len(trail)
        pending.append((-var, mark, var + 1))
        pending.append((var, mark, var + 1))
    return SatVerdict(satisfiable=False, witness=None, explored=decisions)


def check_equisat(original: CnfFormula, reduced: CnfFormula) -> bool:
    """True iff both formulas have the same SAT verdict.

    When ``reduced`` is a target's output on ``original`` (see
    ``_certified``), the verdicts are equal by the scheme's lemma and
    neither side is decided, whatever either declares.  Otherwise
    ``solve_dpll`` decides both (see ``_dpll_agrees``)."""
    return _certified(original, reduced) or _dpll_agrees(original, reduced.num_vars, lambda: reduced)


def check_equisat_body(original: CnfFormula, body: Body) -> bool:
    """``check_equisat`` of ``original`` and the formula of ``body``, without
    building that formula when it is a target's output on ``original``: the
    pass reads the body's blocks as they are tokenized, and reading them to
    the end runs the body's own checks.  Otherwise the body's text is parsed
    whole for DPLL, once the header's count is within DPLL's witness bound."""
    next(iter(body), None)  # reads the header, which precedes the first block
    certified = _certified_blocks(original, body.num_clauses, lambda: map(itemgetter(0), body))
    return certified or _dpll_agrees(original, body.num_vars, lambda: parse(body.text).formula)


def _dpll_agrees(original: CnfFormula, num_vars: int, reduced: Callable[[], CnfFormula]) -> bool:
    """Whether ``solve_dpll`` gives ``original`` and ``reduced()``, which
    declares ``num_vars`` variables, the same verdict.  A side over its
    witness bound is refused before ``reduced()`` is built or either side is
    searched."""
    _check_witness_limit(original.num_vars, num_vars)
    return solve_dpll(original).satisfiable == solve_dpll(reduced()).satisfiable


def _certified(original: CnfFormula, reduced: CnfFormula) -> bool:
    """Whether ``reduced`` is some target's output on ``original`` and that
    target's lemma holds (see ``_certified_blocks``), its store read as one
    block: its ``clauses`` are never built."""
    return _certified_blocks(original, len(reduced), lambda: (reduced.flat,))


def _certified_blocks(
    original: CnfFormula, num_clauses: int, blocks: Callable[[], Iterable[Sequence[int]]]
) -> bool:
    """Whether the output of ``num_clauses`` clauses whose flat literals
    ``blocks()`` yields is some target's output on ``original`` and that
    target's lemma holds.  Every input clause needs a row, so its width is
    2 or 3 and a 2-clause is monotone.  Only a target whose clause count
    (``Target.size``) is the output's is tried, in table order, each on a
    fresh walk of the blocks; two are tried only when their growth is equal
    or the input has no 2-clause."""
    clauses, n = list(original.rows()), original.num_vars
    if not set(map(len, clauses)) <= {2, 3} or any(len(c) == 2 and c[0] * c[1] < 0 for c in clauses):
        return False
    census = _census(clauses)
    return any(
        _is_instance(blocks(), Runs(target.rows, clauses, n, census[0])) and _lemma_holds(target)
        for target in TARGETS.values()
        if target.size(n, len(clauses), census)[1] == num_clauses
    )


@cache
def _lemma_holds(target: Target) -> bool:
    """Whether each of the target's rows replaces a clause of its shape by
    an equivalent up to the row's fresh variables.  One probe clause per
    row, the cheap pair probes first, is laid out by ``Runs`` as in an
    output over 3 variables and 1 mixed clause: bridge 4, block from 5.
    The negative probes read the mirrored rows.  Checked once per target
    object, when first needed, so a lookup hashes no template: about 20 ms
    for all four targets, most of it for the gadget's rows."""
    for probe in ((1, 2), (-1, -2), (1, 2, 3), (1, 2, -3), (1, -2, -3)):
        ((row, table),) = Runs(target.rows, (probe,), 3, 1)
        if not _projects_to(_over(row.clauses, table), probe):
            return False
    return True


def _projects_to(clauses: Sequence[Sequence[int]], clause: Sequence[int]) -> bool:
    """Whether ∃Z. clauses ≡ clause, where Z are the variables of
    ``clauses`` that ``clause`` does not hold.  Each assignment of the
    clause's variables is fixed in turn, and the clauses it leaves must
    have a model over Z exactly when it satisfies the clause.  Each check
    sweeps the table of Z slice by slice and stops at the first slice
    holding a model, so no table over all of Z is kept."""
    fixed = [abs(lit) for lit in clause]
    hidden = sorted(set(map(abs, chain.from_iterable(clauses))).difference(fixed))
    for bits in range(1 << len(fixed)):
        true = {var if bits >> i & 1 else -var for i, var in enumerate(fixed)}
        left = [[lit for lit in c if -lit not in true] for c in clauses if true.isdisjoint(c)]
        if any(_sweep(left, hidden)) == true.isdisjoint(clause):
            return False
    return True


def _is_instance(blocks: Iterable[Sequence[int]], runs: Iterable[Run]) -> bool:
    """Whether the output whose flat literals ``blocks`` yields, each clause
    ended by a 0 as in a ``dimacs.Block``, is exactly ``runs``.  One pass, in
    run order, compares the next literals with each run's group of clauses
    (``Row.flat``), so the literals and the clause ends are compared at
    once.  A group that straddles a block end is compared in parts.  An
    empty block holds no literal and is skipped, so an empty output's one
    empty store is the runs of an empty input.  Every literal must be
    consumed, and an output that runs out before the runs do is refused, not
    read past."""
    blocks = filter(None, map(tuple, blocks))
    flat, at = (), 0
    for row, table in runs:
        group = row.flat(table)
        end = at + len(group)
        while flat[at:end] != group:
            if end <= len(flat) or flat[at:] != group[: len(flat) - at]:
                return False
            group = group[len(flat) - at :]  # the rest goes on in the next block
            flat = next(blocks, None)
            if flat is None:
                return False
            at, end = 0, len(group)
        at = end
    return at == len(flat) and next(blocks, None) is None
