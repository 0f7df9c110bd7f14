"""Clause replacement rules and the monotone-form reduction pipelines.

Three layers:

* Rules: ``gold_step`` splits one mixed 3-clause into two monotone
  clauses; ``apply_r1`` / ``apply_r2`` / ``apply_r3`` replace a monotone
  2-clause with monotone 3-clauses over fresh variables, with tightening
  occurrence guarantees (r3 leaves the two original variables untouched
  and every fresh variable occurs at most five times).
* Gadget: a fixed 25-clause monotone collection whose models all agree
  on a designated variable; instantiated per widened 2-clause so nothing
  exceeds four occurrences.
* Pipelines: the ``TARGETS`` table maps each target name to its output
  profile and its 2-clause template (the pair itself, r3, compact r3, or
  widening plus gadget), compiled once from its rule.  ``Target.rows``
  states the scheme once: one row of output clauses per input shape and
  sign, the negative rows compiled as mirror images, and the growth per
  2-clause read from the pair row.  ``Target.size`` states the output's
  counts, and ``Target.runs`` lays out a target's output as one run per
  input clause, a row over a lookup table that ``Runs`` builds as one list;
  ``Target.text``, ``Target.trace`` and ``Target.reduce`` read the runs as
  DIMACS body lines, trace comments and the formula's store, and
  ``eliminate_mixed``, ``to_monotone_3sat5`` and ``to_monotone_3sat4`` run
  table entries.

Every pipeline is deterministic: clauses are processed in input order,
a replaced clause's children are inserted at its position, and fresh
variables are consecutive indices starting right after the input's
declared count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, count, repeat
from operator import gt, itemgetter, neg, or_, xor
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .dimacs import clause_format
from .formula import Clause, CnfFormula, _stored_formula, _trusted_clause, block_rows, clause_ends, occurrences
from .profiles import PROFILES, ViolationReport, check_profile


class ProfileError(ValueError):
    """Raised when a pipeline input fails its profile check.  The message
    quotes the first violation and counts the rest, so it stays one line."""

    def __init__(self, message: str, report: ViolationReport):
        more = f" (and {len(report) - 1} more)" if len(report) > 1 else ""
        super().__init__(f"{message}: {report[0]}{more}")


class FreshAllocator:
    """Hands out consecutive fresh variable indices, strictly increasing.

    Seed it past every existing index (``num_vars + 1`` for a formula)
    so allocations never collide.
    """

    def __init__(self, next_index: int):
        if next_index < 1:
            raise ValueError(f"variable indices start at 1, got {next_index}")
        self._next = next_index

    def fresh(self) -> int:
        index = self._next
        self._next += 1
        return index

    def fresh_many(self, count: int) -> tuple[int, ...]:
        return tuple(self.fresh() for _ in range(count))


def _monotone_pair_sign(clause: Clause, rule: str) -> int:
    if len(clause) != 2:
        raise ValueError(f"{rule} requires a 2-clause, got width {len(clause)}")
    sign = clause.sign
    if not sign:
        raise ValueError(f"{rule} requires a monotone clause, got {clause!r}")
    return sign


def gold_step(clause: Clause, alloc: FreshAllocator) -> tuple[Clause, Clause]:
    """Split a mixed 3-clause into two monotone clauses over a fresh
    bridge variable: the positive part widened by the bridge, and the
    negative part widened by its negation.

    One output has width 2 and the other width 3; original variables
    keep their occurrence counts and the bridge occurs exactly twice.
    """
    if len(clause) != 3:
        raise ValueError(f"gold_step requires a 3-clause, got width {len(clause)}")
    if clause.sign:
        raise ValueError(f"gold_step requires a mixed clause, got {clause!r}")
    bridge = alloc.fresh()
    if bridge <= abs(clause[-1]):  # then it sorts last, and the children need no sort or check
        raise ValueError(f"gold_step requires a bridge above the clause's variables, got {bridge}")
    positive = _trusted_clause([*filter((0).__lt__, clause), bridge])
    return positive, _trusted_clause([*filter((0).__gt__, clause), -bridge])


def apply_r1(clause: Clause, alloc: FreshAllocator) -> list[Clause]:
    """Replace a monotone 2-clause with four monotone 3-clauses: the pair
    widened by each of three fresh variables, plus one clause forcing at
    least one fresh variable to the pair's own polarity side.

    A positive pair {x, y} becomes {x,y,u}, {x,y,v}, {x,y,w},
    {-u,-v,-w}; a negative pair is the literal-wise dual.
    """
    sign = _monotone_pair_sign(clause, "apply_r1")
    u, v, w = alloc.fresh_many(3)
    return [
        Clause(clause + (sign * u,)),
        Clause(clause + (sign * v,)),
        Clause(clause + (sign * w,)),
        Clause((-sign * u, -sign * v, -sign * w)),
    ]


def apply_r2(clause: Clause, alloc: FreshAllocator) -> list[Clause]:
    """Replace a monotone 2-clause with six monotone 3-clauses over five
    fresh variables: the pair widened by two fresh variables, then
    apply_r1 on the opposite-polarity pair of those two.

    Each original variable gains exactly one occurrence; no fresh
    variable occurs more than four times.
    """
    sign = _monotone_pair_sign(clause, "apply_r2")
    u, v = alloc.fresh_many(2)
    out = [Clause(clause + (sign * u,)), Clause(clause + (sign * v,))]
    out.extend(apply_r1(Clause((-sign * u, -sign * v)), alloc))
    return out


def apply_r3(clause: Clause, alloc: FreshAllocator, compact: bool = False) -> list[Clause]:
    """Replace a monotone 2-clause with monotone 3-clauses while leaving
    the occurrence counts of both original variables unchanged.

    Standard mode widens the pair by one fresh variable u and expands
    the three pairs {-u,-v}, {-u,-w}, {v,w} with apply_r2 (duals for a
    negative input): 19 clauses over 18 fresh variables.  Compact mode
    expands the last pair with apply_r1 instead: 17 clauses over 16
    fresh variables.  Either way no fresh variable occurs more than
    five times.
    """
    sign = _monotone_pair_sign(clause, "apply_r3")
    u, v, w = alloc.fresh_many(3)
    out = [Clause(clause + (sign * u,))]
    out.extend(apply_r2(Clause((-sign * u, -sign * v)), alloc))
    out.extend(apply_r2(Clause((-sign * u, -sign * w)), alloc))
    last_rule = apply_r1 if compact else apply_r2
    out.extend(last_rule(Clause((sign * v, sign * w)), alloc))
    return out


# The forcing gadget: 25 monotone 3-clauses over 21 variables, numbered
# by first appearance in the emission order below.  Variable 3 is the
# designated one: the collection is satisfiable, and every model sets
# variable 3 true (its literal-wise negation forces it false).  Variable 3
# occurs exactly 3 times, variable 21 exactly twice, and no variable
# occurs more than 4 times, so adding the designated variable to one
# more clause outside the gadget stays within an occurrence cap of 4.
FORCE_TRUE_GADGET = CnfFormula.from_ints((
    (1, 2, 3),
    (1, 4, 3),
    (-2, -4, -5),
    (-2, -4, -6),
    (-2, -4, -7),
    (5, 6, 7),
    (-8, -9, -5),
    (-8, -9, -6),
    (-8, -9, -7),
    (8, 10, 11),
    (9, 10, 11),
    (-1, -10, -12),
    (-1, -11, -12),
    (12, 3, 13),
    (-14, -15, -10),
    (-14, -15, -11),
    (16, 17, 14),
    (16, 17, 15),
    (-13, -16, -18),
    (-13, -17, -18),
    (12, 18, 19),
    (-19, -16, -20),
    (-19, -17, -20),
    (20, 18, 21),
    (-21, -19, -13),
))
FORCE_FALSE_GADGET = CnfFormula.from_ints(map(neg, clause) for clause in FORCE_TRUE_GADGET.rows())
GADGET_DESIGNATED = 3


def _vet_gadget(gadget: CnfFormula) -> None:
    # the designated variable's 3 occurrences are within the cap of 4
    report = check_profile(gadget, PROFILES["mono3sat4"])
    if not report.ok:
        raise ValueError(f"gadget clauses must be monotone 3-clauses, at most 4 per variable: {report[0]}")
    if occurrences(gadget)[GADGET_DESIGNATED] != 3:
        raise ValueError("designated variable must occur exactly 3 times")


_vet_gadget(FORCE_TRUE_GADGET)
_vet_gadget(FORCE_FALSE_GADGET)


def instantiate_gadget(gadget: CnfFormula, alloc: FreshAllocator) -> tuple[list[Clause], int]:
    """Emit the gadget over fresh variables, in its clause order.

    Gadget variables map to consecutive fresh indices in numbering
    order (which is first-appearance order in the emitted clause list):
    variable t becomes ``first + t - 1``.  Returns the clauses and the
    concrete designated variable.
    """
    offset = alloc.fresh_many(gadget.num_vars)[0] - 1
    clauses = [
        Clause(tuple(lit + offset if lit > 0 else lit - offset for lit in pattern))
        for pattern in gadget.rows()
    ]
    return clauses, GADGET_DESIGNATED + offset


def _widen_with_gadget(pair: Clause, alloc: FreshAllocator) -> list[Clause]:
    """A positive 2-clause widened by a fresh variable, then the gadget
    forcing that variable false.  Only the positive probe of ``_target``
    runs it; a negative pair reads the mirror of the result (see ``_mirror``)."""
    gadget, designated = instantiate_gadget(FORCE_FALSE_GADGET, alloc)
    return [Clause(pair + (designated,)), *gadget]


# (rule label, slot literals) per output clause of one row
Clauses = tuple[tuple[str, tuple[int, ...]], ...]


def _mirror(clauses: Clauses, width: int) -> Clauses:
    """``clauses`` with every fresh slot, past the input's ``width``, negated:
    the row of the other sign, over a table that holds its fresh variables
    positive."""
    return tuple((label, tuple(-slot if abs(slot) > width else slot for slot in lits)) for label, lits in clauses)


def _over(clauses: Clauses, table: Sequence[int]) -> list[tuple[int, ...]]:
    """The literals of each clause of a row, read from ``table``."""
    return [tuple(map(table.__getitem__, lits)) for _, lits in clauses]


# Gold's split of the mixed probe (1, 2, -3) over the bridge 4, wider child first.
GOLD: Clauses = tuple(
    ("gold", child) for child in sorted(gold_step(Clause((1, 2, -3)), FreshAllocator(4)), key=len, reverse=True)
)


class Row:
    """One row compiled for its readers: input slots 1 to ``width``, then
    ``block`` fresh slots up to its largest; only a pair row's block is read.

    A row is read from a run's lookup table (see ``Runs``): slot k reads
    entry k and slot -k entry -k, the negation of entry k, and entry 0
    reads 0.  A table holds its fresh variables positive, so a row of either
    sign reads them the same way: the sign is compiled into the row."""

    def __init__(self, clauses: Clauses, width: int):
        self.clauses = clauses
        slots = tuple(chain.from_iterable(lits for _, lits in clauses))
        self.block = max(map(abs, slots)) - width
        self.pick = itemgetter(*slots)  # the row's literals from a table, as a tuple: every row has 2 slots or more
        # its DIMACS lines, a format over ``pick``'s literals
        self.text = clause_format(len(lits) for _, lits in clauses)
        # slot 0 reads 0, so this picks the flat literals of a ``dimacs.Block``: each clause ended by a 0
        self.flat = itemgetter(*chain.from_iterable((*lits, 0) for _, lits in clauses))


@dataclass(frozen=True, eq=False)
class Target:
    """One reduction target: the class its output meets and the template
    that replaces each monotone 2-clause left by mixed elimination (one
    (rule label, slot literals) per clause; mixed elimination's is the
    pair itself).  It lays out its output as runs and renders them as
    DIMACS text and trace comments.  A target equals and hashes as itself,
    so a cache keyed by it never hashes the template."""

    profile: str
    template: Clauses

    @cached_property
    def rows(self) -> dict[str, Row]:
        """The scheme, one row per input shape and sign: the kept 3-clause
        over slots 1 to 3; the template over a positive pair in slots 1 and
        2, fresh slots from 3; gold's split of a mixed clause with two
        positive literals, in slots 1 to 3 (the third one negated), over the
        bridge slot 4, its 2-clause child replaced by the template with
        fresh slots from 5: the run of that child, as ``Runs`` lays it out in
        an input over 4 variables.  "-pair" and "-mixed" are the mirror
        images, for a negative pair and a mixed clause with two negative
        literals: every fresh slot negated (``_mirror``).  The reduction
        writes these rows, ``solve._lemma_holds`` proves each at a probe of
        its shape and sign, and ``solve._is_instance`` compares an output
        with the runs of these rows: the lemma vets what the pass accepts by
        construction."""
        wide, (_, narrow) = GOLD
        rows = {"kept": Row((("input", (1, 2, 3)),), 3), "pair": Row(self.template, 2)}
        rows["-pair"] = Row(_mirror(self.template, 2), 2)
        ((row, table),) = Runs(rows, (narrow,), 4, 0)
        mixed = (wide, *zip((label for label, _ in row.clauses), _over(row.clauses, table)))
        rows["mixed"], rows["-mixed"] = Row(mixed, 3), Row(_mirror(mixed, 3), 3)
        return rows

    @cached_property
    def growth(self) -> tuple[int, int]:
        """What each 2-clause adds, in (variables, clauses): the pair row's
        fresh block (``Row.block``, which ``Runs`` numbers by) and its clauses
        less the pair, so a template that is the pair itself adds (0, 0).
        Cached, as ``rows`` is: the certificate reads it on every verdict."""
        return self.rows["pair"].block, len(self.template) - 1

    def runs(self, formula: CnfFormula) -> tuple[int, int, Runs]:
        """Check the input, then lay out the output without building it.
        Returns its variable count and its clause count, as ``size`` states
        them, and its runs.

        Each input clause becomes one run ``(row, table)``, in input order:
        the row of its shape and sign over the lookup table of its slot
        values and its fresh variables, as ``Runs`` lays them out.

        Every target accepts 3-SAT-4 input.  One whose profile bars 2-clauses
        also accepts monotone (2,3)-SAT-4 input; one whose profile allows
        them labels every 2-clause "gold", so it takes none from the input.
        """
        flat = formula.flat
        ends = clause_ends(flat)
        clauses = list(block_rows(flat, ends))
        strict = PROFILES["3sat4"]
        # the widths decide first: a 2-clause fails the strict check, whose report is built only to be raised
        if not (set(map(len, clauses)) <= strict.widths and check_profile(formula, strict).ok):
            if 2 in PROFILES[self.profile].widths:
                raise ProfileError("eliminate_mixed requires a 3-SAT-4 instance", check_profile(formula, strict))
            if not check_profile(formula, PROFILES["mono23sat4"]).ok:
                raise ProfileError("input is neither 3-SAT-4 nor monotone (2,3)-SAT-4", check_profile(formula, strict))
        census = _census(flat, ends, clauses)
        n = formula.num_vars
        return (*self.size(n, len(clauses), census), Runs(self.rows, clauses, n, census[0]))

    def size(self, num_vars: int, num_clauses: int, census: tuple[int, int]) -> tuple[int, int]:
        """The variable and clause counts of the output on an input of these
        counts whose ``_census`` is ``census``: each mixed clause adds a
        bridge and a clause, and each 2-clause adds the target's growth."""
        (mixed, pairs), (fresh, added) = census, self.growth
        return num_vars + mixed + fresh * pairs, num_clauses + mixed + added * pairs

    def reduce(self, formula: CnfFormula) -> tuple[CnfFormula, tuple[str, ...]]:
        """Check the input, then split its mixed clauses and expand its
        2-clauses, writing the output's store from ``runs``, each run's flat
        literals (``Row.flat``) in turn.  Returns the output and its
        ``trace`` comments, with which ``DimacsDocument`` serializes to the
        bytes of ``monocnf reduce --trace``."""
        num_vars, num_clauses, runs = self.runs(formula)
        flat = tuple(chain.from_iterable(row.flat(table) for row, table in runs))
        return _stored_formula(flat, num_vars, num_clauses), tuple(self.trace(runs))

    def text(self, runs: Iterable[Run]) -> Iterator[str]:
        """The DIMACS body lines of each run: its row's literals, read from
        the run's lookup table."""
        for row, table in runs:
            yield row.text % row.pick(table)

    def trace(self, runs: Iterable[Run]) -> Iterator[str]:
        """One "trace <index> <rule> <source>" comment per output clause of
        ``runs``; a run's source is its position, its input clause's index."""
        index = count()
        for source, (row, _) in enumerate(runs):
            for label, _ in row.clauses:
                yield f"trace {next(index)} {label} {source}"


# one input clause's run, (row, table): see ``Target.runs``, whose counts ``Target.size`` states
Run = tuple[Row, list[int]]


@dataclass(frozen=True)
class Runs:
    """The runs of a target's ``rows`` on a checked input.  Each walk lays
    them out afresh, so a caller may read them twice without holding them
    all or checking the input again.  This is the one place that numbers
    fresh variables, the bridges from ``num_vars + 1`` and the expansion
    blocks from ``num_vars + mixed + 1``, so each is in one run and the
    counts are those ``Target.size`` states from the census; ``solve``
    compares an output with its runs, and ``Target.rows`` reads its mixed
    rows off a walk over the pair rows alone.

    A clause's slot values are its literals, or for a mixed clause the two
    literals of one sign, then the third one negated; the sign of the first
    slot picks the row (see ``Target.rows``).  Three products decide, with
    no sort.  Its table is one list: 0, the slot values, its bridge, its
    block, then all of those negated in reverse order.  A kept clause's row
    reads no negated or fresh slot, so its table ends at slot 3."""

    rows: Mapping[str, Row]  # ``Target.rows``: a walk over 2-clauses reads only the pair rows
    clauses: Sequence[Sequence[int]]
    num_vars: int  # the input's variable count
    mixed: int  # its mixed clauses, one bridge each

    def __iter__(self) -> Iterator[Run]:
        kept, pair, mixed, mirror_pair, mirror_mixed = map(self.rows.get, ("kept", "pair", "mixed", "-pair", "-mixed"))
        # a mixed clause's block is its 2-clause child's, as ``Target.size`` counts it
        bridge, first, block = self.num_vars + 1, self.num_vars + self.mixed + 1, pair.block
        for clause in self.clauses:
            if len(clause) == 2:
                x, y = clause
                last = first + block
                yield pair if x > 0 else mirror_pair, [
                    0, x, y, *range(first, last), *range(1 - last, 1 - first), -y, -x
                ]
                first = last
                continue
            x, y, z = clause
            if x * y > 0:
                if x * z > 0:
                    yield kept, [0, x, y, z]
                    continue
                z = -z
            elif x * z > 0:
                y, z = z, -y
            else:
                x, y, z = y, z, -x
            last = first + block
            yield mixed if x > 0 else mirror_mixed, [
                0, x, y, z, bridge, *range(first, last), *range(1 - last, 1 - first), -bridge, -z, -y, -x
            ]
            bridge += 1
            first = last


def _census(flat: Sequence[int], ends: Sequence[int], clauses: Sequence[Sequence[int]]) -> tuple[int, int]:
    """The mixed clauses among ``clauses`` (the store ``flat``, cut at
    ``ends``), of widths 2 and 3, and the 2-clauses once each mixed one has
    split off its own.  A clause is mixed exactly when its first literal's
    sign differs from its second's or its last's: when the OR of the two
    XORs is negative.  Those literals are the store's columns when ``ends``
    is a range, and then there is no 2-clause; no Python frame or ``min``
    runs per clause."""
    if type(ends) is range:
        first, second, last = flat[0::4], flat[1::4], flat[2::4]
        pairs = 0
    else:
        first = list(map(itemgetter(0), clauses))
        second, last = map(itemgetter(1), clauses), map(itemgetter(-1), clauses)
        pairs = list(map(len, clauses)).count(2)
    mixed = sum(map(gt, repeat(0), map(or_, map(xor, first, second), map(xor, first, last))))
    return mixed, mixed + pairs


def _target(profile: str, rule: Callable[..., list[Clause]], labels: tuple[str, ...]) -> Target:
    """A table entry with its rule compiled into a template, by running it
    once on the probe 2-clause (1, 2) with fresh variables from 3 on.
    ``labels`` name the produced clauses, the last one repeating."""
    return Target(profile, tuple(zip(chain(labels, repeat(labels[-1])), rule(Clause((1, 2)), FreshAllocator(3)))))


TARGETS: dict[str, Target] = {
    "mono23sat4": _target("mono23sat4", lambda pair, alloc: [pair], ("gold",)),
    "mono3sat5": _target("mono3sat5", partial(apply_r3, compact=False), ("r3",)),
    "mono3sat5-compact": _target("mono3sat5", partial(apply_r3, compact=True), ("r3",)),
    "mono3sat4": _target("mono3sat4", _widen_with_gadget, ("widen", "gadget")),
}


def eliminate_mixed(formula: CnfFormula) -> tuple[CnfFormula, tuple[str, ...]]:
    """Rewrite every mixed clause of a 3-SAT-4 instance via gold_step.

    The output has no mixed clauses, every clause of width 2 or 3, and
    is equisatisfiable with the input (monotone (2,3)-SAT-4).  Children
    replace their parent in place, wider child first.
    """
    return TARGETS["mono23sat4"].reduce(formula)


def to_monotone_3sat5(
    formula: CnfFormula, compact: bool = False
) -> tuple[CnfFormula, tuple[str, ...]]:
    """Full pipeline to monotone 3-SAT-5: eliminate mixed clauses, then
    expand every 2-clause with apply_r3 (compact switches to its compact
    variant).  Output is equisatisfiable, all clauses monotone 3-clauses,
    no variable occurring more than five times."""
    return TARGETS["mono3sat5-compact" if compact else "mono3sat5"].reduce(formula)


def to_monotone_3sat4(formula: CnfFormula) -> tuple[CnfFormula, tuple[str, ...]]:
    """Full pipeline to monotone 3-SAT-4: eliminate mixed clauses, then
    widen every 2-clause with a fresh forced variable and attach one
    fresh gadget per 2-clause.

    A negative pair gains the negation of a variable its gadget forces
    true; a positive pair gains a variable its gadget forces false.  The
    designated variable ends at four occurrences (three in the gadget,
    one in the widened clause); everything else stays within four.
    """
    return TARGETS["mono3sat4"].reduce(formula)
