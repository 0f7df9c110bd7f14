"""Syntactic formula profiles and membership checking.

A profile fixes three rules: which clause widths are allowed, whether
every clause must be monotone, and the per-variable occurrence cap.
The occurrence cap counts total appearances (positive plus negative);
clauses cannot repeat a variable, so this equals the number of clauses
containing the variable.  Declared-but-unreferenced variables never
violate a profile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import mul
from typing import Iterable, Iterator, Sequence

from .dimacs import Block, _block
from .formula import CnfFormula, block_rows

_CHUNK = 1 << 14  # literals per block of a formula, cut at the next clause end


@dataclass(frozen=True)
class Profile:
    widths: frozenset[int]
    monotone: bool
    occurrence_cap: int

    def width_rule(self) -> str:
        return "-or-".join(str(w) for w in sorted(self.widths))


PROFILES: dict[str, Profile] = {
    "3sat4": Profile(frozenset({3}), monotone=False, occurrence_cap=4),
    "mono23sat4": Profile(frozenset({2, 3}), monotone=True, occurrence_cap=4),
    "mono3sat5": Profile(frozenset({3}), monotone=True, occurrence_cap=5),
    "mono3sat4": Profile(frozenset({3}), monotone=True, occurrence_cap=4),
}


@dataclass(frozen=True)
class Violation:
    kind: str  # "width" | "monotonicity" | "occurrence"
    where: int  # clause index for clause violations, variable index otherwise
    detail: str

    def __str__(self) -> str:
        location = "variable" if self.kind == "occurrence" else "clause"
        return f"{self.kind} violation at {location} {self.where}: {self.detail}"


class ViolationReport(tuple[Violation, ...]):
    """The violations of one profile check, in report order."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self


def check_profile(formula: CnfFormula, profile: Profile) -> ViolationReport:
    """Report every width, monotonicity, and occurrence-cap violation.

    The report is empty exactly when the formula satisfies the profile.
    Ordering is deterministic: clause violations by clause index (width
    before monotonicity at the same clause), then occurrence violations
    by variable index.  The formula's store goes to ``check_blocks`` in
    slices of about ``_CHUNK`` literals, each cut at a clause end, so
    ``monocnf validate`` runs the same passes.
    """
    return check_blocks(map(_block, _slices(formula.flat)), profile, len(formula.flat))


def _slices(flat: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """``flat`` in slices of about ``_CHUNK`` literals, each ending with the
    0 that ends a clause."""
    start = 0
    while start < len(flat):
        stop = flat.index(0, min(start + _CHUNK, len(flat)) - 1) + 1
        yield flat[start:stop]
        start = stop


def check_blocks(blocks: Iterable[Block], profile: Profile, limit: int) -> ViolationReport:
    """``check_profile`` of the clauses of ``blocks``, in order, holding one
    block at a time.

    Each clause rule is first decided for the whole block by passes that
    run no Python code per clause: its set of widths (just 3 when its
    zeros fall on every fourth literal) and, in a monotone profile,
    ``_has_mixed``.  The per-clause loop that reports clause violations
    runs only on a block that fails one of them, and numbers its clauses
    on from the clauses of the blocks before.  Occurrences are added to
    one count indexed by variable, which grows to the largest variable
    seen but never past ``limit``; past it a ``Counter`` holds them.  The
    list is scanned per variable only when its largest count is over the
    cap.
    """
    violations: list[Violation] = []
    counts: list[int] | Counter[int] = [0]
    offset = 0
    for flat, mags, ends, top in blocks:
        widths = {3} if type(ends) is range else set(map(len, block_rows(flat, ends)))
        if not widths <= profile.widths or profile.monotone and _has_mixed(flat, ends):
            for index, clause in enumerate(block_rows(flat, ends), offset):
                if len(clause) not in profile.widths:
                    violations.append(
                        Violation("width", index, f"width {len(clause)}, profile allows {profile.width_rule()}")
                    )
                if profile.monotone and min(clause) < 0 < max(clause):
                    violations.append(Violation("monotonicity", index, "mixed clause in a monotone profile"))
        offset += len(ends)
        if top >= len(counts) and type(counts) is list:
            if top > limit:
                counts = Counter(dict(compress(enumerate(counts), counts)))
            else:
                counts += repeat(0, top + 1 - len(counts))
        for var in mags if type(ends) is range else compress(mags, mags):  # no clause end: see ``Block``
            counts[var] += 1
    cap = profile.occurrence_cap
    if type(counts) is list:
        over: Iterable[int] = compress(count(), map(cap.__lt__, counts)) if max(counts) > cap else ()
    else:
        over = sorted(compress(counts, map(cap.__lt__, counts.values())))
    for var in over:
        violations.append(Violation("occurrence", var, f"{counts[var]} occurrences, cap is {cap}"))
    return ViolationReport(violations)


def _has_mixed(flat: Sequence[int], ends: Sequence[int]) -> bool:
    """Whether a block holds a clause with literals of both signs.  Literals
    are nonzero, so a clause is mixed exactly when a product of two of its
    literals is negative: when every width is 3, its first literal's
    product with its second or its third; otherwise a product of
    neighbours, which is 0 across a clause end.  The first test reads a
    quarter of the literals per product and takes about half the time.  An
    empty block holds no product, and no mixed clause."""
    if type(ends) is range:
        first = flat[0::4]
        return (
            min(map(mul, first, flat[1::4]), default=0) < 0 or min(map(mul, first, flat[2::4]), default=0) < 0
        )
    return min(map(mul, flat, flat[1:]), default=0) < 0
