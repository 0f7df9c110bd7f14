"""Syntactic formula profiles and membership checking.

A profile fixes three rules: which clause widths are allowed, whether
every clause must be monotone, and the per-variable occurrence cap.
The occurrence cap counts total appearances (positive plus negative);
clauses cannot repeat a variable, so this equals the number of clauses
containing the variable.  Declared-but-unreferenced variables never
violate a profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count
from operator import itemgetter, mul

from .formula import Clause, CnfFormula, occurrences


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
    by variable index.

    Each clause rule is first decided for the whole formula by passes
    that run no Python code per clause: the set of clause widths, then,
    in a monotone profile, ``_has_mixed``.  The per-clause loop that
    reports clause violations runs only when one of them fails.
    Occurrences are counted into a list indexed by variable, sized by the
    largest referenced one and never by ``num_vars``; where that list
    would outnumber the formula's literals, ``occurrences`` counts them.
    """
    clauses = formula.clauses
    widths = set(map(len, clauses))
    violations: list[Violation] = []
    if not widths <= profile.widths or profile.monotone and _has_mixed(clauses, widths):
        for index, clause in enumerate(clauses):
            if len(clause) not in profile.widths:
                violations.append(
                    Violation("width", index, f"width {len(clause)}, profile allows {profile.width_rule()}")
                )
            if profile.monotone and not clause.sign:
                violations.append(Violation("monotonicity", index, "mixed clause in a monotone profile"))
    cap = profile.occurrence_cap
    # a clause is sorted by variable, so its last literal holds its largest
    top = max(map(abs, map(itemgetter(-1), clauses)), default=0)
    if top > sum(map(len, clauses)):
        counts = occurrences(formula)
        over = sorted(compress(counts, map(cap.__lt__, counts.values())))
    else:
        counts = [0] * (top + 1)
        for var in map(abs, chain.from_iterable(clauses)):
            counts[var] += 1
        over = compress(count(), map(cap.__lt__, counts))
    for var in over:
        violations.append(Violation("occurrence", var, f"{counts[var]} occurrences, cap is {cap}"))
    return ViolationReport(violations)


def _has_mixed(clauses: tuple[Clause, ...], widths: set[int]) -> bool:
    """Whether some clause holds literals of both signs.  Literals are
    nonzero, so a clause is mixed exactly when a product of two of its
    literals is negative: with widths 2 and 3 only, its first literal's
    product with its second or with its last; otherwise its least
    literal's product with its greatest.  The first test needs no
    ``min`` or ``max`` call per clause and takes about half the time."""
    if widths <= {2, 3}:
        first = itemgetter(0)
        return any(
            min(map(mul, map(first, clauses), map(other, clauses)), default=1) < 0
            for other in (itemgetter(1), itemgetter(-1))
        )
    return min(map(mul, map(min, clauses), map(max, clauses)), default=1) < 0
