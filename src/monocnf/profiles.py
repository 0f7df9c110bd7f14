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

from .formula import CnfFormula, occurrences


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
    """
    violations: list[Violation] = []
    for index, clause in enumerate(formula.clauses):
        if len(clause) not in profile.widths:
            violations.append(
                Violation("width", index, f"width {len(clause)}, profile allows {profile.width_rule()}")
            )
        if profile.monotone and not clause.sign:
            violations.append(Violation("monotonicity", index, "mixed clause in a monotone profile"))
    cap = profile.occurrence_cap
    over = sorted((var, total) for var, total in occurrences(formula).items() if total > cap)
    for var, total in over:
        violations.append(Violation("occurrence", var, f"{total} occurrences, cap is {cap}"))
    return ViolationReport(violations)
