"""Value-semantic CNF model: clauses over pairwise-distinct variables.

Literals follow the DIMACS convention: a positive integer ``v`` is the
positive literal of variable ``v``, and ``-v`` is its negation.  Variables
are 1-based, and a ``Clause`` is the sorted tuple of its literals.  All
values are immutable; transformations build new ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator


class FormulaError(ValueError):
    """Raised when a clause or formula violates a structural invariant."""


class Clause(tuple[int, ...]):
    """A disjunction of literals over pairwise-distinct variables, stored as
    the tuple of its literals sorted by variable: ``len(clause)`` is its
    width, and it equals and hashes like that plain tuple.  A repeated
    variable is rejected, a tautology called out separately: silently
    dropping such clauses would corrupt occurrence accounting downstream.
    """

    __slots__ = ()

    def __new__(cls, literals: Iterable[int]) -> Clause:
        canonical = tuple(sorted(literals, key=abs))
        if not canonical:
            raise FormulaError("empty clause is not allowed")
        seen: set[int] = set()
        for lit in canonical:
            if lit == 0:
                raise FormulaError("literal 0 is not allowed")
            var = abs(lit)
            if var in seen:
                if -lit in canonical:
                    raise FormulaError(f"tautological clause: variable {var} appears with both polarities")
                raise FormulaError(f"duplicate variable {var} in clause")
            seen.add(var)
        return tuple.__new__(cls, canonical)

    @property
    def lits(self) -> Clause:
        """The clause itself, kept because the benchmark workloads read it."""
        return self

    @property
    def is_positive(self) -> bool:
        return all(lit > 0 for lit in self)

    @property
    def is_negative(self) -> bool:
        return all(lit < 0 for lit in self)

    @property
    def is_monotone(self) -> bool:
        return self.is_positive or self.is_negative

    @property
    def is_mixed(self) -> bool:
        return not self.is_monotone

    def variables(self) -> frozenset[int]:
        return frozenset(map(abs, self))

    def __repr__(self) -> str:
        return f"Clause({list(self)})"


def _trusted_clause(literals: Iterable[int]) -> Clause:
    """A clause from literals canonical by construction (nonzero, strictly ascending variables), unchecked."""
    return tuple.__new__(Clause, literals)


@dataclass(frozen=True)
class CnfFormula:
    """An ordered clause list over variables 1..num_vars.

    ``num_vars`` may exceed the largest referenced index (DIMACS headers
    are allowed to declare unused variables); it may never be smaller.
    Clause order is significant and preserved by every operation that
    does not explicitly reorder.
    """

    clauses: tuple[Clause, ...]
    num_vars: int

    def __init__(self, clauses: Iterable[Clause], num_vars: int | None = None):
        clause_tuple = tuple(clauses)
        for clause in clause_tuple:
            if not isinstance(clause, Clause):  # a plain tuple was never sorted or checked
                raise TypeError(f"formula clauses must be Clause values, got {type(clause).__name__}")
        max_ref = max(map(abs, chain.from_iterable(clause_tuple)), default=0)
        if num_vars is None:
            num_vars = max_ref
        if num_vars < 0:
            raise FormulaError(f"num_vars must be non-negative, got {num_vars}")
        if max_ref > num_vars:
            raise FormulaError(f"clause references variable {max_ref} beyond declared count {num_vars}")
        object.__setattr__(self, "clauses", clause_tuple)
        object.__setattr__(self, "num_vars", num_vars)

    @classmethod
    def from_ints(cls, clauses: Iterable[Iterable[int]], num_vars: int | None = None) -> "CnfFormula":
        return cls((Clause(c) for c in clauses), num_vars)

    def variables(self) -> frozenset[int]:
        """All variables referenced by at least one clause."""
        return frozenset(map(abs, chain.from_iterable(self.clauses)))

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __repr__(self) -> str:
        return f"CnfFormula({len(self.clauses)} clauses, {self.num_vars} vars)"


def _trusted_formula(clauses: Iterable[Clause], num_vars: int) -> CnfFormula:
    """A formula whose clauses are known to reference no variable beyond
    ``num_vars``, unchecked: for outputs bounded by construction."""
    formula = object.__new__(CnfFormula)
    object.__setattr__(formula, "clauses", tuple(clauses))
    object.__setattr__(formula, "num_vars", num_vars)
    return formula


def occurrences(formula: CnfFormula) -> Counter[int]:
    """The number of clauses each variable occurs in, whatever its sign.

    Clauses cannot repeat a variable, so this is also its literal count.
    A variable no clause references reads 0.
    """
    return Counter(map(abs, chain.from_iterable(formula.clauses)))
