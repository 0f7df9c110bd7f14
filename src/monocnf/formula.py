"""Value-semantic CNF model: clauses over pairwise-distinct variables.

Literals follow the DIMACS convention: a positive integer ``v`` is the
positive literal of variable ``v``, and ``-v`` is its negation.  Variables
are 1-based, and a ``Clause`` is the sorted tuple of its literals.  All
values are immutable; transformations build new ones.

A ``CnfFormula`` stores its clauses in one flat tuple of literals, each
clause's literals in canonical order and then a 0, as a ``dimacs.Block``
holds them: one store, as in MiniSat's clause arena (Een & Sorensson,
2003).  Parsing, the reductions and the generator write that store
directly, and every reader in the package reads it, clause by clause through
``CnfFormula.rows()``.  ``CnfFormula.clauses``, the ``Clause`` values, is a
view for callers outside the package, built from the store when first read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress, count, repeat
from operator import add, not_
from typing import Iterable, Iterator, Sequence


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
    def sign(self) -> int:
        """+1 if every literal is positive, -1 if every literal is negative,
        0 if the clause is mixed; the monotone clauses are the nonzero ones."""
        return 1 if min(self) > 0 else -1 if max(self) < 0 else 0

    def variables(self) -> frozenset[int]:
        return frozenset(map(abs, self))

    def __repr__(self) -> str:
        return f"Clause({list(self)})"


# A clause from literals canonical by construction (nonzero, strictly
# ascending variables), unchecked; a partial, so no Python frame runs per clause.
_trusted_clause = partial(tuple.__new__, Clause)


def clause_ends(flat: Sequence[int]) -> Sequence[int]:
    """The offsets of the zeros that end the clauses of the flat literals
    ``flat``: a range when every clause has width 3.  The five readers that
    branch on that range (by columns) are kept for speed alone: with them
    removed, reduce-bulk fell from 4.54 to 3.23 ops/s in 8 alternating
    perfbench pairs (seed 5, 5 s runs; 2-vCPU host, Python 3.11)."""
    if len(flat) == 4 * flat.count(0) and not any(flat[3::4]):
        return range(3, len(flat), 4)
    return list(compress(count(), map(not_, flat)))


def block_rows(flat: Sequence[int], ends: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """The clauses of the flat literals ``flat``, each the tuple of its
    literals, cut at ``ends`` (see ``clause_ends``)."""
    if type(ends) is range:
        return zip(flat[0::4], flat[1::4], flat[2::4])
    return map(flat.__getitem__, map(slice, [0, *map((1).__add__, ends)], ends))


@dataclass(frozen=True)
class CnfFormula:
    """An ordered clause list over variables 1..num_vars, stored as its flat
    literals (see the module docstring): equal stores hold equal clause
    lists, so equality and hashing follow the clauses.  Every writer knows
    how many clauses it wrote, and keeps that count beside the store, so
    ``len`` reads no literal.

    ``num_vars`` may exceed the largest referenced index (DIMACS headers
    are allowed to declare unused variables); it may never be smaller.
    Clause order is significant and preserved by every operation that
    does not explicitly reorder.
    """

    flat: tuple[int, ...]
    num_vars: int

    def __init__(self, clauses: Iterable[Clause], num_vars: int | None = None):
        clause_tuple = tuple(clauses)
        for clause in clause_tuple:
            if not isinstance(clause, Clause):  # a plain tuple was never sorted or checked
                raise TypeError(f"formula clauses must be Clause values, got {type(clause).__name__}")
        flat = _flatten(clause_tuple)
        max_ref = max(map(abs, flat), default=0)
        if num_vars is None:
            num_vars = max_ref
        if num_vars < 0:
            raise FormulaError(f"num_vars must be non-negative, got {num_vars}")
        if max_ref > num_vars:
            raise FormulaError(f"clause references variable {max_ref} beyond declared count {num_vars}")
        self.__dict__.update(flat=flat, num_vars=num_vars, _num_clauses=len(clause_tuple))

    @classmethod
    def from_ints(cls, clauses: Iterable[Iterable[int]], num_vars: int | None = None) -> "CnfFormula":
        return cls((Clause(c) for c in clauses), num_vars)

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses as ``Clause`` values, built from the store when first read."""
        return tuple(map(_trusted_clause, self.rows()))

    def rows(self) -> Iterable[tuple[int, ...]]:
        """Each clause as the plain tuple of its literals, read afresh from the store."""
        return block_rows(self.flat, clause_ends(self.flat))

    def variables(self) -> frozenset[int]:
        """All variables referenced by at least one clause."""
        return frozenset(map(abs, filter(None, self.flat)))

    def __len__(self) -> int:
        return self._num_clauses

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __repr__(self) -> str:
        return f"CnfFormula({len(self)} clauses, {self.num_vars} vars)"


def _flatten(clauses: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """The flat literals of ``clauses``, each clause ended by a 0."""
    return tuple(chain.from_iterable(map(add, clauses, repeat((0,)))))


def _stored_formula(flat: tuple[int, ...], num_vars: int, num_clauses: int) -> CnfFormula:
    """The formula whose store is ``flat``, of ``num_clauses`` clauses,
    unchecked: for a writer whose clauses are canonical, nonempty and within
    ``num_vars`` by construction."""
    formula = object.__new__(CnfFormula)
    formula.__dict__.update(flat=flat, num_vars=num_vars, _num_clauses=num_clauses)
    return formula


def occurrences(formula: CnfFormula) -> Counter[int]:
    """The number of clauses each variable occurs in, whatever its sign.

    Clauses cannot repeat a variable, so this is also its literal count.
    A variable no clause references reads 0.
    """
    return Counter(map(abs, filter(None, formula.flat)))
