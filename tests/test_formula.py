"""Clause and formula construction, canonicalization, and occurrence counts."""

import dataclasses

import pytest

from monocnf import Clause, CnfFormula, FormulaError, occurrences
from monocnf.formula import _trusted_clause


def test_clause_canonical_order():
    assert Clause((3, -1, 2)) == (-1, 2, 3)
    assert Clause([-5]) == (-5,)


def test_clauses_equal_regardless_of_input_order():
    assert Clause((3, -1, 2)) == Clause((-1, 2, 3))
    assert hash(Clause((3, -1, 2))) == hash(Clause((2, 3, -1)))


def test_clause_is_its_canonical_literal_tuple():
    clause = Clause((3, -1))
    assert isinstance(clause, tuple)
    assert clause == (-1, 3) and hash(clause) == hash((-1, 3))
    assert clause.lits is clause


def test_clause_has_no_instance_dict():
    clause = Clause((1, 2))
    assert not hasattr(clause, "__dict__")
    with pytest.raises(AttributeError):
        clause.extra = 1


def test_trusted_clause_is_a_clause_tuple():
    clause = _trusted_clause((1, 2))
    assert isinstance(clause, Clause) and clause == (1, 2)


def test_empty_clause_rejected():
    with pytest.raises(FormulaError, match="empty clause"):
        Clause(())


def test_zero_literal_rejected():
    with pytest.raises(FormulaError, match="literal 0"):
        Clause((1, 0, 2))


def test_duplicate_variable_rejected():
    with pytest.raises(FormulaError, match="duplicate variable 2"):
        Clause((1, 2, 2))


def test_tautology_rejected_with_distinct_message():
    with pytest.raises(FormulaError, match="tautological"):
        Clause((1, -1, 2))


def test_width_and_polarity_properties():
    positive = Clause((1, 2, 3))
    negative = Clause((-1, -2))
    mixed = Clause((1, -2, 3))
    assert len(positive) == 3 and positive.is_positive and positive.is_monotone
    assert negative.is_negative and negative.is_monotone and not negative.is_mixed
    assert mixed.is_mixed and not mixed.is_monotone
    assert not mixed.is_positive and not mixed.is_negative


def test_clause_container_protocol():
    clause = Clause((3, -1))
    assert len(clause) == 2
    assert list(clause) == [-1, 3]
    assert -1 in clause and 1 not in clause
    assert clause.variables() == frozenset({1, 3})


def test_formula_num_vars_defaults_to_max_referenced():
    formula = CnfFormula.from_ints([[1, -2], [3, 4]])
    assert formula.num_vars == 4
    assert formula.variables() == frozenset({1, 2, 3, 4})


def test_formula_may_declare_unreferenced_variables():
    formula = CnfFormula.from_ints([[1, 2]], num_vars=10)
    assert formula.num_vars == 10
    assert formula.variables() == frozenset({1, 2})


def test_formula_rejects_undersized_declaration():
    with pytest.raises(FormulaError, match="beyond declared count"):
        CnfFormula.from_ints([[1, 5]], num_vars=3)
    with pytest.raises(FormulaError, match="must be non-negative"):
        CnfFormula((), num_vars=-1)


@pytest.mark.parametrize("item", [(2, 1), [1, 2]], ids=["tuple", "list"])
def test_formula_rejects_items_that_are_not_clauses(item):
    # a plain tuple equals a Clause but was never sorted or checked
    with pytest.raises(TypeError, match=f"got {type(item).__name__}$"):
        CnfFormula([Clause((1, 3)), item])


def test_formula_preserves_clause_order():
    formula = CnfFormula.from_ints([[2, 3], [1, 2], [1, 3]])
    assert list(formula.clauses) == [(2, 3), (1, 2), (1, 3)]
    assert len(formula) == 3
    assert list(formula) == list(formula.clauses)


def test_formula_is_immutable():
    formula = CnfFormula.from_ints([[1, 2]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        formula.num_vars = 5


def test_occurrence_table_counts_both_polarities():
    formula = CnfFormula.from_ints([[1, -2, 3], [-1, -2], [1, 3]], num_vars=4)
    counts = occurrences(formula)
    assert counts == {1: 3, 2: 2, 3: 2}
    # a purely negative variable counts as fully as a mixed one
    assert counts[2] == 2
    assert max(counts.values()) == 3


def test_occurrence_table_items_cover_declared_range():
    formula = CnfFormula.from_ints([[1, 2]], num_vars=3)
    counts = occurrences(formula)
    # every declared variable reads a count; unreferenced ones read 0
    assert [counts[v] for v in range(1, formula.num_vars + 1)] == [1, 1, 0]
    assert 3 not in counts
