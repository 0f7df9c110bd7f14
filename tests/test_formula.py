"""Clause and formula construction, canonicalization, and occurrence counts."""

import dataclasses
from collections import Counter

import pytest

from monocnf import (
    PROFILES,
    TARGETS,
    Clause,
    CnfFormula,
    DimacsDocument,
    FormulaError,
    GenConfig,
    check_profile,
    generate,
    occurrences,
    parse,
    serialize,
)
from monocnf.formula import _trusted_clause
from naive import reference_serialize


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
    assert len(Clause((1, 2, 3))) == 3
    for clause, sign in [
        ((5,), 1),
        ((-5,), -1),
        ((1, 2), 1),
        ((-1, -2), -1),
        ((-1, 2), 0),
        ((1, 2, 3), 1),
        ((-3, -1, -2), -1),
        ((1, -2, 3), 0),
        ((-1, 2, -3), 0),
    ]:
        assert Clause(clause).sign == sign
    for kind in ("positive", "negative", "monotone", "mixed"):  # the old predicates are gone
        assert not hasattr(Clause, "is_" + kind)


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


def _by_every_writer(target: str) -> list[list[CnfFormula]]:
    """Lists of equal formulas, each as every writer of the store builds it:
    one instance's ``target`` output (widths 2 and 3 for mono23sat4, a width-3
    store for the others) by ``Target.reduce``, and for mono3sat4 also the
    instance by ``generate``; then each by the constructor, ``from_ints`` and
    ``parse`` of its text."""
    source = generate(GenConfig(12, 16, 5))
    written = [TARGETS[target].reduce(source)[0]] + ([source] if target == "mono3sat4" else [])
    built = []
    for formula in written:
        ints = [list(clause) for clause in formula.clauses]
        built.append([
            formula,
            CnfFormula(map(Clause, ints), formula.num_vars),
            CnfFormula.from_ints(ints, formula.num_vars),
            parse(serialize(DimacsDocument(formula))).formula,
        ])
    return built


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_every_writer_builds_equal_formulas_that_hash_equal(target):
    for formulas in _by_every_writer(target):
        first = formulas[0]
        for formula in formulas:
            assert formula == first and hash(formula) == hash(first)
            assert formula.flat == first.flat and len(formula) == len(first)
            # the count a writer keeps is the count of clauses it stored
            assert len(formula) == formula.flat.count(0)
        # equality follows the clause list: the same literals cut elsewhere, a
        # reordered list or another declared count make another formula
        assert first != CnfFormula.from_ints([[1], [2, 3]]) != CnfFormula.from_ints([[1, 2], [3]])
        assert first != CnfFormula(first.clauses[::-1], first.num_vars)
        assert first != CnfFormula(first.clauses, first.num_vars + 1)


@pytest.mark.parametrize("target", ["mono23sat4", "mono3sat4"])
def test_serialize_is_byte_identical_from_every_writer(target):
    for formulas in _by_every_writer(target):
        texts = {serialize(DimacsDocument(formula, ("note",))) for formula in formulas}
        assert texts == {reference_serialize(DimacsDocument(formulas[0], ("note",)))}


@pytest.mark.parametrize("target", ["mono23sat4", "mono3sat4"])
def test_counts_read_the_store_and_build_no_view(target):
    for formulas in _by_every_writer(target):
        for formula in formulas:
            formula.__dict__.pop("clauses", None)  # the writers' own reads of the view are undone
            counts = (len(formula), formula.variables(), occurrences(formula))
            check_profile(formula, PROFILES["mono23sat4"])
            serialize(DimacsDocument(formula))
            assert "clauses" not in vars(formula)
            clauses = formula.clauses  # built now, from the store
            assert "clauses" in vars(formula) and all(type(clause) is Clause for clause in clauses)
            assert counts == (
                len(clauses),
                frozenset(abs(lit) for clause in clauses for lit in clause),
                Counter(abs(lit) for clause in clauses for lit in clause),
            )
