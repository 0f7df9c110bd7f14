"""The 25-clause forcing gadget: structure, forcing behavior, witnesses."""

import pytest

from monocnf import (
    FORCE_FALSE_GADGET,
    FORCE_TRUE_GADGET,
    GADGET_DESIGNATED,
    Clause,
    CnfFormula,
    FreshAllocator,
    evaluate,
    instantiate_gadget,
    occurrences,
    verify_forcing,
)
from monocnf.reduce import _vet_gadget

from naive import naive_model_census

# model count over the gadget's 2^21 assignments, frozen from a verified
# run of the exhaustive engine (both polarities agree by symmetry)
GADGET_MODEL_COUNT = 45927

# template variables set true in the known satisfying assignment
KNOWN_WITNESS_TRUE = {3, 5, 10, 12, 15, 16, 20}


def test_template_shape():
    assert len(FORCE_TRUE_GADGET.clauses) == 25
    assert FORCE_TRUE_GADGET.num_vars == 21
    assert GADGET_DESIGNATED == 3


def test_force_false_is_literal_wise_negation():
    flipped = tuple(
        tuple(-lit for lit in pattern) for pattern in FORCE_TRUE_GADGET.clauses
    )
    assert FORCE_FALSE_GADGET.clauses == flipped


def test_template_validation_rejects_bad_shapes():
    with pytest.raises(ValueError, match="monotone 3-clauses"):
        _vet_gadget(CnfFormula.from_ints([(1, -2, 3)] * 25))
    # the first clause dropped, the designated variable 3 occurs twice
    with pytest.raises(ValueError, match="exactly 3 times"):
        _vet_gadget(CnfFormula.from_ints(FORCE_TRUE_GADGET.clauses[1:]))
    # variable 1 in five clauses; the designated variable 3 in exactly three
    heavy = ((1, 2, 3), (1, 4, 3), (1, 5, 3), (1, 6, 7), (1, 8, 9))
    with pytest.raises(ValueError, match="variable 1: 5 occurrences, cap is 4"):
        _vet_gadget(CnfFormula.from_ints(heavy))


# both templates, each with the sign its pattern gives the template ids
TEMPLATES = ((FORCE_TRUE_GADGET, 1), (FORCE_FALSE_GADGET, -1))


def test_instantiation_maps_template_ids_to_allocation_order():
    for template, sign in TEMPLATES:
        clauses, designated = instantiate_gadget(template, FreshAllocator(100))
        assert designated == 102  # third allocated index, template id 3
        # template literal t maps to the fresh index 100 + |t| - 1, sign kept
        for clause, pattern in zip(clauses, template.clauses):
            assert clause == Clause(tuple((1 if lit > 0 else -1) * (abs(lit) + 99) for lit in pattern))
        referenced = set()
        for clause in clauses:
            referenced.update(clause.variables())
        assert referenced == set(range(100, 121))
        assert len(clauses) == 25
        # the designated variable appears, with the template's sign, in the
        # 1st, 2nd, and 14th clauses
        for index in (0, 1, 13):
            assert sign * designated in clauses[index]
        for index in set(range(25)) - {0, 1, 13}:
            assert designated not in clauses[index]
            assert -designated not in clauses[index]


def test_occurrence_profile():
    for template, _ in TEMPLATES:
        clauses, designated = instantiate_gadget(template, FreshAllocator(1))
        counts = occurrences(CnfFormula(clauses, num_vars=21))
        assert counts[designated] == 3
        assert max(counts.values()) == 4
        assert counts[21] == 2  # the last-introduced variable
        assert sum(counts[v] for v in range(1, 22)) == 75


def test_force_true_gadget_forces_exactly_its_designated_variable():
    clauses, designated = instantiate_gadget(FORCE_TRUE_GADGET, FreshAllocator(1))
    report = verify_forcing(clauses, designated)
    assert report.satisfiable
    assert report.forced_true == frozenset({designated})
    assert report.forced_false == frozenset()
    assert report.model_count == GADGET_MODEL_COUNT


def test_force_false_gadget_mirrors_force_true():
    clauses, designated = instantiate_gadget(FORCE_FALSE_GADGET, FreshAllocator(1))
    report = verify_forcing(clauses, designated)
    assert report.satisfiable
    assert report.forced_false == frozenset({designated})
    assert report.forced_true == frozenset()
    assert report.model_count == GADGET_MODEL_COUNT


def test_known_witness_satisfies_force_true_gadget():
    clauses, _ = instantiate_gadget(FORCE_TRUE_GADGET, FreshAllocator(1))
    witness = {v: v in KNOWN_WITNESS_TRUE for v in range(1, 22)}
    assert evaluate(CnfFormula(clauses, num_vars=21), witness)


def test_known_witness_negation_satisfies_force_false_gadget():
    clauses, _ = instantiate_gadget(FORCE_FALSE_GADGET, FreshAllocator(1))
    witness = {v: v not in KNOWN_WITNESS_TRUE for v in range(1, 22)}
    assert evaluate(CnfFormula(clauses, num_vars=21), witness)


def test_forcing_matches_naive_census_on_scaled_down_core():
    # cross-check the engine's forcing logic against the loop oracle on
    # the first clauses of the gadget, small enough to enumerate naively
    clauses, _ = instantiate_gadget(FORCE_TRUE_GADGET, FreshAllocator(1))
    prefix = clauses[:6]
    referenced = sorted({v for c in prefix for v in c.variables()})
    remap = {v: i + 1 for i, v in enumerate(referenced)}
    small = [tuple((1 if lit > 0 else -1) * remap[abs(lit)] for lit in c) for c in prefix]
    count, always_true, always_false = naive_model_census(small, len(referenced))
    report = verify_forcing([Clause(c) for c in small], remap[3])
    assert report.model_count == count
    assert set(report.forced_true) == always_true
    assert set(report.forced_false) == always_false
