"""Satisfiability engines: evaluation, exhaustive enumeration, DPLL."""

import random

import pytest

from monocnf import (
    Clause,
    CnfFormula,
    GenConfig,
    SplitMix64,
    VariableLimitError,
    check_equisat,
    eliminate_mixed,
    evaluate,
    generate,
    solve_dpll,
    solve_exhaustive,
    to_monotone_3sat4,
    to_monotone_3sat5,
    verify_forcing,
)

from naive import naive_model_census, naive_satisfiable, reference_dpll

# At least two of three true and at least two of three false: no unit, no
# pure literal, and unsatisfiable.
TRIANGLE = [[1, 2], [1, 3], [2, 3], [-1, -2], [-1, -3], [-2, -3]]


def test_evaluate_requires_total_assignment():
    formula = CnfFormula.from_ints([[1, 2]])
    with pytest.raises(ValueError, match="missing variables"):
        evaluate(formula, {1: True})


def test_evaluate_basic():
    formula = CnfFormula.from_ints([[1, -2], [2]])
    assert evaluate(formula, {1: True, 2: True})
    assert not evaluate(formula, {1: False, 2: True})
    assert not evaluate(formula, {1: True, 2: False})


def test_exhaustive_sat_and_unsat():
    sat = solve_exhaustive(CnfFormula.from_ints([[1, 2], [-1, 2]]))
    assert sat.satisfiable and sat.witness == {1: False, 2: True}
    assert sat.explored == 4

    unsat = solve_exhaustive(CnfFormula.from_ints([[1], [-1]]))
    assert not unsat.satisfiable and unsat.witness is None


def test_exhaustive_witness_is_first_in_counter_order():
    # assignment 0 is all-false; counter bit i-1 drives variable i
    verdict = solve_exhaustive(CnfFormula.from_ints([[1, 2]]))
    assert verdict.witness == {1: True, 2: False}
    verdict = solve_exhaustive(CnfFormula.from_ints([[-1, -2]]))
    assert verdict.witness == {1: False, 2: False}


def test_exhaustive_covers_unreferenced_declared_variables():
    verdict = solve_exhaustive(CnfFormula.from_ints([[2]], num_vars=3))
    assert verdict.witness == {1: False, 2: True, 3: False}
    assert verdict.explored == 8


def test_exhaustive_respects_variable_limit():
    formula = CnfFormula((), num_vars=25)
    with pytest.raises(VariableLimitError):
        solve_exhaustive(formula)
    assert solve_exhaustive(CnfFormula((), num_vars=24)).satisfiable
    wide = [Clause((v, v + 1)) for v in range(1, 25)]
    with pytest.raises(VariableLimitError):
        verify_forcing(wide, 1)


def test_dpll_agrees_on_simple_cases():
    assert solve_dpll(CnfFormula.from_ints([[1, 2], [-1, 2]])).satisfiable
    verdict = solve_dpll(CnfFormula.from_ints([[1], [-1]]))
    assert not verdict.satisfiable and verdict.witness is None


def test_dpll_detects_all_two_clause_combinations_unsat():
    # all four sign patterns over two variables leave no assignment
    formula = CnfFormula.from_ints([[1, 2], [-1, 2], [1, -2], [-1, -2]])
    assert not solve_dpll(formula).satisfiable
    assert not solve_exhaustive(formula).satisfiable


def test_dpll_witness_satisfies_formula():
    formula = CnfFormula.from_ints([[1, -2, 3], [-1, 2], [-3, 2]])
    verdict = solve_dpll(formula)
    assert verdict.satisfiable and verdict.witness is not None
    assert evaluate(formula, verdict.witness)
    assert set(verdict.witness) == {1, 2, 3}


def test_dpll_unit_clauses_constrain_search():
    verdict = solve_dpll(CnfFormula.from_ints([[1, 2], [-1]]))
    assert verdict.satisfiable and verdict.witness is not None
    assert verdict.witness[1] is False and verdict.witness[2] is True


def test_dpll_empty_formula_is_satisfiable():
    verdict = solve_dpll(CnfFormula((), num_vars=2))
    assert verdict.satisfiable
    assert verdict.witness == {1: False, 2: False}


def test_dpll_unit_clause_comes_before_pure_literal():
    # 1 is pure, but the unit 2 goes first and satisfies (1 2), so 1 stays unset
    verdict = solve_dpll(CnfFormula.from_ints([[1, 2], [2]]))
    assert verdict.witness == {1: False, 2: True} and verdict.explored == 0


def test_dpll_sets_the_pure_literal_of_the_lowest_variable():
    # -1, 2 and 3 are all pure; -1 goes first, then 2 satisfies (2 3) and 3 stays unset
    verdict = solve_dpll(CnfFormula.from_ints([[-1, 2], [2, 3]]))
    assert verdict.witness == {1: False, 2: True, 3: False} and verdict.explored == 0


def test_dpll_counts_a_branch_that_ends_in_conflict():
    # either value of 1 forces two units that empty a clause
    verdict = solve_dpll(CnfFormula.from_ints(TRIANGLE))
    assert not verdict.satisfiable and verdict.explored == 2


def _random_3cnf(rng: SplitMix64, num_vars: int) -> CnfFormula:
    # about 4.26 clauses per variable, near the 3-SAT threshold
    clauses = []
    for _ in range(round(4.26 * num_vars)):
        variables: set[int] = set()
        while len(variables) < 3:
            variables.add(1 + rng.below(num_vars))
        clauses.append(Clause(v if rng.coin() else -v for v in sorted(variables)))
    return CnfFormula(clauses, num_vars=num_vars)


def _differential_corpus(sizes, seeds, random_count: int, random_vars: range):
    """Generated instances at m=n and 4n/3 with their three pipeline
    outputs, seeded random 3-CNF, and two planted-UNSAT instances: the
    triangle on fresh variables beside a mixed-free formula."""
    for n in sizes:
        for m in (n, 4 * n // 3):
            for seed in seeds:
                formula = generate(GenConfig(n, m, seed))
                yield formula
                for pipeline in (eliminate_mixed, to_monotone_3sat5, to_monotone_3sat4):
                    yield pipeline(formula)[0]
    rng = SplitMix64(426)
    for _ in range(random_count):
        yield _random_3cnf(rng, random_vars[rng.below(len(random_vars))])
    for n in (10, 16):
        base, _ = eliminate_mixed(generate(GenConfig(n, 4 * n // 3, 7)))
        k = base.num_vars
        core = [Clause(lit + k if lit > 0 else lit - k for lit in pair) for pair in TRIANGLE]
        yield CnfFormula([*base.clauses, *core], num_vars=k + 3)


def test_dpll_matches_frozen_reference_search():
    searched = 0
    for formula in _differential_corpus(range(8, 13), range(2), 60, range(10, 21)):
        model, decisions = reference_dpll(formula.clauses)
        verdict = solve_dpll(formula)
        witness = None if model is None else {v: model.get(v, False) for v in range(1, formula.num_vars + 1)}
        assert (verdict.satisfiable, verdict.witness, verdict.explored) == (model is not None, witness, decisions)
        searched += decisions > 0
    assert searched >= 50


def _random_formula(rng: random.Random, num_vars: int, num_clauses: int) -> CnfFormula:
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(3, num_vars))
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append(Clause(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(clauses, num_vars=num_vars)


def test_engines_agree_with_naive_oracle_on_random_formulas():
    rng = random.Random(20240817)
    for trial in range(150):
        num_vars = rng.randint(1, 7)
        formula = _random_formula(rng, num_vars, rng.randint(1, 12))
        expected = naive_satisfiable(list(formula.clauses), num_vars)
        assert solve_exhaustive(formula).satisfiable == expected, formula
        assert solve_dpll(formula).satisfiable == expected, formula


def test_verify_forcing_small_example():
    clauses = [Clause((1, 2)), Clause((-1, 2))]
    report = verify_forcing(clauses, 2)
    assert report.satisfiable
    assert report.forced_true == frozenset({2})
    assert report.forced_false == frozenset()
    assert report.model_count == 2


def test_verify_forcing_unsat_reports_empty_sets():
    clauses = [Clause((1,)), Clause((-1,))]
    report = verify_forcing(clauses, 1)
    assert not report.satisfiable
    assert report.model_count == 0
    assert report.forced_true == report.forced_false == frozenset()


def test_verify_forcing_requires_designated_to_occur():
    with pytest.raises(ValueError, match="does not occur"):
        verify_forcing([Clause((1, 2))], 5)


def test_verify_forcing_handles_non_contiguous_variables():
    clauses = [Clause((10, 20)), Clause((-10, 20))]
    report = verify_forcing(clauses, 20)
    assert report.forced_true == frozenset({20})
    assert report.model_count == 2


def test_verify_forcing_matches_naive_census_on_random_collections():
    rng = random.Random(77)
    for _ in range(60):
        num_vars = rng.randint(2, 6)
        formula = _random_formula(rng, num_vars, rng.randint(2, 8))
        # ensure variable 1 occurs so it can be the designated one
        clauses = list(formula.clauses)
        if 1 not in {v for c in clauses for v in c.variables()}:
            clauses.append(Clause((1, 2)))
        referenced = sorted({v for c in clauses for v in c.variables()})
        remap = {v: i + 1 for i, v in enumerate(referenced)}
        small = [
            tuple((1 if lit > 0 else -1) * remap[abs(lit)] for lit in c) for c in clauses
        ]
        count, always_true, always_false = naive_model_census(small, len(referenced))
        report = verify_forcing(clauses, 1)
        assert report.model_count == count
        # the census reports remapped indices
        assert {remap[v] for v in report.forced_true} == always_true
        assert {remap[v] for v in report.forced_false} == always_false


def test_check_equisat():
    sat_a = CnfFormula.from_ints([[1, 2]])
    sat_b = CnfFormula.from_ints([[3]])
    unsat = CnfFormula.from_ints([[1], [-1]])
    assert check_equisat(sat_a, sat_b)
    assert check_equisat(unsat, CnfFormula.from_ints([[2], [-2]]))
    assert not check_equisat(sat_a, unsat)
