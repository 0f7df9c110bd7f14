"""Satisfiability engines: evaluation, exhaustive enumeration, DPLL."""

import hashlib
import random
import tracemalloc
from dataclasses import replace
from itertools import accumulate
from operator import itemgetter

import pytest

from monocnf import (
    TARGETS,
    Clause,
    CnfFormula,
    DimacsDocument,
    ForcingReport,
    GenConfig,
    PROFILES,
    VariableLimitError,
    check_equisat,
    dimacs,
    eliminate_mixed,
    evaluate,
    generate,
    parse,
    reduce,
    serialize,
    solve,
    solve_dpll,
    solve_exhaustive,
    to_monotone_3sat4,
    to_monotone_3sat5,
    verify_forcing,
)
from monocnf.cli import run
from monocnf.dimacs import Body
from monocnf.reduce import Runs, _over
from monocnf.solve import check_equisat_body

from conftest import BLOCK_CHARS
from naive import SplitMix64, naive_model_census, naive_satisfiable, reference_dpll, reference_truth_table

# At least two of three true and at least two of three false: no unit, no
# pure literal, and unsatisfiable.
TRIANGLE = [[1, 2], [1, 3], [2, 3], [-1, -2], [-1, -3], [-2, -3]]


def test_evaluate_requires_total_assignment():
    formula = CnfFormula.from_ints([[1, 2]])
    with pytest.raises(ValueError, match="missing variables"):
        evaluate(formula, {1: True})


def test_evaluate_missing_variables_error_is_one_short_line():
    formula = CnfFormula.from_ints([[v] for v in range(1, 10001)])
    with pytest.raises(ValueError) as excinfo:
        evaluate(formula, {2: True})
    assert str(excinfo.value) == "partial assignment: missing variables: 1 (and 9998 more)"


def test_evaluate_checks_a_covering_assignment_without_building_the_variable_set(monkeypatch):
    formula = CnfFormula.from_ints([[1, -2], [2, 3]], 5)
    partial = {1: True, 2: True}

    def refuse(self):
        raise AssertionError("CnfFormula.variables was called")

    monkeypatch.setattr(CnfFormula, "variables", refuse)
    assert evaluate(formula, {**partial, 3: False})  # variables 4 and 5 are declared, not referenced
    assert "clauses" not in vars(formula)
    monkeypatch.undo()
    with pytest.raises(ValueError) as excinfo:
        evaluate(formula, partial)
    assert str(excinfo.value) == "partial assignment: missing variables: 3"


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


def test_dpll_memory_grows_with_clauses_not_declared_variables():
    # literals no clause holds share one empty occurrence list; one list
    # apiece peaks near 50 MiB here
    formula = CnfFormula.from_ints([[1, 2, 3]], num_vars=200_000)
    tracemalloc.start()
    try:
        verdict = solve_dpll(formula)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.satisfiable and verdict.witness is not None
    assert peak < 40 * 2**20


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
        yield _planted_unsat(n, 7)


def _planted_unsat(n: int, seed: int) -> CnfFormula:
    # the eliminate_mixed output of a generated instance, beside the triangle on fresh variables
    base, _ = eliminate_mixed(generate(GenConfig(n, 4 * n // 3, seed)))
    k = base.num_vars
    core = [Clause(lit + k if lit > 0 else lit - k for lit in pair) for pair in TRIANGLE]
    return CnfFormula([*base.clauses, *core], num_vars=k + 3)


def test_dpll_matches_frozen_reference_search():
    searched = 0
    for formula in _differential_corpus(range(8, 13), range(2), 60, range(10, 21)):
        model, decisions = reference_dpll(formula.clauses)
        verdict = solve_dpll(formula)
        witness = None if model is None else {v: model.get(v, False) for v in range(1, formula.num_vars + 1)}
        assert (verdict.satisfiable, verdict.witness, verdict.explored) == (model is not None, witness, decisions)
        searched += decisions > 0
    assert searched >= 50


def test_dpll_declared_variables_no_clause_holds_change_only_the_witness_length():
    for formula in _differential_corpus(range(8, 10), range(2), 20, range(10, 16)):
        padded = CnfFormula(formula.clauses, formula.num_vars + 7)
        verdict, wider = solve_dpll(formula), solve_dpll(padded)
        assert (wider.satisfiable, wider.explored) == (verdict.satisfiable, verdict.explored)
        if verdict.witness is not None:
            unused = dict.fromkeys(range(formula.num_vars + 1, padded.num_vars + 1), False)
            assert wider.witness == verdict.witness | unused
            assert list(wider.witness) == list(range(1, padded.num_vars + 1))


def test_dpll_witness_on_reduced_n300_is_pinned(tmp_path, capsys):
    # 8,200 clauses, decided with no branch: the witness is propagation's alone
    source, reduced = str(tmp_path / "g.cnf"), str(tmp_path / "r.cnf")
    assert run(["gen", "--vars", "300", "--clauses", "400", "--seed", "7", source]) == 0
    assert run(["reduce", "--target", "mono3sat4", source, reduced]) == 0
    assert len(parse((tmp_path / "r.cnf").read_text()).formula) == 8200
    capsys.readouterr()
    assert run(["solve", reduced]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "e7877f26bb2c8e4176a989a87ef6b25d0122d3594d971c44f6b8d3bdff3e47b7"
    )


def test_dpll_backtracks_through_a_planted_unsat_reduction():
    # the search undoes its trail at each of 2,350 branches before refuting
    formula = to_monotone_3sat4(_planted_unsat(13, 3))[0]
    verdict = solve_dpll(formula)
    assert (verdict.satisfiable, verdict.witness, verdict.explored) == (False, None, 2350)


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


@pytest.mark.parametrize("slice_vars", [1, 3])
def test_random_oracle_checks_hold_in_narrow_slices(slice_vars, monkeypatch):
    # narrow slices carry the 7-variable corpora across many slice boundaries
    monkeypatch.setattr(solve, "_SLICE_VARS", slice_vars)
    test_engines_agree_with_naive_oracle_on_random_formulas()
    test_verify_forcing_matches_naive_census_on_random_collections()


def _chain(num_vars: int) -> CnfFormula:
    """Adjacent variables differ, and the units set both ends true: UNSAT at an even count."""
    pairs = [[v, v + 1] for v in range(1, num_vars)] + [[-v, -v - 1] for v in range(1, num_vars)]
    return CnfFormula.from_ints([*pairs, [1], [num_vars]], num_vars=num_vars)


def _wide_corpus():
    """Seeded 3-CNF over 17-24 variables near the threshold, so past the
    sweep's first slice; the chain; and a formula whose units set the high
    variables true, so its first model lies in the last slice."""
    rng = random.Random(35)
    for num_vars in (17, 18, 19, 20, 21, 22, 23, 24, 24, 24):
        clauses = []
        for _ in range(rng.randint(3 * num_vars, 5 * num_vars)):
            clauses.append([v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)])
        yield CnfFormula.from_ints(clauses, num_vars=num_vars)
    yield _chain(24)
    yield CnfFormula.from_ints([[v] for v in range(17, 25)] + [[1, -2], [2, 3], [-3, -16]], num_vars=24)


def test_exhaustive_matches_the_whole_table_past_the_first_slice():
    firsts = []
    for formula in _wide_corpus():
        variables = range(1, formula.num_vars + 1)
        mask = reference_truth_table(formula.rows(), variables)[0]
        first = (mask & -mask).bit_length() - 1
        witness = {v: bool(first >> (v - 1) & 1) for v in variables} if mask else None
        verdict = solve_exhaustive(formula)
        assert (verdict.satisfiable, verdict.witness, verdict.explored) == (mask != 0, witness, 1 << len(variables))
        firsts.append(first)
    # UNSAT, a model in the first slice, in a later one, and in the last of 2^8
    assert min(firsts) == -1 and 0 <= min(f for f in firsts if f >= 0) < 1 << 16
    assert any(1 << 16 <= f < 255 << 16 for f in firsts) and firsts[-1] >> 16 == 255


def test_verify_forcing_matches_the_whole_table_past_the_first_slice():
    forced = 0
    for formula in _wide_corpus():
        variables = sorted(formula.variables())
        mask, columns, full = reference_truth_table(formula.rows(), variables)
        live = columns.items() if mask else ()
        expected = ForcingReport(
            satisfiable=mask != 0,
            forced_true=frozenset(v for v, col in live if not mask & (full ^ col)),
            forced_false=frozenset(v for v, col in live if not mask & col),
            model_count=mask.bit_count(),
        )
        assert verify_forcing(formula.clauses, variables[0]) == expected
        forced += len(expected.forced_true | expected.forced_false)
    assert forced >= 24  # the last-slice formula forces every variable


def _reference_projects_to(clauses, clause) -> bool:
    """``solve._projects_to`` with a whole table over Z for each assignment of the clause's variables."""
    fixed = [abs(lit) for lit in clause]
    hidden = sorted({abs(lit) for c in clauses for lit in c}.difference(fixed))
    for bits in range(1 << len(fixed)):
        true = {var if bits >> i & 1 else -var for i, var in enumerate(fixed)}
        left = [[lit for lit in c if -lit not in true] for c in clauses if true.isdisjoint(c)]
        if (reference_truth_table(left, hidden)[0] != 0) == true.isdisjoint(clause):
            return False
    return True


def test_projection_matches_the_whole_table_past_the_first_slice():
    # the widest rows of each target, as _lemma_holds lays them out, each
    # whole and with one seeded clause dropped
    rng = random.Random(35)
    answers = []
    for target in TARGETS.values():
        for probe in ((1, 2), (1, 2, -3)):
            ((row, table),) = Runs(target.rows, (probe,), 3, 1)
            clauses = _over(row.clauses, table)
            if len({abs(lit) for c in clauses for lit in c}) < 17:
                continue
            dropped = rng.randrange(len(clauses))
            for case in (clauses, clauses[:dropped] + clauses[dropped + 1 :]):
                answer = solve._projects_to(case, probe)
                assert answer == _reference_projects_to(case, probe), (target, probe, dropped)
                answers.append(answer)
    assert True in answers and False in answers


def test_exhaustive_memory_is_a_slice_not_the_table():
    # the whole table of 24 columns over 2^24 assignments peaked above 48 MiB;
    # a slice's columns, 256 KiB with both signs, are all the sweep holds
    tracemalloc.start()
    try:
        verdict = solve_exhaustive(_chain(24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.satisfiable
    assert peak < 2 * 2**20


def test_check_equisat():
    sat_a = CnfFormula.from_ints([[1, 2]])
    sat_b = CnfFormula.from_ints([[3]])
    unsat = CnfFormula.from_ints([[1], [-1]])
    assert check_equisat(sat_a, sat_b)
    assert check_equisat(unsat, CnfFormula.from_ints([[2], [-2]]))
    assert not check_equisat(sat_a, unsat)


@pytest.mark.parametrize("name", list(TARGETS))
def test_a_certified_verdict_never_builds_the_reduced_clauses(name, monkeypatch):
    original = generate(GenConfig(12, 16, 5))
    reduced, _ = TARGETS[name].reduce(original)
    _refuse_dpll(monkeypatch)
    assert check_equisat(original, reduced)
    # the pass compared the reduced formula's store with the runs, laid out from the original's
    assert "clauses" not in vars(original) and "clauses" not in vars(reduced)
    # swapped, the sides are no target's input and output, and DPLL decides each from its store
    calls = _counted_dpll(monkeypatch)
    assert check_equisat(reduced, original)
    assert calls == [reduced, original]
    assert "clauses" not in vars(original) and "clauses" not in vars(reduced)
    assert solve_exhaustive(original).satisfiable and "clauses" not in vars(original)


@pytest.mark.parametrize("name", ["mono3sat5", "mono3sat5-compact", "mono3sat4"])
def test_scheme_lemma_holds_for_every_target_and_fails_on_a_broken_template(name):
    assert all(map(solve._lemma_holds, TARGETS.values()))
    target = TARGETS[name]
    # without the clause that widens the pair, the pair is unconstrained;
    # without the last clause, the rest no longer force the variable that
    # widens it, so the pair may be falsified
    assert not solve._lemma_holds(replace(target, template=target.template[1:]))
    assert not solve._lemma_holds(replace(target, template=target.template[:-1]))


@pytest.mark.parametrize("name", list(TARGETS))
def test_scheme_lemma_fails_on_a_broken_gold_split(name, monkeypatch):
    wide, narrow = reduce.GOLD
    # the wide child without its bridge forces the two literals of one sign;
    # with the bridge in one sign in both children, the split forces nothing
    for gold in ((("gold", wide[1][:2]), narrow), (wide, ("gold", (-3, 4)))):
        monkeypatch.setattr(reduce, "GOLD", gold)
        # a copy compiles its rows anew; the cache would answer for the original
        assert not solve._lemma_holds.__wrapped__(replace(TARGETS[name]))


def _blocks(name: str, formula: CnfFormula) -> list[range]:
    """The clause positions of each template block in ``name``'s output."""
    target, blocks, at = TARGETS[name], [], 0
    for row, _ in target.runs(formula)[2]:
        at += len(row.clauses)
        if row is not target.rows["kept"]:  # the template ends the row of a pair or a mixed clause
            blocks.append(range(at - len(target.template), at))
    return blocks


def _relabelled(formula: CnfFormula, positions: range, variables: dict[int, int], sign: int = 1) -> CnfFormula:
    """``formula`` with each clause at ``positions`` renaming the variables
    of ``variables``, and negating them too when ``sign`` is -1."""
    literals = {lit * v: lit * sign * w for v, w in variables.items() for lit in (1, -1)}
    clauses = list(formula.clauses)
    for i in positions:
        clauses[i] = Clause(literals.get(lit, lit) for lit in clauses[i])
    return CnfFormula(clauses, formula.num_vars)


def _flat(formula: CnfFormula) -> list[tuple[int, ...]]:
    """``formula``'s store as the one block of flat literals that ``_is_instance`` reads."""
    return [formula.flat]


def _fresh(formula: CnfFormula, positions: range, above: int) -> list[int]:
    return sorted({abs(lit) for i in positions for lit in formula.clauses[i] if abs(lit) > above})


def _broken_reductions():
    """(label, original, output) for outputs of the scheme, each broken in one way."""
    original = generate(GenConfig(12, 16, 5))
    reduced, _ = to_monotone_3sat4(original)
    first, second = _blocks("mono3sat4", original)[:2]
    # bridges are numbered first, so the expansion variables lie above them
    above = original.num_vars + sum(not clause.sign for clause in original.clauses)
    shared = dict(zip(_fresh(reduced, second, above), _fresh(reduced, first, above)))
    yield "two blocks share fresh variables", original, _relabelled(reduced, second, shared)
    dropped = list(reduced.clauses)
    del dropped[first[-1]]
    yield "a clause is dropped", original, CnfFormula(dropped, reduced.num_vars)
    wide = first.start - 1  # the wider gold child precedes its sibling's block
    bridge = abs(reduced.clauses[wide][-1])
    yield "the bridge has one sign in both children", original, _relabelled(
        reduced, range(wide, wide + 1), {bridge: bridge}, -1
    )
    # still complementary, but each child holds the bridge in the other's sign
    yield "the children swap the bridge's signs", original, _relabelled(
        reduced, range(wide, first.stop), {bridge: bridge}, -1
    )
    other = abs(reduced.clauses[second.start - 1][-1])
    yield "two groups share a bridge", original, _relabelled(
        reduced, range(second.start - 1, second.stop), {other: bridge}
    )
    split = CnfFormula.from_ints([[1, 2, -3]], num_vars=5)
    reduced, _ = to_monotone_3sat4(split)
    yield "a bridge is renamed onto an input variable", split, _relabelled(reduced, range(len(reduced)), {6: 5})
    # a pair of input variables, so its block may keep variable order on input variables
    pairs = CnfFormula.from_ints([[1, 2], [-1, -2], [3, 4, 5]], num_vars=24)
    reduced, _ = TARGETS["mono3sat5"].reduce(pairs)
    block = _blocks("mono3sat5", pairs)[0]
    onto_input = dict(zip(_fresh(reduced, block, pairs.num_vars), range(3, pairs.num_vars + 1)))
    yield "fresh variables are renamed onto input variables", pairs, _relabelled(reduced, block, onto_input)


def _outputs_left_to_dpll():
    """(label, original, output) for outputs that are not the reduction's
    own although nothing in them is broken: the pass compares with the
    reduction's numbering of fresh variables, and no row takes a mixed
    2-clause."""
    original = generate(GenConfig(12, 16, 5))
    reduced, _ = to_monotone_3sat4(original)
    assert original.num_vars < 26 and reduced.num_vars == 298  # both fresh
    wider = CnfFormula(reduced.clauses, 299)
    # the swap changes the literal order of some clauses, the rename does not
    yield "fresh variables 26 and 298 swap names", original, _relabelled(
        wider, range(len(reduced)), {26: 298, 298: 26}
    )
    yield "fresh variable 298 is renamed to 299", original, _relabelled(wider, range(len(reduced)), {298: 299})
    pair = CnfFormula.from_ints([[1, -2], [1, 2, 3]])
    yield "the input holds a mixed 2-clause", pair, pair


@pytest.mark.parametrize(
    "original, broken",
    [pytest.param(*case[1:], id=case[0]) for case in (*_broken_reductions(), *_outputs_left_to_dpll())],
)
def test_instance_check_refuses_a_broken_reduction_and_dpll_decides(original, broken, monkeypatch):
    calls = []

    def counted(formula):
        calls.append(formula)
        return solve_dpll(formula)

    monkeypatch.setattr(solve, "solve_dpll", counted)
    assert not solve._certified(original, broken)
    expected = solve_dpll(original).satisfiable == solve_dpll(broken).satisfiable
    assert check_equisat(original, broken) == expected
    assert calls == [original, broken]


def test_an_output_of_a_template_whose_lemma_fails_is_left_to_dpll(monkeypatch):
    target = TARGETS["mono3sat4"]
    broken = replace(target, template=target.template[:-1])
    monkeypatch.setitem(TARGETS, "broken", broken)
    original = generate(GenConfig(12, 16, 5))
    reduced, _ = broken.reduce(original)
    assert solve._is_instance(_flat(reduced), broken.runs(original)[2])
    assert not solve._certified(original, reduced)


@pytest.mark.parametrize("name", list(TARGETS))
def test_instance_check_refuses_a_fresh_variable_negated_throughout_its_group(name):
    # renumbering a fresh variable keeps an instance, negating it does not:
    # its sign comes from the row, the bridge's as well as a block's
    original = generate(GenConfig(12, 16, 5))
    target = TARGETS[name]
    reduced, _ = target.reduce(original)
    assert solve._certified(original, reduced)
    at, flips = 0, 0
    for row, _ in target.runs(original)[2]:
        group = range(at, at + len(row.clauses))
        at = group.stop
        for var in _fresh(reduced, group, original.num_vars):
            assert not solve._certified(original, _relabelled(reduced, group, {var: var}, -1)), (group, var)
            flips += 1
    assert flips == reduced.num_vars - original.num_vars


def test_instance_check_reads_the_clause_boundaries_of_a_group():
    # a template whose second clause starts above where its first ends: a
    # literal moved across that boundary keeps the group's literals in
    # order, but not its clauses
    target = replace(TARGETS["mono3sat5"], template=(("r", (1, 2, 3)), ("r", (4, 5, 6))))
    original = CnfFormula.from_ints([[1, 2], [3, 4, 5]])
    reduced, _ = target.reduce(original)
    assert solve._is_instance(_flat(reduced), target.runs(original)[2])
    (x, y, u), (v, *rest) = reduced.clauses[:2]
    moved = [Clause((x, y)), Clause((u, v, *rest)), *reduced.clauses[2:]]
    assert not solve._is_instance(_flat(CnfFormula(moved, reduced.num_vars)), target.runs(original)[2])


def test_instance_check_consumes_every_output_clause():
    original = generate(GenConfig(12, 16, 5))
    for target in TARGETS.values():
        reduced, _ = target.reduce(original)
        assert solve._is_instance(_flat(reduced), target.runs(original)[2])
        longer = CnfFormula([*reduced.clauses, reduced.clauses[0]], reduced.num_vars)
        assert not solve._is_instance(_flat(longer), target.runs(original)[2])


def test_instance_check_refuses_every_prefix_of_an_output_without_reading_past_it():
    original = generate(GenConfig(12, 16, 5))
    for target in TARGETS.values():
        reduced, _ = target.reduce(original)
        for end in range(len(reduced.clauses)):
            prefix = CnfFormula(reduced.clauses[:end], reduced.num_vars)
            assert not any(solve._is_instance(_flat(prefix), other.runs(original)[2]) for other in TARGETS.values())
            assert not solve._certified(original, prefix)


def _body(formula: CnfFormula) -> Body:
    return Body(serialize(DimacsDocument(formula)))


def _body_flats(formula: CnfFormula):
    """The flat literals of each block that ``Body`` reads from ``formula``'s text."""
    return map(itemgetter(0), _body(formula))


def _counted_dpll(monkeypatch) -> list[CnfFormula]:
    """The formulas that ``solve_dpll`` is called on from now on."""
    calls = []

    def counted(formula):
        calls.append(formula)
        return solve_dpll(formula)

    monkeypatch.setattr(solve, "solve_dpll", counted)
    return calls


def _refuse_dpll(monkeypatch) -> None:
    def refuse(formula):
        raise AssertionError("solve_dpll was called")

    monkeypatch.setattr(solve, "solve_dpll", refuse)


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
@pytest.mark.parametrize("original, broken", [pytest.param(*case[1:], id=case[0]) for case in _broken_reductions()])
def test_block_pass_refuses_a_broken_reduction_and_dpll_decides(original, broken, block_chars, monkeypatch):
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
    expected = solve_dpll(original).satisfiable == solve_dpll(broken).satisfiable
    calls = _counted_dpll(monkeypatch)
    assert check_equisat_body(original, _body(broken)) == expected
    assert calls == [original, broken]  # the second parsed from the body's text


def test_only_the_dpll_fallback_applies_the_witness_limit(monkeypatch):
    monkeypatch.setattr(solve, "WITNESS_VAR_LIMIT", 30)
    at_limit = CnfFormula.from_ints([[1, 2, 3]], 30)
    over = CnfFormula.from_ints([[4, 5, 6]], 31)
    calls = _counted_dpll(monkeypatch)
    assert check_equisat(at_limit, CnfFormula.from_ints([[4, 5, 6]], 30))
    assert len(calls) == 2
    # neither is a reduction of the other: a side over the limit is refused
    # before either side is searched
    _refuse_dpll(monkeypatch)
    for original, reduced in ((at_limit, over), (over, at_limit)):
        with pytest.raises(VariableLimitError, match="witness limit of 30$"):
            check_equisat(original, reduced)
        with pytest.raises(VariableLimitError, match="witness limit of 30$"):
            check_equisat_body(original, _body(reduced))
    # mono23sat4's output on ``over`` is ``over``, and its lemma decides at any size
    huge = CnfFormula(over.clauses, 10**30)
    for original, reduced in ((over, over), (over, huge), (huge, huge)):
        assert check_equisat(original, reduced)
        assert check_equisat_body(original, _body(reduced))


@pytest.mark.parametrize("name", list(TARGETS))
def test_an_empty_reduction_is_certified_on_both_paths(name, monkeypatch):
    # an empty formula's store is one empty block, which holds no literal and
    # no run; over the witness limit only the certificate can decide
    original = CnfFormula([], 5_000_000)
    reduced, trace = TARGETS[name].reduce(original)
    assert (len(reduced), reduced.num_vars, trace) == (0, 5_000_000, ())
    _refuse_dpll(monkeypatch)
    assert check_equisat(original, reduced)
    assert check_equisat_body(original, _body(reduced))


def test_check_equisat_body_refuses_a_header_over_the_witness_limit_before_parsing(monkeypatch):
    monkeypatch.setattr(solve, "WITNESS_VAR_LIMIT", 30)

    def refuse(text):
        raise AssertionError("parse was called")

    monkeypatch.setattr(solve, "parse", refuse)
    # neither is a reduction of the other, so only DPLL could decide
    at_limit = CnfFormula.from_ints([[1, 2, 3]], 30)
    over = CnfFormula.from_ints([[4, 5, 6]], 31)
    for original, reduced in ((at_limit, over), (over, at_limit)):
        with pytest.raises(VariableLimitError, match="witness limit of 30$"):
            check_equisat_body(original, _body(reduced))


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
def test_block_pass_consumes_every_clause_and_refuses_every_prefix_without_reading_past_it(block_chars, monkeypatch):
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
    # every row: a mixed clause of each shape and a kept clause; then a pair
    # of each sign, which only the targets whose profile bars 2-clauses take
    mixed = CnfFormula.from_ints([[1, 2, -3], [1, -2, -4], [2, 3, 4]])
    pairs = CnfFormula.from_ints([[1, 2], [-3, -4], [1, 3, 4]])
    wide = [target for target in TARGETS.values() if 2 not in PROFILES[target.profile].widths]
    for original, targets in ((mixed, list(TARGETS.values())), (pairs, wide)):
        for target in targets:
            reduced, _ = target.reduce(original)
            assert solve._is_instance(_body_flats(reduced), target.runs(original)[2])
            longer = CnfFormula([*reduced.clauses, reduced.clauses[0]], reduced.num_vars)
            assert not solve._is_instance(_body_flats(longer), target.runs(original)[2])
            for end in range(len(reduced.clauses)):
                prefix = CnfFormula(reduced.clauses[:end], reduced.num_vars)
                runs = (other.runs(original)[2] for other in targets)
                assert not any(solve._is_instance(_body_flats(prefix), each) for each in runs), (target, end)


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
def test_block_pass_reads_the_clause_boundaries_of_a_group(block_chars, monkeypatch):
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
    # as in the formula test: a literal moved across the boundary of the
    # template's two clauses keeps the group's literals in order
    target = replace(TARGETS["mono3sat5"], template=(("r", (1, 2, 3)), ("r", (4, 5, 6))))
    original = CnfFormula.from_ints([[1, 2], [3, 4, 5]])
    reduced, _ = target.reduce(original)
    assert solve._is_instance(_body_flats(reduced), target.runs(original)[2])
    (x, y, u), (v, *rest) = reduced.clauses[:2]
    moved = CnfFormula([Clause((x, y)), Clause((u, v, *rest)), *reduced.clauses[2:]], reduced.num_vars)
    assert not solve._is_instance(_body_flats(moved), target.runs(original)[2])


def test_block_pass_reads_a_group_that_straddles_a_block_end(monkeypatch):
    original = generate(GenConfig(300, 400, 7))
    target = TARGETS["mono3sat4"]
    reduced, _ = target.reduce(original)
    blocks = list(_body_flats(reduced))
    group_ends = set(accumulate(len(row.flat(table)) for row, table in target.runs(original)[2]))
    assert len(blocks) > 1 and len(blocks[0]) not in group_ends  # the first block ends inside a group
    _refuse_dpll(monkeypatch)
    assert check_equisat_body(original, _body(reduced))


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
def test_a_tie_in_clause_count_is_read_by_each_candidate_in_table_order(block_chars, monkeypatch):
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
    target = TARGETS["mono3sat5"]
    # the same clauses in another order: the lemma holds, the runs differ
    twin = replace(target, template=target.template[::-1])
    monkeypatch.setitem(TARGETS, "twin", twin)
    original = generate(GenConfig(12, 16, 5))
    outputs = [each.reduce(original)[0] for each in (target, twin)]
    assert outputs[0] != outputs[1] and len(outputs[0].clauses) == len(outputs[1].clauses)
    _refuse_dpll(monkeypatch)
    for reduced in outputs:
        assert check_equisat(original, reduced)
        assert check_equisat_body(original, _body(reduced))


def test_check_equisat_proves_the_n10k_reduction_without_dpll(monkeypatch):
    original = generate(GenConfig(10000, 13333, 7))
    reduced, trace = to_monotone_3sat4(original)
    digest = hashlib.sha256(serialize(DimacsDocument(reduced)).encode()).hexdigest()
    assert digest == "5dc469471bf55c5bd0162a1c7a16be4f9bd6cd05b3a71d0f5cdb7bf8b5feb109"
    # with its trace comments, the bytes of ``reduce --trace`` that CI pins as t10k.cnf
    digest = hashlib.sha256(serialize(DimacsDocument(reduced, trace)).encode()).hexdigest()
    assert digest == "752e715ba8e617491b73c623d99eced0483a8cb95709d3117a28ef6146a20d82"

    def refuse(formula):
        raise AssertionError("solve_dpll was called")

    monkeypatch.setattr(solve, "solve_dpll", refuse)
    assert check_equisat(original, reduced)


@pytest.mark.parametrize("name", ["mono3sat5", "mono3sat5-compact", "mono23sat4"])
def test_check_equisat_proves_every_target_at_n10k_without_dpll(name, monkeypatch):
    original = generate(GenConfig(10000, 13333, 7))
    reduced, _ = TARGETS[name].reduce(original)

    def refuse(formula):
        raise AssertionError("solve_dpll was called")

    monkeypatch.setattr(solve, "solve_dpll", refuse)
    assert check_equisat(original, reduced)
