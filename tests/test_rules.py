"""Clause replacement rules: shapes, occurrence deltas, and equisatisfiability."""

import pytest

from monocnf import (
    Clause,
    CnfFormula,
    FreshAllocator,
    apply_r1,
    apply_r2,
    apply_r3,
    gold_step,
    occurrences,
    solve_dpll,
)

from naive import naive_satisfiable


def test_allocator_hands_out_consecutive_indices():
    alloc = FreshAllocator(5)
    assert alloc.fresh() == 5
    assert alloc.fresh_many(3) == (6, 7, 8)
    assert alloc.next_index == 9


def test_allocator_for_formula_starts_past_declared():
    formula = CnfFormula.from_ints([[1, -2, 3]], num_vars=7)
    alloc = FreshAllocator(formula.num_vars + 1)
    positive, negative = gold_step(formula.clauses[0], alloc)
    # the fresh variable is past the declared count, not the largest referenced
    assert positive == Clause((1, 3, 8))
    assert negative == Clause((-2, -8))
    assert alloc.next_index == 9


def test_allocator_rejects_nonpositive_start():
    with pytest.raises(ValueError, match="start at 1"):
        FreshAllocator(0)


def test_gold_step_splits_by_polarity():
    positive, negative = gold_step(Clause((-1, -2, 3)), FreshAllocator(4))
    assert positive == Clause((3, 4))
    assert negative == Clause((-1, -2, -4))


def test_gold_step_other_split_shape():
    positive, negative = gold_step(Clause((1, 2, -3)), FreshAllocator(4))
    assert positive == Clause((1, 2, 4))
    assert negative == Clause((-3, -4))


def test_gold_step_rejects_wrong_width_and_monotone_input():
    with pytest.raises(ValueError, match="3-clause"):
        gold_step(Clause((1, -2)), FreshAllocator(3))
    with pytest.raises(ValueError, match="mixed"):
        gold_step(Clause((1, 2, 3)), FreshAllocator(4))


def test_r1_positive_shape():
    out = apply_r1(Clause((1, 2)), FreshAllocator(3))
    assert list(out) == [(1, 2, 3), (1, 2, 4), (1, 2, 5), (-3, -4, -5)]


def test_r1_negative_shape_is_dual():
    out = apply_r1(Clause((-1, -2)), FreshAllocator(3))
    assert list(out) == [(-1, -2, -3), (-1, -2, -4), (-1, -2, -5), (3, 4, 5)]


def test_r2_expansion_shape():
    out = apply_r2(Clause((1, 2)), FreshAllocator(3))
    assert list(out) == [
        (1, 2, 3),
        (1, 2, 4),
        (-3, -4, -5),
        (-3, -4, -6),
        (-3, -4, -7),
        (5, 6, 7),
    ]


def test_r3_standard_shape():
    out = apply_r3(Clause((1, 2)), FreshAllocator(3))
    assert len(out) == 19
    assert out[0] == Clause((1, 2, 3))
    assert all(len(c) == 3 and c.is_monotone for c in out)


def test_r3_compact_shape():
    out = apply_r3(Clause((1, 2)), FreshAllocator(3), compact=True)
    assert len(out) == 17
    assert all(len(c) == 3 and c.is_monotone for c in out)


@pytest.mark.parametrize("pair", [Clause((1, 2)), Clause((-1, -2))])
def test_rules_accept_both_polarities(pair):
    for rule in (apply_r1, apply_r2, apply_r3):
        assert rule(pair, FreshAllocator(3))


@pytest.mark.parametrize("rule_name", ["apply_r1", "apply_r2", "apply_r3"])
def test_rules_reject_bad_inputs(rule_name):
    rule = {"apply_r1": apply_r1, "apply_r2": apply_r2, "apply_r3": apply_r3}[rule_name]
    with pytest.raises(ValueError, match="2-clause"):
        rule(Clause((1, 2, 3)), FreshAllocator(4))
    with pytest.raises(ValueError, match="monotone"):
        rule(Clause((1, -2)), FreshAllocator(3))


# (delta_x, delta_y, delta_new, clauses_added, vars_added) per rule: how
# much each original variable and the worst fresh variable grow, and the
# rule's emitted clause and fresh variable counts
RULE_DELTAS = {
    "r1": (2, 2, 2, 4, 3),
    "r2": (1, 1, 4, 6, 5),
    "r3": (0, 0, 5, 19, 18),
    "r3-compact": (0, 0, 5, 17, 16),
}


def _measure(pair: Clause, produced: list[Clause], fresh: range) -> tuple[int, int, int, int, int]:
    formula = CnfFormula(produced)
    counts = occurrences(formula)
    x, y = (abs(lit) for lit in pair)
    worst_fresh = max(counts[v] for v in fresh)
    # the replaced 2-clause held one occurrence of each original variable
    return counts[x] - 1, counts[y] - 1, worst_fresh, len(produced), len(fresh)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "key,apply",
    [
        ("r1", lambda c, a: apply_r1(c, a)),
        ("r2", lambda c, a: apply_r2(c, a)),
        ("r3", lambda c, a: apply_r3(c, a)),
        ("r3-compact", lambda c, a: apply_r3(c, a, compact=True)),
    ],
)
def test_measured_occurrence_deltas_match_rule_stats(key, apply, sign):
    pair = Clause((sign * 1, sign * 2))
    alloc = FreshAllocator(3)
    produced = apply(pair, alloc)
    assert _measure(pair, produced, range(3, alloc.next_index)) == RULE_DELTAS[key]


def _pair_satisfied(pair: Clause, a: bool, b: bool) -> bool:
    return any((lit > 0) == (a if abs(lit) == 1 else b) for lit in pair)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "apply",
    [lambda c, a: apply_r1(c, a), lambda c, a: apply_r2(c, a)],
)
def test_r1_r2_projection_preserves_pair_semantics(apply, sign):
    # for every assignment of the pair: the replacement extends to a model
    # exactly when the assignment already satisfies the 2-clause
    pair = Clause((sign * 1, sign * 2))
    alloc = FreshAllocator(3)
    produced = apply(pair, alloc)
    num_vars = alloc.next_index - 1
    for a in (False, True):
        for b in (False, True):
            fixed = [(1,) if a else (-1,), (2,) if b else (-2,)]
            clauses = produced + fixed
            assert naive_satisfiable(clauses, num_vars) == _pair_satisfied(pair, a, b)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("compact", [False, True])
def test_r3_projection_preserves_pair_semantics(sign, compact):
    # r3 has 18 fresh variables, so the naive oracle is too slow here;
    # DPLL with x and y fixed by unit clauses covers each projection
    # instead (the acceptance suite repeats this exhaustively with the
    # fast engine)
    pair = Clause((sign * 1, sign * 2))
    produced = apply_r3(pair, FreshAllocator(3), compact=compact)
    for a in (False, True):
        for b in (False, True):
            fixed = [Clause((1 if a else -1,)), Clause((2 if b else -2,))]
            verdict = solve_dpll(CnfFormula(produced + fixed))
            assert verdict.satisfiable == _pair_satisfied(pair, a, b)


def test_gold_step_preserves_satisfiability_on_all_projections():
    clause = Clause((1, -2, 3))
    alloc = FreshAllocator(4)
    children = gold_step(clause, alloc)
    child_clauses = list(children)
    for a in (False, True):
        for b in (False, True):
            for c in (False, True):
                fixed = [(1,) if a else (-1,), (2,) if b else (-2,), (3,) if c else (-3,)]
                assignment = {1: a, 2: b, 3: c}
                original = any(assignment[abs(lit)] == (lit > 0) for lit in clause)
                extended = naive_satisfiable(child_clauses + fixed, 4)
                assert extended == original


def test_rule_output_keeps_original_variables_satisfiable_values():
    # a model of the r3 replacement restricted to the pair satisfies the pair
    produced = apply_r3(Clause((1, 2)), FreshAllocator(3))
    verdict = solve_dpll(CnfFormula(produced))
    assert verdict.satisfiable and verdict.witness is not None
    assert verdict.witness[1] or verdict.witness[2]
