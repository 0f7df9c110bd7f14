"""End-to-end reduction pipelines: shapes, profiles, traces, verdicts."""

import dataclasses
import itertools
import re
from pathlib import Path

import pytest

from monocnf import (
    FORCE_FALSE_GADGET,
    FORCE_TRUE_GADGET,
    PROFILES,
    TARGETS,
    Clause,
    CnfFormula,
    FreshAllocator,
    GenConfig,
    ProfileError,
    Target,
    apply_r3,
    check_equisat,
    check_profile,
    eliminate_mixed,
    generate,
    instantiate_gadget,
    occurrences,
    solve_dpll,
    solve_exhaustive,
    to_monotone_3sat4,
    to_monotone_3sat5,
)
from monocnf import reduce
from monocnf.reduce import Runs

from naive import reference_reduce

# monotone (2,3)-SAT-4 and unsatisfiable: the positive pairs allow at
# most one false variable, the negative pairs at most one true, which is
# impossible over three variables
UNSAT_MONO23 = CnfFormula.from_ints(
    [[1, 2], [1, 3], [2, 3], [-1, -2], [-1, -3], [-2, -3]]
)

MIXED_ONE = CnfFormula.from_ints([[1, -2, 3]])


def _origins(trace):
    """The (rule, source) of each "trace <index> <rule> <source>" line,
    each index checked against the line's position."""
    fields = [line.split() for line in trace]
    assert [(word, int(index)) for word, index, _, _ in fields] == [("trace", i) for i in range(len(trace))]
    return [(rule, int(source)) for _, _, rule, source in fields]


def test_eliminate_mixed_on_worked_example():
    out, trace = eliminate_mixed(MIXED_ONE)
    assert list(out.clauses) == [(1, 3, 4), (-2, -4)]
    assert out.num_vars == 4
    assert check_profile(out, PROFILES["mono23sat4"]).ok
    assert trace == ("trace 0 gold 0", "trace 1 gold 0")
    # fresh variables start past the declared count, not the largest referenced
    out, _ = eliminate_mixed(CnfFormula(MIXED_ONE.clauses, num_vars=7))
    assert list(out.clauses) == [(1, 3, 8), (-2, -8)]
    assert out.num_vars == 8


def test_eliminate_mixed_identity_on_monotone_input():
    formula = CnfFormula.from_ints([[1, 2, 3], [-1, -2, -3]])
    out, trace = eliminate_mixed(formula)
    assert out == formula
    assert trace == ("trace 0 input 0", "trace 1 input 1")


def test_eliminate_mixed_children_replace_parent_in_place():
    formula = CnfFormula.from_ints([[1, 2, 3], [1, -2, 3], [-1, -2, -3]])
    out, _ = eliminate_mixed(formula)
    assert list(out.clauses) == [
        (1, 2, 3),
        (1, 3, 4),
        (-2, -4),
        (-1, -2, -3),
    ]


def test_eliminate_mixed_rejects_non_3sat4_input():
    with pytest.raises(ProfileError) as one:
        eliminate_mixed(CnfFormula.from_ints([[1, -2]]))
    prefix = "eliminate_mixed requires a 3-SAT-4 instance: width violation at clause 0: width 2, profile allows 3"
    assert str(one.value) == prefix
    # the first violation, then a count of the rest
    with pytest.raises(ProfileError) as three:
        eliminate_mixed(CnfFormula.from_ints([[1, -2], [2, 3], [-1, 3]]))
    assert str(three.value) == prefix + " (and 2 more)"
    too_many = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [1, 5, 6], [1, 5, 7]]
    with pytest.raises(ProfileError, match="occurrence"):
        eliminate_mixed(CnfFormula.from_ints(too_many))


def test_monotone_3sat5_worked_example_sizes():
    out, _ = to_monotone_3sat5(MIXED_ONE)
    assert len(out.clauses) == 20
    assert out.num_vars == 22
    assert check_profile(out, PROFILES["mono3sat5"]).ok
    assert check_equisat(MIXED_ONE, out)


def test_monotone_3sat5_compact_sizes():
    out, _ = to_monotone_3sat5(MIXED_ONE, compact=True)
    assert len(out.clauses) == 18
    assert out.num_vars == 20
    assert check_profile(out, PROFILES["mono3sat5"]).ok
    assert check_equisat(MIXED_ONE, out)


def test_monotone_3sat4_worked_example_sizes():
    out, _ = to_monotone_3sat4(MIXED_ONE)
    assert len(out.clauses) == 27
    assert out.num_vars == 25
    assert check_profile(out, PROFILES["mono3sat4"]).ok
    assert check_equisat(MIXED_ONE, out)


def test_monotone_3sat4_designated_variable_reaches_cap():
    out, trace = to_monotone_3sat4(MIXED_ONE)
    widened_positions = [
        i for i, (rule, _) in enumerate(_origins(trace)) if rule == "widen"
    ]
    assert len(widened_positions) == 1
    widened = out.clauses[widened_positions[0]]
    # the widened clause is the 2-clause plus the designated literal
    designated = max(widened.variables())
    counts = occurrences(out)
    assert counts[designated] == 4
    assert max(counts.values()) == 4


def test_pipelines_accept_monotone_23_input_directly():
    out5, trace5 = to_monotone_3sat5(UNSAT_MONO23)
    out4, trace4 = to_monotone_3sat4(UNSAT_MONO23)
    assert check_profile(out5, PROFILES["mono3sat5"]).ok
    assert check_profile(out4, PROFILES["mono3sat4"]).ok
    # six 2-clauses expanded, nothing carried over
    assert len(out5.clauses) == 6 * 19
    assert len(out4.clauses) == 6 * 26
    assert {rule for rule, _ in _origins(trace5)} == {"r3"}
    assert {rule for rule, _ in _origins(trace4)} == {"widen", "gadget"}


def test_unsat_instance_stays_unsat_through_every_pipeline():
    assert not solve_exhaustive(UNSAT_MONO23).satisfiable
    for out, _ in (
        to_monotone_3sat5(UNSAT_MONO23),
        to_monotone_3sat5(UNSAT_MONO23, compact=True),
        to_monotone_3sat4(UNSAT_MONO23),
    ):
        assert not solve_dpll(out).satisfiable


def test_sat_witness_restricts_to_original_model():
    formula = CnfFormula.from_ints([[1, -2, 3], [-1, 2, 3], [1, 2, -3]])
    for out, _ in (
        to_monotone_3sat5(formula),
        to_monotone_3sat5(formula, compact=True),
        to_monotone_3sat4(formula),
    ):
        verdict = solve_dpll(out)
        assert verdict.satisfiable and verdict.witness is not None
        restricted = {v: verdict.witness[v] for v in range(1, formula.num_vars + 1)}
        assert all(
            any(restricted[abs(lit)] == (lit > 0) for lit in clause)
            for clause in formula.clauses
        )


def test_every_original_model_extends_to_the_fresh_variables():
    formula = CnfFormula.from_ints([[1, -2, 3], [-1, 2, 3], [1, 2, -3]])
    originals = range(1, formula.num_vars + 1)
    models = []
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        model = dict(zip(originals, bits))
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in formula.clauses):
            models.append(model)
    assert models
    for out, _ in (
        to_monotone_3sat5(formula),
        to_monotone_3sat5(formula, compact=True),
        to_monotone_3sat4(formula),
    ):
        for model in models:
            fixed = [Clause((v if value else -v,)) for v, value in model.items()]
            assert solve_dpll(CnfFormula(out.clauses + tuple(fixed), out.num_vars)).satisfiable


def test_pipelines_reject_out_of_class_input():
    bad = CnfFormula.from_ints([[1, -2]])  # mixed 2-clause fits no entry class
    with pytest.raises(ProfileError, match="neither"):
        to_monotone_3sat5(bad)
    with pytest.raises(ProfileError, match="neither"):
        to_monotone_3sat4(bad)


def test_monotone_23_input_enters_without_a_strict_report(monkeypatch):
    # every 2-clause is a width violation of 3-SAT-4: the entry check decides
    # from the widths and builds that report only to raise it
    profiles = []

    def recorded(formula, profile):
        profiles.append(profile)
        return check_profile(formula, profile)

    mono23, _ = eliminate_mixed(generate(GenConfig(30, 40, 1)))
    monkeypatch.setattr(reduce, "check_profile", recorded)
    TARGETS["mono3sat4"].runs(mono23)
    assert profiles == [PROFILES["mono23sat4"]]
    profiles.clear()
    with pytest.raises(ProfileError, match="eliminate_mixed requires"):
        eliminate_mixed(mono23)
    assert profiles == [PROFILES["3sat4"]]


def test_census_counts_mixed_clauses_and_pairs():
    for seed in range(20):
        formula = generate(GenConfig(20, 26, seed))
        for clauses in (formula.clauses, eliminate_mixed(formula)[0].clauses):
            mixed = sum(not clause.sign for clause in clauses)
            pairs = mixed + sum(len(clause) == 2 for clause in clauses)
            assert reduce._census(clauses) == (mixed, pairs)


def test_eliminate_mixed_rejects_monotone_23_input():
    # monotone (2,3)-SAT-4 enters only the targets that expand 2-clauses
    with pytest.raises(ProfileError, match="eliminate_mixed requires a 3-SAT-4 instance"):
        eliminate_mixed(UNSAT_MONO23)


def test_target_growth_matches_closed_forms():
    growth = {name: target.growth for name, target in TARGETS.items()}
    assert growth == {
        "mono23sat4": (0, 0),
        "mono3sat5": (18, 18),
        "mono3sat5-compact": (16, 16),
        "mono3sat4": (21, 25),
    }


def test_target_growth_follows_its_template():
    # a target is its profile and template: without the gadget's last clause
    # each 2-clause adds one clause fewer, over the same fresh block
    target = TARGETS["mono3sat4"]
    shorter = dataclasses.replace(target, template=target.template[:-1])
    assert shorter.growth == (21, 24)
    assert shorter.size(2, 1, (0, 1)) == (2 + 21, 1 + 24)
    out, _ = shorter.reduce(CnfFormula.from_ints([[1, 2]]))
    assert (out.num_vars, len(out.clauses)) == (2 + 21, 1 + 24)
    assert [field.name for field in dataclasses.fields(Target)] == ["profile", "template"]


def _direct_expansion(name, pair, first):
    """What the rule itself produces for ``pair``, with its labels."""
    alloc = FreshAllocator(first)
    if name == "mono23sat4":  # mixed elimination keeps the pair
        return [("gold", pair)]
    if name == "mono3sat4":
        sign = pair.sign
        template = FORCE_FALSE_GADGET if sign > 0 else FORCE_TRUE_GADGET
        gadget, designated = instantiate_gadget(template, alloc)
        return [("widen", Clause(pair + (sign * designated,)))] + [("gadget", c) for c in gadget]
    produced = apply_r3(pair, alloc, compact=name.endswith("-compact"))
    return [("r3", c) for c in produced]


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("name", list(TARGETS))
def test_template_instance_equals_direct_rule_output(name, sign):
    target = TARGETS[name]
    # far-apart pairs, and fresh variables just above the pair
    for x, y, first in [(1, 2, 3), (1, 1000, 1001), (7, 9, 10), (2, 5, 40), (999, 1000, 5000)]:
        pair = Clause((sign * x, sign * y))
        # one pair over first - 1 input variables and no mixed clause: its block starts at first
        ((row, table),) = Runs(target.rows, (pair,), first - 1, 0)
        # plain tuples: the renamed slots must already be in canonical order
        instance = [(label, tuple(map(table.__getitem__, slots))) for label, slots in row.clauses]
        assert instance == _direct_expansion(name, pair, first)


# the six sign positions of a mixed 3-clause: every sign pattern but the two monotone ones
MIXED_SIGNS = [signs for signs in itertools.product((1, -1), repeat=3) if len(set(signs)) == 2]


def _reference_inputs() -> list[tuple[str, CnfFormula]]:
    """Generated 3-SAT-4 instances, the monotone (2,3)-SAT-4 instances that
    mixed elimination makes of them, and each mixed clause shape in every
    sign position, alone and all together beside kept clauses and pairs."""
    generated = [generate(GenConfig(n, n * 4 // 3, seed)) for n, seed in ((12, 5), (40, 17), (70, 3))]
    alone = [CnfFormula.from_ints([[s * v for s, v in zip(signs, (2, 5, 9))]], 9) for signs in MIXED_SIGNS]
    together = [[s * (3 * i + k) for k, s in enumerate(signs, 1)] for i, signs in enumerate(MIXED_SIGNS)]
    kept = [[19, 20, 21], [-22, -23, -24]]
    return [
        *(("3sat4", formula) for formula in (*generated, *alone, CnfFormula.from_ints(together + kept))),
        *(("mono23sat4", eliminate_mixed(formula)[0]) for formula in generated),
        ("mono23sat4", CnfFormula.from_ints([[1, 2], [-3, -4], [5, 6, 7], [-8, -9, -10], [-11, -12]], 14)),
    ]


@pytest.mark.parametrize("name", list(TARGETS))
def test_reduction_matches_the_reference_built_from_the_rules(name):
    target, negative_pairs = TARGETS[name], 0
    for profile, formula in _reference_inputs():
        if profile == "mono23sat4" and 2 in PROFILES[target.profile].widths:
            with pytest.raises(ProfileError):
                target.reduce(formula)
            continue
        negative_pairs += sum(len(c) == 2 and c[0] < 0 for c in formula.rows())
        num_vars, expected = reference_reduce(name, formula.rows(), formula.num_vars)
        out, trace = target.reduce(formula)
        assert (out.num_vars, list(out.rows())) == (num_vars, [lits for _, _, lits in expected])
        assert trace == tuple(f"trace {i} {label} {source}" for i, (label, source, _) in enumerate(expected))
        size_vars, size_clauses, runs = target.runs(formula)
        assert (size_vars, size_clauses) == (num_vars, len(expected))
        assert "".join(target.text(runs)) == "".join(f"{' '.join(map(str, lits))} 0\n" for _, _, lits in expected)
        assert tuple(target.trace(runs)) == trace
    assert negative_pairs > 0 or 2 in PROFILES[target.profile].widths


def test_readme_blowup_table_matches_target_growth():
    # rows read "| `name` | mixed + V (pos2+neg2) | mixed + C (pos2+neg2) |",
    # or "mixed" alone for a target that adds nothing per 2-clause
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    cell = r" mixed(?: \+ (\d+) \(pos2\+neg2\))? +\|"
    row = re.compile(r"^\| `([\w-]+)` +\|" + cell + cell + "$")
    table = {
        match.group(1): (int(match.group(2) or 0), int(match.group(3) or 0))
        for match in map(row.match, readme.splitlines())
        if match
    }
    assert table == {name: target.growth for name, target in TARGETS.items()}


def test_trace_provenance_covers_every_output_clause():
    formula = CnfFormula.from_ints([[1, 2, 3], [1, -2, 3]])
    out, trace = to_monotone_3sat4(formula)
    assert len(trace) == len(out.clauses)
    origins = _origins(trace)
    rules = [rule for rule, _ in origins]
    assert rules[0] == "input"
    assert rules.count("widen") == 1
    assert rules.count("gadget") == 25
    # every derived clause points back at the mixed input clause
    assert all(source == 1 for rule, source in origins if rule != "input")


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_each_input_clause_maps_to_one_run_with_its_own_fresh_variables(name):
    for seed in range(8):
        formula = generate(GenConfig(12, 16, seed))
        out, trace = TARGETS[name].reduce(formula)
        sources = [source for _, source in _origins(trace)]
        runs: dict[int, list[Clause]] = {}
        for clause, source in zip(out.clauses, sources, strict=True):
            runs.setdefault(source, []).append(clause)
        # one contiguous run per input clause, in input order
        assert sources == sorted(sources)
        assert list(runs) == list(range(len(formula.clauses)))
        fresh = [
            {v for clause in run for v in clause.variables() if v > formula.num_vars}
            for run in runs.values()
        ]
        covered = set().union(*fresh)
        assert sum(len(block) for block in fresh) == len(covered)
        assert covered == set(range(formula.num_vars + 1, out.num_vars + 1))


def test_gold_children_positions_recorded_in_intermediate_coordinates():
    formula = CnfFormula.from_ints([[1, 2, 3], [1, -2, 3], [-1, -2, -3]])
    _, trace = eliminate_mixed(formula)
    assert trace[1:3] == ("trace 1 gold 1", "trace 2 gold 1")
    assert [rule for rule, _ in _origins(trace)] == ["input", "gold", "gold", "input"]


def test_empty_formula_passes_through_every_pipeline():
    empty = CnfFormula((), num_vars=3)
    for pipeline in (
        eliminate_mixed,
        to_monotone_3sat5,
        to_monotone_3sat4,
    ):
        out, trace = pipeline(empty)
        assert out.clauses == ()
        assert out.num_vars == 3
        assert trace == ()
