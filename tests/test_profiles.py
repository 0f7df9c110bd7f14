"""Profile definitions and membership checking."""

import pytest

from monocnf import PROFILES, Clause, CnfFormula, Profile, ViolationReport, check_profile, profiles
from monocnf.dimacs import _block
from monocnf.profiles import check_blocks
from naive import SplitMix64, reference_check_profile


def test_profile_table():
    assert set(PROFILES) == {"3sat4", "mono23sat4", "mono3sat5", "mono3sat4"}
    assert PROFILES["3sat4"].widths == frozenset({3})
    assert not PROFILES["3sat4"].monotone
    assert PROFILES["3sat4"].occurrence_cap == 4
    assert PROFILES["mono23sat4"].widths == frozenset({2, 3})
    assert PROFILES["mono23sat4"].monotone
    assert PROFILES["mono3sat5"].occurrence_cap == 5
    assert PROFILES["mono3sat4"].occurrence_cap == 4


def test_mixed_clauses_allowed_only_where_profile_says():
    formula = CnfFormula.from_ints([[1, -2, 3]])
    assert check_profile(formula, PROFILES["3sat4"]).ok
    report = check_profile(formula, PROFILES["mono3sat4"])
    assert not report.ok
    assert [v.kind for v in report] == ["monotonicity"]


def test_width_violations_reported_per_clause():
    formula = CnfFormula.from_ints([[1, 2], [1, 2, 3], [-3]])
    report = check_profile(formula, PROFILES["3sat4"])
    kinds = [(v.kind, v.where) for v in report]
    assert ("width", 0) in kinds and ("width", 2) in kinds
    assert ("width", 1) not in kinds


def test_two_or_three_widths_accepted_by_mono23sat4():
    formula = CnfFormula.from_ints([[1, 2], [-1, -2, -3]])
    assert check_profile(formula, PROFILES["mono23sat4"]).ok


def test_occurrence_cap_violation_names_variable():
    clauses = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [1, 5, 6], [1, 5, 7]]
    report = check_profile(CnfFormula.from_ints(clauses), PROFILES["3sat4"])
    assert len(report) == 1
    violation = next(iter(report))
    assert violation.kind == "occurrence"
    assert violation.where == 1
    assert "5 occurrences" in str(violation)
    assert "cap is 4" in str(violation)


def test_cap_five_profile_admits_five_occurrences():
    clauses = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [1, 5, 6], [1, 5, 7], [6, 7, 5]]
    formula = CnfFormula.from_ints(clauses)
    assert check_profile(formula, PROFILES["mono3sat5"]).ok
    assert not check_profile(formula, PROFILES["mono3sat4"]).ok


def test_violation_order_is_deterministic():
    formula = CnfFormula.from_ints([[1, -2], [1, 2, 3, 4]])
    report = check_profile(formula, PROFILES["mono3sat4"])
    kinds = [v.kind for v in report]
    assert kinds == ["width", "monotonicity", "width"]


def test_unreferenced_declared_variables_do_not_violate():
    formula = CnfFormula.from_ints([[1, 2, 3]], num_vars=50)
    assert check_profile(formula, PROFILES["3sat4"]).ok


def test_empty_formula_passes_every_profile():
    empty = CnfFormula((), num_vars=0)
    for profile in PROFILES.values():
        assert check_profile(empty, profile).ok


def test_report_is_the_tuple_of_its_violations():
    mixed = check_profile(CnfFormula.from_ints([[1, -2], [1, 2, 3, 4]]), PROFILES["mono3sat4"])
    clean = check_profile(CnfFormula.from_ints([[1, 2, 3]]), PROFILES["mono3sat4"])
    for report in (mixed, clean):
        assert isinstance(report, ViolationReport)
        assert report == tuple(report)
        assert report.ok == (len(report) == 0)
        assert not hasattr(report, "__dict__") and not hasattr(report, "violations")
    assert mixed[0] is next(iter(mixed))
    assert (mixed[0].kind, mixed[0].where) == ("width", 0)
    assert not mixed.ok and clean.ok


def test_occurrences_are_never_counted_in_a_list_as_long_as_a_huge_variable():
    big = 10**20
    declared_only = CnfFormula.from_ints([[1, 2, 3], [-1, -2, -3]], num_vars=big)
    for profile in PROFILES.values():
        assert check_profile(declared_only, profile).ok
    referenced = CnfFormula.from_ints([[2 * i + 1, 2 * i + 2, big] for i in range(5)], num_vars=big)
    report = check_profile(referenced, PROFILES["mono3sat4"])
    assert [str(v) for v in report] == [f"occurrence violation at variable {big}: 5 occurrences, cap is 4"]


def test_one_mixed_clause_among_clauses_of_the_other_width():
    # a mixed 2-clause differs from its first literal in its second; this
    # mixed 3-clause only in its last
    for mixed, others in (([4, -5], [[1, 2, 3], [-1, -2, -3]]), ([4, 5, -6], [[1, 2], [-1, -3]])):
        formula = CnfFormula.from_ints([*others, mixed])
        report = check_profile(formula, PROFILES["mono23sat4"])
        assert [str(v) for v in report] == ["monotonicity violation at clause 2: mixed clause in a monotone profile"]


# width-3 clauses whose report under mono23sat4 names a mixed clause and
# variables 1 and 9 over the cap, with 2 exactly at it
WIDTH_3 = [[1, 2, 3], [1, 2, 4], [1, -5, 6], [1, 2, 7], [1, 3, 8]]
WIDTH_3 += [[7, 8, 9], [-9, -10, -11], [9, 10, 11], [9, 12, 13], [9, 14, 15]]
WIDTH_3_REPORT = [
    "monotonicity violation at clause 2: mixed clause in a monotone profile",
    "occurrence violation at variable 1: 5 occurrences, cap is 4",
    "occurrence violation at variable 9: 5 occurrences, cap is 4",
]


@pytest.mark.parametrize("chunk", [1, 4, 8, 1 << 14], ids=["every-clause", "one-clause", "two-clauses", "one-block"])
def test_width_3_magnitudes_by_column_count_as_the_list_layout_does(monkeypatch, chunk):
    monkeypatch.setattr(profiles, "_CHUNK", chunk)
    columns = CnfFormula.from_ints(WIDTH_3)
    # one monotone 2-clause on fresh variables puts its block in the list layout
    listed = CnfFormula.from_ints([*WIDTH_3, [20, 21]])
    # width 3: the magnitudes column after column; else one per literal and clause end
    assert _block(columns.flat)[1] == [abs(clause[column]) for column in range(3) for clause in WIDTH_3]
    assert _block(listed.flat)[1] == [*map(abs, listed.flat)]
    for formula in (columns, listed):
        report = check_profile(formula, PROFILES["mono23sat4"])
        assert [str(v) for v in report] == WIDTH_3_REPORT
        assert report == reference_check_profile(formula, PROFILES["mono23sat4"])


def _report(blocks: list[list[int]], limit: int = 100) -> list[str]:
    return [str(v) for v in check_blocks(map(_block, blocks), PROFILES["mono3sat4"], limit)]


def test_a_count_at_the_cap_passes_and_one_over_it_across_two_blocks_is_reported_once():
    at_cap = [[1, 2, 3, 0, 1, 4, 5, 0], [1, 6, 7, 0, 1, 8, 9, 0]]
    assert _report(at_cap) == []
    over = [[*at_cap[0], 1, 10, 11, 0], at_cap[1]]
    assert _report(over) == ["occurrence violation at variable 1: 5 occurrences, cap is 4"]
    # a variable past the limit sends the count to a Counter, with the same report
    assert _report(over, limit=5) == _report(over)
    assert _report(over, limit=0) == _report(over)
    # or part way, when the second block's largest variable is past it
    assert _report(over[::-1], limit=9) == _report(over)


def test_an_empty_block_counts_nothing():
    assert _block([])[1:] == ([], range(3, 0, 4), 0)
    blocks = [[1, 2, 3, 0] * 3, [], [1, 4, 5, 0, 1, 6, 7, 0], []]
    assert _report(blocks) == ["occurrence violation at variable 1: 5 occurrences, cap is 4"]
    assert _report([[]]) == _report([]) == []


# a monotone profile of every width the random formulas hold, so that
# they reach the monotonicity pass for widths other than 2 and 3
ANY_WIDTH = Profile(frozenset({1, 2, 3, 4}), monotone=True, occurrence_cap=4)


def _random_formula(rng: SplitMix64) -> CnfFormula:
    """A formula of up to 14 clauses of widths 1-4 over a few variables,
    so some exceed the cap, each clause monotone or mixed as the formula's
    mode draws it; some variables lie far above the literal count, and
    the declared count may exceed the largest referenced variable."""
    num_vars = 1 + rng.below(8)
    widths = ((3,), (2, 3), (1, 2, 3, 4))[rng.below(3)]
    mixed_odds = rng.below(4)  # 0: every clause monotone
    far = 10 ** (1 + rng.below(20)) if rng.below(4) == 0 else 0
    clauses = []
    for _ in range(rng.below(15)):
        pool = list(range(1, num_vars + 1))
        picks = [pool.pop(rng.below(len(pool))) for _ in range(min(widths[rng.below(len(widths))], num_vars))]
        picks = [var + far if var % 3 == 0 else var for var in picks]
        sign = -1 if rng.coin() else 1
        mixed = mixed_odds and rng.below(4) < mixed_odds
        clauses.append(Clause(var * (-sign if mixed and rng.coin() else sign) for var in picks))
    largest = max((abs(clause[-1]) for clause in clauses), default=0)
    return CnfFormula(clauses, largest + rng.below(3) * rng.below(10**6))


def test_reports_match_the_reference_check():
    rng = SplitMix64(0x9F0F)
    seen = set()
    for _ in range(3000):
        formula = _random_formula(rng)
        for profile in (*PROFILES.values(), ANY_WIDTH):
            report = check_profile(formula, profile)
            expected = reference_check_profile(formula, profile)
            assert [str(v) for v in report] == [str(v) for v in expected], (formula.clauses, profile)
            seen.update(v.kind for v in report)
            seen.add(report.ok)
    assert seen == {True, False, "width", "monotonicity", "occurrence"}
