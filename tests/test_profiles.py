"""Profile definitions and membership checking."""

from monocnf import PROFILES, CnfFormula, ViolationReport, check_profile


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
