"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N PASS/FAIL" line before asserting,
so the full scorecard is visible with `pytest tests/test_acceptance.py -s`.
"""

import time

import pytest

from monocnf import (
    FORCE_FALSE_GADGET,
    FORCE_TRUE_GADGET,
    PROFILES,
    TARGETS,
    Clause,
    CnfFormula,
    DimacsDocument,
    FreshAllocator,
    GenConfig,
    apply_r1,
    apply_r2,
    apply_r3,
    blowup_rows,
    check_profile,
    evaluate,
    generate,
    instantiate_gadget,
    occurrences,
    parse,
    serialize,
    solve_dpll,
    solve_exhaustive,
    verify_forcing,
)

# (variables, clauses) shapes cycled through the corpus seeds; all within
# the generator's occurrence budget, at most 8 variables and 10 clauses
SHAPES = [(4, 5), (5, 6), (6, 8), (7, 9), (8, 10), (4, 4), (5, 5), (6, 7), (7, 8), (8, 9)]


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {status}: {description}")
    assert ok, f"criterion {number} failed: {description}" + (f" [{detail}]" if detail else "")


@pytest.fixture(scope="module")
def corpus():
    instances = []
    for seed in range(200):
        variables, clauses = SHAPES[seed % len(SHAPES)]
        instances.append(generate(GenConfig(variables, clauses, seed)))
    return instances


@pytest.fixture(scope="module")
def reductions(corpus):
    table = []
    for formula in corpus:
        outputs = {name: target.reduce(formula)[0] for name, target in TARGETS.items()}
        table.append((formula, outputs))
    return table


def test_criterion_01_gadget_forcing():
    start = time.perf_counter()
    failures = []
    for template, attribute in ((FORCE_TRUE_GADGET, "forced_true"), (FORCE_FALSE_GADGET, "forced_false")):
        clauses, designated = instantiate_gadget(template, FreshAllocator(1))
        report = verify_forcing(clauses, designated)
        if not report.satisfiable:
            failures.append(f"{attribute}: unsatisfiable")
        if designated not in getattr(report, attribute):
            failures.append(f"{attribute}: designated variable not forced")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _criterion(
        1,
        "exhaustive 2^21 sweep forces the designated variable in both gadget signs",
        not failures,
        "; ".join(failures),
    )


def test_criterion_02_known_witness():
    clauses, _ = instantiate_gadget(FORCE_TRUE_GADGET, FreshAllocator(1))
    witness = {v: v in {3, 5, 10, 12, 15, 16, 20} for v in range(1, 22)}
    ok = evaluate(CnfFormula(clauses, num_vars=21), witness)
    _criterion(2, "the known assignment satisfies all 25 gadget clauses", ok)


def test_criterion_03_gadget_occurrence_profile():
    clauses, designated = instantiate_gadget(FORCE_TRUE_GADGET, FreshAllocator(1))
    counts = occurrences(CnfFormula(clauses, num_vars=21))
    checks = {
        "designated occurs 3 times": counts[designated] == 3,
        "no variable above 4": max(counts.values()) <= 4,
        "last variable occurs twice": counts[21] == 2,
    }
    failed = [name for name, ok in checks.items() if not ok]
    _criterion(
        3,
        "gadget occurrences: designated 3, others at most 4, last variable 2",
        not failed,
        "; ".join(failed),
    )


def test_criterion_04_rule_arithmetic():
    failures = []
    for sign in (1, -1):
        pair = Clause((sign * 1, sign * 2))
        for compact, clause_count, var_count in ((False, 19, 18), (True, 17, 16)):
            alloc = FreshAllocator(3)
            produced = apply_r3(pair, alloc, compact=compact)
            fresh = range(3, alloc.next_index)
            label = f"sign={sign} compact={compact}"
            if len(produced) != clause_count:
                failures.append(f"{label}: {len(produced)} clauses")
            if len(fresh) != var_count:
                failures.append(f"{label}: {len(fresh)} fresh variables")
            counts = occurrences(CnfFormula(produced))
            if counts[1] != 1 or counts[2] != 1:
                failures.append(f"{label}: original variable occurrences changed")
            if max(counts[v] for v in fresh) > 5:
                failures.append(f"{label}: fresh variable above 5 occurrences")
    _criterion(
        4,
        "apply_r3 emits 19/18 (standard) and 17/16 (compact) with unchanged pair occurrences",
        not failures,
        "; ".join(failures),
    )


def test_criterion_05_rule_level_equisatisfiability():
    start = time.perf_counter()
    rules = [
        ("r1", lambda c, a: apply_r1(c, a)),
        ("r2", lambda c, a: apply_r2(c, a)),
        ("r3", lambda c, a: apply_r3(c, a)),
        ("r3-compact", lambda c, a: apply_r3(c, a, compact=True)),
    ]
    failures = []
    for name, rule in rules:
        for sign in (1, -1):
            pair = Clause((sign * 1, sign * 2))
            alloc = FreshAllocator(3)
            produced = rule(pair, alloc)
            num_vars = alloc.next_index - 1
            for a in (False, True):
                for b in (False, True):
                    pinned = produced + [
                        Clause(((1 if a else -1),)),
                        Clause(((2 if b else -2),)),
                    ]
                    extended = solve_exhaustive(CnfFormula(pinned, num_vars=num_vars)).satisfiable
                    direct = any((lit > 0) == (a if abs(lit) == 1 else b) for lit in pair)
                    if extended != direct:
                        failures.append(f"{name} sign={sign} a={a} b={b}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _criterion(
        5,
        "brute force confirms each rule preserves the 2-clause's satisfiability per projection",
        not failures,
        "; ".join(failures),
    )


def test_criterion_06_pipeline_equisatisfiability(reductions):
    start = time.perf_counter()
    failures = []
    for index, (formula, outputs) in enumerate(reductions):
        original = solve_exhaustive(formula).satisfiable
        for name, reduced in outputs.items():
            verdict = solve_dpll(reduced)
            if verdict.satisfiable != original:
                failures.append(f"instance {index} {name}: verdict mismatch")
                continue
            if verdict.satisfiable and verdict.witness is not None:
                restricted = {v: verdict.witness[v] for v in range(1, formula.num_vars + 1)}
                if not evaluate(formula, restricted):
                    failures.append(f"instance {index} {name}: restriction not a model")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    _criterion(
        6,
        "200 seeded instances agree on SAT/UNSAT across every pipeline, with model restriction",
        not failures,
        "; ".join(failures[:5]),
    )


def test_criterion_07_profile_guarantees(reductions):
    failures = []
    for index, (_, outputs) in enumerate(reductions):
        for name, reduced in outputs.items():
            report = check_profile(reduced, PROFILES[TARGETS[name].profile])
            if not report.ok:
                failures.append(f"instance {index} {name}: {len(report)} violations")
    _criterion(
        7,
        "every pipeline output passes its declared profile on the criterion-6 corpus",
        not failures,
        "; ".join(failures[:5]),
    )


def test_criterion_08_blowup_identities(corpus):
    failures = []
    for index, formula in enumerate(corpus):
        try:
            rows = blowup_rows(index, formula)
        except RuntimeError as exc:
            failures.append(f"instance {index}: {exc}")
            continue
        mixed, pos2, neg2 = (int(column) for column in rows[0][3:6])
        if pos2 + neg2 != mixed:
            failures.append(f"instance {index}: 2-clause census disagrees with mixed count")
    _criterion(
        8,
        "measured clause/variable growth matches the closed forms on the criterion-6 corpus",
        not failures,
        "; ".join(failures[:5]),
    )


def test_criterion_09_oracle_cross_validation():
    shapes = [(3, 4), (4, 5), (6, 8), (8, 10), (10, 13), (12, 16), (14, 18), (16, 21), (16, 12), (12, 8)]
    failures = []
    for seed in range(500):
        variables, clauses = shapes[seed % len(shapes)]
        formula = generate(GenConfig(variables, clauses, seed))
        if solve_exhaustive(formula).satisfiable != solve_dpll(formula).satisfiable:
            failures.append(f"seed {seed}")
    _criterion(
        9,
        "exhaustive and DPLL verdicts agree on 500 seeded formulas up to 16 variables",
        not failures,
        "; ".join(failures[:5]),
    )


def test_criterion_10_dimacs_round_trip(reductions):
    failures = []
    for index, (formula, outputs) in enumerate(reductions):
        documents = [DimacsDocument(formula, (f"instance {index}",))]
        documents.extend(DimacsDocument(reduced) for reduced in outputs.values())
        for doc in documents:
            once = serialize(doc)
            twice = serialize(parse(once))
            if once != twice:
                failures.append(f"instance {index}")
                break
    _criterion(
        10,
        "serialize-parse-serialize is byte-identical on all generated and reduced formulas",
        not failures,
        "; ".join(failures[:5]),
    )
