"""Command-line interface: subcommand behavior, streams, exit codes."""

import gc
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import monocnf
from monocnf import TARGETS, CnfFormula, DimacsDocument, DimacsError, ProfileError, bench, dimacs, parse, serialize, solve
from monocnf import cli
from monocnf.cli import run

from conftest import BLOCK_CHARS

SAT_MIXED = "p cnf 3 1\n1 -2 3 0\n"
UNSAT_TINY = "p cnf 1 2\n1 0\n-1 0\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_reduce_then_validate_holds_for_every_target(tmp_path, capsys):
    source = _write(tmp_path, "in.cnf", SAT_MIXED)
    for name, target in TARGETS.items():
        # a "<target>-compact" entry is reached through --compact-r3
        base, compact, _ = name.partition("-compact")
        out = str(tmp_path / f"{name}.cnf")
        assert run(["reduce", "--target", base, *(["--compact-r3"] if compact else []), source, out]) == 0
        assert run(["validate", "--profile", target.profile, out]) == 0
    capsys.readouterr()


def test_validate_reports_violations_and_exits_1(tmp_path, capsys):
    source = _write(tmp_path, "in.cnf", SAT_MIXED)
    assert run(["validate", "--profile", "mono3sat4", source]) == 1
    out = capsys.readouterr().out
    assert "monotonicity violation" in out


def test_reduce_output_is_byte_stable(tmp_path):
    source = _write(tmp_path, "in.cnf", SAT_MIXED)
    first = str(tmp_path / "a.cnf")
    second = str(tmp_path / "b.cnf")
    assert run(["reduce", "--target", "mono3sat4", "--trace", source, first]) == 0
    assert run(["reduce", "--target", "mono3sat4", "--trace", source, second]) == 0
    assert (tmp_path / "a.cnf").read_bytes() == (tmp_path / "b.cnf").read_bytes()


def test_reduce_trace_comments_cover_every_clause(tmp_path):
    source = _write(tmp_path, "in.cnf", SAT_MIXED)
    out = str(tmp_path / "out.cnf")
    assert run(["reduce", "--target", "mono3sat5", "--trace", source, out]) == 0
    doc = parse((tmp_path / "out.cnf").read_text())
    assert len(doc.comments) == len(doc.formula.clauses)
    assert all(comment.startswith("trace ") for comment in doc.comments)


def test_reduce_without_trace_emits_no_comments(tmp_path):
    source = _write(tmp_path, "in.cnf", SAT_MIXED)
    out = str(tmp_path / "out.cnf")
    assert run(["reduce", "--target", "mono23sat4", source, out]) == 0
    assert parse((tmp_path / "out.cnf").read_text()).comments == ()


def test_reduce_compact_flag_only_applies_to_mono3sat5(tmp_path, capsys):
    source = _write(tmp_path, "in.cnf", SAT_MIXED)
    out = str(tmp_path / "out.cnf")
    assert run(["reduce", "--target", "mono3sat4", "--compact-r3", source, out]) == 2
    assert "compact-r3" in capsys.readouterr().err
    assert run(["reduce", "--target", "mono3sat5", "--compact-r3", source, out]) == 0
    assert len(parse((tmp_path / "out.cnf").read_text()).formula.clauses) == 18


def test_compact_flag_selects_only_the_mono3sat5_entry(tmp_path, capsys, monkeypatch):
    # another "<target>-compact" entry is not reachable through the flag
    monkeypatch.setitem(TARGETS, "mono3sat4-compact", TARGETS["mono3sat4"])
    source = _write(tmp_path, "in.cnf", SAT_MIXED)
    out = tmp_path / "out.cnf"
    assert run(["reduce", "--target", "mono3sat4", "--compact-r3", source, str(out)]) == 2
    assert capsys.readouterr().err == "error: --compact-r3 applies only to --target mono3sat5\n"
    assert not out.exists()


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_reduce_file_equals_serialized_target_reduce(tmp_path, name, trace):
    # the CLI renders the runs as text; Target.reduce builds the formula
    base, compact, _ = name.partition("-compact")
    args = ["reduce", "--target", base, *(["--compact-r3"] if compact else []), *(["--trace"] if trace else [])]
    sources = [CnfFormula((), num_vars=3)]
    for seed in range(4):
        formula = bench.generate(bench.GenConfig(25, 33, seed))
        mono23, _ = TARGETS["mono23sat4"].reduce(formula)
        assert {clause.sign for clause in mono23.clauses if len(clause) == 2} == {1, -1}
        sources += [formula, mono23]
    for index, source in enumerate(sources):
        path = _write(tmp_path, f"in-{index}.cnf", serialize(DimacsDocument(source)))
        out = tmp_path / f"out-{index}.cnf"
        code = run([*args, path, str(out)])
        try:
            reduced, comments = TARGETS[name].reduce(source)
        except ProfileError:  # mono23sat4 takes only 3-SAT-4 input
            assert (code, out.exists()) == (3, False)
            continue
        expected = serialize(DimacsDocument(reduced, comments if trace else ()))
        assert code == 0
        assert out.read_bytes() == expected.encode()


def test_failed_reduce_leaves_no_output_file(tmp_path, capsys):
    # the input of test_profile_error_is_one_short_line: the entry check
    # fails before the output file is opened
    source = str(tmp_path / "gen.cnf")
    assert run(["gen", "--vars", "30", "--clauses", "40", "--seed", "1", source]) == 0
    mono23 = str(tmp_path / "mono23.cnf")
    assert run(["reduce", "--target", "mono23sat4", source, mono23]) == 0
    assert run(["reduce", "--target", "mono23sat4", mono23, str(tmp_path / "out.cnf")]) == 3
    assert _one_short_error_line(capsys) == (
        "error: eliminate_mixed requires a 3-SAT-4 instance:"
        " width violation at clause 1: width 2, profile allows 3 (and 24 more)"
    )
    assert not (tmp_path / "out.cnf").exists()


def test_reduce_rejects_out_of_class_input(tmp_path, capsys):
    source = _write(tmp_path, "bad.cnf", "p cnf 2 1\n1 -2 0\n")
    out = str(tmp_path / "out.cnf")
    assert run(["reduce", "--target", "mono3sat5", source, out]) == 3
    assert "error" in capsys.readouterr().err


def test_solve_prints_sat_with_witness(tmp_path, capsys):
    source = _write(tmp_path, "in.cnf", SAT_MIXED)
    assert run(["solve", source]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "SAT"
    assert lines[1].startswith("v ") and lines[1].endswith(" 0")
    literals = [int(tok) for tok in lines[1].split()[1:-1]]
    assert sorted(abs(l) for l in literals) == [1, 2, 3]


def test_solve_prints_unsat(tmp_path, capsys):
    source = _write(tmp_path, "unsat.cnf", UNSAT_TINY)
    assert run(["solve", source]) == 0
    assert capsys.readouterr().out == "UNSAT\n"


def test_solve_methods_agree(tmp_path, capsys):
    source = _write(tmp_path, "in.cnf", SAT_MIXED)
    assert run(["solve", "--method", "exhaustive", source]) == 0
    exhaustive = capsys.readouterr().out
    assert run(["solve", "--method", "dpll", source]) == 0
    dpll = capsys.readouterr().out
    assert exhaustive.splitlines()[0] == dpll.splitlines()[0] == "SAT"


def test_solve_exhaustive_output_is_pinned(tmp_path, capsys):
    source = _write(tmp_path, "in.cnf", SAT_MIXED)
    assert run(["solve", "--method", "exhaustive", source]) == 0
    # assignment 0 (all false) already satisfies 1 -2 3
    assert capsys.readouterr().out == "SAT\nv -1 -2 -3 0\n"


def _gadget_report(sign, forced_true, forced_false):
    return (
        f"sign: {sign}\ndesignated: 3\nsatisfiable: true\nmodel_count: 45927\n"
        f"forced_true: {forced_true}\nforced_false: {forced_false}\nforcing_holds: true\n"
    )


def test_verify_gadget_both_signs(capsys):
    assert run(["verify-gadget"]) == 0
    assert capsys.readouterr().out == _gadget_report("true", "3", "-")
    assert run(["verify-gadget", "--sign", "false"]) == 0
    assert capsys.readouterr().out == _gadget_report("false", "-", "3")


def test_gen_writes_valid_instance(tmp_path, capsys):
    out = str(tmp_path / "gen.cnf")
    assert run(["gen", "--vars", "6", "--clauses", "8", "--seed", "42", out]) == 0
    assert run(["validate", "--profile", "3sat4", out]) == 0
    doc = parse((tmp_path / "gen.cnf").read_text())
    assert doc.formula.num_vars == 6
    assert len(doc.formula.clauses) == 8
    capsys.readouterr()


def test_gen_is_deterministic(tmp_path):
    a = str(tmp_path / "a.cnf")
    b = str(tmp_path / "b.cnf")
    assert run(["gen", "--vars", "9", "--clauses", "12", "--seed", "7", a]) == 0
    assert run(["gen", "--vars", "9", "--clauses", "12", "--seed", "7", b]) == 0
    assert (tmp_path / "a.cnf").read_bytes() == (tmp_path / "b.cnf").read_bytes()


@pytest.mark.parametrize("seed, alias", [("-1", "18446744073709551615"), ("0", "18446744073709551616")])
def test_gen_reads_its_seed_modulo_2_to_the_64(tmp_path, seed, alias):
    # the generator's state is one 64-bit word: a seed outside [0, 2^64)
    # draws the stream of its residue, and the comment echoes it as given
    texts = []
    for value in (seed, alias, "1"):
        out = tmp_path / f"{value}.cnf"
        assert run(["gen", "--vars", "9", "--clauses", "12", "--seed", value, str(out)]) == 0
        texts.append(out.read_text())
    heads = [text.split("\n", 1) for text in texts]
    assert [comment for comment, _ in heads] == [f"c gen vars=9 clauses=12 seed={value}" for value in (seed, alias, "1")]
    assert heads[0][1] == heads[1][1] != heads[2][1]


def test_gen_infeasible_budget_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "gen.cnf")
    assert run(["gen", "--vars", "3", "--clauses", "5", "--seed", "1", out]) == 2
    assert "occurrences" in capsys.readouterr().err


def _one_short_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert len(err[0]) < 200
    return err[0]


def test_gen_and_blowup_reject_huge_variable_count(tmp_path, capsys):
    # no list may be sized by a count beyond the index range
    out = str(tmp_path / "gen.cnf")
    assert run(["gen", "--vars", "99999999999999999999", "--clauses", "0", "--seed", "0", out]) == 2
    assert "generator limit" in _one_short_error_line(capsys)
    assert run(["blowup", "--seeds", "1", "--vars", "99999999999999999999", "--clauses", "1"]) == 2
    assert "generator limit" in _one_short_error_line(capsys)
    assert not (tmp_path / "gen.cnf").exists()


def test_blowup_rejects_negative_seed_count(capsys):
    assert run(["blowup", "--seeds", "-3", "--vars", "8", "--clauses", "10"]) == 2
    assert "--seeds must be non-negative" in _one_short_error_line(capsys)
    assert run(["blowup", "--seeds", "-" + "9" * 4000, "--vars", "8", "--clauses", "10"]) == 2
    assert "(4001 characters)" in _one_short_error_line(capsys)
    assert run(["blowup", "--seeds", "0", "--vars", "8", "--clauses", "10"]) == 0
    assert capsys.readouterr().out.splitlines() == [",".join(bench.CSV_HEADER)]


def test_gen_errors_on_long_counts_are_one_short_line(tmp_path, capsys):
    out = str(tmp_path / "gen.cnf")
    assert run(["gen", "--vars", "3", "--clauses", "9" * 4000, "--seed", "0", out]) == 2
    assert "occurrences" in _one_short_error_line(capsys)
    assert run(["gen", "--vars", "-" + "9" * 4000, "--clauses", "1", "--seed", "0", out]) == 2
    assert "at least 3 variables" in _one_short_error_line(capsys)
    assert run(["gen", "--vars", "3", "--clauses", "-" + "9" * 4000, "--seed", "0", out]) == 2
    assert "nonnegative" in _one_short_error_line(capsys)


def test_profile_error_is_one_short_line(tmp_path, capsys):
    # the mixed-elimination output keeps one 2-clause per mixed clause, each
    # a width violation of the 3-SAT-4 entry profile
    source = str(tmp_path / "gen.cnf")
    assert run(["gen", "--vars", "30", "--clauses", "40", "--seed", "1", source]) == 0
    mono23 = str(tmp_path / "mono23.cnf")
    assert run(["reduce", "--target", "mono23sat4", source, mono23]) == 0
    assert run(["reduce", "--target", "mono23sat4", mono23, str(tmp_path / "out.cnf")]) == 3
    line = _one_short_error_line(capsys)
    assert line.startswith("error: eliminate_mixed requires a 3-SAT-4 instance: width violation at clause ")
    assert line.endswith(" more)")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--vars", "9" * 5000, "--clauses", "1", "--seed", "0", "x.cnf"],
        ["gen", "--vars", "3", "--clauses", "9" * 5000, "--seed", "0", "x.cnf"],
        ["gen", "--vars", "3", "--clauses", "1", "--seed", "9" * 5000, "x.cnf"],
        ["blowup", "--seeds", "9" * 5000, "--vars", "3", "--clauses", "1"],
        ["reduce", "--target", "x" * 5000, "a", "b"],
        ["validate", "--profile", "x" * 5000, "a"],
    ],
)
def test_argument_errors_are_short_lines(argv, capsys):
    # argparse echoes the bad argument; the echo is clipped
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument --" in err
    assert all(len(line) < 300 for line in err.splitlines())


def test_check_equisat_verdicts(tmp_path, capsys, monkeypatch):
    original = _write(tmp_path, "orig.cnf", SAT_MIXED)
    reduced = str(tmp_path / "red.cnf")
    assert run(["reduce", "--target", "mono3sat4", original, reduced]) == 0
    assert run(["check-equisat", original, reduced]) == 0
    assert "equisatisfiable" in capsys.readouterr().out

    unsat = _write(tmp_path, "unsat.cnf", UNSAT_TINY)
    assert run(["check-equisat", original, unsat]) == 1
    assert "not equisatisfiable" in capsys.readouterr().out

    # no row takes a mixed 2-clause: DPLL decides, with no traceback
    pair = _write(tmp_path, "pair.cnf", "p cnf 3 2\n1 -2 0\n1 2 3 0\n")
    assert run(["check-equisat", pair, pair]) == 0
    assert capsys.readouterr() == ("equisatisfiable\n", "")

    def refuse(formula):
        raise AssertionError("solve_dpll was called")

    # the trace comments are not clauses, and --compact-r3 has its own target
    monkeypatch.setattr(solve, "solve_dpll", refuse)
    for flags in (["--target", "mono3sat4", "--trace"], ["--target", "mono3sat5", "--compact-r3"]):
        assert run(["reduce", *flags, original, reduced]) == 0
        assert run(["check-equisat", original, reduced]) == 0
        assert capsys.readouterr().out == "equisatisfiable\n"


@cache
def _reduced_n300() -> tuple[str, bytes]:
    """An n=300 instance and its mono3sat4 output, 8,252 clauses over several
    body blocks of the default size."""
    original = bench.generate(bench.GenConfig(300, 400, 7))
    reduced, _ = TARGETS["mono3sat4"].reduce(original)
    return serialize(DimacsDocument(original)), serialize(DimacsDocument(reduced)).encode()


def _late_errors():
    """(label, reduced file) pairs: the output of ``_reduced_n300``, which
    matches the target's runs up to a late error."""
    _, data = _reduced_n300()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1  # the start of the last clause line
    top = data.split(maxsplit=3)[2]  # the declared variable count
    yield "clause-count-mismatch", data[:last]
    yield "last-clause-unterminated", data[:last] + b"1 -2 3\n"
    yield "duplicate-in-last-clause", data[:last] + b"-%s -%s 1 0\n" % (top, top)
    yield "non-utf8-byte", data[: last - 100] + b"\xff" + data[last - 100 :]


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
@pytest.mark.parametrize("data", [pytest.param(data, id=label) for label, data in _late_errors()])
def test_check_equisat_reports_a_late_error_in_the_reduced_file_as_parse_does(
    tmp_path, capsys, monkeypatch, data, block_chars
):
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
    original = _write(tmp_path, "orig.cnf", _reduced_n300()[0])
    reduced = tmp_path / "red.cnf"
    reduced.write_bytes(data)
    with pytest.raises(DimacsError) as error:
        parse(data)

    def refuse(text):
        raise AssertionError("the reduced file was parsed whole")

    # the error comes from the block pass, which reads up to it
    monkeypatch.setattr(solve, "parse", refuse)
    assert run(["check-equisat", original, str(reduced)]) == 3
    assert capsys.readouterr() == ("", f"error: {error.value}\n")


def _refuse_dpll(monkeypatch) -> None:
    def refuse(formula):
        raise AssertionError("solve_dpll was called")

    monkeypatch.setattr(solve, "solve_dpll", refuse)


def test_check_equisat_certifies_a_reduction_above_the_witness_limit(tmp_path, capsys, monkeypatch):
    original = _write(tmp_path, "orig.cnf", _reduced_n300()[0])
    reduced = tmp_path / "red.cnf"
    reduced.write_bytes(_reduced_n300()[1])
    num_vars = parse(reduced.read_bytes()).formula.num_vars
    _refuse_dpll(monkeypatch)
    # the reduced header, then both headers, above the limit: the lemma
    # decides, and only DPLL would have consulted the limit
    for limit in (num_vars - 1, 299, 0):
        monkeypatch.setattr(solve, "WITNESS_VAR_LIMIT", limit)
        assert run(["check-equisat", original, str(reduced)]) == 0
        assert capsys.readouterr() == ("equisatisfiable\n", "")


def test_check_equisat_certifies_a_reduction_that_declares_10_to_the_30_variables(tmp_path, capsys, monkeypatch):
    # nothing on the certified path may be sized by the declared count
    text, data = _reduced_n300()
    original = _write(tmp_path, "orig.cnf", text)
    reduced = tmp_path / "red.cnf"
    reduced.write_bytes(b"p cnf %d %s" % (10**30, data.split(maxsplit=3)[3]))  # the clause count and the body
    _refuse_dpll(monkeypatch)
    assert run(["check-equisat", original, str(reduced)]) == 0
    assert capsys.readouterr() == ("equisatisfiable\n", "")


def test_check_equisat_refuses_a_dpll_side_over_the_witness_limit_before_any_search(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solve, "WITNESS_VAR_LIMIT", 30)
    # no file is a reduction of another, so DPLL decides each pair
    at_limit = _write(tmp_path, "limit.cnf", "p cnf 30 1\n1 2 3 0\n")
    other = _write(tmp_path, "other.cnf", "p cnf 30 1\n4 5 6 0\n")
    over = _write(tmp_path, "over.cnf", "p cnf 31 1\n4 5 6 0\n")
    assert run(["check-equisat", at_limit, other]) == 0
    assert capsys.readouterr() == ("equisatisfiable\n", "")
    _refuse_dpll(monkeypatch)
    for pair in ((at_limit, over), (over, at_limit)):
        assert run(["check-equisat", *pair]) == 3
        assert capsys.readouterr() == ("", "error: declared variable count exceeds the witness limit of 30\n")


def test_blowup_emits_csv(capsys):
    assert run(["blowup", "--seeds", "2", "--vars", "6", "--clauses", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed,input_vars,input_clauses,mixed,pos2,neg2,pipeline,out_vars,out_clauses,millis"
    assert len(lines) == 1 + 2 * 4  # four pipelines per seed
    assert lines[1].startswith("0,6,8,")
    assert lines[5].startswith("1,6,8,")


def test_missing_input_file_is_input_error(tmp_path, capsys):
    assert run(["solve", str(tmp_path / "nope.cnf")]) == 3
    assert "error" in capsys.readouterr().err


def test_malformed_dimacs_is_input_error(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cnf", "p cnf 1 1\n1\n")
    assert run(["solve", bad]) == 3
    assert "not terminated" in capsys.readouterr().err


def test_validate_accepts_satlib_trailer(tmp_path, capsys):
    source = _write(tmp_path, "satlib.cnf", "p cnf 3 1\n1 -2 3 0\n%\n0\n")
    assert run(["validate", "--profile", "3sat4", source]) == 0
    assert capsys.readouterr().out == ""


def test_huge_header_count_is_input_error(tmp_path, capsys):
    source = _write(tmp_path, "huge.cnf", "p cnf " + "9" * 5000 + " 0\n")
    assert run(["validate", "--profile", "3sat4", source]) == 3
    assert "line 1: header count has too many digits" in capsys.readouterr().err


def test_long_token_error_is_one_short_line(tmp_path, capsys):
    source = _write(tmp_path, "long.cnf", "p cnf 3 1\n1 " + "9" * 5000 + " 0\n")
    assert run(["validate", "--profile", "3sat4", source]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: line 2: invalid literal token")
    assert len(err[0]) < 200


def test_exhaustive_limit_error_is_one_short_line(tmp_path, capsys):
    source = _write(tmp_path, "wide.cnf", "p cnf " + "9" * 4000 + " 1\n1 2 3 0\n")
    assert run(["solve", "--method", "exhaustive", source]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert len(err[0]) < 200


def test_declared_count_beyond_index_range_is_accepted(tmp_path, capsys):
    # the declared count exceeds sys.maxsize; nothing may be sized by it
    source = _write(tmp_path, "wide.cnf", "p cnf 99999999999999999999 1\n1 2 3 0\n")
    assert run(["validate", "--profile", "3sat4", source]) == 0
    output = str(tmp_path / "out.cnf")
    assert run(["reduce", "--target", "mono3sat4", source, output]) == 0
    assert capsys.readouterr().out == ""
    with open(output) as handle:
        assert handle.read() == "p cnf 99999999999999999999 1\n1 2 3 0\n"


def test_undecodable_input_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_bytes(b"p cnf 1 1\n\xff 0\n")
    assert run(["validate", "--profile", "3sat4", str(bad)]) == 3
    assert "UTF-8" in capsys.readouterr().err


def test_deep_search_is_solved(tmp_path, capsys):
    # no unit and no pure literal, so DPLL branches once per pair
    pairs = 1200
    lines = [f"p cnf {2 * pairs} {2 * pairs}"]
    for x in range(1, 2 * pairs, 2):
        lines += [f"{x} {x + 1} 0", f"-{x} -{x + 1} 0"]
    source = _write(tmp_path, "deep.cnf", "\n".join(lines) + "\n")
    assert run(["solve", source]) == 0
    verdict, witness = capsys.readouterr().out.splitlines()
    assert verdict == "SAT"
    v, *lits, end = witness.split()
    assert (v, end) == ("v", "0")
    assert len(lits) == 2 * pairs


def test_witness_limit_is_input_error(tmp_path, capsys, monkeypatch):
    # the witness lists every declared variable, so a huge count is refused
    # before any search; a small limit keeps the test from allocating
    monkeypatch.setattr(solve, "WITNESS_VAR_LIMIT", 30)
    over = _write(tmp_path, "over.cnf", "p cnf 31 1\n1 2 3 0\n")
    assert run(["solve", over]) == 3
    assert capsys.readouterr() == ("", "error: declared variable count exceeds the witness limit of 30\n")
    # mono23sat4 keeps the monotone clause, so its output on over.cnf is
    # over.cnf: the lemma decides, and the limit bounds only DPLL
    assert run(["check-equisat", over, over]) == 0
    assert capsys.readouterr() == ("equisatisfiable\n", "")
    at_limit = _write(tmp_path, "limit.cnf", "p cnf 30 1\n1 2 3 0\n")
    assert run(["solve", at_limit]) == 0
    verdict, witness = capsys.readouterr().out.splitlines()
    assert verdict == "SAT"
    assert len(witness.split()) == 32


@pytest.mark.parametrize("block_chars", BLOCK_CHARS[:-1])
@pytest.mark.parametrize(
    "method, num_vars, error",
    [
        pytest.param("dpll", 4194305, "error: declared variable count exceeds the witness limit of 4194304\n", id="dpll"),
        pytest.param("exhaustive", 25, "error: variable count exceeds the exhaustive limit of 24\n", id="exhaustive"),
    ],
)
def test_solve_refuses_a_header_over_the_limit_before_parsing_the_body(
    method, num_vars, error, block_chars, tmp_path, capsys, monkeypatch
):
    # the bad token lies past the first block: only the header and that
    # block are read before the method's limit refuses the file
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
    source = _write(tmp_path, "over.cnf", f"p cnf {num_vars} 2\n1 2 3 0\n1 2 x 0\n")
    assert run(["solve", "--method", method, source]) == 3
    assert capsys.readouterr() == ("", error)


def test_memory_error_is_one_error_line_and_exit_3(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_solve", exhausted)
    assert run(["solve", "any.cnf"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: out of memory\n")


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["reduce", "--target", "nonsense", "a", "b"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "reduce" in capsys.readouterr().out


def test_run_restores_the_callers_collector_state(tmp_path, capsys, monkeypatch):
    # the collector is off while a command runs, and an in-process caller
    # gets back the state it had, also when the command fails
    during = []
    check = cli.check_blocks
    monkeypatch.setattr(cli, "check_blocks", lambda *args: during.append(gc.isenabled()) or check(*args))
    source = _write(tmp_path, "in.cnf", SAT_MIXED)
    after = []
    was_enabled = gc.isenabled()
    try:
        for switch in (gc.enable, gc.disable):
            switch()
            for path in (source, str(tmp_path / "missing.cnf")):
                run(["validate", "--profile", "3sat4", path])
                after.append(gc.isenabled())
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
    assert during == [False, False]
    assert after == [True, True, False, False]


def test_commands_in_one_process_each_act_as_they_do_alone(tmp_path, capsys, monkeypatch):
    # run parses every command with one parser per process; each command
    # must still exit and print as it does in a process of its own
    commands = [
        ["gen", "--vars", "30", "--clauses", "40", "--seed", "1", "g.cnf"],
        ["gen", "--vars", "9" * 5000, "--clauses", "1", "--seed", "0", "x.cnf"],
        ["reduce", "--target", "mono3sat4", "--compact-r3", "g.cnf", "r.cnf"],
        ["validate", "--profile", "mono3sat4", "g.cnf"],
    ]
    alone, together = tmp_path / "alone", tmp_path / "together"
    alone.mkdir()
    together.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(monocnf.__file__).parents[1]))
    expected = []
    for argv in commands:
        child = subprocess.run(
            [sys.executable, "-m", "monocnf", *argv], cwd=alone, env=env, capture_output=True, text=True
        )
        expected.append((child.returncode, child.stdout, child.stderr))
    monkeypatch.chdir(together)
    capsys.readouterr()
    for argv, outcome in zip(commands, expected):
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == outcome, argv[0]
    assert [code for code, _, _ in expected] == [0, 2, 2, 1]
    assert all(len(line) < 300 for line in expected[1][2].splitlines())
    assert (together / "g.cnf").read_bytes() == (alone / "g.cnf").read_bytes()
    assert not (together / "x.cnf").exists() and not (together / "r.cnf").exists()
    assert cli.build_parser() is not cli.build_parser()
