"""DIMACS parsing, canonical serialization, and error reporting."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import monocnf
from monocnf import (
    CnfFormula,
    DimacsDocument,
    DimacsError,
    GenConfig,
    cli,
    dimacs,
    dump,
    generate,
    load,
    parse,
    serialize,
    to_monotone_3sat4,
)
from naive import reference_parse, reference_serialize


def test_parse_basic_document():
    doc = parse("c a comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n")
    assert doc.formula.num_vars == 3
    assert len(doc.formula.clauses) == 2
    assert doc.comments == ("a comment",)
    assert list(doc.formula.clauses) == [(1, -2, 3), (-1, 2)]


def test_parse_rejects_undecodable_bytes():
    with pytest.raises(DimacsError, match="UTF-8"):
        parse(b"p cnf 1 1\n1 0\n\xff\n")


def test_parse_accepts_crlf_and_extra_whitespace():
    doc = parse("p cnf 2 1\r\n  1   2  0\r\n")
    assert doc.formula.clauses[0] == (1, 2)


def test_parse_accepts_multi_line_clause():
    doc = parse("p cnf 3 1\n1\n2\n3 0\n")
    assert doc.formula.clauses[0] == (1, 2, 3)


def test_parse_stops_at_satlib_trailer():
    doc = parse("p cnf 3 1\n1 -2 3 0\n%\n0\n")
    assert list(doc.formula.clauses) == [(1, -2, 3)]


@pytest.mark.parametrize("char", ["\x0c", "\u2028"], ids=["form-feed", "line-separator"])
def test_parse_keeps_line_break_characters_inside_comments(char):
    text = f"c made by tool{char}v2\np cnf 3 1\n1 -2 3 0\n"
    doc = parse(text)
    assert doc.comments == (f"made by tool{char}v2",)
    assert list(doc.formula.clauses) == [(1, -2, 3)]
    assert serialize(doc) == text


def test_parse_accepts_bytes():
    doc = parse(b"p cnf 1 1\n1 0\n")
    assert doc.formula.num_vars == 1


def test_parse_interleaved_comments_collected_in_order():
    doc = parse("c one\np cnf 2 2\n1 0\nc two\n2 0\n")
    assert doc.comments == ("one", "two")


def test_parse_empty_formula():
    doc = parse("p cnf 0 0\n")
    assert doc.formula.num_vars == 0
    assert doc.formula.clauses == ()


def test_serialize_canonical_form():
    doc = DimacsDocument(CnfFormula.from_ints([[3, -1, 2]], num_vars=4), ("note", ""))
    assert serialize(doc) == "c note\nc\np cnf 4 1\n-1 2 3 0\n"
    mixed = CnfFormula.from_ints([[5], [2, -1], [3, -4, 1], [-9, 8, 7, -6, 10], [-2]], num_vars=12)
    for doc, text in [
        (DimacsDocument(mixed, ("widths 1, 2, 3 and 5",)), None),
        (DimacsDocument(CnfFormula([], num_vars=3), ("empty", "")), "c empty\nc\np cnf 3 0\n"),
        (DimacsDocument(CnfFormula([])), "p cnf 0 0\n"),
        (DimacsDocument(mixed), "p cnf 12 5\n5 0\n-1 2 0\n1 3 -4 0\n-6 7 8 -9 10 0\n-2 0\n"),
    ]:
        assert serialize(doc) == reference_serialize(doc)
        if text is not None:
            assert serialize(doc) == text


def _outcome(text):
    """parse's document or its (message, line), checked against the frozen
    line-by-line reference."""
    try:
        outcome = parse(text)
    except DimacsError as exc:
        outcome = (str(exc), exc.line)
    try:
        expected = reference_parse(text)
    except DimacsError as exc:
        expected = (str(exc), exc.line)
    assert outcome == expected
    return outcome


def _deep(line: str) -> str:
    """A 5-variable document with ``line`` as its 9,001st clause line
    (line 9,002 of the file), past the body's first block."""
    body = ["1 -2 3 0"] * 9000 + [line] + ["-3 4 5 0"] * 999
    assert len("\n".join(body[:9000])) > dimacs._BLOCK_CHARS
    return "p cnf 5 10000\n" + "\n".join(body) + "\n"


@pytest.mark.parametrize(
    "text,expected",
    [
        pytest.param("p cnf 7 2\n+1 -2 -0\n007 -3 0\n", [(1, -2), (-3, 7)], id="signed-and-padded-literals"),
        pytest.param("p cnf 3 2\r\n1 -2 3 0\r\n-1 2 0\r\n", [(1, -2, 3), (-1, 2)], id="crlf-body"),
        pytest.param("p cnf 3 1\n3 1 2 0\n", [(1, 2, 3)], id="descending-clause-sorted"),
        pytest.param("p cnf 5 0\n", [], id="empty-body"),
        pytest.param("p cnf 5 0", [], id="empty-body-no-line-end"),
        pytest.param("p cnf 3 1\n1 -2 3 0\n%\n0\n", [(1, -2, 3)], id="satlib-trailer"),
        pytest.param("p cnf 3 1\n1\x0c-2 3 0\n", [(1, -2, 3)], id="form-feed-between-literals"),
        pytest.param(_deep("-3 4 5 0"), [(1, -2, 3)] * 9000 + [(-3, 4, 5)] * 1000, id="deep-regular-body"),
    ],
)
def test_parse_body_matches_reference(text, expected):
    assert list(_outcome(text).formula.clauses) == expected


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param(_deep("4 -2 4 0"), "line 9002: duplicate variable 4 in clause", id="duplicate-variable"),
        pytest.param(_deep("1 -2 6 0"), "line 9002: variable 6 exceeds declared count 5", id="out-of-range"),
    ],
)
def test_parse_error_deep_in_body_keeps_its_line(text, message):
    assert _outcome(text) == (message, 9002)


def _spy_blocks(monkeypatch) -> list[tuple[int, int, bool]]:
    """Record each block the parser tries: its start, its end, and whether
    it was tokenized whole."""
    calls = []

    def spy(text, start, num_vars):
        stop, clauses = read(text, start, num_vars)
        calls.append((start, stop, clauses is not None))
        return stop, clauses

    read = dimacs._block_clauses
    monkeypatch.setattr(dimacs, "_block_clauses", spy)
    return calls


@pytest.mark.parametrize("block_chars", [1, 7, dimacs._BLOCK_CHARS])
def test_clause_split_across_a_block_boundary(monkeypatch, block_chars):
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
    # every clause line is cut in two, so some cut falls on a block boundary
    text = "p cnf 3 6000\n" + "1 -2\n3 0\n-1\n2 -3 0\n" * 3000
    doc = _outcome(text)
    assert list(doc.formula.clauses) == [(1, -2, 3), (-1, 2, -3)] * 3000
    calls = _spy_blocks(monkeypatch)
    assert _outcome(serialize(doc)) == doc
    assert calls and all(accepted for _, _, accepted in calls)  # one clause per line: every block is whole


@pytest.mark.parametrize(
    "text,irregular,line",
    [
        pytest.param(_deep("-3 4 5 0") + "%\n0\n", "%", None, id="satlib-trailer"),
        pytest.param(_deep("c note\n-3 4 5 0"), "c note", None, id="comment-mid-body"),
        pytest.param(_deep("-3 4 5 0")[:-9] + "4 -3 4 0\n", "4 -3 4 0", 10001, id="duplicate-in-last-clause"),
    ],
)
# by default the comment falls in the second and last block; in 16 KiB
# blocks it falls in the fifth of six, so a whole block follows it
@pytest.mark.parametrize("block_chars", [1 << 14, dimacs._BLOCK_CHARS])
def test_only_the_block_holding_an_irregular_line_is_read_line_by_line(
    monkeypatch, block_chars, text, irregular, line
):
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
    calls = _spy_blocks(monkeypatch)
    outcome = _outcome(text)
    assert (outcome[1] if isinstance(outcome, tuple) else None) == line
    # the blocks are tried once each, in order, from the header to the end
    assert [start for start, _, _ in calls] == [text.index("\n") + 1] + [stop for _, stop, _ in calls[:-1]]
    assert calls[-1][1] == len(text)
    at = text.index(irregular)
    assert [not accepted for _, _, accepted in calls] == [start <= at < stop for start, stop, _ in calls]


def _deep_respaced(old: str, new: str) -> str:
    """``_deep``'s regular document with every ``old`` in its body made ``new``."""
    header, body = _deep("-3 4 5 0").split("\n", 1)
    return header + "\n" + body.replace(old, new)


LONG_LITERAL = "9" * 4301


@pytest.mark.parametrize(
    "text,refused",
    [
        pytest.param(_deep_respaced(" ", "  "), None, id="doubled-spaces"),
        pytest.param(_deep_respaced(" ", "\t"), None, id="tabs-between-literals"),
        pytest.param(_deep("-3\t4 \t5 0"), None, id="tabs-in-one-line"),
        pytest.param(_deep(" \t-3 4 5 0 "), None, id="leading-and-trailing-blanks"),
        pytest.param(_deep_respaced("\n", "\r\n"), None, id="crlf"),
        pytest.param(_deep_respaced("\n", "\n\n"), None, id="blank-lines"),
        pytest.param(_deep_respaced("0\n", "0\n \r\n"), None, id="blank-lines-holding-blanks"),
        pytest.param(_deep("-3 4 5 0")[:-1], None, id="no-final-newline"),
        pytest.param(_deep_respaced(" 0\n", " -0\n"), None, id="minus-zero-terminators"),
        pytest.param(_deep("-3 +4 +5 0"), "+4", id="plus-signs"),
        pytest.param(_deep("-3 004 05 0"), "004", id="leading-zeros"),
        pytest.param(_deep("-3 4 " + LONG_LITERAL + " 0"), LONG_LITERAL, id="literal-of-4301-digits"),
    ],
)
@pytest.mark.parametrize("block_chars", [1 << 14, dimacs._BLOCK_CHARS])
def test_only_a_block_holding_a_token_json_refuses_is_read_line_by_line(monkeypatch, block_chars, text, refused):
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
    calls = _spy_blocks(monkeypatch)
    outcome = _outcome(text)
    if refused == LONG_LITERAL:
        assert outcome[1] == 9002
    else:
        assert list(outcome.formula.clauses) == [(1, -2, 3)] * 9000 + [(-3, 4, 5)] * 1000
    # any run of blanks is read whole; a sign, a padded literal or one too
    # long for int() sends its block to the line loop
    at = -1 if refused is None else text.index(refused)
    assert [not accepted for _, _, accepted in calls] == [start <= at < stop for start, stop, _ in calls]
    assert len(calls) > 1


@pytest.mark.parametrize("block_chars", [1 << 14, dimacs._BLOCK_CHARS])
def test_only_the_block_holding_a_clause_out_of_canonical_order_is_read_line_by_line(monkeypatch, block_chars):
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
    calls = _spy_blocks(monkeypatch)
    text = _deep("5 4 -3 0")
    assert list(_outcome(text).formula.clauses) == [(1, -2, 3)] * 9000 + [(-3, 4, 5)] * 1000
    # a block is tokenized whole only as serialize writes it: the line loop
    # sorts that one clause, and the blocks around it are read whole
    at = text.index("5 4 -3 0")
    assert [not accepted for _, _, accepted in calls] == [start <= at < stop for start, stop, _ in calls]
    assert len(calls) > 1


# the characters a regular block may hold; "+3" and "03" pass that test and
# the JSON scanner refuses them
REGULAR_CHARS = "0123456789+- \t\r\n"
SPLICED = [*map(chr, range(128)), "\u0663", "\uff11", "\xa0", "\u2028", "\ud800"]


@pytest.mark.parametrize("char", SPLICED, ids=[f"U+{ord(char):04X}" for char in SPLICED])
def test_only_a_block_of_digits_signs_and_blanks_reaches_the_json_scanner(monkeypatch, char):
    clauses = [[4, 5, 6]] * 50 + [[1, 2, 3]] + [[-7, -8, -9]] * 50
    base = serialize(DimacsDocument(CnfFormula.from_ints(clauses, num_vars=100)))
    at = base.index("\n1 2 3 0\n") + 5  # before the 3, so a digit makes 13-93 and "-" makes -3
    text = base[:at] + char + base[at:]  # a lone surrogate stays in a str
    scanned = []
    monkeypatch.setattr(dimacs, "json", SimpleNamespace(loads=lambda chunk: scanned.append(chunk) or json.loads(chunk)))
    stop, block = dimacs._block_clauses(text, text.index("\n") + 1, 100)
    assert stop == len(text)
    assert bool(scanned) == (char in REGULAR_CHARS)
    assert (block is None) == (char not in REGULAR_CHARS or char in "+0")
    # the line loop reads the block with the same clauses or the same error
    outcome = _outcome(text)
    read = dimacs._block_clauses
    monkeypatch.setattr(dimacs, "_block_clauses", lambda *args: (read(*args)[0], None))
    assert _outcome(text) == outcome


@pytest.mark.parametrize(
    "line,message",
    [
        pytest.param("1 1 4 0", "duplicate variable 1 in clause", id="repeat-in-the-second-slot"),
        pytest.param(
            "1 4 -4 0", "tautological clause: variable 4 appears with both polarities", id="repeat-in-the-third-slot"
        ),
        pytest.param("6 -2 3 0", "variable 6 exceeds declared count 5", id="out-of-range-in-the-first-column"),
        pytest.param("6 7 8 0", "variable 6 exceeds declared count 5", id="out-of-range-in-every-column"),
        pytest.param("1 2 6 0", "variable 6 exceeds declared count 5", id="out-of-range-in-the-third-column"),
        pytest.param("2 1 3 0", None, id="first-two-out-of-order"),
        pytest.param("1 3 2 0", None, id="last-two-out-of-order"),
    ],
)
@pytest.mark.parametrize("block_chars", [1 << 14, dimacs._BLOCK_CHARS])
def test_a_width_3_block_is_checked_by_columns(monkeypatch, block_chars, line, message):
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
    calls = _spy_blocks(monkeypatch)
    text = _deep(line)
    outcome = _outcome(text)
    if message is None:
        assert list(outcome.formula.clauses)[9000] == (1, 2, 3)
    else:
        assert outcome == (f"line 9002: {message}", 9002)
    # every block holds width-3 clauses only; the one holding the line goes to the line loop
    at = text.index(line)
    assert [not accepted for _, _, accepted in calls] == [start <= at < stop for start, stop, _ in calls]
    assert len(calls) > 1


def test_every_block_of_gen_and_reduce_output_is_tokenized_whole(monkeypatch, tmp_path):
    source = str(tmp_path / "g.cnf")
    assert cli.run(["gen", "--vars", "2000", "--clauses", "2666", "--seed", "3", source]) == 0
    paths = [source]
    for args in (["mono23sat4"], ["mono3sat5"], ["mono3sat5", "--compact-r3"], ["mono3sat4"]):
        paths.append(str(tmp_path / f"r{len(paths)}.cnf"))
        assert cli.run(["reduce", "--target", *args, source, paths[-1]]) == 0
    calls = _spy_blocks(monkeypatch)
    for path in paths:
        calls.clear()
        load(path)
        assert calls and all(accepted for _, _, accepted in calls), path


def test_parse_peak_memory_is_no_higher_than_the_line_loop():
    formula = generate(GenConfig(2000, 2666, 3))
    data = serialize(DimacsDocument(to_monotone_3sat4(formula)[0])).encode()
    peaks = []
    for parser in (parse, reference_parse):
        tracemalloc.start()
        try:
            parser(data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


def test_load_holds_no_bytes_once_they_are_decoded(tmp_path):
    formula = generate(GenConfig(2000, 2666, 3))
    data = serialize(DimacsDocument(to_monotone_3sat4(formula)[0])).encode()
    path = tmp_path / "in.cnf"
    path.write_bytes(data)
    peaks = []
    for step in (lambda: load(str(path)), lambda: parse(data)):  # data is held outside the second
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] - peaks[1] < len(data) / 2, (peaks, len(data))


def test_serialize_parse_serialize_idempotent():
    messy = "c x\np cnf 3 2\n3 1\n-2 0\n  -1  -3 0\n"
    once = serialize(parse(messy))
    assert serialize(parse(once)) == once


@pytest.mark.parametrize(
    "comment",
    ["foo ", "tab\t", "x\np cnf 9 9", "a\rb", "x" * 5000 + " "],
    ids=["trailing-space", "trailing-tab", "injected-header", "carriage-return", "long"],
)
def test_document_rejects_comment_that_would_not_round_trip(comment):
    formula = CnfFormula.from_ints([[1, 2]])
    message = r"^comment '.* must be one line not ending in whitespace$"
    with pytest.raises(DimacsError, match=message) as excinfo:
        DimacsDocument(formula, ("fine", comment))
    assert len(str(excinfo.value)) < 120


def test_parse_rejects_carriage_return_inside_comment():
    # another reader may end the line at the CR and read "p cnf 9 9" as a header
    with pytest.raises(DimacsError, match=r"^line 2: comment 'x\\rp cnf 9 9' must be one line") as excinfo:
        parse("p cnf 2 1\nc x\rp cnf 9 9\n1 2 0\n")
    assert excinfo.value.line == 2


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate header", 2),
        ("p cnf x 1\n1 0\n", "malformed header", 1),
        # int() refuses more than 4300 digits by default
        pytest.param("p cnf " + "9" * 5000 + " 0\n", "too many digits", 1, id="huge-header-count"),
        ("1 0\np cnf 1 1\n", "before header", 1),
        ("p cnf 2 1\n1 two 0\n", "invalid literal token", 2),
        # integers are ASCII digits: int() alone reads "1_0" as 10 and
        # Arabic-Indic digits as their values
        pytest.param("p cnf 12 1\n1_0 -2 3 0\n", "invalid literal token '1_0'", 2, id="underscore-literal"),
        pytest.param("p cnf ٣ ١\n١ -٢ ٣ ٠\n", "malformed header", 1, id="non-ascii-header"),
        pytest.param("p cnf 3 1\n١ -2 3 0\n", "invalid literal token '١'", 2, id="non-ascii-literal"),
        ("p cnf 2 1\n1 3 0\n", "exceeds declared count", 2),
        ("p cnf 2 1\n1 2\n", "not terminated", 2),
        ("p cnf 2 1\n1 2\n%\n0\n", "not terminated", 2),
        ("p cnf 2 1\n0\n", "empty clause", 2),
        ("p cnf 2 1\n1 -1 0\n", "tautological", 2),
        ("p cnf 2 1\n1 1 0\n", "duplicate variable", 2),
        # long input is echoed as a bounded prefix and its length
        pytest.param(
            "p cnf 3 1\n1 " + "9" * 5000 + " 0\n",
            r"invalid literal token '9{39}\.\.\. \(5002 characters\)$",
            2,
            id="long-literal-token",
        ),
        pytest.param(
            "p cnf 3 1\n1 " + "9" * 4000 + " 0\n",
            r"variable 9{40}\.\.\. \(4000 characters\) exceeds declared count 3$",
            2,
            id="long-variable-index",
        ),
        pytest.param(
            "p cnf 3 1 " + "x" * 5000 + "\n1 0\n",
            r"malformed header: 'p cnf 3 1 x{29}\.\.\. \(5012 characters\)$",
            1,
            id="long-header-tail",
        ),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(DimacsError, match=fragment) as excinfo:
        parse(text)
    assert excinfo.value.line == line
    assert len(str(excinfo.value)) < 200


def test_parse_missing_header():
    with pytest.raises(DimacsError, match="missing header"):
        parse("c only a comment\n")


def test_parse_clause_count_mismatch():
    with pytest.raises(DimacsError, match="declares 2 clauses but 1"):
        parse("p cnf 2 2\n1 0\n")
    with pytest.raises(DimacsError, match="declares 2 clauses but 1"):
        parse("p cnf 2 2\n1 0\n%\n2 0\n")


def test_multi_line_clause_error_points_at_first_line():
    with pytest.raises(DimacsError) as excinfo:
        parse("p cnf 3 1\n1\n2\n")
    assert excinfo.value.line == 2


def test_load_dump_round_trip(tmp_path):
    doc = DimacsDocument(CnfFormula.from_ints([[1, 2], [-1, -2]]), ("round trip",))
    path = str(tmp_path / "f.cnf")
    dump(doc, path)
    again = load(path)
    assert again == doc
    dump(again, path)
    assert load(path) == doc


def test_dump_writes_utf8_whatever_the_locale(tmp_path):
    # under the C locale with UTF-8 mode off, open() defaults to ASCII
    script = (
        "import sys\n"
        "from monocnf import CnfFormula, DimacsDocument, dump, load\n"
        "doc = DimacsDocument(CnfFormula.from_ints([[1, 2]]), ('caf\\u00e9',))\n"
        "dump(doc, sys.argv[1])\n"
        "assert load(sys.argv[1]) == doc\n"
    )
    path = tmp_path / "f.cnf"
    src = str(Path(monocnf.__file__).parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert path.read_bytes() == b"c caf\xc3\xa9\np cnf 2 1\n1 2 0\n"
