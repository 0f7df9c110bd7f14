"""DIMACS parsing, canonical serialization, and error reporting."""

import pytest

from monocnf import CnfFormula, DimacsDocument, DimacsError, dump, load, parse, serialize


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
