"""``monocnf validate`` reads the body block by block and never builds the
formula: its output and exit code equal those of the frozen references,
wherever the block ends fall."""

import tracemalloc

import pytest

from monocnf import PROFILES, DimacsDocument, GenConfig, dimacs, generate, parse, serialize, to_monotone_3sat4
from monocnf.cli import run

COUNT = 7_500  # clause lines: three blocks of the default size
EXTRA = 3 * COUNT + 1  # a variable no base clause holds


def _base() -> list[list[int]]:
    """Positive 3-clauses over distinct variables: every profile holds."""
    return [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(COUNT)]


def _text(clauses: list[list[int]], declared: int = EXTRA) -> str:
    lines = [f"p cnf {declared} {len(clauses)}", *(" ".join(map(str, clause)) + " 0" for clause in clauses)]
    return "\n".join(lines) + "\n"


def _last_of_first_block(clauses: list[list[int]]) -> int:
    """The clause on the line that ends the first block of the default size."""
    text = _text(clauses)
    start = text.index("\n") + 1
    return text.count("\n", start, text.find("\n", start + dimacs._BLOCK_CHARS))


def _around_a_block_end() -> list[list[int]]:
    """Clause violations on the two lines before and after the first block end."""
    clauses = _base()
    last = _last_of_first_block(clauses)
    assert 0 < last < COUNT - 2
    for at in (last - 1, last + 1):
        clauses[at][1] *= -1  # mixed
    clauses[last].pop()  # width 2
    clauses[last + 2].append(EXTRA)  # width 4
    return clauses


def _spread_over_blocks() -> list[list[int]]:
    """Variable 1 in six clauses, one or two per block, over every cap."""
    clauses = _base()
    for at in (1500, 3000, 4500, 6000, COUNT - 1):
        clauses[at][0] = 1
    return clauses


def _write(tmp_path, text: str):
    path = tmp_path / "in.cnf"
    path.write_bytes(text.encode())
    return path


def _violations_then(tail: str) -> str:
    """The body of ``_around_a_block_end`` with its last line replaced."""
    text = _text(_around_a_block_end())
    return text[: text.rindex("\n", 0, len(text) - 1) + 1] + tail


def _comment_mid_body(text: str) -> str:
    middle = text.index("\n", len(text) // 2) + 1
    return text[:middle] + "c note\n" + text[middle:]


ALL = tuple(PROFILES)


@pytest.mark.parametrize(
    "text,profiles",
    [
        pytest.param(_text(_base()), ALL, id="clean"),
        pytest.param(_text(_around_a_block_end()), ALL, id="violations-across-a-block-end"),
        pytest.param(_text(_spread_over_blocks()), ALL, id="occurrences-spread-over-blocks"),
        # a late error: the blocks before it held violations, and none is printed
        pytest.param(_violations_then(f"{EXTRA} {EXTRA} 1 0\n"), ["mono3sat4"], id="duplicate-in-last-clause"),
        pytest.param(_violations_then(""), ["mono3sat4"], id="clause-count-mismatch"),
        pytest.param(_violations_then("1 -2 3\n"), ["mono3sat4"], id="last-clause-unterminated"),
        pytest.param(_text(_around_a_block_end()).replace("\n", "\r\n"), ALL, id="crlf"),
        pytest.param(_text(_spread_over_blocks()) + "%\n0\n", ALL, id="satlib-trailer"),
        pytest.param(_comment_mid_body(_text(_around_a_block_end())), ALL, id="comment-mid-body"),
        # each clause written in descending order, so no block is canonical
        pytest.param(_text([clause[::-1] for clause in _around_a_block_end()]), ALL, id="descending-clauses"),
    ],
)
def test_validate_matches_reference(tmp_path, validate_like_reference, text, profiles):
    path = _write(tmp_path, text)
    for profile in profiles:
        code, out, _ = validate_like_reference(path, profile)
        assert code != 3 or out == ""


def test_validate_reports_both_sides_of_a_block_end(tmp_path, validate_like_reference):
    last = _last_of_first_block(_base())
    code, out, _ = validate_like_reference(_write(tmp_path, _text(_around_a_block_end())), "mono3sat4")
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"monotonicity violation at clause {last - 1}",
        f"width violation at clause {last}",
        f"monotonicity violation at clause {last + 1}",
        f"width violation at clause {last + 2}",
    ]


@pytest.mark.parametrize("variable", [4_194_304, 99_999_999_999_999_999_999])
def test_counts_are_not_sized_by_a_large_variable(tmp_path, validate_like_reference, variable):
    clauses = [[2 * i + 1, 2 * i + 2, variable] for i in range(5)] + [[-11, 12, 13]]
    path = _write(tmp_path, _text(clauses, declared=variable))
    code, out, _ = validate_like_reference(path, "mono3sat4")
    assert code == 1
    assert out.endswith(f"occurrence violation at variable {variable}: 5 occurrences, cap is 4\n")
    tracemalloc.start()
    try:
        run(["validate", "--profile", "mono3sat4", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # a list of 4M counts alone takes 32 MiB


def test_validate_peak_memory_is_below_half_of_parse(tmp_path, capsys):
    formula = generate(GenConfig(2000, 2666, 3))
    data = serialize(DimacsDocument(to_monotone_3sat4(formula)[0])).encode()
    path = tmp_path / "out.cnf"
    path.write_bytes(data)
    peaks = []
    for step in (lambda: run(["validate", "--profile", "mono3sat4", str(path)]), lambda: parse(data)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert capsys.readouterr().out == ""
    assert peaks[0] < peaks[1] / 2, peaks
