"""Shared pytest configuration; also puts this directory on sys.path so
test modules can import the naive reference oracles."""

import pytest

from monocnf import PROFILES, dimacs
from monocnf.cli import run
from naive import reference_validate

# tiny blocks put a block end at every line; the default comes last
BLOCK_CHARS = (1, 7, dimacs._BLOCK_CHARS)


@pytest.fixture
def validate_like_reference(monkeypatch, capsys):
    """A check that ``monocnf validate --profile <profile> <path>`` prints
    and exits as ``reference_validate`` does on the file's bytes, at each
    of ``BLOCK_CHARS``; it returns that outcome."""

    def check(path, profile: str) -> tuple[int, str, str]:
        with open(path, "rb") as handle:
            expected = reference_validate(handle.read(), PROFILES[profile])
        for block_chars in BLOCK_CHARS:
            monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
            code = run(["validate", "--profile", profile, str(path)])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == expected, (block_chars, profile)
        return expected

    return check
