"""DIMACS CNF parsing and serialization.

Standard "p cnf <vars> <clauses>" documents with zero-terminated clauses.
Input accepts LF or CRLF line ends (no other character ends a line, so
a form feed inside a comment stays in it), extra whitespace, multi-line
clauses, interleaved comment lines, and a SATLIB "%" trailer; output is
canonical: comment lines first, then the header, then one clause per
line with literals in ascending variable order, LF line endings.
``serialize(parse(serialize(doc)))`` is byte-identical to
``serialize(doc)``: a comment may not hold LF or CR or end in whitespace.

Comment lines starting with "trace " carry clause provenance emitted by
the reduction pipelines; they are informational only and never affect
parsing semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .formula import Clause, CnfFormula, FormulaError, _trusted_formula

_HEADER_RE = re.compile(r"p\s+cnf\s+([0-9]+)\s+([0-9]+)$")
_ECHO_LIMIT = 40


def _clip(text: str, limit: int = _ECHO_LIMIT) -> str:
    """Input echoed in an error message: whole when short, else its first
    ``limit`` characters and its length, so the message stays one short line."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


class DimacsError(ValueError):
    """Raised on malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class DimacsDocument:
    """A parsed DIMACS file: the formula plus its comment lines."""

    formula: CnfFormula
    comments: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for comment in self.comments:
            _check_comment(comment)


def _check_comment(comment: str, line: int | None = None) -> None:
    # serialize writes each comment as one "c" line, which parse strips
    if "\n" in comment or "\r" in comment or comment[-1:].isspace():
        raise DimacsError(f"comment {_clip(repr(comment))} must be one line not ending in whitespace", line)


def parse(text: str | bytes) -> DimacsDocument:
    """Parse a DIMACS CNF document.

    Clauses appear in file order.  A line starting with "%" ends the
    input (SATLIB's trailer): the rest is ignored, and the header count
    covers the clauses before it.

    Integers are ASCII digits, a literal's with an optional sign.
    Raises DimacsError on: bytes that are not UTF-8, a missing or
    malformed header, literals before the header, a non-integer token,
    a variable index above the declared count, a clause not terminated
    by 0 (also at "%"), a duplicate-variable or tautological clause, a
    clause count that disagrees with the header, or a comment line holding
    a carriage return.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DimacsError(f"input is not UTF-8: byte {exc.start} cannot be decoded") from None

    comments: list[str] = []
    clauses: list[Clause] = []
    num_vars: int | None = None
    num_clauses: int | None = None
    pending: list[int] = []
    pending_line = 0

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            break
        if line.startswith("c"):
            body = line[2:] if line.startswith("c ") else line[1:]
            _check_comment(body, lineno)
            comments.append(body)
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header", lineno)
            match = _HEADER_RE.match(line)
            if match is None:
                raise DimacsError(f"malformed header: {_clip(repr(line))}", lineno)
            try:
                num_vars = int(match.group(1))
                num_clauses = int(match.group(2))
            except ValueError:
                raise DimacsError("header count has too many digits", lineno) from None
            continue
        if num_vars is None:
            raise DimacsError("clause data before header", lineno)
        for token in line.split():
            try:
                # int() also reads "_" separators and non-ASCII digits
                if not token.isascii() or "_" in token:
                    raise ValueError
                lit = int(token)
            except ValueError:
                raise DimacsError(f"invalid literal token {_clip(repr(token))}", lineno) from None
            if lit == 0:
                if not pending:
                    raise DimacsError("empty clause", lineno)
                try:
                    clauses.append(Clause(pending))
                except FormulaError as exc:
                    # the message may name a variable of thousands of digits
                    raise DimacsError(_clip(str(exc), 100), pending_line) from exc
                pending = []
                continue
            if not pending:
                pending_line = lineno
            if abs(lit) > num_vars:
                raise DimacsError(
                    f"variable {_clip(str(abs(lit)))} exceeds declared count {_clip(str(num_vars))}",
                    lineno,
                )
            pending.append(lit)

    if num_vars is None:
        raise DimacsError("missing header")
    if pending:
        raise DimacsError("last clause not terminated by 0", pending_line)
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"header declares {_clip(str(num_clauses))} clauses but {len(clauses)} were found"
        )

    return DimacsDocument(formula=_trusted_formula(clauses, num_vars), comments=tuple(comments))


def serialize(doc: DimacsDocument) -> str:
    """Render a document in canonical form (see module docstring)."""
    lines: list[str] = []
    for comment in doc.comments:
        lines.append(f"c {comment}" if comment else "c")
    formula = doc.formula
    lines.append(f"p cnf {formula.num_vars} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def load(path: str) -> DimacsDocument:
    with open(path, "rb") as handle:
        return parse(handle.read())


def dump(doc: DimacsDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize(doc))
