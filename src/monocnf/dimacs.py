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

``Body`` reads a document's clauses as ``Block`` values: flat literals,
each clause ended by a 0, as a ``CnfFormula`` stores them.  ``parse``
chains the blocks into the formula's store, and ``serialize`` formats that
store in one call; neither builds a ``Clause`` for a regular block.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, lt, sub
from typing import Iterable, Iterator, Sequence

from .formula import Clause, CnfFormula, FormulaError, _stored_formula, clause_ends

_HEADER_RE = re.compile(r"p\s+cnf\s+([0-9]+)\s+([0-9]+)$")
_BODY_BYTES = b"0123456789+- \t\r\n"  # all a regular block may hold
_COMMAS = str.maketrans(" \t\r\n", ",,,,")  # the blanks of _BODY_BYTES
_BLOCK_CHARS = 1 << 16  # a few thousand lines: bounds each block's token list
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


# a block's clauses as one sequence of their literals, each clause ended by
# a 0, with the literals' magnitudes, the offsets of the zeros (a range when
# every clause has width 3, see ``formula.clause_ends``) and the largest
# variable.  The magnitudes are laid out by ``ends``: with a list, one per
# literal and 0 per clause end, aligned with the literals; with a range,
# column after column (every clause's first, then its second, then its
# third), no clause end among them.
Block = tuple[Sequence[int], list[int], Sequence[int], int]


def _block(flat: Sequence[int]) -> Block:
    """The ``Block`` of the clauses whose literals are ``flat``.  In width
    3 the magnitudes are taken column by column, with no ``abs`` of the
    zeros, so the canonical test compares contiguous thirds.  A clause in
    canonical order ends with its largest variable, so the largest is then
    read from the last third alone: ``_block_clauses`` refuses a block out
    of canonical order before it trusts that."""
    ends = clause_ends(flat)
    if type(ends) is range:
        mags = [*map(abs, flat[0::4]), *map(abs, flat[1::4]), *map(abs, flat[2::4])]
        return flat, mags, ends, max(mags[2 * len(ends) :], default=0)
    mags = list(map(abs, flat))
    return flat, mags, ends, max(mags, default=0)


def _block_clauses(text: str, start: int, num_vars: int) -> tuple[int, Block | None]:
    """The end of the block of whole lines from ``start``, about
    ``_BLOCK_CHARS`` long, and its clauses as read, or None unless it is
    regular: ASCII digits, minus signs and blanks only, no zero-padded literal,
    every literal in range, every clause nonempty, in ascending variable order
    (as ``serialize`` writes it) and ended by a 0 in the block.  The charset
    is tested on the block's own slice, so a non-ASCII character elsewhere
    in the text sends no other block away.  The line loop reads any other
    block, so only it builds a ``Clause`` from text."""
    stop = text.find("\n", start + _BLOCK_CHARS)
    stop = len(text) if stop < 0 else stop + 1
    chunk = text[start:stop]
    # isascii() reads a flag of the str, and keeps a lone surrogate away from encode()
    if not chunk.isascii() or chunk.encode().translate(None, _BODY_BYTES):
        return stop, None
    # each run of blanks becomes one comma, so the C JSON scanner reads
    # split()'s tokens as int() would: the charset test keeps floats, true,
    # null and brackets away from it; it refuses every token int() refuses
    # and also "+1" and "007", and the line loop reads a refused block with
    # the same clauses and errors
    chunk = chunk.translate(_COMMAS)
    while ",," in chunk:
        chunk = chunk.replace(",,", ",")
    try:
        flat = json.loads("[" + chunk.strip(",") + "]")
    except ValueError:
        return stop, None
    flat, mags, ends, top = block = _block(flat)
    if flat[-1:] != [0]:
        return stop, None
    # a clause out of canonical order or with a repeated variable is left to the line loop
    if type(ends) is range:  # ascent by columns: each magnitude below the one a third further on
        canonical = all(map(lt, mags, mags[len(ends) :]))
    elif 1 in map(sub, ends, [-1, *ends]):
        return stop, None  # a 0 first or right after another: an empty clause
    else:  # strict ascent fails only at the zero that ends each clause
        canonical = sum(map(lt, mags, mags[1:])) == len(flat) - 1 - len(ends)
    return stop, block if canonical and top <= num_vars else None


class Body:
    """A DIMACS document read in one pass.  Iterating over it yields the
    body's clauses as ``Block`` values, each clause in canonical order, and
    sets ``num_vars``, ``num_clauses`` and ``comments`` on the way (the
    header's counts before the first block is out), so a reader need hold
    only the text, one block and what it derives from them.

    Each block of whole lines, about ``_BLOCK_CHARS`` long, is tokenized
    whole when it is regular (see ``_block_clauses``).  The line loop reads
    any other block, and the clauses it has read go out as one block before
    the next block is tried.  The line loop and the end checks raise every
    DimacsError, so an error may follow blocks already yielded.
    """

    def __init__(self, text: str | bytes):
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DimacsError(f"input is not UTF-8: byte {exc.start} cannot be decoded") from None
        self.text = text
        self.num_vars: int | None = None
        self.num_clauses: int | None = None  # the header's count, which the end checks compare with the body
        self.comments: list[str] = []

    def __iter__(self) -> Iterator[Block]:
        text = self.text
        comments = self.comments = []
        num_vars: int | None = None
        num_clauses: int | None = None
        found = 0  # clauses read
        read: list[int] = []  # the flat literals of the line loop's clauses since the last block
        pending: list[int] = []
        pending_line = 0

        lineno = 0
        start = 0  # offset of the next line
        block_end = 0  # the line loop reads up to here before it tries a block
        while start < len(text):
            if start >= block_end and num_vars is not None and not pending:
                if read:
                    yield _block(read)
                    read = []
                block_end, block = _block_clauses(text, start, num_vars)
                if block is not None:
                    found += len(block[2])
                    yield block
                    lineno += text.count("\n", start, block_end)
                    start = block_end
                    continue
            stop = text.find("\n", start)
            if stop < 0:
                stop = len(text)
            lineno += 1
            line = text[start:stop].strip()
            start = stop + 1
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
                    num_vars = self.num_vars = int(match.group(1))
                    num_clauses = self.num_clauses = int(match.group(2))
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
                        read += Clause(pending)
                    except FormulaError as exc:
                        # the message may name a variable of thousands of digits
                        raise DimacsError(_clip(str(exc), 100), pending_line) from exc
                    read.append(0)
                    found += 1
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

        if read:
            yield _block(read)
        if num_vars is None:
            raise DimacsError("missing header")
        if pending:
            raise DimacsError("last clause not terminated by 0", pending_line)
        if found != num_clauses:
            raise DimacsError(f"header declares {_clip(str(num_clauses))} clauses but {found} were found")


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
    body = Body(text)
    del text  # bytes are not needed once decoded
    flat = tuple(chain.from_iterable(map(itemgetter(0), body)))
    formula = _stored_formula(flat, body.num_vars, body.num_clauses)
    return DimacsDocument(formula=formula, comments=tuple(body.comments))


def serialize(doc: DimacsDocument) -> str:
    """Render a document in canonical form (see module docstring)."""
    flat = doc.formula.flat
    ends = clause_ends(flat)
    # one format string for the whole body, applied once to the store's
    # literals; a clause spans its literals and its 0
    spans = list(map(sub, ends, [-1, *ends]))
    formats = {span: clause_format((span - 1,)) for span in set(spans)}
    body = "".join(map(formats.__getitem__, spans))
    head = "".join(_head(doc.comments, doc.formula.num_vars, len(ends)))
    return head + body % tuple(filter(None, flat))


def _head(comments: Iterable[str], num_vars: int, num_clauses: int) -> Iterator[str]:
    """The comment lines, one at a time, then the header line."""
    for text in comments:
        yield f"c {text}\n" if text else "c\n"
    yield f"p cnf {num_vars} {num_clauses}\n"


def clause_format(widths: Iterable[int]) -> str:
    """The format string that renders clauses of these widths, in order, as
    body lines: one ``%`` over their literals in canonical order."""
    return "".join("%d " * width + "0\n" for width in widths)


def load(path: str) -> DimacsDocument:
    with open(path, "rb") as handle:
        return parse(handle.read())


def dump(doc: DimacsDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize(doc))


def dump_parts(path: str, comments: Iterable[str], num_vars: int, num_clauses: int, body: Iterable[str]) -> None:
    """Write a document in canonical form from its parts, for a writer that
    never builds the formula.  The caller vouches for what ``DimacsDocument``
    and ``serialize`` would ensure: one-line comments, and a body of
    ``num_clauses`` canonical clause lines, given as blocks of whole lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(_head(comments, num_vars, num_clauses))
        handle.writelines(body)
