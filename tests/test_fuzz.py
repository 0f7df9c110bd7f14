"""Seeded fuzzing.  DIMACS: mutated generator output never escapes the
documented errors, in the parser or on the command line, and the parser
and ``validate`` agree with the frozen line-by-line references on every
document, mutated or only re-spaced.  The equisat certificate: edited
reductions it accepts keep the original's verdict."""

from monocnf import (
    TARGETS,
    Clause,
    CnfFormula,
    DimacsDocument,
    DimacsError,
    GenConfig,
    dimacs,
    eliminate_mixed,
    generate,
    parse,
    serialize,
    solve,
    solve_dpll,
)
from monocnf.cli import run
from conftest import BLOCK_CHARS
from naive import SplitMix64, reference_parse

SEED = 0x5EED
CASES = 1500
CLI_EVERY = 10  # every tenth case also goes through validate and reduce

RESPACE_SEED = 0xB1A2C
RESPACE_CASES = 400
BLANKS = [" ", "  ", "\t", " \t", "\t\t "]

CERT_SEED = 0xCE27
CERT_EDITS = 24  # edited copies of each reduction

SPLICED_LINES = ["%", "p cnf 3 1", "p cnf 99999999999999999999 1", "p", "c", "c trace 0 r3 0", "0"]
ODD_TOKENS = ["_", "1_0", "١", "-٣", "+1", "-0", "--1", "x", "00", "9" * 30]
RAW_BYTES = [b"\xff", b"\xc3", b"\xe0\x80", b"\x00", b"\r", b"\x0c", "١".encode()]


def _pick(rng: SplitMix64, items):
    return items[rng.below(len(items))]


def _mutate(rng: SplitMix64, text: str) -> bytes:
    lines = [line.split(" ") for line in text.split("\n")]
    for _ in range(1 + rng.below(4)):
        row = lines[rng.below(len(lines))]
        at = rng.below(len(row))
        kind = rng.below(5)
        if kind == 0:  # flip a token's sign, or swap it for an odd one
            token = row[at]
            row[at] = token[1:] if token.startswith("-") else "-" + token
            if rng.coin():
                row[at] = _pick(rng, ODD_TOKENS)
        elif kind == 1:
            if len(row) > 1:
                del row[at]
        elif kind == 2:
            row.insert(at, row[at])
        elif kind == 3:
            lines.insert(rng.below(len(lines) + 1), [_pick(rng, SPLICED_LINES)])
        else:
            token = row[at]
            cut = rng.below(len(token) + 1)
            row[at] = token[:cut] + _pick(rng, ["_", "١", "٣"]) + token[cut:]
    data = "\n".join(" ".join(row) for row in lines).encode()
    if rng.below(4) == 0:
        cut = rng.below(len(data) + 1)
        data = data[:cut] + _pick(rng, RAW_BYTES) + data[cut:]
    return data


def _outcome(parser, data: bytes):
    """(document, None) on success, (None, (message, line)) on DimacsError."""
    try:
        return parser(data), None
    except DimacsError as exc:
        return None, (str(exc), exc.line)


def test_mutated_dimacs_raises_only_dimacs_errors_and_exits_0_to_3(
    tmp_path, capsys, monkeypatch, validate_like_reference
):
    rng = SplitMix64(SEED)
    bases = [
        serialize(DimacsDocument(generate(GenConfig(n, n * 4 // 3, seed)), ("gen",)))
        for seed, n in enumerate(range(6, 14))
    ]
    source = tmp_path / "in.cnf"
    output = str(tmp_path / "out.cnf")
    for case in range(CASES):
        data = _mutate(rng, _pick(rng, bases))
        expected = _outcome(reference_parse, data)
        for block_chars in BLOCK_CHARS:
            monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
            doc, error = _outcome(parse, data)
            assert (doc, error) == expected, (block_chars, data)
        if doc is not None:
            assert all(type(clause) is Clause for clause in doc.formula.clauses), data
        if case % CLI_EVERY:
            continue
        source.write_bytes(data)
        profile = _pick(rng, ["3sat4", "mono23sat4", "mono3sat4"])
        target = _pick(rng, ["mono23sat4", "mono3sat5", "mono3sat4"])
        validate_like_reference(source, profile)  # at every block size, as parse above
        assert run(["reduce", "--target", target, str(source), output]) in (0, 1, 2, 3), data
        capsys.readouterr()


def _respace(rng: SplitMix64, text: str) -> bytes:
    """``text`` with some of its blanks changed: runs of spaces or tabs
    between tokens, a CR before LF, leading blanks and blank lines, each
    kind on about half the lines when the case draws it."""
    kinds = rng.below(16)
    lines = []
    for line in text.split("\n"):
        if kinds & 1 and rng.coin():
            first, *rest = line.split(" ")
            line = first + "".join(_pick(rng, BLANKS) + token for token in rest)
        if kinds & 2 and rng.coin():
            line = _pick(rng, BLANKS) + line
        if kinds & 4 and rng.coin():
            line += "\r"
        lines.append(line)
        if kinds & 8 and rng.coin():
            lines.append(_pick(rng, ["", "\r", *BLANKS]))
    return "\n".join(lines).encode()


def test_respaced_dimacs_parses_and_validates_like_the_references(tmp_path, monkeypatch, validate_like_reference):
    rng = SplitMix64(RESPACE_SEED)
    bases = [
        serialize(DimacsDocument(generate(GenConfig(n, n * 4 // 3, seed))))
        for seed, n in enumerate(range(6, 30, 3))
    ]
    source = tmp_path / "in.cnf"
    for _ in range(RESPACE_CASES):
        data = _respace(rng, _pick(rng, bases))
        expected = _outcome(reference_parse, data)
        for block_chars in BLOCK_CHARS:
            monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block_chars)
            assert _outcome(parse, data) == expected, (block_chars, data)
        source.write_bytes(data)
        validate_like_reference(source, _pick(rng, ["3sat4", "mono3sat4"]))


def _edit(rng: SplitMix64, clauses: list[Clause], num_vars: int) -> int:
    """Apply one edit to a formula's clauses in place: flip a literal's
    sign, rename a variable by exchanging its name with another's (or with
    one past ``num_vars``), swap two clauses or drop one.  Returns the
    variable count."""
    kind, i = rng.below(4), rng.below(len(clauses))
    if kind == 0:
        at = rng.below(len(clauses[i]))
        clauses[i] = Clause(-lit if k == at else lit for k, lit in enumerate(clauses[i]))
    elif kind == 1:
        old, new = abs(_pick(rng, clauses[i])), 1 + rng.below(num_vars + 1)
        names = {old: new, new: old}
        clauses[:] = [Clause(names.get(abs(lit), abs(lit)) * (1 if lit > 0 else -1) for lit in c) for c in clauses]
        num_vars = max(num_vars, new)
    elif kind == 2:
        j = rng.below(len(clauses))
        clauses[i], clauses[j] = clauses[j], clauses[i]
    elif len(clauses) > 1:
        del clauses[i]
    return num_vars


def test_edited_reductions_that_the_certificate_accepts_keep_the_verdict():
    rng = SplitMix64(CERT_SEED)
    cases = []
    for seed, n in enumerate(range(8, 15)):
        formula = generate(GenConfig(n, n * 4 // 3, seed))
        cases += [(formula, target) for target in TARGETS.values()]
        # unsatisfiable: at least two of three true and two of three false,
        # which only the targets that take monotone (2,3)-SAT-4 input accept
        mono23, _ = eliminate_mixed(formula)
        a, b, c = range(mono23.num_vars + 1, mono23.num_vars + 4)
        core = [[a, b], [a, c], [b, c], [-a, -b], [-a, -c], [-b, -c]]
        planted = CnfFormula([*mono23.clauses, *map(Clause, core)], mono23.num_vars + 3)
        cases += [(planted, target) for target in TARGETS.values() if target.profile != "mono23sat4"]
    for original, target in cases:
        reduced, _ = target.reduce(original)
        assert solve._certified(original, reduced)
        verdict = solve_dpll(original).satisfiable
        for _ in range(CERT_EDITS):
            clauses, num_vars = list(reduced.clauses), reduced.num_vars
            for _ in range(1 + rng.below(3)):
                num_vars = _edit(rng, clauses, num_vars)
            edited = CnfFormula(clauses, num_vars)
            if solve._certified(original, edited):
                # only an edit that leaves the clauses as they were: a clause
                # swapped with itself, or a variable renamed to itself
                assert edited.clauses == reduced.clauses, (target, clauses)
                assert solve_dpll(edited).satisfiable == verdict, (target, clauses)
