"""Loop-based reference oracles for cross-checking the fast engine.

Everything here works on raw signed-integer clause lists and stays
independent of the package's data structures and bit tricks, so the two
implementations can honestly disagree.  The DIMACS and profile
references are the exception: they read and write the package's
documents and reports, so that their results and errors compare equal to
the package's own.
"""

from itertools import product
from typing import Iterable, Sequence

from monocnf import (
    Clause,
    CnfFormula,
    DimacsDocument,
    DimacsError,
    FormulaError,
    Profile,
    SplitMix64,
    Violation,
    ViolationReport,
    occurrences,
)
from monocnf.dimacs import _HEADER_RE, _check_comment, _clip


def _satisfies(bits: Sequence[bool], clauses: Iterable[Iterable[int]]) -> bool:
    return all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses)


def naive_satisfiable(clauses: Iterable[Iterable[int]], num_vars: int) -> bool:
    clause_list = [tuple(c) for c in clauses]
    for bits in product((False, True), repeat=num_vars):
        if _satisfies(bits, clause_list):
            return True
    return False


def naive_model_census(
    clauses: Iterable[Iterable[int]], num_vars: int
) -> tuple[int, set[int], set[int]]:
    """(model count, variables true in every model, variables false in
    every model) by full enumeration."""
    clause_list = [tuple(c) for c in clauses]
    count = 0
    always_true = set(range(1, num_vars + 1))
    always_false = set(range(1, num_vars + 1))
    for bits in product((False, True), repeat=num_vars):
        if _satisfies(bits, clause_list):
            count += 1
            for var in range(1, num_vars + 1):
                if bits[var - 1]:
                    always_false.discard(var)
                else:
                    always_true.discard(var)
    if count == 0:
        return 0, set(), set()
    return count, always_true, always_false


def reference_dpll(clauses: Iterable[Iterable[int]]) -> tuple[dict[int, bool] | None, int]:
    """(model or None, decisions) by the DPLL search the package first
    shipped, frozen here as the reference for its choices.

    Unit propagation, then pure-literal elimination of the lowest pure
    variable, to fixpoint; then branch on the lowest variable, true first.
    The model covers only the variables the search set.
    """
    decisions = 0

    def assign(clauses: list[list[int]], lit: int) -> list[list[int]] | None:
        # Returns the simplified clause list, or None on an emptied clause.
        out: list[list[int]] = []
        for clause in clauses:
            if lit in clause:
                continue
            if -lit in clause:
                reduced = [l for l in clause if l != -lit]
                if not reduced:
                    return None
                out.append(reduced)
            else:
                out.append(clause)
        return out

    def propagate(
        clauses: list[list[int]], assignment: dict[int, bool]
    ) -> tuple[list[list[int]], dict[int, bool]] | None:
        while True:
            unit = next((c[0] for c in clauses if len(c) == 1), None)
            if unit is not None:
                assignment[abs(unit)] = unit > 0
                next_clauses = assign(clauses, unit)
                if next_clauses is None:
                    return None
                clauses = next_clauses
                continue
            polarity: dict[int, int] = {}
            for clause in clauses:
                for lit in clause:
                    var = abs(lit)
                    sign = 1 if lit > 0 else -1
                    polarity[var] = 0 if polarity.get(var, sign) != sign else sign
            pure = next((v for v in sorted(polarity) if polarity[v] != 0), None)
            if pure is None:
                return clauses, assignment
            lit = pure * polarity[pure]
            assignment[abs(lit)] = lit > 0
            next_clauses = assign(clauses, lit)
            if next_clauses is None:
                return None  # unreachable: a pure literal cannot empty a clause
            clauses = next_clauses

    def search(clauses: list[list[int]], assignment: dict[int, bool]) -> dict[int, bool] | None:
        # Depth-first over pending nodes: a node is a residual formula, its
        # assignment, and the branch literal that produced it (None at the
        # root).  The false branch is pushed first so the true one runs first.
        nonlocal decisions
        pending: list[tuple[list[list[int]], dict[int, bool], int | None]] = [(clauses, assignment, None)]
        while pending:
            clauses, assignment, branch = pending.pop()
            if branch is not None:
                decisions += 1
                child = assign(clauses, branch)
                if child is None:
                    continue
                clauses = child
                assignment = dict(assignment)
                assignment[abs(branch)] = branch > 0
            propagated = propagate(clauses, assignment)
            if propagated is None:
                continue
            clauses, assignment = propagated
            if not clauses:
                return assignment
            var = min(abs(lit) for clause in clauses for lit in clause)
            pending.append((clauses, assignment, -var))
            pending.append((clauses, assignment, var))
        return None

    model = search([list(clause) for clause in clauses], {})
    return model, decisions


def reference_generate(num_vars: int, num_clauses: int, seed: int) -> list[tuple[int, ...]] | None:
    """The clauses of the instance the package's generator first produced,
    frozen here as the reference for its stream: each clause rebuilds the
    list of variables with occurrence budget left and swap-removes three
    picks from it.  A failed attempt restarts on the same stream; None
    after 1000 attempts.  It shares only the package's SplitMix64 stream.
    """

    def sample_distinct(rng: SplitMix64, pool: list[int], count: int) -> list[int]:
        picked: list[int] = []
        for _ in range(count):
            i = rng.below(len(pool))
            pool[i], pool[-1] = pool[-1], pool[i]
            picked.append(pool.pop())
        return picked

    def attempt(rng: SplitMix64) -> list[tuple[int, ...]] | None:
        budget = dict.fromkeys(range(1, num_vars + 1), 4)
        clauses: list[tuple[int, ...]] = []
        for _ in range(num_clauses):
            eligible = [v for v in range(1, num_vars + 1) if budget[v] > 0]
            if len(eligible) < 3:
                return None
            trio = sorted(sample_distinct(rng, eligible, 3))
            clauses.append(tuple(v if rng.coin() else -v for v in trio))
            for v in trio:
                budget[v] -= 1
        return clauses

    rng = SplitMix64(seed)
    for _ in range(1000):
        clauses = attempt(rng)
        if clauses is not None:
            return clauses
    return None


def reference_parse(text: str | bytes) -> DimacsDocument:
    """The line-by-line DIMACS parser the package shipped before its body
    was tokenized in blocks, frozen here as the reference for its results,
    messages and line numbers.  It shares the package's header pattern,
    comment check and echo clipping.
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

    return DimacsDocument(formula=CnfFormula(clauses, num_vars), comments=tuple(comments))


def reference_serialize(doc: DimacsDocument) -> str:
    """The DIMACS text the package wrote before its body became one format
    string: one joined line per comment, header and clause."""
    lines = [f"c {comment}" if comment else "c" for comment in doc.comments]
    formula = doc.formula
    lines.append(f"p cnf {formula.num_vars} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def reference_check_profile(formula: CnfFormula, profile: Profile) -> ViolationReport:
    """The profile check the package shipped before each rule was decided
    in whole-formula passes, frozen here as the reference for its
    violations, their order and their text: one loop over the clauses,
    then a ``Counter`` of every variable's occurrences."""
    violations: list[Violation] = []
    for index, clause in enumerate(formula.clauses):
        if len(clause) not in profile.widths:
            violations.append(
                Violation("width", index, f"width {len(clause)}, profile allows {profile.width_rule()}")
            )
        if profile.monotone and not clause.sign:
            violations.append(Violation("monotonicity", index, "mixed clause in a monotone profile"))
    cap = profile.occurrence_cap
    over = sorted((var, total) for var, total in occurrences(formula).items() if total > cap)
    for var, total in over:
        violations.append(Violation("occurrence", var, f"{total} occurrences, cap is {cap}"))
    return ViolationReport(violations)


def reference_validate(data: bytes, profile: Profile) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``monocnf validate`` on ``data``, from
    ``reference_parse`` followed by ``reference_check_profile``."""
    try:
        doc = reference_parse(data)
    except DimacsError as exc:
        return 3, "", f"error: {exc}\n"
    report = reference_check_profile(doc.formula, profile)
    return (1 if report else 0), "".join(f"{violation}\n" for violation in report), ""
