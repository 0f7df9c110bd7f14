"""Correctness gate of the benchmark, written without the package under test.

Every expectation here is re-derived from the specification in README.md:
a DIMACS reader, the four profiles, the closed-form output sizes, a clause
evaluator, a small DPLL for the original instances, the planted UNSAT core
and a reference of the SplitMix64 instance generator.  The workloads pass
every output through these checks; a check that reports a problem counts
the operation as failed.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter

# profile name -> (allowed widths, monotone, occurrence cap)
PROFILES = {
    "3sat4": ((3,), False, 4),
    "mono23sat4": ((2, 3), True, 4),
    "mono3sat5": ((3,), True, 5),
    "mono3sat4": ((3,), True, 4),
}

# target -> (extra variables, extra clauses) per 2-clause left after mixed
# elimination; on top of that every mixed clause adds one variable and one
# clause (the gold bridge)
GROWTH = {
    "mono23sat4": (0, 0),
    "mono3sat5": (18, 18),
    "mono3sat5-compact": (16, 16),
    "mono3sat4": (21, 25),
}

# the planted UNSAT core: any two of three variables must be true, and at
# most one may be
TRIANGLE_CORE = ((1, 2), (1, 3), (2, 3), (-1, -2), (-1, -3), (-2, -3))


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Tally:
    """Operations attempted and failed; failures counted by (layer, kind)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[tuple[str, str]] = Counter()
        self.first_message: dict[tuple[str, str], str] = {}

    def record(self, layer: str, problems: list[str], kind: str = "WrongOutput") -> bool:
        """Count one operation; it fails when ``problems`` is non-empty."""
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        key = (layer, kind)
        self.failures[key] += 1
        self.first_message.setdefault(key, problems[0])
        return False

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_ratio": self.failed / self.attempted if self.attempted else 0.0,
            "failures": [
                {"layer": layer, "kind": kind, "count": count, "first": self.first_message[(layer, kind)]}
                for (layer, kind), count in sorted(self.failures.items())
            ],
        }


def read_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Variable count and clauses of a canonical DIMACS document (comment
    lines, header, one zero-terminated clause per line).  Raises ValueError
    on anything else."""
    num_vars = declared = None
    clauses: list[tuple[int, ...]] = []
    for line in text.split("\n"):
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            fields = line.split()
            if num_vars is not None or len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"bad header {line!r}")
            num_vars, declared = int(fields[2]), int(fields[3])
            continue
        if num_vars is None:
            raise ValueError("clause before header")
        lits = tuple(map(int, line.split()))
        if len(lits) < 2 or lits[-1] != 0 or 0 in lits[:-1]:
            raise ValueError(f"clause line not zero-terminated: {line!r}")
        clauses.append(lits[:-1])
    if num_vars is None:
        raise ValueError("missing header")
    if declared != len(clauses):
        raise ValueError(f"header declares {declared} clauses, found {len(clauses)}")
    return num_vars, clauses


def dimacs_text(num_vars: int, clauses: list[tuple[int, ...]], comments: tuple[str, ...] = ()) -> str:
    """The canonical DIMACS rendering the package promises."""
    lines = [f"c {comment}" for comment in comments]
    lines.append(f"p cnf {num_vars} {len(clauses)}")
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"


def profile_problems(num_vars: int, clauses: list[tuple[int, ...]], profile: str) -> list[str]:
    """Every width, monotonicity, distinctness and occurrence-cap violation."""
    widths, monotone, cap = PROFILES[profile]
    problems: list[str] = []
    occurrences = [0] * (num_vars + 1)
    for index, clause in enumerate(clauses):
        if len(clause) not in widths:
            problems.append(f"clause {index}: width {len(clause)} not in {widths}")
        if monotone and min(clause) < 0 < max(clause):
            problems.append(f"clause {index}: mixed clause {clause}")
        variables = {abs(lit) for lit in clause}
        if len(variables) != len(clause):
            problems.append(f"clause {index}: repeated variable in {clause}")
        if max(variables) > num_vars:
            problems.append(f"clause {index}: variable beyond declared {num_vars}")
            continue
        for var in variables:
            occurrences[var] += 1
    problems.extend(
        f"variable {var}: {count} occurrences, cap {cap}"
        for var, count in enumerate(occurrences)
        if count > cap
    )
    return problems


def count_mixed_and_two(clauses: list[tuple[int, ...]]) -> tuple[int, int]:
    """Mixed 3-clauses, and 2-clauses left after mixed elimination (each
    mixed 3-clause leaves exactly one)."""
    mixed = sum(1 for clause in clauses if min(clause) < 0 < max(clause))
    two = sum(1 for clause in clauses if len(clause) == 2)
    return mixed, two + mixed


def expected_size(target: str, num_vars: int, clauses: list[tuple[int, ...]]) -> tuple[int, int]:
    """Closed-form (variables, clauses) of a pipeline's output."""
    mixed, two = count_mixed_and_two(clauses)
    extra_vars, extra_clauses = GROWTH[target]
    return num_vars + mixed + extra_vars * two, len(clauses) + mixed + extra_clauses * two


def reduced_problems(
    text: str, target: str, profile: str, in_vars: int, in_clauses: list[tuple[int, ...]], pinned: str | None
) -> list[str]:
    """Check one reduction output document against its profile, the closed
    form of its size and, when pinned, its SHA-256."""
    try:
        num_vars, clauses = read_dimacs(text)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    problems = profile_problems(num_vars, clauses, profile)
    expected = expected_size(target, in_vars, in_clauses)
    if (num_vars, len(clauses)) != expected:
        problems.append(f"size (vars, clauses) {(num_vars, len(clauses))}, closed form gives {expected}")
    if pinned is not None and sha256(text) != pinned:
        problems.append("serialize() output differs from the pinned SHA-256")
    return problems


def satisfies(clauses, model) -> bool:
    """True iff the model (variable -> bool) satisfies every clause."""
    return all(any(model[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses)


def verdict_problems(
    original: list[tuple[int, ...]],
    original_vars: int,
    reduced: list[tuple[int, ...]],
    original_sat: bool,
    reduced_sat: bool,
    reduced_witness,
    expected_sat: bool | None,
) -> list[str]:
    """Check a pair of verdicts: both sides agree with the expectation, and a
    SAT witness of the reduced side, restricted to the original variables,
    satisfies the original formula."""
    problems: list[str] = []
    if expected_sat is not None and original_sat != expected_sat:
        problems.append(f"original decided {'SAT' if original_sat else 'UNSAT'}, expected otherwise")
    if expected_sat is not None and reduced_sat != expected_sat:
        problems.append(f"reduced decided {'SAT' if reduced_sat else 'UNSAT'}, expected otherwise")
    if expected_sat is None and not reduced_sat:
        problems.append("UNSAT verdict with no planted core or reference verdict to confirm it")
    if reduced_sat:
        try:
            if not satisfies(reduced, reduced_witness):
                problems.append("reduced witness falsifies the reduced formula")
            restricted = {var: reduced_witness[var] for var in range(1, original_vars + 1)}
            if not satisfies(original, restricted):
                problems.append("reduced witness restricted to the original variables falsifies the original")
        except (KeyError, TypeError):
            problems.append("reduced witness does not cover every variable")
    return problems


def planted_core(base: int) -> list[tuple[int, ...]]:
    """The triangle core on variables base+1..base+3."""
    return [tuple(lit + base if lit > 0 else lit - base for lit in pair) for pair in TRIANGLE_CORE]


def planted_core_problems(clauses: list[tuple[int, ...]], base: int) -> list[str]:
    """The triangle core sits on variables base+1..base+3 of the instance,
    and it is unsatisfiable by enumeration."""
    core = planted_core(base)
    present = set(clauses)
    problems = [f"planted clause {pair} missing" for pair in core if pair not in present]
    for bits in range(8):
        model = {base + i + 1: bool(bits >> i & 1) for i in range(3)}
        if satisfies(core, model):
            problems.append("planted core is satisfiable")
    return problems


def reference_model(clauses: list[tuple[int, ...]], node_limit: int = 100_000):
    """A model of the clauses by plain DPLL (unit propagation, first literal
    of the shortest clause first), False when unsatisfiable, None when the
    node limit is reached."""
    nodes = 0

    def assign(clauses, lit):
        out = []
        for clause in clauses:
            if lit in clause:
                continue
            if -lit in clause:
                clause = tuple(l for l in clause if l != -lit)
                if not clause:
                    return None
            out.append(clause)
        return out

    def search(clauses, model):
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise TimeoutError
        while True:
            unit = next((clause[0] for clause in clauses if len(clause) == 1), None)
            if unit is None:
                break
            model = {**model, abs(unit): unit > 0}
            clauses = assign(clauses, unit)
            if clauses is None:
                return None
        if not clauses:
            return model
        lit = min(clauses, key=len)[0]
        for choice in (lit, -lit):
            rest = assign(clauses, choice)
            if rest is not None:
                found = search(rest, {**model, abs(choice): choice > 0})
                if found is not None:
                    return found
        return None

    try:
        found = search(list(clauses), {})
    except TimeoutError:
        return None
    return False if found is None else found


_U64 = (1 << 64) - 1


class SplitMix64:
    """Reference SplitMix64 stream, as specified in README.md."""

    def __init__(self, seed: int):
        self.state = seed & _U64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _U64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        limit = _U64 + 1 - ((_U64 + 1) % bound)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound


def reference_instance(num_vars: int, num_clauses: int, seed: int) -> list[tuple[int, ...]]:
    """The instance ``monocnf gen`` must produce, in linear time.

    Each clause swap-removes three picks from the ascending list of
    variables with occurrence budget left; the list is kept up to date
    instead of rebuilt, and the three swaps are simulated on it without a
    copy.  A failed attempt restarts on the same stream.
    """
    rng = SplitMix64(seed)
    for _ in range(1000):
        budget = [4] * (num_vars + 1)
        eligible = list(range(1, num_vars + 1))
        clauses: list[tuple[int, ...]] = []
        for _ in range(num_clauses):
            size = len(eligible)
            if size < 3:
                break
            moved: dict[int, int] = {}
            picks = []
            for last in range(size - 1, size - 4, -1):
                i = rng.below(last + 1)
                picks.append(moved.get(i, eligible[i]))
                moved[i] = moved.get(last, eligible[last])
            picks.sort()
            clauses.append(tuple(var if rng.next_u64() & 1 else -var for var in picks))
            for var in picks:
                budget[var] -= 1
                if not budget[var]:
                    del eligible[bisect.bisect_left(eligible, var)]
        else:
            return clauses
    raise ValueError(f"no instance for vars={num_vars} clauses={num_clauses} seed={seed}")
