"""Seeded random 3-SAT-4 instance generation and reduction blowup accounting.

The generator draws width-3 clauses over distinct variables with
independent random polarities while keeping every variable within four
clause memberships (the occurrence budget).  Randomness comes from
SplitMix64, a fixed 64-bit stream generator, so a seed reproduces the
same instance on any platform and Python version.

Blowup accounting runs every target of ``reduce.TARGETS`` on an
instance, records output sizes and wall time, and checks the measured
counts against the closed forms given by each target's growth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .formula import Clause, CnfFormula
from .reduce import TARGETS


class GenerationError(ValueError):
    """Raised for infeasible generator configurations."""


_U64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudorandom stream: 64-bit state advanced by the
    golden-ratio increment, output scrambled by two xor-multiply rounds.

    Fixed algorithm, no platform dependence; documented in the README so
    seeds stay reproducible.
    """

    def __init__(self, seed: int):
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection to avoid modulo bias."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = _U64 + 1 - ((_U64 + 1) % bound)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound

    def coin(self) -> bool:
        return bool(self.next_u64() & 1)


def _sample_distinct(rng: SplitMix64, pool: list[int], count: int) -> list[int]:
    # swap-remove: each draw removes the pick in O(1) without replacement
    picked: list[int] = []
    for _ in range(count):
        i = rng.below(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        picked.append(pool.pop())
    return picked


@dataclass(frozen=True)
class GenConfig:
    """Generator parameters: clause_count width-3 clauses over
    variable_count variables, each variable in at most 4 clauses."""

    variable_count: int
    clause_count: int
    seed: int

    def __post_init__(self) -> None:
        if self.variable_count < 3:
            raise GenerationError(f"need at least 3 variables, got {self.variable_count}")
        if self.clause_count < 0:
            raise GenerationError(f"clause count must be nonnegative, got {self.clause_count}")
        budget = 4 * self.variable_count
        needed = 3 * self.clause_count
        if needed > budget:
            raise GenerationError(
                f"{self.clause_count} clauses need {needed} occurrences "
                f"but {self.variable_count} variables allow only {budget}"
            )


_MAX_ATTEMPTS = 1000


def generate(cfg: GenConfig) -> CnfFormula:
    """Deterministic random 3-SAT-4 instance for the given config.

    Each clause draws 3 distinct variables uniformly from those with
    remaining occurrence budget and flips an independent sign coin per
    literal.  If fewer than 3 variables keep budget before the clause
    count is met, the attempt is discarded and generation restarts on
    the same stream, so tight configurations still terminate with a
    deterministic result.
    """
    rng = SplitMix64(cfg.seed)
    for _ in range(_MAX_ATTEMPTS):
        clauses = _attempt(cfg, rng)
        if clauses is not None:
            return CnfFormula(clauses, num_vars=cfg.variable_count)
    raise GenerationError(
        f"no valid instance after {_MAX_ATTEMPTS} attempts for "
        f"vars={cfg.variable_count} clauses={cfg.clause_count} seed={cfg.seed}"
    )


def _attempt(cfg: GenConfig, rng: SplitMix64) -> list[Clause] | None:
    budget = dict.fromkeys(range(1, cfg.variable_count + 1), 4)
    clauses: list[Clause] = []
    for _ in range(cfg.clause_count):
        eligible = [v for v in range(1, cfg.variable_count + 1) if budget[v] > 0]
        if len(eligible) < 3:
            return None
        trio = sorted(_sample_distinct(rng, eligible, 3))
        clauses.append(Clause(tuple(v if rng.coin() else -v for v in trio)))
        for v in trio:
            budget[v] -= 1
    return clauses


@dataclass(frozen=True)
class PipelineOutcome:
    pipeline: str
    output_vars: int
    output_clauses: int
    millis: float


@dataclass(frozen=True)
class BlowupRecord:
    """Input shape, 2-clause census of the mixed-elimination stage, and
    per-pipeline output sizes with wall time."""

    input_vars: int
    input_clauses: int
    mixed: int
    pos2: int
    neg2: int
    outcomes: tuple[PipelineOutcome, ...]


def _expected_counts(pipeline: str, record: BlowupRecord) -> tuple[int, int]:
    two = record.pos2 + record.neg2
    var_growth, clause_growth = TARGETS[pipeline].growth
    return (
        record.input_vars + record.mixed + var_growth * two,
        record.input_clauses + record.mixed + clause_growth * two,
    )


def blowup_report(formula: CnfFormula) -> BlowupRecord:
    """Run every pipeline on a 3-SAT-4 instance and record sizes and wall
    time, verifying the measured counts against the closed forms."""
    mixed = sum(1 for c in formula.clauses if c.is_mixed)
    outcomes: list[PipelineOutcome] = []
    for name, target in TARGETS.items():
        start = time.perf_counter()
        out, _ = target.reduce(formula)
        millis = (time.perf_counter() - start) * 1000.0
        outcomes.append(PipelineOutcome(name, out.num_vars, len(out.clauses), millis))
        if name == "mono23sat4":  # the 2-clause census of mixed elimination
            pos2 = sum(1 for c in out.clauses if c.width == 2 and c.is_positive)
            neg2 = sum(1 for c in out.clauses if c.width == 2 and c.is_negative)

    record = BlowupRecord(formula.num_vars, len(formula.clauses), mixed, pos2, neg2, tuple(outcomes))
    for outcome in record.outcomes:
        expected = _expected_counts(outcome.pipeline, record)
        measured = (outcome.output_vars, outcome.output_clauses)
        if measured != expected:
            raise RuntimeError(
                f"blowup identity violated for {outcome.pipeline}: "
                f"measured vars/clauses {measured}, expected {expected}"
            )
    return record


CSV_HEADER = (
    "seed",
    "input_vars",
    "input_clauses",
    "mixed",
    "pos2",
    "neg2",
    "pipeline",
    "out_vars",
    "out_clauses",
    "millis",
)


def csv_rows(seed: int, record: BlowupRecord) -> list[tuple[str, ...]]:
    """One CSV row per pipeline outcome, matching CSV_HEADER."""
    prefix = (
        str(seed),
        str(record.input_vars),
        str(record.input_clauses),
        str(record.mixed),
        str(record.pos2),
        str(record.neg2),
    )
    return [
        prefix
        + (
            outcome.pipeline,
            str(outcome.output_vars),
            str(outcome.output_clauses),
            f"{outcome.millis:.3f}",
        )
        for outcome in record.outcomes
    ]
