"""Seeded random 3-SAT-4 instance generation and reduction blowup accounting.

The generator draws width-3 clauses over distinct variables with
independent random polarities, keeping every variable within four clause
memberships (the occurrence budget).  It makes O(clauses) draws plus one
list deletion per exhausted variable, at the index its pick resolved; each
deletion moves O(variables) list entries, so past about 100k variables the
deletions dominate.
Randomness comes from SplitMix64, the fixed 64-bit stream the README
specifies, so a seed reproduces the same instance on any platform and
Python version.  ``_draws`` is the package's one statement of the stream:
it computes 256 outputs at a time, one per 128-bit lane of a Python int,
so each step of the mix runs once per batch in C.

Blowup accounting runs every target of ``reduce.TARGETS`` on an
instance, reports output sizes and wall time as CSV rows, and checks the
measured counts against the closed forms stated by ``Target.size``.
"""

from __future__ import annotations

import struct
import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count
from typing import Callable, Iterator

from .dimacs import _clip
from .formula import CnfFormula, _stored_formula, clause_ends
from .reduce import TARGETS, _census


class GenerationError(ValueError):
    """Raised for infeasible generator configurations."""


_U64 = (1 << 64) - 1

# lane k of a batch is bits 128k to 128k + 127 of one int, so a 64-bit
# word times a 64-bit constant never carries into the next lane
_LANES = 256
_GAMMA = 0x9E3779B97F4A7C15
_ONES = int.from_bytes((b"\1" + bytes(15)) * _LANES, "little")
_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")
_STEPS = _GAMMA * int.from_bytes(b"".join(k.to_bytes(16, "little") for k in range(1, _LANES + 1)), "little")
# each lane's low word, little-endian on any host, skipping its high word
_LOW_WORDS = struct.Struct("<" + "Q8x" * _LANES)


def _batch(state: int) -> tuple[int, ...]:
    """The SplitMix64 outputs of the ``_LANES`` steps after ``state``.

    A right shift pulls the next lane's low bits into a lane's high half,
    so each xor is masked back to 64 bits before its multiply; only each
    lane's low word is read.
    """
    z = ((state & _U64) * _ONES + _STEPS) & _LOW
    z = ((z ^ z >> 30) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
    z = ((z ^ z >> 27) & _LOW) * 0x94D049BB133111EB & _LOW
    return _LOW_WORDS.unpack((z ^ z >> 31).to_bytes(16 * _LANES, "little"))


def _draws(state: int) -> Iterator[int]:
    """The SplitMix64 stream after ``state``, in order, a batch at a time."""
    return chain.from_iterable(map(_batch, count(state, _LANES * _GAMMA)))


# generate sizes its lists by the variable count, so it is bounded first
_MAX_VARIABLES = 1 << 22


@dataclass(frozen=True)
class GenConfig:
    """Generator parameters: clause_count width-3 clauses over
    variable_count variables, each variable in at most 4 clauses."""

    variable_count: int
    clause_count: int
    seed: int

    def __post_init__(self) -> None:
        # counts are echoed clipped: a command line may give thousands of digits
        if self.variable_count < 3:
            raise GenerationError(f"need at least 3 variables, got {_clip(str(self.variable_count))}")
        if self.variable_count > _MAX_VARIABLES:
            raise GenerationError(f"variable count exceeds the generator limit of {_MAX_VARIABLES}")
        if self.clause_count < 0:
            raise GenerationError(f"clause count must be nonnegative, got {_clip(str(self.clause_count))}")
        budget = 4 * self.variable_count
        needed = 3 * self.clause_count
        if needed > budget:
            raise GenerationError(
                f"{_clip(str(self.clause_count))} clauses need {_clip(str(needed))} occurrences "
                f"but {self.variable_count} variables allow only {budget}"
            )


_MAX_ATTEMPTS = 1000

# the draws every pick accepts: last < _MAX_VARIABLES, so _U64 - last > _SAFE
_SAFE = _U64 - _MAX_VARIABLES


def _accepted(z: int, last: int, draw: Callable[[], int]) -> int:
    """The first draw, from ``z`` on, that a pick among ``last + 1``
    entries accepts: at most ``_U64 - last``, or below the largest
    multiple of ``last + 1`` up to 2**64."""
    while not (z <= _U64 - last or z < (1 << 64) - (1 << 64) % (last + 1)):
        z = draw()
    return z


def generate(cfg: GenConfig) -> CnfFormula:
    """Deterministic random 3-SAT-4 instance for the given config.

    Each clause swap-removes 3 distinct variables, uniformly, from the
    ascending list of those with occurrence budget left and flips a sign
    coin per literal; a variable leaves the list when its budget reaches
    0.  The three picks are written out, their swap-removes simulated by
    index alone, without a copy.  The list is ascending, so the picks'
    sorted indices give the clause's variables in order, and each
    exhausted variable takes one list deletion, at the index its pick
    resolved.  If fewer than 3 are left before the clause count is met,
    generation restarts on the same stream, so tight configurations still
    end deterministically.

    Every draw is the next output of one SplitMix64 stream, ``_draws``
    from the seed, kept across restarts.  A pick among ``last + 1``
    entries redraws while the draw is at or above the largest multiple of
    ``last + 1`` up to 2**64, then takes the draw mod ``last + 1``.  That
    multiple exceeds ``_U64 - last``, which exceeds ``_SAFE``, so only a
    draw above ``_SAFE`` goes to ``_accepted`` for the exact test.
    A sign coin is a draw's low bit: 1 keeps the literal positive.
    """
    draw = _draws(cfg.seed).__next__
    for _ in range(_MAX_ATTEMPTS):
        budget = [4] * (cfg.variable_count + 1)
        eligible = list(range(1, cfg.variable_count + 1))
        flat: list[int] = []  # the formula's store: each clause's literals, then a 0
        for _ in range(cfg.clause_count):
            last = len(eligible) - 1
            if last < 2:
                break
            z = draw()
            i = (z if z <= _SAFE else _accepted(z, last, draw)) % (last + 1)
            z = draw()
            j = (z if z <= _SAFE else _accepted(z, last - 1, draw)) % last
            z = draw()
            k = (z if z <= _SAFE else _accepted(z, last - 2, draw)) % (last - 1)
            # after the first swap-remove, slot i holds the entry at last; after
            # the second, slot j holds the one at last - 1 (at last if i was last - 1)
            p, q, r = sorted((
                i,
                last if j == i else j,
                (last if i == last - 1 else last - 1) if k == j else last if k == i else k,
            ))
            a, b, c = eligible[p], eligible[q], eligible[r]
            flat += (a if draw() & 1 else -a, b if draw() & 1 else -b, c if draw() & 1 else -c, 0)
            budget[a] -= 1
            budget[b] -= 1
            budget[c] -= 1
            # the highest index first, so the lower ones still point at their entries
            if not budget[c]:
                del eligible[r]
            if not budget[b]:
                del eligible[q]
            if not budget[a]:
                del eligible[p]
        else:
            return _stored_formula(tuple(flat), cfg.variable_count, cfg.clause_count)
    raise GenerationError(
        f"no valid instance after {_MAX_ATTEMPTS} attempts for "
        f"vars={cfg.variable_count} clauses={cfg.clause_count} seed={_clip(str(cfg.seed))}"
    )


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


def blowup_rows(seed: int, formula: CnfFormula) -> list[tuple[str, ...]]:
    """Run every target on a 3-SAT-4 instance and return one CSV row per
    target, matching CSV_HEADER.  Raises RuntimeError when a target's
    measured size differs from the closed form stated by ``Target.size``."""
    census = _census(formula.flat, clause_ends(formula.flat), list(formula.rows()))
    measured_rows = []
    for name, target in TARGETS.items():
        start = time.perf_counter()
        out, _ = target.reduce(formula)
        millis = (time.perf_counter() - start) * 1000.0
        if name == "mono23sat4":  # its 2-clauses are monotone: count them by their first literal's sign
            pairs = Counter(c[0] > 0 for c in out.rows() if len(c) == 2)
        # variables and clauses as the store holds them: ``out.num_vars`` and ``len(out)`` are the closed form's
        measured = (max((formula.num_vars, *out.variables())), out.flat.count(0))
        expected = target.size(formula.num_vars, len(formula), census)
        if measured != expected:
            raise RuntimeError(
                f"blowup identity violated for {name}: measured vars/clauses {measured}, expected {expected}"
            )
        measured_rows.append((name, *measured, f"{millis:.3f}"))
    prefix = (seed, formula.num_vars, len(formula), census[0], pairs[True], pairs[False])
    return [tuple(map(str, prefix + row)) for row in measured_rows]
