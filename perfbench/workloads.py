"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
closed-loop passes: one caller issues the next operation only when the
previous one returned.  Untraced passes go through the package's public
entry points (``cli.run`` for the file workloads, the pipelines and
``check_equisat`` in process); traced passes repeat the same work through
the public layer calls, one span per call, so each layer gets its own self
time.  Every output goes through the gate in ``gate.py``; the first pass
verifies it in full and later passes compare its bytes with the verified
ones.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass
from functools import partial

import gate
from speed import SpeedClock
from tracing import LayerError, Tracer, call, last_span

from monocnf import (
    PROFILES,
    CnfFormula,
    DimacsDocument,
    GenConfig,
    check_equisat,
    check_profile,
    cli,
    dimacs,
    eliminate_mixed,
    generate,
    solve_dpll,
    solve_exhaustive,
    to_monotone_3sat4,
    to_monotone_3sat5,
)
from monocnf.solve import DEFAULT_VAR_LIMIT


@dataclass
class Sample:
    """One timed call: ``key`` names the call, so that its repetitions in
    later passes can be told apart from other calls; ``instance_clauses``
    counts the clauses of the source instance the operation carries (once
    per reduce-validate cycle, gen call or verdict); ``work_clauses``
    counts the clauses the call itself read or produced."""

    kind: str
    key: str
    seconds: float
    instance_clauses: int
    work_clauses: int
    start: float = 0.0  # perf_counter bounds of the operation the call belongs to
    end: float = 0.0


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def entry_check(formula: CnfFormula) -> None:
    """The profile checks a pipeline makes on its input: strict 3-SAT-4,
    then monotone (2,3)-SAT-4 when the strict check fails."""
    if not check_profile(formula, PROFILES["3sat4"]).ok:
        check_profile(formula, PROFILES["mono23sat4"])


def attempt(clock: SpeedClock | None, tally: gate.Tally, layer: str, op) -> list[Sample]:
    """Run one operation, count it, and return its samples (none when it
    failed).  ``op`` returns (problems, samples); an exception counts as a
    failure of the layer it escaped from, and the run goes on.  With a
    ``clock``, the reference block runs first when it is due, and the
    samples are stamped with the operation's bounds."""
    if clock is not None:
        clock.maybe_tick()
    start = time.perf_counter()
    try:
        problems, samples = op()
    except LayerError as exc:
        tally.record(exc.layer, [str(exc)], type(exc.cause).__name__)
        return []
    except Exception as exc:  # the benchmark's own glue: count it and go on
        tally.record("perfbench", [f"{type(exc).__name__}: {exc}"], type(exc).__name__)
        return []
    end = time.perf_counter()
    for sample in samples:
        sample.start, sample.end = start, end
    return samples if tally.record(layer, problems) else []


def quiet_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.run`` with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = call(None, "cli.run", cli.run, argv)
    return code, out.getvalue()


class Workload:
    name = ""
    op_kinds: tuple[str, ...] = ()
    min_passes = 1
    pin_passes = 1
    setup_reps = 5
    round_size = 0  # calls per operation when one operation is a whole pass
    clock: SpeedClock | None = None  # set for untraced runs

    def __init__(self, seed: int, workdir: str, pinned: dict[str, str]):
        self.seed = seed
        self.workdir = workdir
        self.pinned = pinned
        self.observed: dict[str, str] = {}
        self.passes_run = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self, tracer: Tracer | None = None) -> None:
        raise NotImplementedError

    def run_pass(self, tally: gate.Tally, tracer: Tracer | None = None) -> list[Sample]:
        raise NotImplementedError

    def shapes(self) -> dict:
        raise NotImplementedError


class ReduceBulk(Workload):
    """One seeded 3-SAT-4 instance rewritten file to file into every target
    by ``monocnf reduce``, each output checked by ``monocnf validate``.

    One operation is the whole round of eight calls: the calls differ by
    up to 15x in length, so a median over single calls would sit on the
    edge between two of them."""

    name = "reduce-bulk"
    op_kinds = ("reduce", "validate")
    min_passes = 2
    VARS = 2000
    # target, reduce arguments, profile, pipeline span name, pipeline
    TARGETS = (
        ("mono23sat4", ("--target", "mono23sat4"), "mono23sat4", "eliminate_mixed", eliminate_mixed),
        ("mono3sat5", ("--target", "mono3sat5"), "mono3sat5", "to_monotone_3sat5", to_monotone_3sat5),
        (
            "mono3sat5-compact",
            ("--target", "mono3sat5", "--compact-r3"),
            "mono3sat5",
            "to_monotone_3sat5",
            partial(to_monotone_3sat5, compact=True),
        ),
        ("mono3sat4", ("--target", "mono3sat4"), "mono3sat4", "to_monotone_3sat4", to_monotone_3sat4),
    )
    round_size = 2 * len(TARGETS)  # a reduce and a validate per target

    def __init__(self, seed: int, workdir: str, pinned: dict[str, str]):
        super().__init__(seed, workdir, pinned)
        self.input_path = self.path("input.cnf")
        self.verified: dict[str, tuple[str, list[str]]] = {}
        self.mid: CnfFormula | None = None

    def shapes(self) -> dict:
        return {"vars": self.VARS, "clauses": 4 * self.VARS // 3, "targets": [t[0] for t in self.TARGETS]}

    def setup(self, tracer: Tracer | None = None) -> None:
        cfg = GenConfig(self.VARS, 4 * self.VARS // 3, self.seed)
        formula = call(tracer, "bench.generate", generate, cfg)
        generated = last_span(tracer)
        text = call(tracer, "dimacs.serialize", dimacs.serialize, DimacsDocument(formula))
        serialized = last_span(tracer)
        call(tracer, "io.write", write_text, self.input_path, text)
        self.formula = formula
        self.in_clauses = [clause.lits for clause in formula.clauses]
        if tracer is not None:
            generated.counts["clauses"] = len(self.in_clauses)
            serialized.counts["lits"] = 3 * len(self.in_clauses)

    def check_output(self, target: str, profile: str, text: str) -> list[str]:
        digest = gate.sha256(text)
        if target not in self.verified:
            problems = gate.reduced_problems(
                text, target, profile, self.VARS, self.in_clauses, self.pinned.get(target)
            )
            self.verified[target] = (digest, problems)
            self.observed[target] = digest
        verified_digest, problems = self.verified[target]
        if digest != verified_digest:
            return ["output bytes differ from the output verified in the first pass"]
        return problems

    def run_pass(self, tally: gate.Tally, tracer: Tracer | None = None) -> list[Sample]:
        self.passes_run += 1
        samples: list[Sample] = []
        for target in self.TARGETS:
            out_path = self.path(f"{target[0]}.cnf")
            if tracer is None:
                samples += attempt(self.clock, tally, "reduce", partial(self._reduce, target, out_path))
                samples += attempt(self.clock, tally, "profiles", partial(self._validate, target, out_path))
            else:
                tracer.op = f"{self.passes_run}:{target[0]}:reduce"
                samples += attempt(self.clock, tally, "reduce", partial(self._reduce_traced, tracer, target, out_path))
                tracer.op = f"{self.passes_run}:{target[0]}:validate"
                samples += attempt(self.clock, tally, "profiles", partial(self._validate_traced, tracer, target, out_path))
        return samples

    def _reduce(self, target, out_path):
        name, args, profile = target[:3]
        start = time.perf_counter()
        code, _ = quiet_cli(["reduce", *args, self.input_path, out_path])
        seconds = time.perf_counter() - start
        problems = [f"reduce exited {code}"] if code else []
        problems += self.check_output(name, profile, read_bytes(out_path).decode())
        m = len(self.in_clauses)
        return problems, [Sample("reduce", f"reduce:{name}", seconds, m, m)]

    def _validate(self, target, out_path):
        profile = target[2]
        start = time.perf_counter()
        code, printed = quiet_cli(["validate", "--profile", profile, out_path])
        seconds = time.perf_counter() - start
        problems = [f"validate exited {code}: {printed[:200]}"] if code or printed else []
        return problems, [Sample("validate", f"validate:{target[0]}", seconds, 0, self.output_clauses(target[0]))]

    def output_clauses(self, name: str) -> int:
        return gate.expected_size(name, self.VARS, self.in_clauses)[1]

    def _reduce_traced(self, tracer: Tracer, target, out_path):
        name, _, profile, function, pipeline = target
        start = time.perf_counter()
        with tracer.span("op.reduce"):
            data = call(tracer, "io.read", read_bytes, self.input_path)
            doc = call(tracer, "dimacs.parse", dimacs.parse, data)
            parsed = last_span(tracer)
            out, _ = call(tracer, f"reduce.{function}", pipeline, doc.formula)
            reduced = last_span(tracer)
            text = call(tracer, "dimacs.serialize", dimacs.serialize, DimacsDocument(out))
            serialized = last_span(tracer)
            call(tracer, "io.write", write_text, out_path, text)
        seconds = time.perf_counter() - start
        m = len(doc.formula.clauses)
        parsed.counts["lits"] = 3 * m
        reduced.counts.update(out_clauses=len(out.clauses), fresh_vars=out.num_vars - doc.formula.num_vars)
        serialized.counts["lits"] = sum(len(clause.lits) for clause in out.clauses)

        with tracer.span("profiles.check_profile.entry", probe=True) as probe:
            entry_check(doc.formula)
        probe.counts["clauses"] = m
        with tracer.span("formula.CnfFormula", probe=True):
            CnfFormula(out.clauses, num_vars=out.num_vars)
        if function != "eliminate_mixed":
            if self.mid is None:
                self.mid = eliminate_mixed(self.formula)[0]
            with tracer.span("reduce.two_clause_pass", probe=True):
                pipeline(self.mid)
        return self.check_output(name, profile, text), [Sample("reduce", f"reduce:{name}", seconds, m, m)]

    def _validate_traced(self, tracer: Tracer, target, out_path):
        name, profile = target[0], target[2]
        start = time.perf_counter()
        with tracer.span("op.validate"):
            data = call(tracer, "io.read", read_bytes, out_path)
            doc = call(tracer, "dimacs.parse", dimacs.parse, data)
            parsed = last_span(tracer)
            report = call(tracer, "profiles.check_profile.validate", check_profile, doc.formula, PROFILES[profile])
            checked = last_span(tracer)
        seconds = time.perf_counter() - start
        clauses = len(doc.formula.clauses)
        parsed.counts["lits"] = sum(len(clause.lits) for clause in doc.formula.clauses)
        checked.counts["clauses"] = clauses
        problems = [f"validate reported {len(report)} violations"] if not report.ok else []
        return problems, [Sample("validate", f"validate:{name}", seconds, 0, clauses)]


class GenBulk(Workload):
    """``monocnf gen`` at n = 2,500 over three seeds derived from the run seed,
    each output compared with the benchmark's own linear-time reference of
    the generator."""

    name = "gen-bulk"
    op_kinds = ("gen",)
    min_passes = 5
    pin_passes = 3
    VARS = 2500
    SEEDS_PER_RUN = 3

    def __init__(self, seed: int, workdir: str, pinned: dict[str, str]):
        super().__init__(seed, workdir, pinned)
        self.gen_seeds = [seed * self.SEEDS_PER_RUN + i for i in range(self.SEEDS_PER_RUN)]
        self.clauses = 4 * self.VARS // 3
        self.out_path = self.path("gen.cnf")

    def shapes(self) -> dict:
        return {"vars": self.VARS, "clauses": self.clauses, "gen_seeds": self.gen_seeds}

    def comment(self, gen_seed: int) -> str:
        return f"gen vars={self.VARS} clauses={self.clauses} seed={gen_seed}"

    def setup(self, tracer: Tracer | None = None) -> None:
        self.expected = {}
        for gen_seed in self.gen_seeds:
            clauses = gate.reference_instance(self.VARS, self.clauses, gen_seed)
            text = gate.dimacs_text(self.VARS, clauses, (self.comment(gen_seed),))
            self.expected[gen_seed] = gate.sha256(text)

    def run_pass(self, tally: gate.Tally, tracer: Tracer | None = None) -> list[Sample]:
        gen_seed = self.gen_seeds[self.passes_run % len(self.gen_seeds)]
        self.passes_run += 1
        if tracer is not None:
            tracer.op = f"{self.passes_run}:gen"
        return attempt(self.clock, tally, "bench", partial(self._gen, tracer, gen_seed))

    def _gen(self, tracer: Tracer | None, gen_seed: int):
        start = time.perf_counter()
        if tracer is None:
            code, _ = quiet_cli(
                ["gen", "--vars", str(self.VARS), "--clauses", str(self.clauses), "--seed", str(gen_seed), self.out_path]
            )
            problems = [f"gen exited {code}"] if code else []
        else:
            with tracer.span("op.gen"):
                cfg = GenConfig(self.VARS, self.clauses, gen_seed)
                formula = call(tracer, "bench.generate", generate, cfg)
                generated = last_span(tracer)
                doc = DimacsDocument(formula, (self.comment(gen_seed),))
                text = call(tracer, "dimacs.serialize", dimacs.serialize, doc)
                serialized = last_span(tracer)
                call(tracer, "io.write", write_text, self.out_path, text)
            generated.counts["clauses"] = self.clauses
            serialized.counts["lits"] = 3 * self.clauses
            problems = []
        seconds = time.perf_counter() - start
        text = read_bytes(self.out_path).decode()
        digest = gate.sha256(text)
        self.observed[str(gen_seed)] = digest
        if digest != self.expected[gen_seed]:
            problems.append("output differs from the reference generator")
        pinned = self.pinned.get(str(gen_seed))
        if pinned is not None and digest != pinned:
            problems.append("serialize() output differs from the pinned SHA-256")
        try:
            num_vars, clauses = gate.read_dimacs(text)
            problems += gate.profile_problems(num_vars, clauses, "3sat4")
            if (num_vars, len(clauses)) != (self.VARS, self.clauses):
                problems.append(f"shape {(num_vars, len(clauses))}, asked for {(self.VARS, self.clauses)}")
        except ValueError as exc:
            problems.append(f"unreadable output: {exc}")
        return problems, [Sample("gen", "gen", seconds, self.clauses, self.clauses)]


@dataclass
class Instance:
    label: str
    formula: CnfFormula
    clauses: list[tuple[int, ...]]
    expected_sat: bool | None


class EquisatDesk(Workload):
    """Desk-scale verdicts: every instance is reduced by both widening
    pipelines in process and each output is compared with its original by
    ``check_equisat``.

    The small instances come from the run seed.  The planted-UNSAT instances
    and the tail are the same in every run: DPLL search on the planted ones
    varies a hundredfold from instance to instance, and with a handful of
    them per run that variation would swamp every timing.  A pass holds 132
    verdicts: 96 small, 32 planted and 4 tail."""

    name = "equisat-desk"
    op_kinds = ("verdict",)
    min_passes = 2
    setup_reps = 9
    SMALL = 48  # generated from the run seed, n cycling through 8..20
    PLANTED = 16  # fixed: eliminate_mixed output plus the triangle core
    TAIL_VARS = (60, 70)  # fixed, generated; DPLL on both sides
    FIXED_SEED = 1 << 40  # generator seeds of the fixed instances start here
    PIPELINES = (("to_monotone_3sat5", to_monotone_3sat5), ("to_monotone_3sat4", to_monotone_3sat4))

    def __init__(self, seed: int, workdir: str, pinned: dict[str, str]):
        super().__init__(seed, workdir, pinned)
        self.verified: dict[tuple[int, str], str] = {}

    def shapes(self) -> dict:
        return {
            "small": {"count": self.SMALL, "vars": "8..20", "clauses": "floor(4n/3)", "seeded": True},
            "planted_unsat": {"count": self.PLANTED, "from_vars": "8..20", "core_vars": 3, "seeded": False},
            "tail": {"vars": list(self.TAIL_VARS), "clauses": "floor(4n/3)", "seeded": False},
            "pipelines": [name for name, _ in self.PIPELINES],
            "verdicts_per_pass": 2 * (self.SMALL + self.PLANTED + len(self.TAIL_VARS)),
        }

    def _generate(self, tracer: Tracer | None, n: int, gen_seed: int) -> CnfFormula:
        formula = call(tracer, "bench.generate", generate, GenConfig(n, 4 * n // 3, gen_seed))
        if tracer is not None:
            last_span(tracer).counts["clauses"] = len(formula.clauses)
        return formula

    def setup(self, tracer: Tracer | None = None) -> None:
        self.instances: list[Instance] = []
        for i in range(self.SMALL):
            formula = self._generate(tracer, 8 + i % 13, self.seed * 1000 + i)
            clauses = [clause.lits for clause in formula.clauses]
            self.instances.append(Instance("small", formula, clauses, self._reference(clauses)))
        for i in range(self.PLANTED):
            base = self._generate(tracer, 8 + (5 * i) % 13, self.FIXED_SEED + i)
            mid, _ = call(tracer, "reduce.eliminate_mixed", eliminate_mixed, base)
            if tracer is not None:
                last_span(tracer).counts.update(out_clauses=len(mid.clauses), fresh_vars=mid.num_vars - base.num_vars)
            clauses = [clause.lits for clause in mid.clauses] + gate.planted_core(mid.num_vars)
            problems = gate.planted_core_problems(clauses, mid.num_vars)
            if problems:
                raise RuntimeError(f"planted instance {i}: {problems}")
            formula = CnfFormula.from_ints(clauses, num_vars=mid.num_vars + 3)
            self.instances.append(Instance("planted", formula, clauses, False))
        for i, n in enumerate(self.TAIL_VARS):
            formula = self._generate(tracer, n, self.FIXED_SEED + self.PLANTED + i)
            clauses = [clause.lits for clause in formula.clauses]
            self.instances.append(Instance("tail", formula, clauses, self._reference(clauses)))
        # spread each class evenly over the pass, so that a slow spell of
        # the machine hits every class alike instead of one block
        position = {}
        for label in ("small", "planted", "tail"):
            members = [inst for inst in self.instances if inst.label == label]
            for i, inst in enumerate(members):
                position[id(inst)] = (i + 0.5) / len(members)
        self.instances.sort(key=lambda inst: position[id(inst)])

    @staticmethod
    def _reference(clauses):
        model = gate.reference_model(clauses)
        return None if model is None else model is not False

    def run_pass(self, tally: gate.Tally, tracer: Tracer | None = None) -> list[Sample]:
        self.passes_run += 1
        samples: list[Sample] = []
        for index, instance in enumerate(self.instances):
            for function, pipeline in self.PIPELINES:
                key = (index, function)
                if tracer is None and key in self.verified:
                    op = partial(self._verdict, instance, key, function, pipeline)
                else:
                    if tracer is not None:
                        tracer.op = f"{self.passes_run}:{index}:{function}"
                    op = partial(self._verdict_split, tracer, instance, key, function, pipeline)
                samples += attempt(self.clock, tally, "solve", op)
        if self.passes_run == 1:
            combined = gate.sha256("".join(self.verified[key] for key in sorted(self.verified)))
            self.observed["all"] = combined
            pinned = self.pinned.get("all")
            if pinned is not None:
                tally.record("reduce", [] if combined == pinned else ["reduced outputs differ from the pinned SHA-256"])
        return samples

    def _check_digest(self, key, reduced: CnfFormula) -> list[str]:
        digest = gate.sha256(dimacs.serialize(DimacsDocument(reduced)))
        known = self.verified.setdefault(key, digest)
        return [] if digest == known else ["reduced output differs from the one verified in the first pass"]

    def _verdict(self, instance: Instance, key, function, pipeline):
        start = time.perf_counter()
        reduced, _ = call(None, f"reduce.{function}", pipeline, instance.formula)
        reduced_at = time.perf_counter()
        same = call(None, "solve.check_equisat", check_equisat, instance.formula, reduced)
        seconds = time.perf_counter() - reduced_at
        problems = [] if same else ["check_equisat reports the reduction not equisatisfiable"]
        problems += self._check_digest(key, reduced)
        m = len(instance.clauses)
        return problems, [
            Sample("reduce", f"reduce:{key[0]}:{key[1]}", reduced_at - start, 0, m),
            Sample("verdict", f"verdict:{key[0]}:{key[1]}", seconds, m, len(reduced.clauses)),
        ]

    def _decide(self, tracer: Tracer | None, formula: CnfFormula):
        if formula.num_vars <= DEFAULT_VAR_LIMIT:
            verdict = call(tracer, "solve.solve_exhaustive", solve_exhaustive, formula)
            counts = {"assignments": verdict.explored}
        else:
            verdict = call(tracer, "solve.solve_dpll", solve_dpll, formula)
            counts = {"decisions": verdict.explored, "clauses": len(formula.clauses)}
        if tracer is not None:
            last_span(tracer).counts.update(counts)
        return verdict

    def _verdict_split(self, tracer: Tracer | None, instance: Instance, key, function, pipeline):
        start = time.perf_counter()
        with tracer.span("op.verdict") if tracer is not None else contextlib.nullcontext():
            reduced, _ = call(tracer, f"reduce.{function}", pipeline, instance.formula)
            reduced_span = last_span(tracer)
            reduced_at = time.perf_counter()
            original_verdict = self._decide(tracer, instance.formula)
            reduced_verdict = self._decide(tracer, reduced)
        seconds = time.perf_counter() - reduced_at
        if tracer is not None:
            reduced_span.counts.update(
                out_clauses=len(reduced.clauses), fresh_vars=reduced.num_vars - instance.formula.num_vars
            )
            with tracer.span("profiles.check_profile.entry", probe=True) as probe:
                entry_check(instance.formula)
            probe.counts["clauses"] = len(instance.clauses)
        problems = gate.verdict_problems(
            instance.clauses,
            instance.formula.num_vars,
            [clause.lits for clause in reduced.clauses],
            original_verdict.satisfiable,
            reduced_verdict.satisfiable,
            reduced_verdict.witness,
            instance.expected_sat,
        )
        problems += self._check_digest(key, reduced)
        m = len(instance.clauses)
        return problems, [
            Sample("reduce", f"reduce:{key[0]}:{key[1]}", reduced_at - start, 0, m),
            Sample("verdict", f"verdict:{key[0]}:{key[1]}", seconds, m, len(reduced.clauses)),
        ]


WORKLOADS = {workload.name: workload for workload in (ReduceBulk, GenBulk, EquisatDesk)}


def gate_self_test(seed: int) -> dict:
    """Feed the gate one corrupted literal, one dropped clause and one
    flipped verdict, next to a clean output, and count the failures.

    The clean output must pass and each corruption must be counted as a
    failed operation."""
    formula = generate(GenConfig(12, 16, seed))
    clauses = [clause.lits for clause in formula.clauses]
    reduced, _ = to_monotone_3sat4(formula)
    text = dimacs.serialize(DimacsDocument(reduced))
    lines = text.rstrip("\n").split("\n")
    header = next(i for i, line in enumerate(lines) if line.startswith("p "))

    def judge(candidate: list[str]) -> list[str]:
        return gate.reduced_problems(
            "\n".join(candidate) + "\n", "mono3sat4", "mono3sat4", formula.num_vars, clauses, gate.sha256(text)
        )

    flipped_literal = list(lines)
    first, *rest = flipped_literal[header + 1].split()
    flipped_literal[header + 1] = " ".join([str(-int(first)), *rest])
    dropped_clause = lines[:header] + [f"p cnf {reduced.num_vars} {len(reduced.clauses) - 1}"] + lines[header + 2 :]

    original = solve_exhaustive(formula)
    verdict = solve_dpll(reduced)
    expected = EquisatDesk._reference(clauses)
    reduced_clauses = [clause.lits for clause in reduced.clauses]

    def verdicts(reduced_sat: bool) -> list[str]:
        return gate.verdict_problems(
            clauses, formula.num_vars, reduced_clauses, original.satisfiable, reduced_sat, verdict.witness, expected
        )

    tally = gate.Tally()
    caught = {
        "clean_output_passes": tally.record("self-test", judge(lines) + verdicts(verdict.satisfiable)),
        "corrupt_literal_caught": not tally.record("self-test", judge(flipped_literal)),
        "drop_clause_caught": not tally.record("self-test", judge(dropped_clause)),
        "flip_verdict_caught": not tally.record("self-test", verdicts(not verdict.satisfiable)),
    }
    return {**caught, "attempted": tally.attempted, "failed": tally.failed, "ok": all(caught.values())}
