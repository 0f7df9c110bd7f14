"""monocnf benchmark: one workload per process, closed loop, single-threaded.

    python3 perfbench/run.py --workload reduce-bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory.  The inputs come from ``--seed``.  The workload is set
up, then one warm-up pass runs and is excluded, then passes run until
``--seconds`` have gone by; the set-up is repeated 5 or 9 times in all,
spread over those passes.  Every gated timing is the median of its
call's repetitions at the nominal speed of ``speed.py``.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` the
run is split into an untraced half and a traced half, and the per-layer
metrics and the tracing overhead are reported.

The report goes to standard output, one ``name = value unit`` line per
metric; the last line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with its provenance and, when
traced, every span, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import speed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
WORKLOAD_NAMES = ("reduce-bulk", "gen-bulk", "equisat-desk")

# name, unit: reported for every workload with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("clauses_per_s", "clauses/s"),
    ("peak_rss_mib", "MiB"),
)

# name, unit, span, statistic: reported for every workload with --trace 1.
# self_s is self time per call; per_call:<count> is a count per call;
# ns_per:<count> is self nanoseconds per counted item; per_s:<count> is
# counted items per second of self time; calls is the number of spans.
PER_LAYER = (
    ("bench.generate.self_s", "s", "bench.generate", "self_s"),
    ("bench.generate.ns_per_clause", "ns", "bench.generate", "ns_per:clauses"),
    ("dimacs.parse.self_s", "s", "dimacs.parse", "self_s"),
    ("dimacs.parse.lits_per_s", "lits/s", "dimacs.parse", "per_s:lits"),
    ("dimacs.serialize.self_s", "s", "dimacs.serialize", "self_s"),
    ("dimacs.serialize.lits_per_s", "lits/s", "dimacs.serialize", "per_s:lits"),
    ("io.read.self_s", "s", "io.read", "self_s"),
    ("io.write.self_s", "s", "io.write", "self_s"),
    ("profiles.check_profile.entry.self_s", "s", "profiles.check_profile.entry", "self_s"),
    ("profiles.check_profile.entry.ns_per_clause", "ns", "profiles.check_profile.entry", "ns_per:clauses"),
    ("profiles.check_profile.validate.self_s", "s", "profiles.check_profile.validate", "self_s"),
    ("profiles.check_profile.validate.ns_per_clause", "ns", "profiles.check_profile.validate", "ns_per:clauses"),
    *(
        (f"reduce.{function}.{suffix}", unit, f"reduce.{function}", statistic)
        for function in ("eliminate_mixed", "to_monotone_3sat5", "to_monotone_3sat4")
        for suffix, unit, statistic in (
            ("self_s", "s", "self_s"),
            ("ns_per_out_clause", "ns", "ns_per:out_clauses"),
            ("out_clauses", "count", "per_call:out_clauses"),
            ("fresh_vars", "count", "per_call:fresh_vars"),
            ("calls", "count", "calls"),
        )
    ),
    ("reduce.two_clause_pass.self_s", "s", "reduce.two_clause_pass", "self_s"),
    ("formula.CnfFormula.self_s", "s", "formula.CnfFormula", "self_s"),
    ("solve.solve_dpll.self_s", "s", "solve.solve_dpll", "self_s"),
    ("solve.solve_dpll.decisions", "count", "solve.solve_dpll", "per_call:decisions"),
    ("solve.solve_dpll.ns_per_clause", "ns", "solve.solve_dpll", "ns_per:clauses"),
    ("solve.solve_exhaustive.self_s", "s", "solve.solve_exhaustive", "self_s"),
    ("solve.solve_exhaustive.assignments", "count", "solve.solve_exhaustive", "per_call:assignments"),
)
TRACE_OVERHEAD = ("trace.overhead_ratio", "ratio")


def import_package():
    """Import monocnf from this checkout's src directory, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import monocnf
    except ImportError as exc:
        print(f"error: cannot import monocnf from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(monocnf.__file__).startswith(SRC + os.sep):
        print(f"error: monocnf imported from {monocnf.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def timed_setup(workload, clock=None, tracer=None) -> tuple[float, float, float]:
    """One set-up: its seconds, start and end, between two reference blocks
    when there is a clock."""
    if clock is not None:
        clock.tick()
    start = time.perf_counter()
    workload.setup(tracer)
    end = time.perf_counter()
    if clock is not None:
        clock.tick()
    return end - start, start, end


def measure(workload, tally, seconds: float, min_passes: int, tracer=None, setup_times=None) -> list[list]:
    """Closed-loop passes: at least ``min_passes``, then more while another
    pass as long as the last one still ends within ``seconds``.

    With ``setup_times``, the set-up is timed again between passes until
    ``workload.setup_reps`` times are in, spread evenly over the run so
    that they do not all fall into one slow spell of the machine."""
    passes = []
    start = time.perf_counter()
    while True:
        if setup_times and len(setup_times) < workload.setup_reps:
            if time.perf_counter() - start >= len(setup_times) * seconds / workload.setup_reps:
                setup_times.append(timed_setup(workload, workload.clock))
        began = time.perf_counter()
        passes.append(workload.run_pass(tally, tracer))
        now = time.perf_counter()
        if len(passes) >= min_passes and now + (now - began) - start > seconds:
            return passes


def percentile_label(count: int) -> tuple[str, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for label, q in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75)):
        if count * (1 - q) >= 10:
            return label, q
    return None


def call_times(passes, kinds, seconds_of, pick) -> dict:
    """Per call key of the given kinds: ``pick`` over the times of its
    repetitions, and one of its samples."""
    times, last = {}, {}
    for samples in passes:
        for sample in samples:
            if sample.kind in kinds:
                times.setdefault(sample.key, []).append(seconds_of(sample))
                last[sample.key] = sample
    return {key: (pick(values), last[key]) for key, values in times.items()}


def rates(workload, calls) -> dict:
    """``ops_per_s`` and ``clauses_per_s`` over one operation per key, each
    taking its call's time."""
    ops = [(seconds, sample.instance_clauses) for seconds, sample in calls.values()]
    if workload.round_size:
        # one operation is the whole round; a round with a call that never succeeded is dropped
        complete = len(ops) == workload.round_size
        ops = [(sum(op[0] for op in ops), sum(op[1] for op in ops))] if complete else []
    seconds = sum(op[0] for op in ops)
    return {
        "ops_per_s": len(ops) / seconds if seconds else 0.0,
        "clauses_per_s": sum(op[1] for op in ops) / seconds if seconds else 0.0,
    }


def end_to_end(workload, clock, setup_times, passes) -> tuple[dict, dict]:
    """The gated end-to-end metrics, from each call's median time at the
    nominal speed, and a breakdown: the same per operation kind, and the
    wall-clock figures from each call's fastest repetition."""

    def nominal(sample):
        return clock.nominal(sample.seconds, sample.start, sample.end)

    metrics = {
        "setup_s": statistics.median(clock.nominal(*times) for times in setup_times),
        **rates(workload, call_times(passes, workload.op_kinds, nominal, statistics.median)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = rates(workload, call_times(passes, workload.op_kinds, lambda sample: sample.seconds, min))
    breakdown = {
        "wall_setup_s": (min(times[0] for times in setup_times), "s"),
        "wall_ops_per_s": (wall["ops_per_s"], "1/s"),
        "wall_clauses_per_s": (wall["clauses_per_s"], "clauses/s"),
    }
    kinds = sorted({s.kind for samples in passes for s in samples})
    for kind in kinds:
        mine = list(call_times(passes, (kind,), nominal, statistics.median).values())
        seconds = sum(entry[0] for entry in mine)
        values = sorted(entry[0] * 1000 for entry in mine)
        entry = {
            f"{kind}_clauses_per_s": (sum(sample.work_clauses for _, sample in mine) / seconds, "clauses/s"),
            f"{kind}s_per_s": (len(mine) / seconds, "1/s"),
            f"{kind}_p50_ms": (statistics.median(values), "ms"),
        }
        tail = percentile_label(len(values))
        if tail:
            label, q = tail
            entry[f"{kind}_{label}_ms"] = (statistics.quantiles(values, n=100)[round(q * 100) - 1], "ms")
        entry[f"{kind}_keys"] = (len(mine), "count")
        entry[f"{kind}_samples"] = (sum(s.kind == kind for samples in passes for s in samples), "count")
        breakdown.update(entry)
    blocks = clock.blocks()
    breakdown["speed_blocks"] = (blocks["count"], "count")
    breakdown["speed_block_min_ms"] = (blocks["min_s"] * 1000, "ms")
    breakdown["speed_block_p50_ms"] = (blocks["median_s"] * 1000, "ms")
    breakdown["speed_block_max_ms"] = (blocks["max_s"] * 1000, "ms")
    return metrics, breakdown


def per_layer(spans) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans; 0 for a layer no span names."""
    totals = tracing.layer_totals(spans)
    metrics, absent = {}, []
    for name, _, span, statistic in PER_LAYER:
        entry = totals.get(span)
        if entry is None:
            metrics[name] = 0.0
            absent.append(name)
            continue
        kind, _, count = statistic.partition(":")
        self_ns = entry.self_ns
        if kind == "self_s":
            value = self_ns / entry.calls / 1e9
        elif kind == "calls":
            value = entry.calls
        elif kind == "per_call":
            value = entry.counts.get(count, 0) / entry.calls
        elif kind == "ns_per":
            value = self_ns / max(entry.counts.get(count, 0), 1)
        else:  # per_s
            value = entry.counts.get(count, 0) / (self_ns / 1e9) if self_ns else 0.0
        metrics[name] = value
    return metrics, absent


def op_seconds(workload, passes) -> float:
    """The sum over calls of their fastest repetition."""
    calls = call_times(passes, workload.op_kinds, lambda sample: sample.seconds, min)
    return sum(seconds for seconds, _ in calls.values())


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import workloads  # imports monocnf, so only after import_package()

    units = dict(END_TO_END)
    units.update((metric[0], metric[1]) for metric in PER_LAYER)
    units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
    with open(DIGESTS) as handle:
        pinned = json.load(handle).get(name, {}).get(str(seed), {})
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        self_test = workloads.gate_self_test(seed)
        workload = workloads.WORKLOADS[name](seed, workdir, pinned)
        tally = gate.Tally()
        tracer = tracing.Tracer() if traced else None
        if traced:
            tracer.op = "setup"
            setup_times = [timed_setup(workload, tracer=tracer)]
        else:
            workload.clock = speed.SpeedClock()
            setup_times = [timed_setup(workload, workload.clock)]
        warm = workload.run_pass(tally)
        if traced:
            untraced_passes = measure(workload, tally, seconds / 2, 1)
            passes = measure(workload, tally, seconds / 2, 1, tracer)
            metrics, absent = per_layer(tracer.spans)
            metrics[TRACE_OVERHEAD[0]] = op_seconds(workload, passes) / op_seconds(workload, untraced_passes) - 1
            breakdown = {}
        else:
            passes = measure(workload, tally, seconds, workload.min_passes, setup_times=setup_times)
            workload.clock.tick()  # the block after the last call
            metrics, breakdown = end_to_end(workload, workload.clock, setup_times, passes)
            absent = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    samples = {}
    for samples_of_pass in passes:
        for sample in samples_of_pass:
            samples[sample.kind] = samples.get(sample.kind, 0) + 1
    provenance = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "inputs": workload.shapes(),
        "setup_reps": len(setup_times),
        "warmup_passes_excluded": 1,
        "warmup_samples_excluded": len(warm),
        "measured_passes": len(passes),
        "samples": samples,
        **({"untraced_passes": len(untraced_passes)} if traced else {}),
    }
    failures = tally.as_dict()
    correct = tally.failed == 0 and self_test["ok"]
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }

    print(f"workload {name}  seed {seed}  trace {int(traced)}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}{'  (absent: layer not used)' if key in absent else ''}")
    for key, (value, unit) in breakdown.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(f"  fail_ratio = {failures['fail_ratio']:.6g} failed/attempted ({tally.failed} of {tally.attempted})")
    for failure in failures["failures"]:
        print(f"  failure {failure['layer']} {failure['kind']} x{failure['count']}: {failure['first']}")
    print(
        "  gate self-test: "
        + " ".join(f"{key}={str(value).lower()}" for key, value in self_test.items() if key not in ("attempted", "failed"))
        + f" ({self_test['failed']} of {self_test['attempted']} counted failed)"
    )

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "result": result,
        "provenance": provenance,
        "breakdown": {key: {"value": value, "unit": unit} for key, (value, unit) in breakdown.items()},
        "absent": absent,
        "failures": failures,
        "gate_self_test": self_test,
        **({"spans": tracing.to_json(tracer.spans)} if traced else {}),
    }
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(traced)}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, one child process each, one after the other."""
    summary = {}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return child.returncode
        summary[name] = json.loads(child.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_package()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
