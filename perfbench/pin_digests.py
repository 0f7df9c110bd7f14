"""Pin the SHA-256 of every serialize() output the workloads check.

    python3 perfbench/pin_digests.py 0 1 2 3

Runs each workload's setup and first passes for the given seeds with the
package in this checkout, checks every output with the gate, and writes
perfbench/digests.json.  Later runs of those seeds fail any operation whose
output bytes differ.  Refuses to pin when the gate reports a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import gate
import run


def main(seeds: list[int]) -> int:
    run.import_package()
    import workloads  # imports monocnf, so only after import_package()

    pins: dict[str, dict[str, dict[str, str]]] = {}
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    for name in run.WORKLOAD_NAMES:
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix=f"pin-{name}-", dir=run.WORK_ROOT)
            try:
                workload = workloads.WORKLOADS[name](seed, workdir, {})
                workload.setup()
                tally = gate.Tally()
                for _ in range(workload.pin_passes):
                    workload.run_pass(tally)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if tally.failed:
                print(f"error: {name} seed {seed}: {tally.as_dict()['failures']}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = workload.observed
            print(f"pinned {name} seed {seed}: {len(workload.observed)} digests")
    try:
        os.rmdir(run.WORK_ROOT)
    except OSError:
        pass
    with open(run.DIGESTS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(arg) for arg in sys.argv[1:]]))
