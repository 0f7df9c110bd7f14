"""Run a command in a child process and bound its peak RSS.

    python .github/peak_rss.py BOUND_MIB -- COMMAND [ARG ...]

The child inherits stdin, stdout and stderr.  Its peak RSS, read from
RUSAGE_CHILDREN once it exits, and its wall time are printed on stderr.  A nonzero exit code
of the child is passed through; otherwise a peak of BOUND_MIB or more fails.
"""

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.exit(__doc__)
    bound, command = int(argv[0]), argv[2:]
    start = time.perf_counter()
    code = subprocess.run(command).returncode
    wall_s = time.perf_counter() - start
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"peak RSS {peak_mib:.0f} MiB, wall {wall_s:.2f} s: {' '.join(command)}", file=sys.stderr)
    if code:
        return code if code > 0 else 128 - code  # a signal's number, as a shell reports it
    if peak_mib >= bound:
        sys.exit(f"peaked at {bound} MiB or more: {' '.join(command)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
