"""Time one set-up: import ``icmup`` and run one op through ``cli.main``.

Usage: python3 probe.py SRC_DIR ARGV... [-- ARGV...]...

Runs in a fresh process so that the import is paid in full.  Prints the
wall seconds taken and the factor that turns them into nominal-rate
seconds, or exits 1 if an invocation returned non-zero.  Only builtin
modules and ``refclock`` are loaded before the clock starts.
"""

import io
import sys
import time

import refclock


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    argvs = [[]]
    for arg in sys.argv[2:]:
        if arg == "--":
            argvs.append([])
        else:
            argvs[-1].append(arg)
    stdout = sys.stdout
    rate = refclock.RateScale()
    start = time.perf_counter()
    import icmup.cli
    sys.stdout = io.StringIO()
    try:
        codes = [icmup.cli.main(argv) for argv in argvs]
    finally:
        sys.stdout = stdout
    elapsed = time.perf_counter() - start
    factor = rate.factor()
    if any(codes):
        return 1
    print(repr(elapsed), repr(factor))
    return 0


if __name__ == "__main__":
    sys.exit(main())
