#!/usr/bin/env python3
"""Serving-bench flag parsing: a mistyped flag is a usage error (exit 2),
never taken as the output path and never a full run.

Usage: check_bench_flags.py BENCH_BINARY...

Runs each bench with --quik in an empty temporary directory and expects
exit code 2, "unknown flag: --quik" on stderr and no file written.

Exit code 0 when every bench behaves, 1 otherwise.
"""

import os
import subprocess
import sys
import tempfile


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for bench in argv:
        name = os.path.basename(bench)
        with tempfile.TemporaryDirectory() as tmp:
            run = subprocess.run([os.path.abspath(bench), "--quik"], cwd=tmp,
                                 capture_output=True, text=True, timeout=60)
            written = os.listdir(tmp)
        ok = (run.returncode == 2 and not written and
              "unknown flag: --quik" in run.stderr)
        print(f"{'ok' if ok else 'FAIL':4} {name} --quik: exit "
              f"{run.returncode}, files written {written}")
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
