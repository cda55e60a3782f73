#!/usr/bin/env python3
"""Golden paper tables: the paper's Table/Figure benches must print
exactly the committed tables.

Usage: check_paper_tables.py GOLDEN_DIR NAME=BINARY... [--update]

Runs each BINARY (one paper-table bench, fixed seeds, no arguments),
strips the per-run ` hNN%` buffer-pool hit annotations from its stdout,
and diffs the rest against GOLDEN_DIR/NAME.txt. The table prints costs
to 0.1 units, coarser than one block (0.035), so the bench also runs
with ATIS_TRACE=1 and the golden ends with each database run's trace
summary: iterations and exact blocks read/written (pool hit, miss and
wall-clock fields dropped). Everything kept is deterministic, so any
difference means a paper engine, the cost model or a generator changed
what the reproduction reports. --update rewrites the goldens from the
current binaries instead of checking them.

Exit code 0 when every table matches, 1 otherwise.
"""

import difflib
import os
import re
import subprocess
import sys
from pathlib import Path

HIT_RATE = re.compile(r" h\d+%")
POOL_AND_WALL = re.compile(r"\s+hit=.*$")


def table(binary: str) -> str:
    run = subprocess.run([binary], capture_output=True, text=True,
                         timeout=300, env={**os.environ, "ATIS_TRACE": "1"})
    if run.returncode != 0:
        raise RuntimeError(f"{binary} exited {run.returncode}:\n{run.stderr}")
    runs = [" ".join(POOL_AND_WALL.sub("", line).split())
            for line in run.stderr.splitlines() if line.startswith("run ")]
    return (HIT_RATE.sub("", run.stdout) +
            "\n--- database runs (ATIS_TRACE=1 run spans) ---\n" +
            "".join(f"{line}\n" for line in runs))


def main(argv: list[str]) -> int:
    update = "--update" in argv
    args = [a for a in argv if a != "--update"]
    if len(args) < 2 or any("=" not in a for a in args[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    golden_dir = Path(args[0])
    failed = []
    for pair in args[1:]:
        name, binary = pair.split("=", 1)
        golden = golden_dir / f"{name}.txt"
        got = table(binary)
        if update:
            golden.write_text(got)
            continue
        want = golden.read_text() if golden.exists() else ""
        if got != want:
            failed.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                want.splitlines(keepends=True), got.splitlines(keepends=True),
                f"golden/{name}.txt", f"{name} (this build)"))
    if update:
        print(f"wrote {len(args) - 1} goldens to {golden_dir}")
        return 0
    if failed:
        print(f"paper tables changed: {', '.join(failed)}")
        return 1
    print(f"all {len(args) - 1} paper tables match their goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
