#!/usr/bin/env python3
"""atis_cli number parsing: a malformed or out-of-range number is a usage
error (exit 2), never silently read as 0, truncated at trailing junk, or
wrapped into a different node id. A flag the CLI no longer has is an
unknown flag, also a usage error.

Usage: check_cli_numbers.py PATH/TO/atis_cli

Generates a 10x10 grid in a temporary directory, runs each bad call and
expects exit code 2 with nothing routed, then runs the same commands with
good values and expects exit code 0.

Exit code 0 when every case behaves, 1 otherwise.
"""

import subprocess
import sys
import tempfile
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    cli = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        grid = str(Path(tmp) / "g10.atis")
        good_queries = Path(tmp) / "good.txt"
        good_queries.write_text("0 99\n5 90 dijkstra\n")
        wrapped_queries = Path(tmp) / "wrapped.txt"
        wrapped_queries.write_text("4294967299 90\n")
        subprocess.run([cli, "generate", "grid", "10", "variance", grid],
                       check=True, capture_output=True)

        bad = [
            ["route", grid, "abc", "5"],                 # not a number
            ["route", grid, "12x", "5"],                 # trailing junk
            ["route", grid, "4294967299", "5"],          # wraps to node 3
            ["route", grid, "-1", "5"],                  # negative id
            ["route", grid, "0", "99", "astar", "euclidean", "1.5x"],
            ["dbroute", grid, "0", "99x", "dijkstra"],
            ["dbroute", grid, "0", "99", "astar4", "--landmarks=8x"],
            ["svg", grid, "0", "abc", str(Path(tmp) / "r.svg")],
            ["alternates", grid, "0", "99", "3x"],
            ["serve", grid, f"--queries={good_queries}", "--workers=abc"],
            ["serve", grid, f"--queries={good_queries}", "--latency=5,3x"],
            ["serve", grid, f"--queries={good_queries}", "--latency=-5,3"],
            ["serve", grid, f"--queries={good_queries}", "--fault-rate=1"],
            ["serve", grid, f"--queries={wrapped_queries}"],
            # Removed flags are unknown flags now.
            ["serve", grid, f"--queries={good_queries}", "--prefetch-depth=8"],
            ["serve", grid, f"--queries={good_queries}",
             "--batch-window-us=200"],
            ["generate", "grid", "10x", "variance", grid],
            ["continent", "route", grid, "0", "99", "--workers=2x"],
        ]
        good = [
            ["route", grid, "0", "99"],
            ["route", grid, "0", "99", "astar", "euclidean", "1.5"],
            ["dbroute", grid, "0", "99", "astar4", "--landmarks=4"],
            ["alternates", grid, "0", "99", "3"],
            ["serve", grid, f"--queries={good_queries}", "--workers=2",
             "--latency=0,0"],
        ]
        failures = 0
        for args, want in [(a, 2) for a in bad] + [(a, 0) for a in good]:
            run = subprocess.run([cli] + args, capture_output=True,
                                 text=True, timeout=120)
            ok = run.returncode == want and (want == 0 or
                                              "cost" not in run.stdout)
            if not ok:
                failures += 1
                print(f"FAIL (exit {run.returncode}, want {want}): "
                      f"atis_cli {' '.join(args)}\n"
                      f"  stdout: {run.stdout.strip()[:200]}\n"
                      f"  stderr: {run.stderr.strip()[:200]}")
        total = len(bad) + len(good)
        print(f"{total - failures}/{total} atis_cli number cases behave")
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
