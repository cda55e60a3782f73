#!/usr/bin/env python3
"""Gate-by-gate test of scripts/check_perf.py against the quick baselines.

Usage: check_perf_gates.py BASELINE_DIR

For each bench/baselines/*.json: the file checked against itself must
pass. Then, for every gate it declares, a copy of the file with only that
gate's value moved must pass with the value exactly at the threshold
below and fail with it just past, even when the copy declares the gate
with no limit and not relative. The thresholds are written out here
one rule per gate, each the acceptance rule the bench held before gates
were declared inline (or, where marked, a floor that only the bench
printed until then), so a change to any declared limit, direction or
relative flag fails this test.

Exit code 0 when every case behaves, 1 otherwise.
"""

import copy
import fnmatch
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOLERANCE = 0.30  # check_perf.py's default


def floor(relative=False, limit=None):
    """Rule: value >= max(limit, (1 - tolerance) x baseline)."""
    def rule(base):
        bounds = [] if limit is None else [limit]
        if relative:
            bounds.append(base * (1.0 - TOLERANCE))
        return "higher", max(bounds)
    return rule


def ceiling(relative=False, limit=None):
    """Rule: value <= min(limit, (1 + tolerance) x baseline)."""
    def rule(base):
        bounds = [] if limit is None else [limit]
        if relative:
            bounds.append(base * (1.0 + TOLERANCE))
        return "lower", min(bounds)
    return rule


# benchmark -> [(gate name pattern, rule)]; every gate must match one.
RULES = {
    "throughput": [
        ("*/*w/qps", floor(relative=True)),
        # Printed but not enforced before inline gates.
        ("grid30_uniform/speedup_4w", floor(limit=2.0)),
    ],
    "batching": [
        ("*/batch*/qps", floor(relative=True)),
        ("*/batch*/blocks_per_query", ceiling(relative=True)),
        # Printed but not enforced before inline gates.
        ("*/blocks_reduction_batch8_vs_batch1", floor(limit=0.30)),
        ("*/qps_ratio_batch8_over_batch1", floor(limit=1.0)),
    ],
    "overlay": [
        ("minneapolis_iter_ratio_v4_over_v5",
         floor(relative=True, limit=10.0)),
        ("minneapolis_block_ratio_v4_over_v5",
         floor(relative=True, limit=10.0)),
        ("recustomize_single_edge_ms", ceiling(limit=100.0)),
    ],
    "ingest": [
        ("updates_per_sec", floor(relative=True, limit=500.0)),
        ("qps_corun_ratio", floor(limit=0.8)),
        ("staleness_p99_versions", ceiling(limit=4)),
        ("recovery_ms", ceiling(limit=1000.0)),
        # Checked by the bench's own exit status before inline gates.
        ("recovered_batches", floor(limit=1)),
    ],
    "continent": [
        ("exact", floor(limit=1)),
        ("qps_ratio_stitched_over_flat", floor(relative=True, limit=1.0)),
        ("stitched_qps", floor(relative=True)),
        ("blocks_per_query", ceiling(relative=True)),
        # Quick runs only: the full run's gate is relative alone.
        ("peak_rss_mb", ceiling(relative=True, limit=256.0)),
    ],
}


def check_perf(measured, baseline):
    script = Path(__file__).with_name("check_perf.py")
    return subprocess.run(
        [sys.executable, str(script), str(measured), str(baseline)],
        capture_output=True, text=True).returncode


def nudge(value, direction, past):
    """`value` moved one relative step past (or kept at) a threshold."""
    if not past:
        return value
    step = max(abs(value) * 1e-6, 1e-9)
    return value - step if direction == "higher" else value + step


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    failures = []
    baselines = sorted(Path(argv[0]).glob("*.json"))
    if not baselines:
        failures.append(f"no baselines under {argv[0]}")
    with tempfile.TemporaryDirectory() as tmp:
        for path in baselines:
            doc = json.loads(path.read_text())
            rules = RULES.get(doc["benchmark"])
            if rules is None:
                failures.append(f"{path.name}: no rules for "
                                f"{doc['benchmark']!r}")
                continue
            if check_perf(path, path) != 0:
                failures.append(f"{path.name}: fails against itself")
            used = set()
            for i, gate in enumerate(doc["gates"]):
                match = [(p, r) for p, r in rules
                         if fnmatch.fnmatchcase(gate["name"], p)]
                if len(match) != 1:
                    failures.append(f"{path.name}: gate {gate['name']} "
                                    f"matches {len(match)} rules")
                    continue
                used.add(match[0][0])
                direction, bound = match[0][1](gate["value"])
                if gate["better"] != direction:
                    failures.append(f"{path.name}: {gate['name']} is "
                                    f"{gate['better']}-better, rule says "
                                    f"{direction}")
                for past, want in ((False, 0), (True, 1)):
                    moved = copy.deepcopy(doc)
                    moved["gates"][i]["value"] = nudge(bound, direction, past)
                    if past:
                        # A run that declares the gate looser is still
                        # held to the baseline's rule.
                        moved["gates"][i].pop("limit", None)
                        moved["gates"][i]["relative"] = False
                    measured = Path(tmp) / path.name
                    measured.write_text(json.dumps(moved))
                    got = check_perf(measured, path)
                    if got != want:
                        where = "past" if past else "at"
                        failures.append(
                            f"{path.name}: {gate['name']} "
                            f"{where} {bound:.6g} exits {got}, want {want}")
            for pattern, _ in rules:
                if pattern not in used:
                    failures.append(f"{path.name}: no gate matches rule "
                                    f"{pattern}")
            print(f"{path.name}: {len(doc['gates'])} gates checked")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
