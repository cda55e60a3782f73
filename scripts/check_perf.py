#!/usr/bin/env python3
"""Perf smoke gate: hold a benchmark run to its declared gates and to a
checked-in baseline.

Usage: check_perf.py MEASURED.json BASELINE.json [--tolerance 0.30]

Every BENCH_*.json carries a "gates" list; each gate is
{"name", "value", "better": "higher"|"lower", "limit"?, "relative"}.
Each gate of the measured run is judged by the rule the baseline's gate
of the same name declares (the checked-in baseline pins every rule; a
gate the baseline lacks is judged by its own declaration):

- "limit" is an absolute floor (better = higher) or ceiling (lower);
- a "relative" gate must also reach (1 - tolerance) x the baseline's
  value (higher), or stay within (1 + tolerance) x it (lower). With a
  limit as well, the stricter threshold holds.

A gate the baseline declares but the measured run lacks fails. The bench
decides which gates exist and how each is judged (a quick-only ceiling,
say); this script knows no benchmark by name. The serving benches'
timings are dominated by their simulated per-block device latency
(deterministic sleeps), not host CPU, which is what makes a checked-in
baseline meaningful across machines.

Exit code 0 when every gate passes, 1 otherwise.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    gates = doc.get("gates")
    if not isinstance(gates, list):
        sys.exit(f"{path}: no \"gates\" list (a BENCH file older than "
                 "schema_version 3?)")
    return doc, {g["name"]: g for g in gates}


def threshold(rule, base, tolerance):
    """The value a gate judged by `rule` must reach (higher) or stay
    within (lower); None when nothing bounds it."""
    higher = rule["better"] == "higher"
    bounds = []
    if "limit" in rule:
        bounds.append(rule["limit"])
    if rule.get("relative") and base is not None:
        scale = 1.0 - tolerance if higher else 1.0 + tolerance
        bounds.append(base["value"] * scale)
    if not bounds:
        return None
    return max(bounds) if higher else min(bounds)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("measured")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional regression (default 0.30)")
    args = ap.parse_args()

    mdoc, measured = load(args.measured)
    bdoc, baseline = load(args.baseline)
    if mdoc.get("benchmark") != bdoc.get("benchmark"):
        sys.exit(f"benchmark mismatch: measured {mdoc.get('benchmark')!r} "
                 f"vs baseline {bdoc.get('benchmark')!r}")
    print(f"measured: {args.measured} (git {mdoc.get('git_commit', '?')})")
    print(f"baseline: {args.baseline} (git {bdoc.get('git_commit', '?')})")

    failed = False
    for name, gate in measured.items():
        base = baseline.get(name)
        rule = base if base is not None else gate
        bound = threshold(rule, base, args.tolerance)
        value = gate["value"]
        if bound is None:
            ok = True
            verdict = "no threshold"
        elif rule["better"] == "higher":
            ok = value >= bound
            verdict = f"floor {bound:.6g}"
        else:
            ok = value <= bound
            verdict = f"ceiling {bound:.6g}"
        if base is not None:
            verdict += f", baseline {base['value']:.6g}"
        print(f"{'ok' if ok else 'FAIL':4} {name}: {value:.6g} ({verdict})")
        failed = failed or not ok
    for name in sorted(baseline.keys() - measured.keys()):
        print(f"FAIL {name}: missing from measured run")
        failed = True

    if failed:
        print(f"\ngate failed (tolerance {100 * args.tolerance:.0f}%) — if "
              "the change is intentional, regenerate the baseline with: "
              f"bench_{bdoc.get('benchmark')} <baseline-path> --quick")
        return 1
    print("\nperf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
