#!/usr/bin/env python3
"""Diff two BENCH_*.json files and flag perf regressions.

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json \
        [--perf-threshold 0.10] [--utility-tolerance 0.02]

Points are matched on (series, x); only the intersection is compared, so a
bench that gained or lost series (e.g. a different thread list on a
different machine) still diffs the common cells. A matched pair whose
workload fields (WORKLOAD_FIELDS, e.g. the task count) differ where both
points carry them measured different workloads: it is reported as "not
comparable" and skipped, never diffed. Two field classes:

  * perf fields (wall-clock): a CURRENT value more than --perf-threshold
    above BASELINE is a regression. When the two files' provenance blocks
    (bench_common.h) disagree on cpu or compiler the numbers are not
    comparable, so perf deltas are downgraded to warnings.
  * utility fields (assignment quality): must match within
    --utility-tolerance relative difference regardless of machine — the
    protocol is deterministic for a fixed config, with a small tolerance
    because libm differences can shift floating-point scores across
    toolchains.

Exit status: 1 if any regression (after downgrades) or no common points,
else 0 (also when every common point is not comparable).
"""

import argparse
import json
import sys

# The workload a point was measured on; two points are compared only when
# every one of these that both carry is equal.
WORKLOAD_FIELDS = ("tasks", "alpha", "epsilon")

# Lower is better for all of these; only in this direction do we flag.
PERF_FIELDS = (
    "u2u_seconds",
    "u2e_seconds",
    "total_seconds",
    "seed_seconds_median",
)

# Deterministic given (config, workload, seed); tolerance covers libm
# differences across toolchains, not real behavior changes.
UTILITY_FIELDS = (
    "assigned_tasks",
    "travel_m",
    "candidates",
    "false_hits",
    "false_dismissals",
    "disclosures_per_task",
    "u2u_scanned",
)

# The service bench ("bench": "service") measures a live ingest stream, so
# its utility counts are load-dependent (how many tasks landed in the
# window) and the deterministic-field gate does not apply. sustained_qps
# is a higher-better perf field (a drop beyond the threshold is the
# regression). Latency percentiles are reported warn-only: the
# sub-millisecond tails vary several-fold run to run even on one machine
# (queue-depth luck), so ratio gates would flap — CI enforces absolute
# p99 ceilings in the service smoke step instead.
SERVICE_PERF_FIELDS_WARN = (
    "p50_seconds",
    "p95_seconds",
    "p99_seconds",
)
SERVICE_PERF_FIELDS_HIGHER = ("sustained_qps",)

# The frontier bench ("bench": "frontier") sweeps mechanism x epsilon. Its
# audited disclosure total is deterministic like the other utility counts
# (the bench itself hard-fails if the audit trail and engine counters
# disagree), and the empirical-table build cost is an extra lower-is-better
# perf field.
FRONTIER_UTILITY_FIELDS = ("audit_disclosures",)
FRONTIER_PERF_FIELDS = ("table_build_seconds",)


def rel_delta(base, cur):
    if base == cur:
        return 0.0
    denom = max(abs(base), 1e-12)
    return (cur - base) / denom


def provenance_comparable(a, b):
    """True when perf numbers from the two runs can be compared."""
    pa, pb = a.get("provenance", {}), b.get("provenance", {})
    if not pa or not pb:
        return False, "missing provenance block"
    for key in ("cpu", "compiler", "cxx_flags"):
        if pa.get(key) != pb.get(key):
            return False, f"provenance.{key} differs: " \
                          f"{pa.get(key)!r} vs {pb.get(key)!r}"
    return True, ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--perf-threshold", type=float, default=0.10,
                        help="relative slowdown that counts as a regression")
    parser.add_argument("--utility-tolerance", type=float, default=0.02,
                        help="max relative drift of deterministic fields")
    args = parser.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    comparable, why = provenance_comparable(base, cur)
    if not comparable:
        print(f"note: perf deltas downgraded to warnings ({why})")

    base_points = {(p["series"], p["x"]): p for p in base.get("points", [])}
    cur_points = {(p["series"], p["x"]): p for p in cur.get("points", [])}
    common = sorted(set(base_points) & set(cur_points))
    if not common:
        print("error: no common (series, x) points to compare")
        return 1
    only_base = sorted(set(base_points) - set(cur_points))
    only_cur = sorted(set(cur_points) - set(base_points))
    for key in only_base:
        print(f"note: point {key} only in baseline (skipped)")
    for key in only_cur:
        print(f"note: point {key} only in current (skipped)")

    is_service = base.get("bench") == "service" and \
        cur.get("bench") == "service"
    is_frontier = base.get("bench") == "frontier" and \
        cur.get("bench") == "frontier"
    perf_lower = () if is_service else PERF_FIELDS
    perf_warn = SERVICE_PERF_FIELDS_WARN if is_service else ()
    perf_higher = SERVICE_PERF_FIELDS_HIGHER if is_service else ()
    utility_fields = () if is_service else UTILITY_FIELDS
    if is_frontier:
        perf_lower = perf_lower + FRONTIER_PERF_FIELDS
        utility_fields = utility_fields + FRONTIER_UTILITY_FIELDS

    regressions = warnings = compared = 0
    for key in common:
        bp, cp = base_points[key], cur_points[key]
        differing = [f for f in WORKLOAD_FIELDS
                     if f in bp and f in cp and bp[f] != cp[f]]
        if differing:
            print(f"not comparable: {key} measured another workload (" +
                  ", ".join(f"{f} {bp[f]:.6g} vs {cp[f]:.6g}"
                            for f in differing) + "); skipped")
            continue
        compared += 1
        for field in perf_higher:
            if field not in bp or field not in cp:
                continue
            delta = rel_delta(bp[field], cp[field])
            if delta < -args.perf_threshold:
                kind = "REGRESSION" if comparable else "warning"
                print(f"{kind}: {key} {field} {bp[field]:.6g} -> "
                      f"{cp[field]:.6g} ({delta:.1%})")
                if comparable:
                    regressions += 1
                else:
                    warnings += 1
        for field in perf_lower:
            if field not in bp or field not in cp:
                continue
            delta = rel_delta(bp[field], cp[field])
            if delta > args.perf_threshold:
                kind = "REGRESSION" if comparable else "warning"
                print(f"{kind}: {key} {field} {bp[field]:.6g} -> "
                      f"{cp[field]:.6g} (+{delta:.1%})")
                if comparable:
                    regressions += 1
                else:
                    warnings += 1
        for field in perf_warn:
            if field not in bp or field not in cp:
                continue
            delta = rel_delta(bp[field], cp[field])
            if delta > args.perf_threshold:
                print(f"warning: {key} {field} {bp[field]:.6g} -> "
                      f"{cp[field]:.6g} (+{delta:.1%}; latency tails are "
                      f"warn-only, see the absolute smoke gates)")
                warnings += 1
        for field in utility_fields:
            if field not in bp or field not in cp:
                continue
            drift = abs(rel_delta(bp[field], cp[field]))
            if drift > args.utility_tolerance:
                print(f"REGRESSION: {key} {field} {bp[field]:.6g} -> "
                      f"{cp[field]:.6g} (drift {drift:.2%}; deterministic "
                      f"field changed)")
                regressions += 1

    print(f"compared {compared} points: "
          f"{regressions} regressions, {warnings} warnings")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
