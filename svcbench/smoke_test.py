#!/usr/bin/env python3
"""Smoke test of the service benchmark at toy size.

Runs both workloads with a few thousand workers for a few seconds, once
untraced and once traced, through svcbench/run.py, and checks that

  * every run exits 0 and reports correct = true with no failures;
  * the untraced result carries exactly the end-to-end metrics of
    BENCHMARK.json, and the traced result exactly its per-layer metrics,
    each with the declared unit;
  * the traced run's stage replay and AssignmentService::Replay are
    bit-identical to the live run.

Run from the repository root:  python3 svcbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOY = ["--workers", "3000"]
SECONDS = "3"


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", SECONDS, "--trace",
           str(trace)] + TOY
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s trace=%d exited %d\n%s" %
                             (workload, trace, proc.returncode,
                              proc.stderr[-2000:]))
    return json.loads(lines[-1]), proc.stdout


def check_metrics(result, expected, where):
    got = result["metrics"]
    missing = sorted(set(expected) - set(got))
    unexpected = sorted(set(got) - set(expected))
    assert not missing and not unexpected, (
        "%s: missing %s, unexpected %s" % (where, missing, unexpected))
    for name, unit in expected.items():
        assert got[name]["unit"] == unit, (
            "%s: %s has unit %r, expected %r" %
            (where, name, got[name]["unit"], unit))
        assert isinstance(got[name]["value"], (int, float)), (where, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, expected in ((0, e2e), (1, layers)):
            where = "%s trace=%d" % (workload, trace)
            result, stdout = run(workload, trace)
            assert result["correct"] is True, where
            assert result["failed"] == 0, where
            assert result["attempted"] >= 1, where
            check_metrics(result, expected, where)
            if trace == 1:
                assert "assignments bit-identical: yes" in stdout, where
            print("ok  %s (%d tasks)" % (where, result["attempted"]))
    print("svcbench smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
