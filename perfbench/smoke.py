#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at minimal size.

Run from the root of a checkout of the repository:

    python3 perfbench/smoke.py

For each workload of BENCHMARK.json it runs perfbench/run.py once
untraced and once traced with --seconds 1, and checks that

  * the run exits 0 and its last line is a result with "correct": true
    and at least one attempted operation;
  * the untraced result carries every end-to-end metric of
    BENCHMARK.json, and the traced one every per-layer metric, each with
    its unit and a finite value;
  * every trace the traced run wrote parses with `stochtrace summary`.

Exit code 0 when every check holds, 1 otherwise.
"""

import glob
import json
import math
import os
import subprocess
import sys

STOCHTRACE = os.path.join("_build", "default", "bin", "stochtrace.exe")


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, (lines[-1] if lines else ""), done.stderr


def check_result(workload, trace, code, last, expected, errors):
    tag = "%s --trace %d" % (workload, trace)
    if code != 0:
        errors.append("%s: exit code %d" % (tag, code))
        return
    try:
        result = json.loads(last)
    except ValueError:
        errors.append("%s: last line is not JSON: %r" % (tag, last))
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (tag, sorted(result)))
        return
    if result["correct"] is not True or result["attempted"] < 1:
        errors.append("%s: correct %s, attempted %s" % (tag, result["correct"], result["attempted"]))
    metrics = result["metrics"]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append("%s: metric %s missing" % (tag, m["name"]))
        elif got.get("unit") != m["unit"]:
            errors.append("%s: metric %s has unit %r, not %r" % (tag, m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append("%s: metric %s value %r" % (tag, m["name"], got.get("value")))
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append("%s: metrics not in BENCHMARK.json: %s" % (tag, sorted(extra)))


def check_traces(workload, errors):
    traces = glob.glob(os.path.join("perfbench", "_run", "*trace*.jsonl"))
    if not traces:
        errors.append("%s --trace 1: no trace written" % workload)
    for path in traces:
        done = subprocess.run([STOCHTRACE, "summary", path], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0 or "span" not in done.stdout:
            errors.append("%s: stochtrace summary %s failed: %s" % (workload, path, done.stderr.strip()))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, last, err = run(name, trace)
            before = len(errors)
            check_result(name, trace, code, last, expected, errors)
            if trace == 1 and code == 0:
                check_traces(name, errors)
            status = "ok" if len(errors) == before else "FAILED"
            print("%-15s --trace %d  %s" % (name, trace, status), flush=True)
            if status != "ok" and err:
                print(err[-2000:], file=sys.stderr)
    for e in errors:
        print("smoke: " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
