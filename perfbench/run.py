#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper-solve --seed 1 --seconds 10 --trace 0

Workloads: paper-solve and serve-mixed (see perfbench/README.md). The script builds the benchmark executable and the
CLI whose serve daemon serve-mixed drives, then runs the workload. Its
standard output ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer metrics of a separate traced run, whose spans
are written to perfbench/_run/. Build output goes to standard error.
Exit code 0 when every output check passed; anything else means no valid
result was produced.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["paper-solve", "serve-mixed"]
RUN_DIR = os.path.join("perfbench", "_run")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join("_build", "default", "bin", "stochastic_cli.exe")
TARGETS = ["./perfbench/perfbench.exe", "./bin/stochastic_cli.exe", "./bin/stochtrace.exe"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    dune = dune_command()
    if dune is None:
        return fail("dune is not on PATH")
    done = subprocess.run(
        dune + ["build", "--root", "."] + TARGETS,
        stdout=sys.stderr,
        stderr=sys.stderr,
        stdin=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        return fail("build failed", 1)
    return 0


def run(args):
    # The benchmark and its daemons run in a process group of their own, so that
    # whatever happens every process started here is stopped and reaped.
    proc = subprocess.Popen(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--cli", CLI,
        ],
        stdin=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait()
    finally:
        proc.kill()
        proc.wait()
        stop_group(proc.pid)
    return code


def stop_group(pgid):
    """Kill what is left of the benchmark's process group and wait until
    no process of it remains."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of a checkout of the repository")
    code = build()
    if code != 0:
        return code
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    sys.stdout.flush()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
