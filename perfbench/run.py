#!/usr/bin/env python3
"""Builds and runs the HERO benchmark.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `hero-perfbench` (this directory's
crate) and the `hero-serve` binary into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the workload (or, with `all`, each of the three
in turn) in a fresh process with a fresh scratch directory under
`.perfbench_runs/`, which is removed afterwards. A workload's last line of
standard output is its JSON result. The exit code is nonzero when the
build fails, a workload fails, or an output check fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train_table1", "train_fleet", "serve_act")
# A run must end within 180 s; the workload gets what the build leaves.
RUN_TIMEOUT_S = 170


def build(env):
    """Builds both binaries; returns their paths or exits nonzero."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "hero-serve", "--bin", "hero-serve"],
    ]
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release")
    return os.path.join(target, "hero-perfbench"), os.path.join(target, "hero-serve")


def run_one(workload, args, bench, serve):
    """Runs one workload in a fresh process and scratch directory; returns
    its exit code."""
    runs = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(runs, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=runs)
    cmd = [bench, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", scratch, "--serve-bin", serve]
    # Its own process group, so that a timeout also stops the daemon it
    # started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 1
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        # Stops anything the workload left behind in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(scratch, ignore_errors=True)
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all three in turn")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bench, serve = build(env)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = []
    for workload in workloads:
        if len(workloads) > 1:
            print(f"== {workload}", flush=True)
        codes.append(run_one(workload, args, bench, serve))
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
