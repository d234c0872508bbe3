#!/usr/bin/env python3
"""Build and run the CIMFlow design-space benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` crate
(and, for the span check, the workspace's `trace_check` example) in
release mode under `$CARGO_TARGET_DIR` (default `.bench_build`), runs
one workload, and prints the benchmark's JSON result as the last line of
standard output. The human-readable report goes to standard error.

With `--trace 1` the run also writes its spans as Chrome JSON next to
the build output and validates the file with `trace_check`; an invalid
trace fails the run.

    python3 perfbench/run.py --write-golden

re-records the checked-in golden digests (every workload, both golden
seeds) from the current build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["compact-sweep", "compute-sweep", "timing-family", "ladder-explore"]
GOLDEN_SEEDS = [1, 7]
# A run must end within 180 s; the build before it is not counted here.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    """Builds the benchmark and the trace validator; stdout stays clean."""
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--example", "trace_check"],
    ]
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(command)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not args.write_golden and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # One glibc malloc arena: otherwise the memory high-water mark depends
    # on which worker thread's arena served the largest trace.
    env["MALLOC_ARENA_MAX"] = "1"
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build(env)
    binary = os.path.join(target, "release", "perfbench")

    if args.write_golden:
        for workload in WORKLOADS:
            for seed in GOLDEN_SEEDS:
                command = [binary, "--workload", workload, "--seed", str(seed),
                           "--write-golden"]
                if subprocess.run(command, cwd=ROOT, env=env).returncode != 0:
                    fail(f"recording {workload} seed {seed} failed")
        return

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = os.path.join(target, f"perfbench-trace-{args.workload}-{args.seed}.json")
    if args.trace:
        command += ["--trace-out", trace_file]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"perfbench exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")

    if args.trace:
        checker = os.path.join(target, "release", "examples", "trace_check")
        checked = subprocess.run([checker, trace_file], cwd=ROOT, env=env, stdout=sys.stderr)
        if checked.returncode != 0:
            fail(f"trace_check rejected {trace_file}")
    print(lines[-1])


if __name__ == "__main__":
    main()
