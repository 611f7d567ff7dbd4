#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <articulate|serve|evolve> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. The binary is built in release mode
with the repository's own crates (offline; path dependencies only) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset. The last line
of standard output is the result object printed by the binary. Build or
run failures exit non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# a run must end within 180 s; leave room for start-up and teardown
RUN_TIMEOUT_S = 170


def cargo(args, env):
    cmd = ["cargo"] + args + ["--release", "--offline", "--manifest-path", MANIFEST]
    # build chatter goes to stderr so stdout carries only the result
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def main(argv):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env["CARGO_NET_OFFLINE"] = "true"
    if argv == ["--self-test"]:
        return cargo(["test"], env)
    if cargo(["build", "--quiet"], env) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    if not os.path.isabs(binary):
        binary = os.path.join(ROOT, binary)
    proc = subprocess.Popen([binary] + argv, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
