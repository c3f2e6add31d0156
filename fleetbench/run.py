#!/usr/bin/env python3
"""Fleet benchmark entry point.

Run from the repository root:

    python3 fleetbench/run.py --workload s2s-groupby --seed 1 --seconds 20 --trace 0

Builds the `fleetbench` crate in release mode (into $CARGO_TARGET_DIR, or
`.bench_build` when unset), computes the single-threaded reference digest in
one child process, then runs the timed (`--trace 0`) or traced (`--trace 1`)
mode in a second one. Reference digests are cached in the build directory
per (binary, workload, seed), so each is computed once per build: the
emulated reference run costs about a third of a timed run. The timed
child's peak resident memory, read from its own resource usage, becomes
`peak_rss_mb`, so no run inherits another's peak. The last line of standard
output is the result as one JSON object.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
# Generous per-child cap: a run must end within 180 s overall.
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"fleetbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd):
    """Runs `cmd`, echoing its output. Returns its last stdout line and its
    own peak resident set in MiB."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4, not wait: it reports this child's resource usage alone.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    if timed_out.is_set():
        fail(f"{cmd[1]} timed out after {CHILD_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{cmd[1]} exited with {proc.returncode}")
    # Linux reports ru_maxrss in KiB.
    return lines[-1], usage.ru_maxrss / 1024.0


def reference(binary, target, common):
    """The reference digest, computed once per (binary, workload, seed)."""
    with open(binary, "rb") as f:
        key = ":".join([hashlib.sha256(f.read()).hexdigest()] + common[1::2])
    path = os.path.join(target, "fleetbench-ref.json")
    try:
        with open(path) as f:
            cache = json.load(f)
    except (OSError, ValueError):
        cache = {}
    if key not in cache:
        cache[key] = json.loads(run_child([binary, "reference"] + common)[0])
        with open(path + ".tmp", "w") as f:
            json.dump(cache, f)
        os.replace(path + ".tmp", path)
    return cache[key]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "fleetbench")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    ref = reference(binary, target, common)
    cmd = common + ["--seconds", str(args.seconds),
                    "--expect", f"{ref['rows']}:{ref['digest']}"]
    if args.trace:
        line, _ = run_child(
            [binary, "traced"] + cmd + ["--out", os.path.join(HERE, "out")])
        result = json.loads(line)
    else:
        line, peak_mib = run_child([binary, "timed"] + cmd)
        result = json.loads(line)
        result["metrics"]["peak_rss_mb"] = {"value": peak_mib, "unit": "MiB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
