#!/usr/bin/env python3
"""Repository benchmark: build the release binaries, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `ltf-serve`, `ltf-campaign`
and the benchmark harness `ltf-perfbench` (perfbench/harness) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the harness and passes
its output through. The last line of standard output is the JSON result
object. The exit code is non-zero when the build fails, when the run is
invalid (no result is printed then) and when an output fails its
reference check (the result then says "correct": false).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["serve-zipf", "serve-cold-routed", "campaign-pareto", "campaign-slo"]
RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "ltf-serve", "-p", "ltf-campaign"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "harness", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def commit_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        log(f"no Cargo workspace at {ROOT}; nothing to benchmark")
        return 3
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(target):
        return 3
    work = os.path.join(ROOT, ".perfbench_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [
        os.path.join(target, "release", "ltf-perfbench"), "run",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--bin-dir", os.path.join(target, "release"), "--work-dir", work,
        "--digests", os.path.join(HERE, "digests.txt"), "--commit", commit_id(),
    ]
    # A process group of its own, so a timeout can stop the daemon and workers too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except ValueError:
        ok = False
    if not ok:
        sys.stdout.write(out)
        log(f"no result line (exit {proc.returncode})")
        return proc.returncode or 5
    sys.stdout.write(out)
    if proc.returncode != 0 or not result["correct"]:
        log("an output failed its reference check")
        return proc.returncode or 6
    return 0


if __name__ == "__main__":
    sys.exit(main())
