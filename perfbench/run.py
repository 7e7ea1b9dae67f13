#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: mc-narrow, paper-tables, serve-mix, cluster-sweep. The script
builds the `rap` binary and the benchmark (release profile, offline, into
CARGO_TARGET_DIR, default `.bench_build`), then runs the benchmark, whose
last line of output is the JSON result. Build output goes to stderr. The
exit code is the benchmark's: 0 when every output was correct, 1 when a
correctness check failed, 2 (or the build's code) on any other error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def commit():
    """The checked-out revision, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "rap-cli", "--bin", "rap"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        try:
            built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
            return 2
        if built.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode or 2
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, env=env)
        env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    except OSError:
        env["PERFBENCH_RUSTC"] = "unknown"
    env["PERFBENCH_COMMIT"] = commit()
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--rap-bin", os.path.join(release, "rap"), "--root", ROOT]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
