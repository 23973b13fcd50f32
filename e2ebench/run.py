#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sim-compute, sim-sync, sim-fleet, tcp-relay. The build goes
to $CARGO_TARGET_DIR (default .bench_build at the repository root); a
traced run writes its spans under that directory in e2ebench-spans/.
The last line of standard output is the result object; build output
and diagnostics go to standard error.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run is cut off well inside the three minutes one run may take.
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit if the tree is a checkout, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "vendor", "e2ebench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    cmd = [
        os.path.join(target, "release", "e2ebench"), *sys.argv[1:],
        "--rustc", rustc.stdout.strip() or "unknown",
        "--commit", source_id(),
        "--out-dir", os.path.join(target, "e2ebench-spans"),
    ]
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
