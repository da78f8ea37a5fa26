#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark binary is built from source
with cargo (offline, release profile) into $CARGO_TARGET_DIR, or into
.bench_build when that is unset, and then run with the same arguments.
Its last line of standard output is the JSON result; the build log and
the readable summary go to standard error. --self-test runs the
benchmark's own unit tests instead.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# The simulator crates the benchmark is built from.
NEEDS = [os.path.join("crates", c, "Cargo.toml") for c in ("sim", "topology", "workloads", "power")]
# One run must end within 180 s, build excluded; the first build may
# take up to 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo(args, timeout):
    """Runs cargo in the repository root; its output goes to stderr."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", *args, "--offline", "--release", "--manifest-path", MANIFEST]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout).returncode
    except FileNotFoundError:
        fail("cargo not found")
    except subprocess.TimeoutExpired:
        fail(f"cargo {args[0]} took longer than {timeout} s")


def revision():
    """The git revision of the checkout, or 'unknown' outside a git tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def main(argv):
    missing = [p for p in NEEDS if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"run from a repository checkout; missing {', '.join(missing)}")
    if argv == ["--self-test"]:
        sys.exit(cargo(["test", "--quiet"], BUILD_TIMEOUT_S))
    if cargo(["build", "--quiet"], BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = os.path.join(ROOT, target, "release", "perfbench")
    try:
        result = subprocess.run(
            [binary, *argv, "--revision", revision()], cwd=ROOT, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"run took longer than {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
