#!/usr/bin/env python3
"""Build and run the scenario-day benchmark.

Run from the repository root:

    python3 daybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 daybench/run.py --test        # build and run the benchmark's own tests

The benchmark is compiled from source (daybench/CMakeLists.txt builds the
simulator libraries from src/) into $CARGO_TARGET_DIR/daybench, or
.bench_build/daybench when that variable is unset. Build output goes to
standard error; the benchmark's last line of standard output is its JSON
result. Exits non-zero, without a result, if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "daybench")


def jobs():
    return str(max(1, len(os.sched_getaffinity(0))))


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("daybench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(result.returncode or 1)


def build(target):
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"] if _has("ninja") else []
    run_quiet(configure)
    run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs()])
    return os.path.join(out, target)


def _has(program):
    return any(
        os.access(os.path.join(d, program), os.X_OK)
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if d
    )


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("daybench: no src/ next to daybench/; nothing to build\n")
        return 1
    if argv == ["--test"]:
        return subprocess.run([build("daybench_tests")], cwd=ROOT).returncode
    binary = build("daybench")
    cmd = [binary] + argv + ["--git-commit", git_commit()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
