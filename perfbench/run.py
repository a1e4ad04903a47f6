#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (a CMake package that compiles the iba libraries from
the parent directory) into $CARGO_TARGET_DIR, or .bench_build when that
is unset, then runs the perfbench binary. Its last stdout line is the
result JSON. Records and traced spans land under <build dir>/results/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.getcwd(), base) if not os.path.isabs(base) else base


def build(target):
    """Configures once and builds `target`; exits 2 with the log tail on failure."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(step))
                sys.exit(2)
    return out


def source_id():
    """The git commit when the tree is a git checkout, else a digest of the sources."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for sub in ("src", "CMakeLists.txt", "perfbench/src", "perfbench/CMakeLists.txt"):
        path = os.path.join(ROOT, sub)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="steady_serial | steady_sharded | ops_mix | dist_mix")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        out = build("perfbench_test")
        return subprocess.run([os.path.join(out, "perfbench_test")], cwd=out).returncode
    if args.workload is None:
        parser.error("--workload is required")

    out = build("perfbench")
    results = os.path.join(build_dir(), "results")
    record = os.path.join(results, "%s-seed%s-trace%s.json" % (
        args.workload, "default" if args.seed is None else args.seed, args.trace))
    command = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(build_dir(), "work"),
               "--record", record, "--source-id", source_id()]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
