#!/usr/bin/env python3
"""Build the perfbench Go module and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload in turn, each in its own process, and
exits non-zero if any run does.

Everything the build and the run write stays inside the checkout, under
$CARGO_TARGET_DIR (default .bench_build): the Go build cache, temporary
files, the native-kernel artifact store, run records and span traces. The
last line of standard output is the run's JSON result; the build's own
output goes to standard error.
"""
import os
import subprocess
import sys

WORKLOADS = ["sim-long", "sim-step", "compile-sweep", "service-mix"]


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work = os.path.join(build, "perfbench")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(work, "gocache"),
        GOPATH=os.path.join(work, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="1",
        PERFBENCH_WORK=work,
    )
    binary = os.path.join(work, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else -1
    if 0 < at < len(args) and args[at] == "all":
        status = 0
        for workload in WORKLOADS:
            sys.stdout.flush()
            ran = subprocess.run([binary] + args[:at] + [workload] + args[at + 1:], env=env)
            status = status or ran.returncode
        return status
    sys.stdout.flush()
    os.execve(binary, [binary] + args, env)


if __name__ == "__main__":
    sys.exit(main())
