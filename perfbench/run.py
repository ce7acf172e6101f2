#!/usr/bin/env python3
"""Build and run the study benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload study-churn --seed 1 --seconds 10 --trace 0

The script builds ./perfbench with the installed Go toolchain and runs it
with the given arguments. Every file the build and the run write — the Go
build cache, temporary files, checkpoints, spans and saved results — goes
under .bench_build/ in the current directory. It exits with the benchmark's
exit code, or non-zero without running anything when the directory is not a
checkout of the repository.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    for need in ("go.mod", os.path.join("perfbench", "main.go"), "internal"):
        if not os.path.exists(os.path.join(root, need)):
            print("perfbench: %s not found; run from the repository root" % need, file=sys.stderr)
            return 2

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "tmp", "gopath", "config", "perfbench"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "./perfbench"],
                           cwd=root, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    args = sys.argv[1:] + ["--workdir", os.path.join(build, "perfbench")]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
