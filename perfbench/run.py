#!/usr/bin/env python3
"""Build the benchmark program from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

The program is a Go module of its own (perfbench/go.mod) that imports the
simulator from the enclosing repository. Everything the build writes --
the Go build cache, the binary, telemetry and temporary files -- goes under
the build directory: $CARGO_TARGET_DIR if set, else .bench_build, relative
to the current directory. The last line of standard output is the result
object; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None or not os.path.exists(go):
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2

    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache"), ("TMPDIR", "tmp")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    # The module replaces the repository with its parent directory and
    # needs nothing from the network.
    env.update(GOTOOLCHAIN="local", GOFLAGS="-mod=mod", GOWORK="off",
               GOPROXY="off", GOSUMDB="off")

    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
