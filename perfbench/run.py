#!/usr/bin/env python3
"""Build and run the privstats benchmark from the repository root.

    python3 perfbench/run.py --workload online-2048 --seed 1 --seconds 20 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that builds the repo's
packages from source through a replace directive. Everything the build and
the runs leave behind -- the Go build cache, the binary, key and stock
fixtures, per-run daemon state -- stays under .bench_build/ in the working
directory. The arguments are passed to the benchmark binary unchanged; its
last line of output is the JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    binary = os.path.join(build, "perfbench")
    # Build output goes to stderr so the result stays the last line of stdout.
    built = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(root, "perfbench"), env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
