#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig8|verify|serve --seed N --seconds S --trace 0|1

The Go build keeps its cache, temporary files and the binary under
.bench_build/ in the repository, and never touches the network. The
benchmark runs with GOMAXPROCS set to the number of usable CPUs; its last
line of standard output is the JSON result. The exit code is the build's
when the build fails, else the benchmark's.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "gotmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local",
               GOWORK="off", GOENV="off", CGO_ENABLED="0")
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=go_env(),
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env = dict(os.environ, GOMAXPROCS=str(len(os.sched_getaffinity(0))))
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
