#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload profile-smp --seed 1 --seconds 20 --trace 0

The Go program is built into the build directory ($CARGO_TARGET_DIR, or
.bench_build under the current directory) with its Go caches, temporary
files and tool configuration kept there too, so nothing outside the
checkout is written. Every argument is passed through to the program;
see perfbench/README.md. The exit status is the program's, or nonzero
if the build fails or the run overstays its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 175  # a run must end within 180 s


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    base = os.path.join(build, "perfbench")
    for sub in ("gocache", "gopath", "tmp", "config", "work"):
        os.makedirs(os.path.join(base, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(base, "gocache"),
        GOPATH=os.path.join(base, "gopath"),
        GOMODCACHE=os.path.join(base, "gopath", "pkg", "mod"),
        TMPDIR=os.path.join(base, "tmp"),
        XDG_CONFIG_HOME=os.path.join(base, "config"),
        GOPROXY="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(base, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary, *sys.argv[1:],
           "--pins", os.path.join(HERE, "pins.json"),
           "--workdir", os.path.join(base, "work")]
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
