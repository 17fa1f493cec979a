#!/usr/bin/env python3
"""Build perfbench from this checkout and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload decide|read|write --seed N --seconds S --trace 0|1

The Go build cache, module cache, temporary files, toolchain settings
and the binary all live under .bench_build/ in the checkout, so a run
writes nothing outside it. The arguments are passed to the benchmark binary
unchanged; its last line of output is the JSON result.
"""
import os
import subprocess
import sys

# A run must end within this many seconds; the benchmark is killed if
# it does not.
RUN_TIMEOUT_S = 170
# The first build in a fresh checkout compiles the standard library too.
BUILD_TIMEOUT_S = 850


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod at %s; the benchmark builds the program from its source" % root,
              file=sys.stderr)
        return 2
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed with exit code %d" % build.returncode, file=sys.stderr)
        return 2
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
