#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload drift --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds the
repository's packages from source through a `replace jcr => ../` directive.
Every build product and Go cache lands under .bench_build/ in the current
directory, so nothing is written outside the checkout. All arguments are
passed to the benchmark binary, whose last line of standard output is the
JSON result; the exit code is the binary's (or the build's, when the build
fails).
"""

import os
import subprocess
import sys

# Generous ceilings: a cold build compiles the standard library; a run is
# set-up plus the measured window.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(out, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed:", err, file=sys.stderr)
        return 1
    if build.returncode != 0:
        return build.returncode
    try:
        bench = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: run failed:", err, file=sys.stderr)
        return 1
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
