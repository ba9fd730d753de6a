#!/usr/bin/env python3
"""Build and run FluoDB's end-to-end benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload conviva-scan --seed 1 --seconds 10 --trace 0

Workloads: conviva-scan, tpch-nested, explore-ingest. The benchmark is
built from the checkout's source into .bench_build/perfbench (Go build
cache included), so nothing is read or written outside the checkout
apart from the Go toolchain itself. All arguments are passed through to
the benchmark; its last line of output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(os.getcwd(), ".bench_build", "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod above %s; run from a FluoDB checkout" % HERE, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    # The go command also writes telemetry counters and reads its env file
    # under the user's config directory; point that into OUT as well.
    env.update({
        "HOME": os.path.join(OUT, "home"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "XDG_CACHE_HOME": os.path.join(OUT, "cache"),
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    bench = subprocess.run([binary, "--out", OUT] + sys.argv[1:], env=env)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
