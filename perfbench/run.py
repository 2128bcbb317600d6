#!/usr/bin/env python3
"""Builds the GAE benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <monitor|steer|grid-sim> \
        --seed N --seconds S --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) with a
path dependency on the repository; it is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build under the current directory).
The last line of standard output is the result object; the exit code
is non-zero when the build fails or any output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run that outlives this is killed and counts as failed.
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.abspath(".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "gae-perfbench")
    proc = subprocess.Popen([binary] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
