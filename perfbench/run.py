#!/usr/bin/env python3
"""Build and run the PALAEMON benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload app-config-read --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's sources. This script builds it into
.bench_build/ with the Go build cache and temporary files kept there too,
then runs it in a fresh process, so every workload run starts with an
empty heap. All arguments are passed through. The exit code is the
benchmark's; a failed build or a run over the time limit exits 1 without
printing a result.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build_dir, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        GOPATH=os.path.join(build_dir, "gopath"),
        # The go command keeps its telemetry counters and reads its env
        # file under the user config directory; keep both in the checkout.
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
    )
    binary = os.path.join(build_dir, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=bench_dir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1

    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root)

    def stop(signum, _frame):
        # The benchmark shuts its system down and removes its data on
        # SIGTERM; kill it only if it does not exit in time.
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
