#!/usr/bin/env python3
"""Service benchmark entry point.

    python3 perfbench/run.py --workload ic-mix --seed 1 --seconds 30 --trace 0

Run from the repository root.  Builds gsql_run and perfbench/bench.exe
from source (release profile, into .perfbench/build, dune's shared cache
off so nothing is written outside the checkout), then runs bench.exe,
which starts `gsql_run serve` as a child process.  Its stdout is
passed through; its last line is the JSON result.  Exits non-zero, without
a result, when the sources or the toolchain are missing.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = os.path.abspath(os.path.join(".perfbench", "build"))
TARGETS = ["bin/gsql_run.exe", "perfbench/bench.exe"]
# bench.exe keeps itself under this with its own watchdog; this is the
# backstop if it hangs anyway.
RUN_TIMEOUT_S = 178
BUILD_TIMEOUT_S = 700


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["ic-mix", "asp-count", "write-mix"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for needed in ["dune-project", "bin/gsql_run.ml", "perfbench/bench.ml"]:
        if not os.path.isfile(needed):
            die("run from the repository root: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")

    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--cache", "disabled", "--profile", "release",
             "--build-dir", BUILD_DIR, "--display", "quiet"] + TARGETS,
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if build.returncode != 0:
        die("build failed")

    exe = lambda t: os.path.join(BUILD_DIR, "default", t)
    cmd = [exe("perfbench/bench.exe"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--server", exe("bin/gsql_run.exe")]
    # Own process group, so a timeout also takes down the server child.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("benchmark timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
