#!/usr/bin/env python3
"""Build the served-request benchmark from source and run one workload.

    python3 servebench/run.py --workload NAME --seed N [--seconds S] --trace 0|1
    python3 servebench/run.py --self-check

Run from the root of a checkout. The OCaml program is built with dune
into _benchbuild/ (release profile) and then run with the arguments
given; its last line of standard output is the result object. Without
--seconds, a workload run measures for BENCHMARK.json's run_seconds.
Build output goes to standard error.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = "_benchbuild"
TARGET = "./servebench/main.exe"


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("servebench: no dune-project at %s: run from a checkout" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("servebench: dune is not on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, TARGET],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(ROOT, BUILD_DIR, "default", "servebench", "main.exe")
    args = sys.argv[1:]
    if "--workload" in args and "--seconds" not in args:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args += ["--seconds", str(json.load(f)["run_seconds"])]
    run = subprocess.run([exe] + args, cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
