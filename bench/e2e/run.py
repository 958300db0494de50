#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 bench/e2e/run.py --workload beam_p32 --seed 1 --seconds 10 --trace 0

On first use it configures and builds bench/e2e, which compiles the picpar
libraries from src/, into .bench_build at the checkout root (Release);
later runs only let the build tool confirm the binary is current. Build
output goes to .bench_build/build.log, never to stdout. It then runs
bench_e2e with the same arguments and passes its output and exit code
through. A failed build exits 3 without printing a result; a run that
outlives the time limit is killed and exits 4.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def build(here, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", jobs])
    with open(log_path, "ab") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                print(f"run.py: build failed: {' '.join(cmd)} (see {log_path})",
                      file=sys.stderr)
                return False
    return True


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(os.path.dirname(os.path.dirname(here)),
                             ".bench_build")
    if not build(here, build_dir):
        return 3
    exe = os.path.join(build_dir, "bench_e2e")
    try:
        return subprocess.run([exe] + sys.argv[1:], stdin=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e exceeded {RUN_TIMEOUT_S} s and was killed",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
