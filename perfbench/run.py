#!/usr/bin/env python3
"""Host-cost benchmark of the simulated MPI stack.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload lockstep --seed 1 --seconds 25 --trace 0

Builds perfbench/bench.exe with dune, runs it once and relays its output.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("lockstep", "sort_fig8", "bfs_sparse")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        sys.exit("perfbench: %s is not a checkout of the repository "
                 "(no dune-project or lib/)" % root)

    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--display", "quiet", "./perfbench/bench.exe"],
        cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    # A SIGTERM unwinds through the finally below, so bench.exe never outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    child = subprocess.Popen(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: bench.exe exited with code %d" % child.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
