#!/usr/bin/env python3
"""Build the lifecycle benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve-resident --seed 1 --seconds 10 --trace 0

Workloads: serve-resident, serve-lazy, churn-repair (see
perfbench/src/main.rs). The Rust program is built offline with cargo
into $CARGO_TARGET_DIR (default: .bench_build); build output goes to
stderr. The program's own stdout is passed through, so the last line
is its JSON report. The exit code is the program's: 0 when every
checked route was correct, 1 on a wrong route, 2 on any other error.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-resident", "serve-lazy", "churn-repair")
# A run's own time limit, in seconds: a fixed allowance for the set-up,
# the build, save and load of the scheme and the repair epochs (a run
# spends 25-45 s outside its window on a 2-vCPU Xeon VM), plus twice
# the window (churn-repair adds one repair epoch per 5 s of window).
TIMEOUT_FIXED_S = 120
TIMEOUT_PER_WINDOW_S = 2
# Where a run keeps its snapshot (relative to the working directory, as
# in perfbench/src/main.rs).
WORK_DIR = ".bench_work"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Its own process group, so that a run cut by the time limit takes
    # its serving process down with it.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def remove_leftovers():
        # A killed run cannot delete its files (named after its pid).
        for name in os.listdir(WORK_DIR) if os.path.isdir(WORK_DIR) else []:
            if name.split("-")[1:2] == [str(proc.pid)]:
                os.remove(os.path.join(WORK_DIR, name))

    def stop(reason):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: %s" % reason, file=sys.stderr)
        remove_leftovers()
        sys.exit(2)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, _frame: stop("stopped by signal %d" % signum))
    timeout = TIMEOUT_FIXED_S + TIMEOUT_PER_WINDOW_S * args.seconds
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop("run exceeded %d s" % timeout)
    remove_leftovers()
    return code


if __name__ == "__main__":
    sys.exit(main())
