#!/usr/bin/env python3
"""Build and run the cwcs benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 60 --trace 0

Builds the Go program in perfbench/ (a module of its own that imports
the repository's packages through a replace directive) into
.bench_build/, runs one episode of a workload in a child process, and prints the
child's JSON result as the last line of stdout. With --trace 0 it adds
peak_rss_mib, the child's high-water resident set size, measured from
outside through wait4. Every file it writes stays under .bench_build/.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CHILD_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOMAXPROCS": str(min(2, os.cpu_count() or 1)),
    })
    return env


def build(env):
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    res = subprocess.run(["go", "build", "-o", binary, "."],
                         cwd=os.path.join(ROOT, "perfbench"), env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if res.returncode != 0:
        sys.stderr.write(res.stdout.decode(errors="replace"))
        sys.exit("perfbench: build failed")
    return binary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    binary = build(env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(BUILD, "trace")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    code = os.waitstatus_to_exitcode(status)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        sys.exit("perfbench: child exited with %d and no result" % code)
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mib"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, sort_keys=True))
    sys.exit(code)


if __name__ == "__main__":
    main()
