#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first run configures and builds `hm_perfbench` (Release, lock-rank
checks and failpoint sites compiled out) under .bench_build/perfbench;
later runs only re-check the build. An untraced run is three benchmark
processes of a third of --seconds each, with seeds derived from --seed;
each metric is the median of the three, so the state one process
happens to get (CPU placement, memory layout) weighs a third. A traced
run is one process. The last stdout line is the result object. Scratch
databases live under .bench_work/<pid> and are removed on every exit
path; traced runs leave their spans under .bench_out/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper-oodb", "paper-shard2")
PROCESSES = 3
# End-to-end metrics the benchmark measures but leaves out of the result,
# so no regression bound applies to them. Over ten runs on a shared
# 4-vCPU host their spread (interquartile range over median) reached
# 0.24-1.0 on one workload or the other (README.md gives both sets). The
# warm lookups are mostly the read-only commit's fsync; the p99s catch
# scheduler and loopback stalls. They are printed on the line before the
# result.
UNBOUNDED = ("lookup_warm_ms_per_node", "scan_ms_per_node", "edit_ms_per_op",
             "lookup_p99_us", "closure_p99_us", "commits_per_s",
             "commit_p99_us")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "hypermodel", "store.h")):
        fail("run from the repository root: no sources under ./src")
    if not any(os.path.isfile(os.path.join(BUILD, generated))
               for generated in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", PACKAGE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def commit_id():
    """The checked-out commit, read from .git without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(argv, stdout=None):
    """Runs argv, forwarding SIGTERM/SIGINT, and waits for it to end."""
    child = subprocess.Popen(argv, stdout=stdout, text=True)

    def forward(signum, _frame):
        child.send_signal(signum)

    previous = {s: signal.signal(s, forward)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        if stdout is None:
            return child.wait(), ""
        out, _ = child.communicate()
        return child.returncode, out
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        for s, handler in previous.items():
            signal.signal(s, handler)


def merge(results):
    """One result from several processes: each metric's median."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = sorted(r["metrics"][name]["value"] for r in results)
        metrics[name] = {"value": values[len(values) // 2],
                         "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helpers' unit tests")
    args = parser.parse_args()

    if args.self_test:
        return run_child([build("perfbench_test")])[0]
    if args.workload is None:
        parser.error("--workload is required")
    try:
        binary = build("hm_perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)

    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    argv = [binary, "--workload=" + args.workload, "--trace=%d" % args.trace,
            "--workdir=" + workdir, "--commit=" + commit_id()]
    try:
        os.makedirs(workdir)
        if args.trace:
            return run_child(argv + [
                "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
                "--trace-out=" + os.path.join(
                    outdir, "trace-%s-seed%d.jsonl" % (args.workload,
                                                       args.seed))])[0]
        results = []
        for part in range(PROCESSES):
            code, out = run_child(argv + [
                "--seed=%d" % (args.seed * PROCESSES + part),
                "--seconds=%g" % (args.seconds / PROCESSES)],
                stdout=subprocess.PIPE)
            lines = out.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            try:
                results.append(json.loads(lines[-1]))
            except ValueError:
                fail("process %d of the run printed no result" % part)
            if code != 0 and results[-1]["correct"]:
                fail("process %d of the run exited with %d" % (part, code))
        merged = merge(results)
        unbounded = {name: merged["metrics"].pop(name) for name in UNBOUNDED}
        print("unbounded " + json.dumps(unbounded))
        print(json.dumps(merged), flush=True)
        return 0 if merged["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
