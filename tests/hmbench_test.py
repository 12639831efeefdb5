#!/usr/bin/env python3
"""End-to-end test of hmbench, the one entry point of the §6 paper tables.

    python3 tests/hmbench_test.py path/to/hmbench

Runs every op on every backend kind at a small level and checks the
JSON report has exactly one row per (op, backend); runs the E1
creation-only spelling; checks that op 17 on a level-2 database, which
has no form node, fails with a Status instead of aborting; checks flags
a subcommand does not honour, and store settings out of the stores'
range, are refused; and checks the scratch directory is gone after
each run.
"""

import json
import os
import subprocess
import sys
import tempfile

BACKENDS = ["mem", "oodb", "rel", "net", "remote[percall]", "shard"]
OPS = 20


def run(argv, timeout=300):
    return subprocess.run(argv, capture_output=True, text=True,
                          timeout=timeout)


def check(condition, message, result=None):
    if not condition:
        if result is not None:
            sys.stderr.write(result.stdout + result.stderr)
        sys.exit("FAIL: " + message)


def main():
    hmbench = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        scratch = os.path.join(tmp, "scratch")
        report = os.path.join(tmp, "report.json")

        # Level 3 is the smallest database with a form node (op 17).
        result = run([hmbench, "--levels=3", "--iters=1",
                      "--backends=" + ",".join(BACKENDS),
                      "--dir=" + scratch, "--json=" + report])
        check(result.returncode == 0, "full run exited nonzero", result)
        with open(report) as f:
            rows = json.load(f)["results"]
        keys = {(row["op"], row["backend"]) for row in rows}
        check(len(rows) == OPS * len(BACKENDS) and len(keys) == len(rows),
              "want one row per (op, backend), got %d rows, %d distinct"
              % (len(rows), len(keys)))
        check({row["backend"] for row in rows} == set(BACKENDS),
              "backend labels differ from the requested spellings")
        check(not os.path.exists(scratch), "scratch directory left behind")

        # E1: the creation table alone.
        result = run([hmbench, "--creation", "--ops=", "--levels=2",
                      "--dir=" + scratch])
        check(result.returncode == 0, "creation-only run failed", result)
        check("Database creation" in result.stdout and
              "HyperModel operations" not in result.stdout,
              "creation-only run must print only the creation table", result)
        check(not os.path.exists(scratch), "scratch directory left behind")

        # Op 17 on a level-2 database (no form node) is refused with a
        # Status: exit 1 and a message, not an abort.
        result = run([hmbench, "--levels=2", "--iters=1", "--ops=17",
                      "--backends=mem", "--dir=" + scratch])
        check(result.returncode == 1 and
              "FailedPrecondition" in result.stderr and
              "form node" in result.stderr,
              "level-2 op 17 must fail with FailedPrecondition, exit %d"
              % result.returncode, result)
        check(not os.path.exists(scratch), "scratch directory left behind")

    # A flag the subcommand would ignore is refused, not dropped.
    for argv in ([hmbench, "--stats"], [hmbench, "--ops="],
                 [hmbench, "serve", "--levels=4"],
                 [hmbench, "fsck", "--backends=mem"]):
        result = run(argv)
        check(result.returncode == 1, "accepted %s" % " ".join(argv[1:]),
              result)

    # A store setting the stores cannot hold is refused at parse time,
    # not narrowed: 2^32 + 100 must not serve with a 100 us window.
    for flag in ("--group-commit-us=4294967396", "--checkpoint-ms=4294967296"):
        argv = [hmbench, "serve", "--backend=oodb", "--port=0", flag]
        try:
            result = run(argv, timeout=30)
        except subprocess.TimeoutExpired:
            sys.exit("FAIL: served with out-of-range " + flag)
        check(result.returncode == 1 and flag.split("=")[0] in result.stderr,
              "accepted out-of-range " + flag, result)
    print("hmbench_test: OK")


if __name__ == "__main__":
    main()
