#!/usr/bin/env python3
"""Lint: durable-file syscalls go through storage::File only.

Every open, positional read or write, append, sync, truncate and
rename of a durable file under src/ goes through src/storage/file.cc
(storage::File, SyncDir, ReplaceFile), so there is one place that
loops over short counts and EINTR, carries the failpoint sites and can
be timed. This lint fails on any `::open(`, `::pread(`, `::pwrite(`,
`::write(`, `::fsync(`, `::fdatasync(`, `::ftruncate(` or `::rename(`
in a C++ file under <root> other than the allowed ones. Text after
`//` is ignored, so comments may name the calls.

Usage: check_raw_io.py <root> [<allowed path relative to root> ...]
Exits non-zero with one line per violation.
"""

import os
import re
import sys

RAW_CALL = re.compile(
    r"::(open|pread|pwrite|write|fsync|fdatasync|ftruncate|rename)\(")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = argv[1]
    allowed = {os.path.normpath(p) for p in argv[2:]}
    errors = []
    scanned = 0
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith((".cc", ".h")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.normpath(os.path.relpath(path, root))
            if rel in allowed:
                continue
            scanned += 1
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    code = line.split("//", 1)[0]
                    for m in RAW_CALL.finditer(code):
                        errors.append(
                            f"{path}:{lineno}: raw ::{m.group(1)}() on a "
                            "file; use storage::File (src/storage/file.h)")
    if scanned == 0:
        errors.append(f"{root}: no C++ files to check")
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
