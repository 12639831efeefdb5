#!/usr/bin/env python3
"""Lint the wire protocol definition (src/server/wire.{h,cc}).

The compiler checks the call table (src/server/wire_calls.h): opcodes
numbered 1, 2, 3, ... through the last OpCode enumerator, unique
lower_snake_case names, and the replication lock discipline are
static_asserts there. This lint keeps what the compiler cannot see:

  2. Version gating: every protocol revision beyond v1 is documented by
     a `---- vN:` comment inside the OpCode enum, the markers appear in
     ascending order, and kWireVersion equals the highest marker —
     changing the wire without bumping the version (or bumping without
     documenting what changed) both fail.
  2b. One wire version: peers speak exactly kWireVersion, so wire.h
     must not declare a negotiation floor (kMinWireVersion). From v7
     on, with status.h given, StatusCode must carry kVersionMismatch,
     the handshake's typed refusal.
  2c. Revision prose: the comment directly above kWireVersion names
     every revision vN for N from 2 to kWireVersion, so a bump cannot
     ship without its line saying what changed.

With a third argument (src/util/status.h) the same discipline is
applied to StatusCode, which rides the wire in every response frame:

  4. Status numbering: StatusCode values are unique, strictly
     ascending and contiguous starting at 0 (kOk).
  5. Decode coverage: every StatusCode enumerator has a
     `case util::StatusCode::kFoo` in wire.cc's StatusFromCode(), so a
     new code round-trips instead of collapsing to kInternal on peers
     that already know it.

Usage: check_wire_protocol.py <wire.h> <wire.cc> [<status.h>]
Exits non-zero with one line per violation.
"""

import re
import sys


def fail(errors):
    for error in errors:
        print(f"check_wire_protocol: {error}", file=sys.stderr)
    sys.exit(1)


def parse_markers(header_text):
    """Returns [(version, line_no)] of the `---- vN:` comments inside the
    OpCode enum body, in source order."""
    match = re.search(
        r"enum\s+class\s+OpCode\s*:\s*uint8_t\s*\{(.*?)\};",
        header_text,
        re.DOTALL,
    )
    if not match:
        fail(["wire.h: cannot find `enum class OpCode : uint8_t`"])
    body_start_line = header_text[: match.start(1)].count("\n") + 1
    markers = []
    for offset, line in enumerate(match.group(1).splitlines()):
        marker = re.search(r"----\s*v(\d+)\s*:", line)
        if marker:
            markers.append((int(marker.group(1)), body_start_line + offset))
    return markers


def parse_wire_version(header_text):
    match = re.search(
        r"inline\s+constexpr\s+uint8_t\s+kWireVersion\s*=\s*(\d+)\s*;",
        header_text,
    )
    if not match:
        fail(["wire.h: cannot find kWireVersion"])
    return int(match.group(1))


def parse_version_doc(header_text):
    """Returns the comment lines directly above the kWireVersion
    declaration, joined; empty when there are none."""
    lines = header_text.splitlines()
    for index, line in enumerate(lines):
        if re.search(r"inline\s+constexpr\s+uint8_t\s+kWireVersion\b", line):
            start = index
            while start > 0 and lines[start - 1].lstrip().startswith("//"):
                start -= 1
            return "\n".join(lines[start:index])
    return ""


def declares_min_wire_version(header_text):
    return re.search(r"\bkMinWireVersion\b", header_text) is not None


def parse_status_enum(status_text):
    """Returns [(name, value, line_no)] from the StatusCode enum body."""
    match = re.search(
        r"enum\s+class\s+StatusCode\s*:\s*uint8_t\s*\{(.*?)\};",
        status_text,
        re.DOTALL,
    )
    if not match:
        fail(["status.h: cannot find `enum class StatusCode : uint8_t`"])
    body = match.group(1)
    body_start_line = status_text[: match.start(1)].count("\n") + 1
    codes = []
    for offset, line in enumerate(body.splitlines()):
        entry = re.match(r"\s*(k\w+)\s*=\s*(\d+)\s*,", line)
        if entry:
            codes.append(
                (entry.group(1), int(entry.group(2)), body_start_line + offset)
            )
    return codes


def check_status_codes(status_text, source_text, wire_version, errors):
    codes = parse_status_enum(status_text)
    if not codes:
        fail(["status.h: StatusCode enum has no entries"])

    # Rule 2b, status half: the exact-version handshake needs its code.
    if wire_version >= 7 and "kVersionMismatch" not in {
        name for name, _, _ in codes
    }:
        errors.append(
            f"status.h: kWireVersion is {wire_version} but StatusCode has "
            f"no kVersionMismatch for the exact-version handshake"
        )

    # Rule 4: unique, ascending, contiguous from 0.
    if codes[0][1] != 0:
        errors.append(
            f"status.h:{codes[0][2]}: first status code {codes[0][0]} is "
            f"{codes[0][1]}, expected 0"
        )
    for (prev_name, prev_value, _), (name, value, line_no) in zip(
        codes, codes[1:]
    ):
        if value != prev_value + 1:
            errors.append(
                f"status.h:{line_no}: {name} = {value} after {prev_name} = "
                f"{prev_value}; status numbering must be append-only "
                f"(ascending and contiguous)"
            )

    # Rule 5: StatusFromCode decodes every enumerator.
    match = re.search(
        r"StatusFromCode\s*\(util::StatusCode\s+code.*?\{(.*?)\n\}",
        source_text,
        re.DOTALL,
    )
    if not match:
        fail(["wire.cc: cannot find StatusFromCode(util::StatusCode ...)"])
    decoded = set(
        re.findall(r"case\s+util::StatusCode::(k\w+)\s*:", match.group(1))
    )
    for name, _, line_no in codes:
        if name not in decoded:
            errors.append(
                f"wire.cc: StatusFromCode() has no case for {name} "
                f"(status.h:{line_no}); the code would decode as kInternal"
            )
    enum_names = {name for name, _, _ in codes}
    for name in decoded:
        if name not in enum_names:
            errors.append(
                f"wire.cc: StatusFromCode() has stale case {name} not "
                f"present in the StatusCode enum"
            )
    return len(codes)


def main():
    if len(sys.argv) not in (3, 4):
        fail(["usage: check_wire_protocol.py <wire.h> <wire.cc> [<status.h>]"])
    header_path, source_path = sys.argv[1], sys.argv[2]
    status_path = sys.argv[3] if len(sys.argv) == 4 else None
    with open(header_path, encoding="utf-8") as f:
        header_text = f.read()
    with open(source_path, encoding="utf-8") as f:
        source_text = f.read()

    markers = parse_markers(header_text)
    wire_version = parse_wire_version(header_text)
    errors = []

    # Rule 2b: one wire version, no negotiation window.
    if declares_min_wire_version(header_text):
        errors.append(
            "wire.h: declares kMinWireVersion; peers speak exactly "
            "kWireVersion (single-version rule), so there is no "
            "negotiation floor"
        )

    # Rule 2: version markers non-decreasing (a revision may introduce
    # several gated sections), 2..kWireVersion, and the declared
    # version matches the newest marker.
    marker_versions = [v for v, _ in markers]
    for (version, line_no), prev in zip(
        markers, [1] + marker_versions[:-1]
    ):
        if version < prev:
            errors.append(
                f"wire.h:{line_no}: v{version} gating comment out of "
                f"order (previous marker was v{prev})"
            )
        if version > wire_version:
            errors.append(
                f"wire.h:{line_no}: v{version} opcodes gated but "
                f"kWireVersion is {wire_version}; bump kWireVersion"
            )
    if wire_version > 1:
        expected = set(range(2, wire_version + 1))
        missing = expected - set(marker_versions)
        for version in sorted(missing):
            errors.append(
                f"wire.h: kWireVersion is {wire_version} but the enum "
                f"has no `---- v{version}:` gating comment documenting "
                f"that revision's opcodes"
            )

    # Rule 2c: the prose above kWireVersion names every revision.
    named = {int(v) for v in re.findall(r"\bv(\d+)\b",
                                        parse_version_doc(header_text))}
    for version in range(2, wire_version + 1):
        if version not in named:
            errors.append(
                f"wire.h: the comment above kWireVersion does not name "
                f"v{version}; say what that revision changed"
            )

    # Rules 4–5: status code numbering and decode coverage.
    status_count = 0
    if status_path is not None:
        with open(status_path, encoding="utf-8") as f:
            status_text = f.read()
        status_count = check_status_codes(
            status_text, source_text, wire_version, errors
        )

    if errors:
        fail(errors)
    summary = (
        f"check_wire_protocol: OK — wire v{wire_version}, "
        f"{len(markers)} version gate(s)"
    )
    if status_path is not None:
        summary += f", {status_count} status codes"
    print(summary)


if __name__ == "__main__":
    main()
