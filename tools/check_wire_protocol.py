#!/usr/bin/env python3
"""Lint the wire protocol definition (src/server/wire.{h,cc}).

The OpCode enum values are part of the wire format, so the protocol
evolves under three rules this check enforces mechanically:

  1. Append-only numbering: opcode values are unique, strictly
     ascending and contiguous starting at 1 — renumbering or reusing a
     value breaks every deployed peer.
  2. Version gating: every protocol revision beyond v1 introduces its
     opcodes under a `---- vN:` comment inside the enum, the markers
     appear in ascending order, and kWireVersion equals the highest
     marker — adding opcodes without bumping the version (or bumping
     without documenting what changed) both fail. (v5 is the cluster
     revision: kShardInfo lives under the `---- v5:` gate, and the
     shard:// client refuses fleets whose servers predate it.)
  2b. One wire version: peers speak exactly kWireVersion, so wire.h
     must not declare a negotiation floor (kMinWireVersion). From v7
     on, with status.h given, StatusCode must carry kVersionMismatch,
     the handshake's typed refusal.
  3. Telemetry surface: every opcode has a `case OpCode::kFoo: return
     "snake_name";` entry in OpCodeName() with a unique
     lower_snake_case name — these spell the per-opcode metric names,
     so a missing or duplicated entry silently merges metrics.

From v6 on (the replication revision) one more rule applies:

  6. Replication lock discipline: the follower pull path
     (kReplSubscribe / kReplSegment / kReplStatus) must be listed in
     IsReadOnlyOp() — those opcodes run lock-bypassed, or every
     follower fetch would stall behind writers and a semi-sync commit
     could deadlock waiting for the ack it is blocking. Conversely
     kReplPromote / kReplFence must NOT be read-only: the promotion
     and fencing transitions rely on the exclusive dispatch section.

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


def parse_enum(header_text):
    """Returns ([(name, value, line_no)], [(version, line_no)]) from the
    OpCode enum body, in source order."""
    match = re.search(
        r"enum\s+class\s+OpCode\s*:\s*uint8_t\s*\{(.*?)\};",
        header_text,
        re.DOTALL,
    )
    if not match:
        fail(["wire.h: cannot find `enum class OpCode : uint8_t`"])
    body = match.group(1)
    body_start_line = header_text[: match.start(1)].count("\n") + 1

    opcodes = []
    markers = []
    for offset, line in enumerate(body.splitlines()):
        line_no = body_start_line + offset
        marker = re.search(r"----\s*v(\d+)\s*:", line)
        if marker:
            markers.append((int(marker.group(1)), line_no))
        entry = re.match(r"\s*(k\w+)\s*=\s*(\d+)\s*,", line)
        if entry:
            opcodes.append((entry.group(1), int(entry.group(2)), line_no))
    return opcodes, markers


def parse_wire_version(header_text):
    match = re.search(
        r"inline\s+constexpr\s+uint8_t\s+kWireVersion\s*=\s*(\d+)\s*;",
        header_text,
    )
    if not match:
        fail(["wire.h: cannot find kWireVersion"])
    return int(match.group(1))


def declares_min_wire_version(header_text):
    return re.search(r"\bkMinWireVersion\b", header_text) is not None


def parse_opcode_names(source_text):
    """Returns {enum_name: wire_name} from the OpCodeName() switch."""
    match = re.search(
        r"OpCodeName\s*\(OpCode\s+op\)\s*\{(.*?)\n\}",
        source_text,
        re.DOTALL,
    )
    if not match:
        fail(["wire.cc: cannot find OpCodeName(OpCode op)"])
    return dict(
        re.findall(
            r"case\s+OpCode::(k\w+)\s*:\s*return\s*\"([^\"]*)\"",
            match.group(1),
        )
    )


REPL_PULL_OPS = ("kReplSubscribe", "kReplSegment", "kReplStatus")
REPL_EXCLUSIVE_OPS = ("kReplPromote", "kReplFence")


def check_replication_gate(source_text, opcodes, wire_version, errors):
    """Rule 6: v6 replication opcodes exist and obey the lock split."""
    if wire_version < 6:
        return
    enum_names = {name for name, _, _ in opcodes}
    for op in REPL_PULL_OPS + REPL_EXCLUSIVE_OPS:
        if op not in enum_names:
            errors.append(
                f"wire.h: kWireVersion is {wire_version} but the v6 "
                f"replication opcode {op} is missing from the enum"
            )
    match = re.search(
        r"IsReadOnlyOp\s*\(OpCode\s+op\)\s*\{(.*?)\n\}",
        source_text,
        re.DOTALL,
    )
    if not match:
        errors.append("wire.cc: cannot find IsReadOnlyOp(OpCode op)")
        return
    read_only = set(
        re.findall(r"case\s+OpCode::(k\w+)\s*:", match.group(1))
    )
    for op in REPL_PULL_OPS:
        if op in enum_names and op not in read_only:
            errors.append(
                f"wire.cc: {op} is missing from IsReadOnlyOp(); the "
                f"replication pull path must bypass the dispatch lock "
                f"(a semi-sync commit holds it while waiting for the "
                f"very ack this opcode carries)"
            )
    for op in REPL_EXCLUSIVE_OPS:
        if op in enum_names and op in read_only:
            errors.append(
                f"wire.cc: {op} must not be in IsReadOnlyOp(); "
                f"promotion and fencing rely on the exclusive "
                f"dispatch section"
            )


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

    opcodes, markers = parse_enum(header_text)
    wire_version = parse_wire_version(header_text)
    names = parse_opcode_names(source_text)
    errors = []

    # Rule 2b: one wire version, no negotiation window.
    if declares_min_wire_version(header_text):
        errors.append(
            "wire.h: declares kMinWireVersion; peers speak exactly "
            "kWireVersion (single-version rule), so there is no "
            "negotiation floor"
        )

    if not opcodes:
        fail(["wire.h: OpCode enum has no entries"])

    # Rule 1: unique, ascending, contiguous from 1.
    if opcodes[0][1] != 1:
        errors.append(
            f"wire.h:{opcodes[0][2]}: first opcode {opcodes[0][0]} is "
            f"{opcodes[0][1]}, expected 1"
        )
    for (prev_name, prev_value, _), (name, value, line_no) in zip(
        opcodes, opcodes[1:]
    ):
        if value != prev_value + 1:
            errors.append(
                f"wire.h:{line_no}: {name} = {value} after {prev_name} = "
                f"{prev_value}; opcode numbering must be append-only "
                f"(ascending and contiguous)"
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

    # Rule 3: OpCodeName covers every opcode with unique snake names.
    seen_names = {}
    for enum_name, _, line_no in opcodes:
        wire_name = names.get(enum_name)
        if wire_name is None:
            errors.append(
                f"wire.cc: OpCodeName() has no entry for {enum_name} "
                f"(wire.h:{line_no})"
            )
            continue
        if not re.fullmatch(r"[a-z][a-z0-9]*(_[a-z0-9]+)*", wire_name):
            errors.append(
                f"wire.cc: OpCodeName({enum_name}) = \"{wire_name}\" is "
                f"not lower_snake_case"
            )
        if wire_name in seen_names:
            errors.append(
                f"wire.cc: OpCodeName({enum_name}) duplicates "
                f"\"{wire_name}\" (also {seen_names[wire_name]}); metric "
                f"names would merge"
            )
        seen_names.setdefault(wire_name, enum_name)
    enum_names = {name for name, _, _ in opcodes}
    for enum_name in names:
        if enum_name not in enum_names:
            errors.append(
                f"wire.cc: OpCodeName() has stale entry {enum_name} not "
                f"present in the OpCode enum"
            )

    # Rule 6: v6 replication opcodes and their lock discipline.
    check_replication_gate(source_text, opcodes, wire_version, errors)

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
        f"check_wire_protocol: OK — {len(opcodes)} opcodes, "
        f"wire v{wire_version}, {len(markers)} version gate(s)"
    )
    if status_path is not None:
        summary += f", {status_count} status codes"
    print(summary)


if __name__ == "__main__":
    main()
