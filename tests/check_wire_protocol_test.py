#!/usr/bin/env python3
"""Tests for tools/check_wire_protocol.py.

The checker is itself a guard rail — a regression in it silently stops
enforcing the wire-evolution rules — so each rule gets a fixture pair:
a conforming header/source that must pass and a violating variant that
must fail with a diagnostic naming the violation. Fixtures are minimal
synthetic wire.h / wire.cc / status.h texts, not the real files (the
real ones are linted by the wire_protocol_lint ctest already). The
opcode rules the compiler checks have compile_fail fixtures instead
(tests/compile_fail).
"""

import pathlib
import subprocess
import sys
import tempfile
import unittest

CHECKER = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tools"
    / "check_wire_protocol.py"
)

GOOD_WIRE_H = """\
#include <cstdint>

/// The protocol version. v2 added batching.
inline constexpr uint8_t kWireVersion = 2;

enum class OpCode : uint8_t {
  kPing = 1,
  kGetAttr = 2,
  // ---- v2: batching revision
  kBatch = 3,
};
"""

GOOD_WIRE_CC = """\
util::Status StatusFromCode(util::StatusCode code, std::string msg) {
  switch (code) {
    case util::StatusCode::kOk: return util::Status::Ok();
    case util::StatusCode::kIoError: return util::Status::IoError(msg);
  }
  return util::Status::Internal(msg);
}
"""

GOOD_STATUS_H = """\
enum class StatusCode : uint8_t {
  kOk = 0,
  kIoError = 1,
};
"""


def run_checker(wire_h, wire_cc, status_h=None):
    """Writes the fixture texts to a temp dir and runs the checker."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        (tmp_path / "wire.h").write_text(wire_h, encoding="utf-8")
        (tmp_path / "wire.cc").write_text(wire_cc, encoding="utf-8")
        argv = [
            sys.executable,
            str(CHECKER),
            str(tmp_path / "wire.h"),
            str(tmp_path / "wire.cc"),
        ]
        if status_h is not None:
            (tmp_path / "status.h").write_text(status_h, encoding="utf-8")
            argv.append(str(tmp_path / "status.h"))
        return subprocess.run(argv, capture_output=True, text=True)


class CheckWireProtocolTest(unittest.TestCase):
    def assert_rejects(self, result, needle):
        self.assertNotEqual(result.returncode, 0)
        self.assertIn(needle, result.stderr)

    # ---- baseline ----

    def test_conforming_fixture_passes(self):
        result = run_checker(GOOD_WIRE_H, GOOD_WIRE_CC, GOOD_STATUS_H)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("OK", result.stdout)
        self.assertIn("2 status codes", result.stdout)

    def test_status_header_is_optional(self):
        result = run_checker(GOOD_WIRE_H, GOOD_WIRE_CC)
        self.assertEqual(result.returncode, 0, result.stderr)

    # ---- rule 2: version gating ----

    def test_opcodes_beyond_declared_version_rejected(self):
        wire_h = GOOD_WIRE_H.replace(
            "kBatch = 3,",
            "kBatch = 3,\n  // ---- v3: premature revision\n  kNew = 4,",
        )
        result = run_checker(wire_h, GOOD_WIRE_CC)
        self.assert_rejects(result, "bump kWireVersion")

    def test_version_bump_without_gate_comment_rejected(self):
        wire_h = GOOD_WIRE_H.replace("kWireVersion = 2", "kWireVersion = 3")
        result = run_checker(wire_h, GOOD_WIRE_CC)
        self.assert_rejects(result, "---- v3:")

    def test_gate_markers_out_of_order_rejected(self):
        wire_h = GOOD_WIRE_H.replace(
            "kWireVersion = 2", "kWireVersion = 3"
        ).replace(
            "// ---- v2: batching revision",
            "// ---- v3: later revision first",
        ).replace(
            "kBatch = 3,",
            "kBatch = 3,\n  // ---- v2: earlier revision second\n  kNew = 4,",
        )
        result = run_checker(wire_h, GOOD_WIRE_CC)
        self.assert_rejects(result, "out of order")

    # ---- rule 2b: one wire version ----

    def test_negotiation_floor_rejected(self):
        wire_h = GOOD_WIRE_H.replace(
            "inline constexpr uint8_t kWireVersion = 2;\n",
            "inline constexpr uint8_t kWireVersion = 2;\n"
            "inline constexpr uint8_t kMinWireVersion = 1;\n",
        )
        result = run_checker(wire_h, GOOD_WIRE_CC)
        self.assert_rejects(result, "single-version rule")

    def test_v7_requires_version_mismatch_status(self):
        wire_h = GOOD_WIRE_H.replace(
            "kWireVersion = 2", "kWireVersion = 7"
        ).replace(
            "v2 added batching.", "v2 batching; v3; v4; v5; v6; v7."
        ).replace(
            "kBatch = 3,",
            "kBatch = 3,\n  // ---- v3: stats\n  // ---- v4: ping\n"
            "  // ---- v5: cluster\n  // ---- v6: replication\n"
            "  // ---- v7: exact-version Hello",
        )
        result = run_checker(wire_h, GOOD_WIRE_CC, GOOD_STATUS_H)
        self.assert_rejects(result, "no kVersionMismatch")

        status_h = GOOD_STATUS_H.replace(
            "kIoError = 1,", "kIoError = 1,\n  kVersionMismatch = 2,"
        )
        wire_cc = GOOD_WIRE_CC.replace(
            "    case util::StatusCode::kIoError: "
            "return util::Status::IoError(msg);\n",
            "    case util::StatusCode::kIoError: "
            "return util::Status::IoError(msg);\n"
            "    case util::StatusCode::kVersionMismatch: "
            "return util::Status::VersionMismatch(msg);\n",
        )
        result = run_checker(wire_h, wire_cc, status_h)
        self.assertEqual(result.returncode, 0, result.stderr)

    # ---- rule 2c: every revision named above kWireVersion ----

    def test_bump_with_marker_and_prose_passes(self):
        wire_h = GOOD_WIRE_H.replace(
            "kWireVersion = 2", "kWireVersion = 3"
        ).replace(
            "v2 added batching.", "v2 added batching; v3 kNew."
        ).replace(
            "kBatch = 3,", "kBatch = 3,\n  // ---- v3: kNew\n  kNew = 4,"
        )
        result = run_checker(wire_h, GOOD_WIRE_CC)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("wire v3", result.stdout)

    def test_bump_without_prose_rejected(self):
        # The marker is there, the prose line is not; neither v30 nor
        # the "v3" inside "rev3" names v3.
        wire_h = GOOD_WIRE_H.replace(
            "kWireVersion = 2", "kWireVersion = 3"
        ).replace(
            "v2 added batching.", "v2 added batching; v30 rev3."
        ).replace(
            "kBatch = 3,", "kBatch = 3,\n  // ---- v3: kNew\n  kNew = 4,"
        )
        result = run_checker(wire_h, GOOD_WIRE_CC)
        self.assert_rejects(result, "does not name v3")

    # ---- rule 4: status code numbering ----

    def test_status_gap_rejected(self):
        status_h = GOOD_STATUS_H.replace("kIoError = 1,", "kIoError = 2,")
        result = run_checker(GOOD_WIRE_H, GOOD_WIRE_CC, status_h)
        self.assert_rejects(result, "append-only")

    def test_first_status_code_must_be_zero(self):
        status_h = GOOD_STATUS_H.replace("kOk = 0,", "kOk = 1,").replace(
            "kIoError = 1,", "kIoError = 2,"
        )
        result = run_checker(GOOD_WIRE_H, GOOD_WIRE_CC, status_h)
        self.assert_rejects(result, "expected 0")

    # ---- rule 5: StatusFromCode coverage ----

    def test_undecoded_status_code_rejected(self):
        wire_cc = GOOD_WIRE_CC.replace(
            "    case util::StatusCode::kIoError: "
            "return util::Status::IoError(msg);\n",
            "",
        )
        result = run_checker(GOOD_WIRE_H, wire_cc, GOOD_STATUS_H)
        self.assert_rejects(result, "no case for kIoError")

    def test_stale_status_decode_case_rejected(self):
        wire_cc = GOOD_WIRE_CC.replace(
            "case util::StatusCode::kIoError: "
            "return util::Status::IoError(msg);",
            "case util::StatusCode::kIoError: "
            "return util::Status::IoError(msg);\n"
            "    case util::StatusCode::kBogus: "
            "return util::Status::Internal(msg);",
        )
        result = run_checker(GOOD_WIRE_H, wire_cc, GOOD_STATUS_H)
        self.assert_rejects(result, "stale case kBogus")


if __name__ == "__main__":
    unittest.main()
