// Frame-level tests for the client/server wire protocol: encode/decode
// round trips, incremental (partial-read) decoding, and rejection of
// truncated, corrupted and oversized frames; the spin-then-block receive
// (RecvSome) on socket pairs. The golden tests at the end pin the body
// bytes of every opcode, on both the server and the client.

#include "server/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/remote_store.h"
#include "replication/coordinator.h"
#include "server/server.h"
#include "server/wire_calls.h"
#include "telemetry/metrics.h"
#include "util/bitmap.h"
#include "util/coding.h"
#include "util/enumerators.h"
#include "util/status.h"
#include "test_dir.h"

namespace hm::server {
namespace {

TEST(WireFrameTest, RoundTripsPayload) {
  std::string frame;
  AppendFrame(&frame, "hello wire");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 10);

  std::string_view payload;
  size_t frame_len = 0;
  ASSERT_EQ(DecodeFrame(frame, &payload, &frame_len), FrameResult::kOk);
  EXPECT_EQ(payload, "hello wire");
  EXPECT_EQ(frame_len, frame.size());
}

TEST(WireFrameTest, RoundTripsEmptyPayload) {
  std::string frame;
  AppendFrame(&frame, "");
  std::string_view payload;
  size_t frame_len = 0;
  ASSERT_EQ(DecodeFrame(frame, &payload, &frame_len), FrameResult::kOk);
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(frame_len, kFrameHeaderBytes);
}

TEST(WireFrameTest, RoundTripsBinaryPayload) {
  std::string binary;
  for (int i = 0; i < 512; ++i) binary.push_back(static_cast<char>(i));
  std::string frame;
  AppendFrame(&frame, binary);
  std::string_view payload;
  size_t frame_len = 0;
  ASSERT_EQ(DecodeFrame(frame, &payload, &frame_len), FrameResult::kOk);
  EXPECT_EQ(payload, binary);
}

TEST(WireFrameTest, EveryTruncationIsIncomplete) {
  std::string frame;
  AppendFrame(&frame, "truncate me");
  // A reader that has only a prefix must always be told to wait for
  // more bytes, never handed a partial payload or a false error.
  for (size_t len = 0; len < frame.size(); ++len) {
    std::string_view payload;
    size_t frame_len = 0;
    EXPECT_EQ(DecodeFrame(std::string_view(frame).substr(0, len),
                          &payload, &frame_len),
              FrameResult::kIncomplete)
        << "prefix length " << len;
  }
}

TEST(WireFrameTest, DetectsPayloadCorruption) {
  std::string frame;
  AppendFrame(&frame, "bitflips happen");
  for (size_t i = kFrameHeaderBytes; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    std::string_view payload;
    size_t frame_len = 0;
    EXPECT_EQ(DecodeFrame(bad, &payload, &frame_len),
              FrameResult::kCorrupt)
        << "flipped byte " << i;
  }
}

TEST(WireFrameTest, DetectsCrcFieldCorruption) {
  std::string frame;
  AppendFrame(&frame, "checksum field");
  std::string bad = frame;
  bad[5] = static_cast<char>(bad[5] ^ 0x01);  // inside the CRC word
  std::string_view payload;
  size_t frame_len = 0;
  EXPECT_EQ(DecodeFrame(bad, &payload, &frame_len), FrameResult::kCorrupt);
}

TEST(WireFrameTest, RejectsOversizedLengthField) {
  std::string frame;
  AppendFrame(&frame, "x");
  // Claim a payload beyond the ceiling; the data never arrives, but
  // the decoder must reject the header instead of buffering forever.
  util::EncodeFixed32(frame.data(), kDefaultMaxFrameBytes + 1);
  std::string_view payload;
  size_t frame_len = 0;
  EXPECT_EQ(DecodeFrame(frame, &payload, &frame_len),
            FrameResult::kTooLarge);
  // A caller-supplied ceiling applies the same way.
  std::string small;
  AppendFrame(&small, std::string(128, 'y'));
  EXPECT_EQ(DecodeFrame(small, &payload, &frame_len, /*max_payload=*/64),
            FrameResult::kTooLarge);
}

TEST(WireFrameTest, DecodesBackToBackFrames) {
  std::string stream;
  AppendFrame(&stream, "first");
  AppendFrame(&stream, "second");

  std::string_view payload;
  size_t frame_len = 0;
  ASSERT_EQ(DecodeFrame(stream, &payload, &frame_len), FrameResult::kOk);
  EXPECT_EQ(payload, "first");
  stream.erase(0, frame_len);
  ASSERT_EQ(DecodeFrame(stream, &payload, &frame_len), FrameResult::kOk);
  EXPECT_EQ(payload, "second");
  stream.erase(0, frame_len);
  EXPECT_EQ(DecodeFrame(stream, &payload, &frame_len),
            FrameResult::kIncomplete);
}

TEST(WireStatusTest, OkStatusCarriesBody) {
  std::string payload;
  PutStatus(&payload, util::Status::Ok());
  payload.append("result bytes");

  util::Status status = util::Status::Internal("sentinel");
  std::string_view body;
  ASSERT_TRUE(SplitResponse(payload, &status, &body));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(body, "result bytes");
}

TEST(WireStatusTest, ErrorStatusRoundTripsCodeAndMessage) {
  std::string payload;
  PutStatus(&payload, util::Status::NotFound("no node 42"));

  util::Status status;
  std::string_view body;
  ASSERT_TRUE(SplitResponse(payload, &status, &body));
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(status.message(), "no node 42");
  EXPECT_TRUE(body.empty());
}

TEST(WireStatusTest, AllCodesSurviveTheWire) {
  constexpr uint8_t kLast = util::LastEnumerator<util::StatusCode>();
  static_assert(kLast >= static_cast<uint8_t>(
                             util::StatusCode::kFailedPrecondition));
  for (uint8_t code = 1; code <= kLast; ++code) {
    util::Status original =
        StatusFromCode(static_cast<util::StatusCode>(code), "msg");
    EXPECT_EQ(original.code(), static_cast<util::StatusCode>(code));
    std::string payload;
    PutStatus(&payload, original);
    util::Status decoded;
    std::string_view body;
    ASSERT_TRUE(SplitResponse(payload, &decoded, &body));
    EXPECT_EQ(decoded, original) << "code " << int(code);
  }
}

TEST(WireOpCodeTest, NameAndReadOnlyClassArePinnedForEveryByte) {
  // Names spell the per-opcode metric names and the read-only class
  // picks the dispatch lock, so both are recorded here byte by byte, with
  // the bytes that have no call: a change to wherever they are declared
  // must not move any of them.
  constexpr std::string_view kNames[] = {
      "unknown",        "hello",          "reset",
      "begin",          "commit",         "abort",
      "close_reopen",   "create_node",    "set_text",
      "set_form",       "add_child",      "add_part",
      "add_ref",        "get_attr",       "set_attr",
      "get_kind",       "get_text",       "get_form",
      "set_contents",   "get_contents",   "lookup_unique",
      "range_hundred",  "range_million",  "children",
      "parent",         "parts",          "part_of",
      "refs_to",        "refs_from",      "storage_bytes",
      "batch",          "children_multi", "get_attrs_multi",
      "closure_1n",     "closure_mn",     "closure_mn_att",
      "closure_1n_att_sum",               "closure_1n_att_set",
      "closure_1n_pred",                  "closure_mn_att_link_sum",
      "stats",          "ping",           "shard_info",
      "repl_subscribe", "repl_segment",   "repl_status",
      "repl_promote",   "repl_fence",     "parts_multi",
      "refs_to_multi",  "set_attrs_multi", "children_attrs_multi",
      "create_nodes_multi",               "add_children_multi",
      "add_parts_multi",                  "add_refs_multi",
  };
  constexpr uint8_t kReadOnly[] = {1,  13, 15, 16, 17, 19, 20, 21, 22, 23,
                                   24, 25, 26, 27, 28, 29, 31, 32, 33, 34,
                                   35, 36, 38, 39, 40, 41, 42, 43, 44, 45,
                                   48, 49, 51};
  // Retired opcodes keep their names and have no call (class kNone).
  constexpr uint8_t kRetired[] = {7, 10, 11, 12, 30};
  for (int byte = 0; byte < 256; ++byte) {
    const auto op = static_cast<OpCode>(byte);
    const bool in_table =
        byte > 0 && byte < static_cast<int>(std::size(kNames));
    const std::string_view name = in_table ? kNames[byte] : "unknown";
    EXPECT_EQ(OpCodeName(op), name) << "opcode byte " << byte;
    EXPECT_EQ(IsReadOnlyOp(op),
              std::find(std::begin(kReadOnly), std::end(kReadOnly), byte) !=
                  std::end(kReadOnly))
        << "opcode byte " << byte;
    const bool retired = std::find(std::begin(kRetired), std::end(kRetired),
                                   byte) != std::end(kRetired);
    EXPECT_EQ(ClassOf(op) == OpClass::kNone, retired || !in_table)
        << "opcode byte " << byte;
  }
}

// Opcode names spell metric names: lower snake case, checked over the
// whole call table at compile time (server/wire_calls.h).
static_assert(IsSnakeName("closure_1n") && IsSnakeName("get_attrs_multi"));
static_assert(!IsSnakeName("") && !IsSnakeName("GetAttr") &&
              !IsSnakeName("get__attr") && !IsSnakeName("_get") &&
              !IsSnakeName("get_") && !IsSnakeName("1n") &&
              !IsSnakeName("get-attr"));

TEST(WireStatusTest, RejectsMalformedResponses) {
  util::Status status;
  std::string_view body;
  EXPECT_FALSE(SplitResponse("", &status, &body));
  // Error code with a truncated message length prefix.
  std::string payload;
  payload.push_back(static_cast<char>(util::StatusCode::kNotFound));
  payload.append("\x05\x00", 2);  // half a fixed32
  EXPECT_FALSE(SplitResponse(payload, &status, &body));
}

// The node batch every fused multi-node opcode carries (NodeBatch,
// server/wire_calls.h): a capped varint count, then one ref per node.

TEST(WireBatchTest, RoundTripsEmptyBatch) {
  const std::string payload =
      calls::PartsMulti::Request(std::span<const NodeRef>());
  calls::PartsMulti::Args args;
  ASSERT_TRUE(calls::PartsMulti::DecodeArgs(
      std::string_view(payload).substr(1), &args));
  EXPECT_TRUE(std::get<0>(args).empty());
}

TEST(WireBatchTest, RejectsOversizedBatch) {
  // A count over the cap is rejected before any node is read — a
  // hostile header cannot make the server reserve gigabytes.
  std::string body;
  util::PutVarint64(&body, kMaxBatchEntries + 1);
  calls::RefsToMulti::Args args;
  EXPECT_FALSE(calls::RefsToMulti::DecodeArgs(body, &args));
  // At the cap exactly the count is fine; the nodes just have to be
  // there.
  body.clear();
  util::PutVarint64(&body, kMaxBatchEntries);
  EXPECT_FALSE(calls::RefsToMulti::DecodeArgs(body, &args));
  for (uint64_t i = 0; i < kMaxBatchEntries; ++i) util::PutVarint64(&body, 1);
  EXPECT_TRUE(calls::RefsToMulti::DecodeArgs(body, &args));
  EXPECT_EQ(std::get<0>(args).size(), kMaxBatchEntries);
}

TEST(WireBatchTest, RejectsTrailingGarbage) {
  const std::vector<NodeRef> nodes{1, 2};
  std::string payload = calls::RefsToMulti::Request(nodes);
  payload.push_back('\x7f');
  calls::RefsToMulti::Args args;
  EXPECT_FALSE(calls::RefsToMulti::DecodeArgs(
      std::string_view(payload).substr(1), &args));
}

TEST(WireBatchTest, FrameCrcCoversBatchContents) {
  // A bit flip inside the node batch of a framed fused request is
  // caught by the frame CRC — corruption cannot surface as a wrong
  // node or value.
  const std::vector<NodeRef> nodes{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<int64_t> values{10, 20, 30, 40, 50, 60, 70, 80};
  std::string frame;
  AppendFrame(&frame,
              calls::SetAttrsMulti::Request(Attr::kTen, nodes, values));
  frame[frame.size() / 2] ^= 0x01;  // flip a bit inside the node batch
  std::string_view payload;
  size_t frame_len = 0;
  EXPECT_EQ(DecodeFrame(frame, &payload, &frame_len),
            FrameResult::kCorrupt);
}

// --- Spin-then-block receive ----------------------------------------------

/// A connected AF_UNIX stream pair: [0] receives, [1] is the peer.
struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;
  ~SocketPair() {
    for (int f : fd) {
      if (f >= 0) ::close(f);
    }
  }
};

TEST(WireRecvTest, SpinTakesBytesAlreadyQueued) {
  SocketPair pair;
  ASSERT_TRUE(WriteAll(pair.fd[1], "abc"));
  char buf[16];
  Received got = RecvSome(pair.fd[0], buf, sizeof(buf));
  EXPECT_EQ(got.outcome, RecvOutcome::kData);
  EXPECT_TRUE(got.spun);
  ASSERT_EQ(got.bytes, 3u);
  EXPECT_EQ(std::string_view(buf, got.bytes), "abc");
}

TEST(WireRecvTest, PeerCloseEndsTheSpinAtOnce) {
  SocketPair pair;
  ::close(pair.fd[1]);
  pair.fd[1] = -1;
  char buf[16];
  Received got = RecvSome(pair.fd[0], buf, sizeof(buf));
  EXPECT_EQ(got.outcome, RecvOutcome::kClosed);
  EXPECT_TRUE(got.spun);
}

TEST(WireRecvTest, ShuttingTheReadSideEndsAnUnboundedWait) {
  // Server::Stop's drain: SHUT_RD on a worker's socket ends its wait,
  // whether it is still spinning or already blocked in recv.
  SocketPair pair;
  Received got{RecvOutcome::kError, 0, false};
  std::thread waiter([&] {
    char buf[16];
    got = RecvSome(pair.fd[0], buf, sizeof(buf));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(::shutdown(pair.fd[0], SHUT_RD), 0);
  waiter.join();
  EXPECT_EQ(got.outcome, RecvOutcome::kClosed);
}

TEST(WireRecvTest, DeadlineEndsAnIdleWait) {
  SocketPair pair;
  char buf[16];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  Received got = RecvSome(pair.fd[0], buf, sizeof(buf), deadline);
  EXPECT_EQ(got.outcome, RecvOutcome::kTimedOut);
  EXPECT_FALSE(got.spun);
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
  // A deadline already past still takes bytes that are queued.
  ASSERT_TRUE(WriteAll(pair.fd[1], "x"));
  got = RecvSome(pair.fd[0], buf, sizeof(buf), deadline);
  EXPECT_EQ(got.outcome, RecvOutcome::kData);
  EXPECT_EQ(got.bytes, 1u);
}

TEST(WireRecvTest, FrameSplitAcrossSpinAndBlockDecodes) {
  // The first half of a frame is queued before the first wait, so that
  // wait ends in the spin; the rest is sent only after it, by a peer
  // that first sleeps well past the budget.
  SocketPair pair;
  const std::string_view reply = "a reply that arrives in two pieces";
  std::string frame;
  AppendFrame(&frame, reply);
  const size_t half = kFrameHeaderBytes / 2;
  ASSERT_TRUE(WriteAll(pair.fd[1], std::string_view(frame).substr(0, half)));
  std::string rx;
  char buf[16];
  Received got = RecvSome(pair.fd[0], buf, sizeof(buf));
  ASSERT_EQ(got.outcome, RecvOutcome::kData);
  EXPECT_TRUE(got.spun);
  rx.append(buf, got.bytes);
  std::string_view payload;
  size_t frame_len = 0;
  ASSERT_EQ(DecodeFrame(rx, &payload, &frame_len), FrameResult::kIncomplete);

  std::thread peer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(WriteAll(pair.fd[1], std::string_view(frame).substr(half)));
  });
  while (DecodeFrame(rx, &payload, &frame_len) == FrameResult::kIncomplete) {
    got = RecvSome(pair.fd[0], buf, sizeof(buf),
                   std::chrono::steady_clock::now() + std::chrono::seconds(5));
    if (got.outcome != RecvOutcome::kData) break;
    rx.append(buf, got.bytes);
  }
  peer.join();
  ASSERT_EQ(got.outcome, RecvOutcome::kData);
  EXPECT_EQ(payload, reply);
  EXPECT_EQ(frame_len, frame.size());
}

// --- Golden bytes ---------------------------------------------------------
//
// One request payload and its response payload per step, in hex (spaces
// ignored). The steps build a four-node graph on a MemStore server with
// one-entry fused writes, read it back through every opcode, then drive
// the five replication opcodes against a primary Coordinator. The
// constants were recorded from the hand-written codecs that preceded
// the call table, the v8 steps (the fused *_multi opcodes, the retired
// batch) when v8 added them, the v9 step (children_attrs_multi) and
// version bytes when v9 did, the v10 load steps and version bytes when
// v10 did, and the one-entry writes, the four retired per-item writes
// and version bytes when v11 did; changing one means the wire changed,
// which needs a kWireVersion bump.
//
// MemStore hands out refs 1..4 in creation order:
//   1 --child--> 2 (text "hello"), 3 (form);  1 --part--> 4 --part--> 2;
//   2 --ref(3,-4)--> 3 --ref(0,1)--> 4.
// After the last reset the v10 load steps build, with one fused write
// each, the nodes 1..3 of the same attributes and contents:
//   1 --child--> 2, 3;  1 --part--> 3 --part--> 2;
//   2 --ref(3,-4)--> 3 --ref(0,1)--> 1.
struct GoldenStep {
  const char* name;
  const char* request;
  const char* response;  // nullptr: not a constant (kStats)
  bool client_sends = true;  // false: no RemoteStore method sends it
};

constexpr GoldenStep kGolden[] = {
    {"hello", "01 0b", "00 0b030000006d656d"},
    {"reset_clean", "02", "00"},
    {"begin", "03", "00"},
    {"create_nodes_multi_1",
     "34 01 02 02 14 c801 d00f 00  01 00  01 00000000", "00 01 01"},
    {"create_nodes_multi_2",
     "34 01 04 04 28 9003 a01f 01  01 01  01 00000000", "00 01 02"},
    {"create_nodes_multi_3",
     "34 01 06 06 3c d804 f02e 02  01 01  01 00000000", "00 01 03"},
    {"create_nodes_multi_4",
     "34 01 08 08 50 a006 c03e 00  01 01  01 00000000", "00 01 04"},
    {"set_contents", "12 02 03000000 78797a", "00"},
    {"set_text", "08 02 05000000 68656c6c6f", "00"},
    {"set_form",
     "09 03 18000000 040000000200000001000000000000000800000000000000", "00"},
    {"add_children_multi_2", "35 01 01 01 02", "00"},
    {"add_children_multi_3", "35 01 01 01 03", "00"},
    {"add_parts_multi_4", "36 01 01 01 04", "00"},
    {"add_parts_multi_2", "36 01 04 01 02", "00"},
    {"add_refs_multi_2_3", "37 01 02 01 03 01 06 01 07", "00"},
    {"add_refs_multi_3_4", "37 01 03 01 04 01 00 01 02", "00"},
    {"set_attr", "0e 04 01 0e", "00"},
    {"commit", "04", "00"},
    {"get_attr", "0d 04 01", "00 0e"},
    {"get_attr_missing", "0d 63 01",
     "01 130000006e6f2073756368206e6f646520726566203939"},
    {"get_kind", "0f 03", "00 02"},
    {"get_text", "10 02", "00 0500000068656c6c6f"},
    {"get_form", "11 03",
     "00 18000000040000000200000001000000000000000800000000000000"},
    {"get_contents", "13 02", "00 0500000068656c6c6f"},
    {"lookup_unique", "14 06", "00 03"},
    {"lookup_unique_missing", "14 c601",
     "01 180000006e6f206e6f6465207769746820756e697175654964203939"},
    {"range_hundred", "15 14 3c", "00 03010203"},
    {"range_million", "16 d00f c03e", "00 0401020304"},
    {"children", "17 01", "00 020203"},
    {"parent", "18 02", "00 01"},
    {"parts", "19 01", "00 0104"},
    {"part_of", "1a 02", "00 0104"},
    {"refs_to", "1b 02", "00 01030607"},
    {"refs_from", "1c 03", "00 01020607"},
    {"storage_bytes", "1d", "00 a509"},
    {"children_multi", "1f 02 01 04", "00 0202020300"},
    {"get_attrs_multi", "20 02 04 01 02 03 04", "00 0414283c50"},
    {"parts_multi", "30 02 01 04", "00 02 0104 0102"},
    {"refs_to_multi", "31 02 02 03", "00 02 01030607 01040002"},
    {"children_attrs_multi", "33 02 02 01 04", "00 02 020203 00 02 14 50"},
    {"closure_1n", "21 01", "00 03010203"},
    {"closure_mn", "22 01", "00 03010402"},
    {"closure_mn_att", "23 02 02", "00 03020304"},
    {"closure_1n_att_sum", "24 01", "00 0378"},
    {"closure_1n_pred", "26 01 a01f a01f", "00 020103"},
    {"closure_mn_att_link_sum", "27 02 03", "00 03020003070405"},
    {"closure_1n_att_set", "25 01", "00 03"},
    {"set_attrs_multi", "32 01 02 01 02 02 0a 0c", "00"},
    {"stats", "28", nullptr},
    {"ping", "29", "00"},
    {"batch_retired", "1e 01 00000000",
     "03 1d000000 6e6f2063616c6c20666f72206f70636f64652033302028626174636829",
     false},
    {"create_node_retired", "07 02 02 14 c801 d00f 00 00",
     "03 22000000 "
     "6e6f2063616c6c20666f72206f70636f6465203720286372656174655f6e6f646529",
     false},
    {"add_child_retired", "0a 01 02",
     "03 21000000 "
     "6e6f2063616c6c20666f72206f70636f646520313020286164645f6368696c6429",
     false},
    {"add_part_retired", "0b 01 04",
     "03 20000000 "
     "6e6f2063616c6c20666f72206f70636f646520313120286164645f7061727429",
     false},
    {"add_ref_retired", "0c 02 03 06 07",
     "03 1f000000 "
     "6e6f2063616c6c20666f72206f70636f646520313220286164645f72656629",
     false},
    {"shard_info", "2a", "00 0001"},
    {"begin_again", "03", "00"},
    {"abort", "05",
     "09 390000006d656d206261636b656e6420686173206e6f207472616e73616374696f6"
     "e20726f6c6c6261636b2028696d6167652073656d616e7469637329"},
    {"close_reopen", "06", "00"},
    {"repl_subscribe", "2b 0b 09 00", "00 01998080802002"},
    {"repl_segment", "2c 02 00 10",
     "00 001910000000110000006919f84d0500000000000000"},
    {"repl_status_ack", "2d 09 05", "00 01019980808020"},
    {"repl_status_query", "2d 00 00", "00 01019980808020"},
    {"repl_promote", "2e 01", "00 01"},
    {"repl_fence", "2f 01", "00 01"},
    {"reset_dirty", "02", "00"},
    {"begin_load", "03", "00"},
    {"create_nodes_multi",
     "34 03 02 02 14 c801 d00f 00  04 04 28 9003 a01f 01  06 06 3c d804 f02e 02"
     "   03 00 01 01"
     "   03 00000000 05000000 68656c6c6f"
     "      18000000 040000000200000001000000000000000800000000000000",
     "00 03 01 02 03"},
    {"add_children_multi", "35 02 01 01 02 02 03", "00"},
    {"add_parts_multi", "36 02 01 03 02 03 02", "00"},
    {"add_refs_multi", "37 02 02 03 02 03 01 02 06 00 02 07 02", "00"},
    {"commit_load", "04", "00"},
    {"children_loaded", "17 01", "00 020203"},
    {"refs_from_loaded", "1c 01", "00 01030002"},
};

std::string Unhex(std::string_view hex) {
  std::string out;
  int high = -1;
  for (char c : hex) {
    if (c == ' ') continue;
    const int nibble = c <= '9' ? c - '0' : c - 'a' + 10;
    if (high < 0) {
      high = nibble;
    } else {
      out.push_back(static_cast<char>(high << 4 | nibble));
      high = -1;
    }
  }
  return out;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

/// Reads one frame from `fd` into `*payload`, buffering in `*rx`.
bool ReadFrame(int fd, std::string* rx, std::string* payload) {
  char buf[4096];
  for (;;) {
    std::string_view view;
    size_t frame_len = 0;
    FrameResult decoded = DecodeFrame(*rx, &view, &frame_len);
    if (decoded == FrameResult::kOk) {
      payload->assign(view);
      rx->erase(0, frame_len);
      return true;
    }
    if (decoded != FrameResult::kIncomplete) return false;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    rx->append(buf, static_cast<size_t>(n));
  }
}

bool WriteFrame(int fd, std::string_view payload) {
  std::string frame;
  AppendFrame(&frame, payload);
  return WriteAll(fd, frame);
}

class WireGoldenTest : public ::testing::Test {
 protected:
  test::TestDir tmp_{"hm_wire_golden"};
  const std::string dir_ = tmp_.path();
};

TEST_F(WireGoldenTest, ServerAnswersEveryOpcodeWithRecordedBytes) {
  // The replication opcodes need a role: a primary Coordinator shipping
  // the WAL of its own (empty) oodb store, next to the MemStore served.
  backends::OodbOptions oodb_options;
  oodb_options.checkpoint_interval_ms = 0;
  auto oodb = backends::OodbStore::Open(oodb_options, dir_ + "/oodb");
  ASSERT_TRUE(oodb.ok()) << oodb.status().ToString();
  // repl_subscribe registers a follower that never acks past what
  // repl_status_ack says, so the next commit that writes waits out the
  // semi-sync timeout and degrades; a short timeout keeps that wait
  // from dominating the test.
  replication::CoordinatorOptions coordinator_options;
  coordinator_options.state_dir = dir_;
  coordinator_options.semisync_timeout_ms = 20;
  auto coordinator =
      replication::Coordinator::Open(coordinator_options, false);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  ASSERT_TRUE((*coordinator)->ServePrimary(oodb->get(), true).ok());

  ServerOptions options;
  options.reset_factory = []() -> util::Result<std::unique_ptr<HyperStore>> {
    return std::unique_ptr<HyperStore>(
        std::make_unique<backends::MemStore>());
  };
  options.replication = coordinator->get();
  auto srv =
      Server::Start(options, std::make_unique<backends::MemStore>());
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*srv)->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const telemetry::Counter* semisync_timeouts =
      telemetry::Registry::Global().GetCounter(
          "replication.semisync_timeouts");
  std::vector<std::string> degraded;  // the steps that waited one out
  std::string rx;
  for (const GoldenStep& step : kGolden) {
    const uint64_t timeouts = semisync_timeouts->value();
    ASSERT_TRUE(WriteFrame(fd, Unhex(step.request))) << step.name;
    std::string response;
    ASSERT_TRUE(ReadFrame(fd, &rx, &response)) << step.name;
    if (semisync_timeouts->value() != timeouts) {
      EXPECT_EQ(semisync_timeouts->value(), timeouts + 1) << step.name;
      degraded.push_back(step.name);
    }
    if (step.response == nullptr) {
      ASSERT_FALSE(response.empty());
      EXPECT_EQ(response[0], static_cast<char>(util::StatusCode::kOk));
      EXPECT_TRUE(telemetry::Snapshot::Deserialize(response.substr(1)).ok());
      continue;
    }
    EXPECT_EQ(Hex(response), Hex(Unhex(step.response))) << step.name;
  }
  EXPECT_EQ(degraded, std::vector<std::string>{"commit_load"});
  ::close(fd);
  (*srv)->Stop();
}


/// The pointee of a member function's last parameter: names the
/// replication out-structs of RemoteStore without spelling their home.
template <typename>
struct OutParam;
template <typename R, typename C, typename... A>
struct OutParam<R (C::*)(A...)> {
  using type = std::remove_pointer_t<
      std::tuple_element_t<sizeof...(A) - 1, std::tuple<A...>>>;
};

TEST(WireGoldenClientTest, RemoteStoreSendsAndDecodesRecordedBytes) {
  // A scripted peer answers each recorded request with its recorded
  // response, so every RemoteStore method must put exactly the
  // recorded bytes on the wire and decode the recorded reply.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::thread peer([listener] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string rx;
    for (const GoldenStep& step : kGolden) {
      // The client skips kStats and the retired opcodes.
      if (step.response == nullptr || !step.client_sends) continue;
      std::string request;
      if (!ReadFrame(fd, &rx, &request)) break;
      EXPECT_EQ(Hex(request), Hex(Unhex(step.request))) << step.name;
      std::string response = Unhex(step.response);
      if (request != Unhex(step.request)) {
        response.clear();
        PutStatus(&response, util::Status::Internal(step.name));
      }
      if (!WriteFrame(fd, response)) break;
    }
    ::close(fd);
  });

  backends::RemoteOptions options;
  options.port = ntohs(addr.sin_port);
  options.max_retries = 0;
  auto connected = backends::RemoteStore::Connect(options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  backends::RemoteStore& store = **connected;
  EXPECT_EQ(store.server_backend(), "mem");

  auto attrs = [](int64_t i, NodeKind kind) {
    return NodeAttrs{i, i, 10 * i, 100 * i, 1000 * i, kind};
  };
  util::Bitmap form(4, 2);
  form.Set(0, 0, true);
  form.Set(3, 1, true);
  EXPECT_TRUE(store.ResetServer().ok());
  EXPECT_TRUE(store.Begin().ok());
  EXPECT_EQ(store.CreateNode(attrs(1, NodeKind::kInternal), 0).ValueOr(0), 1u);
  EXPECT_EQ(store.CreateNode(attrs(2, NodeKind::kText), 1).ValueOr(0), 2u);
  EXPECT_EQ(store.CreateNode(attrs(3, NodeKind::kForm), 1).ValueOr(0), 3u);
  EXPECT_EQ(store.CreateNode(attrs(4, NodeKind::kInternal), 1).ValueOr(0),
            4u);
  EXPECT_TRUE(store.SetContents(2, "xyz").ok());
  EXPECT_TRUE(store.SetText(2, "hello").ok());
  EXPECT_TRUE(store.SetForm(3, form).ok());
  EXPECT_TRUE(store.AddChild(1, 2).ok());
  EXPECT_TRUE(store.AddChild(1, 3).ok());
  EXPECT_TRUE(store.AddPart(1, 4).ok());
  EXPECT_TRUE(store.AddPart(4, 2).ok());
  EXPECT_TRUE(store.AddRef(2, 3, 3, -4).ok());
  EXPECT_TRUE(store.AddRef(3, 4, 0, 1).ok());
  EXPECT_TRUE(store.SetAttr(4, Attr::kTen, 7).ok());
  EXPECT_TRUE(store.Commit().ok());

  EXPECT_EQ(store.GetAttr(4, Attr::kTen).ValueOr(0), 7);
  EXPECT_TRUE(store.GetAttr(99, Attr::kTen).status().IsNotFound());
  EXPECT_EQ(store.GetKind(3).ValueOr(NodeKind::kInternal), NodeKind::kForm);
  EXPECT_EQ(store.GetText(2).ValueOr(""), "hello");
  auto got_form = store.GetForm(3);
  ASSERT_TRUE(got_form.ok());
  EXPECT_EQ(got_form->Serialize(), form.Serialize());
  EXPECT_EQ(store.GetContents(2).ValueOr(""), "hello");
  EXPECT_EQ(store.LookupUnique(3).ValueOr(0), 3u);
  EXPECT_TRUE(store.LookupUnique(99).status().IsNotFound());
  using Refs = std::vector<NodeRef>;
  Refs refs;
  EXPECT_TRUE(store.RangeHundred(10, 30, &refs).ok());
  EXPECT_EQ(refs, (Refs{1, 2, 3}));
  refs.clear();
  EXPECT_TRUE(store.RangeMillion(1000, 4000, &refs).ok());
  EXPECT_EQ(refs, (Refs{1, 2, 3, 4}));
  refs.clear();
  EXPECT_TRUE(store.Children(1, &refs).ok());
  EXPECT_EQ(refs, (Refs{2, 3}));
  EXPECT_EQ(store.Parent(2).ValueOr(0), 1u);
  refs.clear();
  EXPECT_TRUE(store.Parts(1, &refs).ok());
  EXPECT_EQ(refs, (Refs{4}));
  refs.clear();
  EXPECT_TRUE(store.PartOf(2, &refs).ok());
  EXPECT_EQ(refs, (Refs{4}));
  auto edge_key = [](const std::vector<RefEdge>& edges) {
    std::vector<std::tuple<NodeRef, int64_t, int64_t>> keys;
    for (const RefEdge& e : edges) {
      keys.emplace_back(e.node, e.offset_from, e.offset_to);
    }
    return keys;
  };
  using EdgeKeys = std::vector<std::tuple<NodeRef, int64_t, int64_t>>;
  std::vector<RefEdge> edges;
  EXPECT_TRUE(store.RefsTo(2, &edges).ok());
  EXPECT_EQ(edge_key(edges), (EdgeKeys{{3, 3, -4}}));
  edges.clear();
  EXPECT_TRUE(store.RefsFrom(3, &edges).ok());
  EXPECT_EQ(edge_key(edges), (EdgeKeys{{2, 3, -4}}));
  EXPECT_EQ(store.StorageBytes().ValueOr(0), 1189u);

  const Refs pair{1, 4};
  RefLists lists;
  EXPECT_TRUE(store.ChildrenMulti(pair, &lists).ok());
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_EQ(Refs(lists[0].begin(), lists[0].end()), (Refs{2, 3}));
  EXPECT_TRUE(lists[1].empty());
  std::vector<int64_t> values;
  EXPECT_TRUE(
      store.GetAttrsMulti(Refs{1, 2, 3, 4}, Attr::kHundred, &values).ok());
  EXPECT_EQ(values, (std::vector<int64_t>{10, 20, 30, 40}));
  EXPECT_TRUE(store.PartsMulti(pair, &lists).ok());
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_EQ(Refs(lists[0].begin(), lists[0].end()), (Refs{4}));
  EXPECT_EQ(Refs(lists[1].begin(), lists[1].end()), (Refs{2}));
  EdgeLists edge_lists;
  EXPECT_TRUE(store.RefsToMulti(Refs{2, 3}, &edge_lists).ok());
  ASSERT_EQ(edge_lists.size(), 2u);
  EXPECT_EQ(edge_lists.items.size(), 2u);
  EXPECT_EQ(edge_lists.items[1].node, 4u);
  EXPECT_EQ(edge_lists.items[1].offset_to, 1);
  EXPECT_TRUE(
      store.ChildrenAttrsMulti(pair, Attr::kHundred, &lists, &values).ok());
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_EQ(Refs(lists[0].begin(), lists[0].end()), (Refs{2, 3}));
  EXPECT_TRUE(lists[1].empty());
  EXPECT_EQ(values, (std::vector<int64_t>{10, 40}));

  EXPECT_TRUE(store.TravClosure1N(1, &refs).ok());
  EXPECT_EQ(refs, (Refs{1, 2, 3}));
  EXPECT_TRUE(store.TravClosureMN(1, &refs).ok());
  EXPECT_EQ(refs, (Refs{1, 4, 2}));
  EXPECT_TRUE(store.TravClosureMNAtt(2, 2, &refs).ok());
  EXPECT_EQ(refs, (Refs{2, 3, 4}));
  uint64_t visited = 0;
  EXPECT_EQ(store.TravClosure1NAttSum(1, &visited).ValueOr(0), 60);
  EXPECT_EQ(visited, 3u);
  EXPECT_TRUE(store.TravClosure1NPred(1, 2000, 2000, &refs).ok());
  EXPECT_EQ(refs, (Refs{1, 3}));
  std::vector<NodeDistance> dists;
  EXPECT_TRUE(store.TravClosureMNAttLinkSum(2, 3, &dists).ok());
  ASSERT_EQ(dists.size(), 3u);
  EXPECT_EQ(dists[1].node, 3u);
  EXPECT_EQ(dists[1].distance, -4);
  EXPECT_EQ(dists[2].distance, -3);
  EXPECT_EQ(store.TravClosure1NAttSet(1).ValueOr(0), 3u);
  const std::vector<int64_t> new_tens{5, 6};
  EXPECT_TRUE(store.SetAttrsMulti(Refs{1, 2}, Attr::kTen, new_tens).ok());

  EXPECT_TRUE(store.Ping().ok());
  uint32_t shard_id = 9;
  uint32_t shard_count = 9;
  EXPECT_TRUE(store.ShardInfo(&shard_id, &shard_count).ok());
  EXPECT_EQ(shard_id, 0u);
  EXPECT_EQ(shard_count, 1u);
  EXPECT_TRUE(store.Begin().ok());
  EXPECT_EQ(store.Abort().code(), util::StatusCode::kNotSupported);
  EXPECT_TRUE(store.CloseReopen().ok());

  const uint64_t next_lsn = (uint64_t{2} << 32) | 25;
  OutParam<decltype(&backends::RemoteStore::ReplSubscribe)>::type chain;
  EXPECT_TRUE(store.ReplSubscribe(9, 0, &chain).ok());
  EXPECT_EQ(chain.epoch, 1u);
  EXPECT_EQ(chain.next_lsn, next_lsn);
  EXPECT_EQ(chain.oldest_seq, 2u);
  std::string chunk;
  bool sealed = true;
  uint64_t flushed = 0;
  EXPECT_TRUE(store.ReplFetch(2, 0, 16, &chunk, &sealed, &flushed).ok());
  EXPECT_FALSE(sealed);
  EXPECT_EQ(flushed, 25u);
  EXPECT_EQ(Hex(chunk), "110000006919f84d0500000000000000");
  OutParam<decltype(&backends::RemoteStore::ReplReport)>::type peer_state;
  EXPECT_TRUE(store.ReplReport(9, 5, &peer_state).ok());
  EXPECT_TRUE(store.ReplReport(0, 0, &peer_state).ok());
  EXPECT_EQ(peer_state.role, 1u);
  EXPECT_EQ(peer_state.epoch, 1u);
  EXPECT_EQ(peer_state.durable_lsn, next_lsn);
  uint64_t epoch = 0;
  EXPECT_TRUE(store.ReplPromote(1, &epoch).ok());
  EXPECT_EQ(epoch, 1u);
  epoch = 0;
  EXPECT_TRUE(store.ReplFence(1, &epoch).ok());
  EXPECT_EQ(epoch, 1u);
  EXPECT_TRUE(store.ResetServer().ok());

  EXPECT_TRUE(store.Begin().ok());
  const NodeAttrs load_attrs[] = {attrs(1, NodeKind::kInternal),
                                  attrs(2, NodeKind::kText),
                                  attrs(3, NodeKind::kForm)};
  const std::string form_bytes = form.Serialize();
  const std::string_view contents[] = {"", "hello", form_bytes};
  Refs created;
  EXPECT_TRUE(
      store.CreateNodesMulti(load_attrs, Refs{0, 1, 1}, contents, &created)
          .ok());
  EXPECT_EQ(created, (Refs{1, 2, 3}));
  EXPECT_TRUE(store.AddChildrenMulti(Refs{1, 1}, Refs{2, 3}).ok());
  EXPECT_TRUE(store.AddPartsMulti(Refs{1, 3}, Refs{3, 2}).ok());
  const std::vector<int64_t> offsets_from{3, 0};
  const std::vector<int64_t> offsets_to{-4, 1};
  EXPECT_TRUE(
      store.AddRefsMulti(Refs{2, 3}, Refs{3, 1}, offsets_from, offsets_to)
          .ok());
  EXPECT_TRUE(store.Commit().ok());
  refs.clear();
  EXPECT_TRUE(store.Children(1, &refs).ok());
  EXPECT_EQ(refs, (Refs{2, 3}));
  edges.clear();
  EXPECT_TRUE(store.RefsFrom(1, &edges).ok());
  EXPECT_EQ(edge_key(edges), (EdgeKeys{{3, 0, 1}}));

  connected->reset();
  peer.join();
  ::close(listener);
}

TEST(WireGoldenClientTest, RemoteStoreDecodesAReplySplitAcrossWaits) {
  // A scripted peer answers Hello whole, then sends its kPing reply in
  // two pieces with a pause far past the spin budget between them: the
  // client's receive loop must join them into the one reply.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const GoldenStep& hello = kGolden[0];
  std::thread peer([listener, &hello] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string rx;
    std::string request;
    if (ReadFrame(fd, &rx, &request) &&
        WriteFrame(fd, Unhex(hello.response)) &&
        ReadFrame(fd, &rx, &request)) {
      EXPECT_EQ(Hex(request), Hex(Unhex("29")));  // kPing
      std::string frame;
      AppendFrame(&frame, Unhex("00"));
      const std::string_view bytes(frame);
      EXPECT_TRUE(WriteAll(fd, bytes.substr(0, kFrameHeaderBytes / 2)));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_TRUE(WriteAll(fd, bytes.substr(kFrameHeaderBytes / 2)));
      ReadFrame(fd, &rx, &request);  // until the client hangs up
    }
    ::close(fd);
  });

  backends::RemoteOptions options;
  options.port = ntohs(addr.sin_port);
  options.max_retries = 0;
  auto connected = backends::RemoteStore::Connect(options);
  EXPECT_TRUE(connected.ok()) << connected.status().ToString();
  if (connected.ok()) {
    util::Status ping = (*connected)->Ping();
    EXPECT_TRUE(ping.ok()) << ping.ToString();
    connected->reset();
  }
  peer.join();
  ::close(listener);
}
}  // namespace
}  // namespace hm::server
