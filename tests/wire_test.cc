// Frame-level tests for the client/server wire protocol: encode/decode
// round trips, incremental (partial-read) decoding, and rejection of
// truncated, corrupted and oversized frames.

#include "server/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/coding.h"
#include "util/status.h"

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
  constexpr auto kLast =
      static_cast<uint8_t>(util::StatusCode::kVersionMismatch);
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

TEST(WireBatchTest, RoundTripsSubRequests) {
  std::vector<std::string> entries{"first", "", "third with \x00 byte"};
  std::string body;
  EncodeBatch(entries, &body);
  std::vector<std::string_view> decoded;
  ASSERT_TRUE(DecodeBatch(body, &decoded));
  ASSERT_EQ(decoded.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i], entries[i]) << "entry " << i;
  }
}

TEST(WireBatchTest, RoundTripsEmptyBatch) {
  std::string body;
  EncodeBatch({}, &body);
  std::vector<std::string_view> decoded{"stale"};
  ASSERT_TRUE(DecodeBatch(body, &decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(WireBatchTest, RejectsOversizedBatch) {
  // A count over the cap is rejected before any entry is touched —
  // a hostile header cannot make the server reserve gigabytes.
  std::string body;
  util::PutVarint64(&body, kMaxBatchEntries + 1);
  std::vector<std::string_view> decoded;
  EXPECT_FALSE(DecodeBatch(body, &decoded));
  // At the cap exactly, the count is fine (the entries just have to
  // actually be there — zero of them is a lie).
  body.clear();
  util::PutVarint64(&body, kMaxBatchEntries);
  EXPECT_FALSE(DecodeBatch(body, &decoded));
  // A caller-supplied tighter limit is honored too.
  std::vector<std::string> entries{"a", "b", "c"};
  body.clear();
  EncodeBatch(entries, &body);
  EXPECT_FALSE(DecodeBatch(body, &decoded, /*max_entries=*/2));
  EXPECT_TRUE(DecodeBatch(body, &decoded, /*max_entries=*/3));
}

TEST(WireBatchTest, RejectsTruncatedSubRequest) {
  std::vector<std::string> entries{"complete", "also complete"};
  std::string body;
  EncodeBatch(entries, &body);
  // Every proper prefix is malformed: either the count promises more
  // entries than present, or an entry's bytes are cut short.
  for (size_t len = 0; len < body.size(); ++len) {
    std::vector<std::string_view> decoded;
    EXPECT_FALSE(DecodeBatch(body.substr(0, len), &decoded))
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireBatchTest, RejectsTrailingGarbage) {
  std::vector<std::string> entries{"payload"};
  std::string body;
  EncodeBatch(entries, &body);
  body.push_back('\x7f');
  std::vector<std::string_view> decoded;
  EXPECT_FALSE(DecodeBatch(body, &decoded));
}

TEST(WireBatchTest, FrameCrcCoversBatchContents) {
  // A bit flip inside a sub-request of a framed batch is caught by the
  // frame CRC — corruption cannot surface as a decoded batch entry.
  std::vector<std::string> entries{"sub-request one", "sub-request two"};
  std::string body;
  EncodeBatch(entries, &body);
  std::string frame;
  AppendFrame(&frame, body);
  frame[frame.size() / 2] ^= 0x01;  // flip a bit inside the batch body
  std::string_view payload;
  size_t frame_len = 0;
  EXPECT_EQ(DecodeFrame(frame, &payload, &frame_len),
            FrameResult::kCorrupt);
}

}  // namespace
}  // namespace hm::server
