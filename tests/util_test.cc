// Unit tests for src/util: Status/Result, PRNG, coding, CRC32, Bitmap,
// text generation and statistics.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "storage/page.h"
#include "util/bitmap.h"
#include "util/check.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/status.h"
#include "util/text.h"
#include "util/timer.h"

namespace hm::util {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing node 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing node 42");
  EXPECT_EQ(s.ToString(), "NotFound: missing node 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= 10; ++code) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(code)), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Conflict("x"), Status::Conflict("x"));
  EXPECT_FALSE(Status::Conflict("x") == Status::Conflict("y"));
  EXPECT_FALSE(Status::Conflict("x") == Status::NotFound("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.ValueOr(99), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IoError("disk gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(r.ValueOr(99), 99);
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

Status FailingHelper() { return Status::Corruption("bad"); }

Status PropagateHelper() {
  HM_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(PropagateHelper().IsCorruption());
}

Result<int> GiveSeven() { return 7; }

Status AssignHelper(int* out) {
  HM_ASSIGN_OR_RETURN(*out, GiveSeven());
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnAssigns) {
  int out = 0;
  ASSERT_TRUE(AssignHelper(&out).ok());
  EXPECT_EQ(out, 7);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(42, 42), 42);
  }
}

TEST(RngTest, UniformIntCoversWholeRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    seen.insert(rng.UniformInt(1, 10));
  }
  EXPECT_EQ(seen.size(), 10u);  // the paper's ten-attribute interval
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  // Chi-squared-lite: each of 10 buckets should get ~1000 of 10000.
  Rng rng(13);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.UniformInt(0, 9)];
  }
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 800) << "bucket " << value;
    EXPECT_LT(count, 1200) << "bucket " << value;
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng rng(55);
  uint64_t first = rng.Next64();
  rng.Next64();
  rng.Seed(55);
  EXPECT_EQ(rng.Next64(), first);
}

// ---------- Coding ----------

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0xDEADBEEFCAFEF00DULL);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(DecodeFixed64(buf.data()), 0xDEADBEEFCAFEF00DULL);
}

TEST(CodingTest, Fixed32And16RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0x12345678U);
  PutFixed16(&buf, 0xABCD);
  Decoder dec(buf);
  uint32_t v32;
  uint16_t v16;
  ASSERT_TRUE(dec.GetFixed32(&v32));
  ASSERT_TRUE(dec.GetFixed16(&v16));
  EXPECT_EQ(v32, 0x12345678U);
  EXPECT_EQ(v16, 0xABCD);
  EXPECT_TRUE(dec.Empty());
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Decoder dec(buf);
  std::string_view a, b, c;
  ASSERT_TRUE(dec.GetLengthPrefixed(&a));
  ASSERT_TRUE(dec.GetLengthPrefixed(&b));
  ASSERT_TRUE(dec.GetLengthPrefixed(&c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_TRUE(dec.Empty());
}

TEST(CodingTest, DecoderRejectsTruncation) {
  std::string buf;
  PutFixed64(&buf, 42);
  Decoder dec(std::string_view(buf).substr(0, 5));
  uint64_t v;
  EXPECT_FALSE(dec.GetFixed64(&v));
}

TEST(CodingTest, DecoderRejectsBadLengthPrefix) {
  std::string buf;
  PutFixed32(&buf, 1000);  // claims 1000 bytes, provides none
  Decoder dec(buf);
  std::string_view sv;
  EXPECT_FALSE(dec.GetLengthPrefixed(&sv));
}

TEST(CodingTest, DecoderSkip) {
  std::string buf = "abcdef";
  Decoder dec(buf);
  ASSERT_TRUE(dec.Skip(4));
  EXPECT_EQ(dec.Remaining(), 2u);
  EXPECT_FALSE(dec.Skip(3));
}

// Shift-edge regression: the 10-byte encoding of UINT64_MAX ends with
// a 63-bit shift, and the one-past values must fail as overlong, not
// wrap. Run under -DHM_SANITIZE=undefined this pins the decode loop's
// shift arithmetic.
TEST(CodingTest, Varint64EncodingBoundaries) {
  const uint64_t edges[] = {0,       127,        128,
                            16383,   16384,      (1ULL << 63) - 1,
                            1ULL << 63, UINT64_MAX};
  for (uint64_t value : edges) {
    std::string buf;
    PutVarint64(&buf, value);
    Decoder dec(buf);
    uint64_t decoded = 0;
    ASSERT_TRUE(dec.GetVarint64(&decoded)) << value;
    EXPECT_EQ(decoded, value);
    EXPECT_TRUE(dec.Empty());
  }
  std::string max_buf;
  PutVarint64(&max_buf, UINT64_MAX);
  EXPECT_EQ(max_buf.size(), 10u);
}

TEST(CodingTest, Varint64RejectsOverlongAndTruncated) {
  // Ten continuation bytes: more than 64 bits of payload.
  std::string overlong(10, static_cast<char>(0x80));
  uint64_t v = 0;
  EXPECT_FALSE(Decoder(overlong).GetVarint64(&v));
  // Continuation bit set but the buffer ends.
  std::string truncated(3, static_cast<char>(0x80));
  EXPECT_FALSE(Decoder(truncated).GetVarint64(&v));
}

// Zig-zag must round-trip the extremes: INT64_MIN exercises the
// signed->unsigned cast and the arithmetic shift by 63.
TEST(CodingTest, VarSigned64ExtremesRoundTrip) {
  const int64_t edges[] = {0, -1, 1, INT64_MIN, INT64_MAX,
                           INT64_MIN + 1, -1000000};
  for (int64_t value : edges) {
    std::string buf;
    PutVarSigned64(&buf, value);
    Decoder dec(buf);
    int64_t decoded = 0;
    ASSERT_TRUE(dec.GetVarSigned64(&decoded)) << value;
    EXPECT_EQ(decoded, value);
  }
  // Small magnitudes stay small on the wire — the point of zig-zag.
  std::string buf;
  PutVarSigned64(&buf, -5);
  EXPECT_EQ(buf.size(), 1u);
}

// ---------- CRC32 ----------

TEST(Crc32Test, KnownVector) {
  // Standard check value for "123456789" under CRC-32/IEEE.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926U);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(""), 0u); }

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(100, 'a');
  uint32_t before = Crc32(data);
  data[50] ^= 1;
  EXPECT_NE(Crc32(data), before);
}

// Bit-at-a-time CRC-32/IEEE, the definition the table-driven Crc32
// must reproduce byte for byte.
uint32_t ReferenceCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFU;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320U : 0);
    }
  }
  return ~crc;
}

std::string PseudoRandomBytes(size_t n) {
  std::string bytes(n, '\0');
  uint32_t x = 0x9E3779B9U;
  for (char& c : bytes) {
    x = x * 1664525U + 1013904223U;
    c = static_cast<char>(x >> 24);
  }
  return bytes;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Start offsets 0..15 put the word loads at every alignment.
  const std::string buffer = PseudoRandomBytes(1100 + 16);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      std::string_view data(buffer.data() + offset, len);
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, SeedChainsAtEverySplitPoint) {
  const std::string buffer = PseudoRandomBytes(1100);
  const std::string_view all(buffer);
  const uint32_t whole = Crc32(all);
  for (size_t split = 0; split <= all.size(); ++split) {
    ASSERT_EQ(Crc32(all.substr(split), Crc32(all.substr(0, split))), whole)
        << "split " << split;
  }
}

TEST(Crc32Test, GoldenPageChecksumIsUnchanged) {
  // The masked checksum stored for this page, computed with the
  // byte-at-a-time implementation. Any change here is an on-disk
  // format change: every existing page would fail to verify.
  storage::Page page;
  for (size_t i = 0; i < storage::kPageSize; ++i) {
    page.raw()[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  page.UpdateChecksum();
  EXPECT_EQ(DecodeFixed32(page.raw()), 0x31F28A46U);
  EXPECT_TRUE(page.ChecksumOk());
}

TEST(Crc32Test, MaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xFFFFFFFFu, 0x12345678u}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

// ---------- Bitmap ----------

TEST(BitmapTest, StartsAllWhite) {
  Bitmap bm(100, 100);
  EXPECT_EQ(bm.PopCount(), 0u);
  EXPECT_FALSE(bm.Get(0, 0));
  EXPECT_FALSE(bm.Get(99, 99));
}

TEST(BitmapTest, SetAndGet) {
  Bitmap bm(70, 30);  // width not a multiple of 64
  bm.Set(69, 29, true);
  bm.Set(0, 0, true);
  EXPECT_TRUE(bm.Get(69, 29));
  EXPECT_TRUE(bm.Get(0, 0));
  EXPECT_EQ(bm.PopCount(), 2u);
  bm.Set(0, 0, false);
  EXPECT_EQ(bm.PopCount(), 1u);
}

TEST(BitmapTest, InvertRectCountsBits) {
  Bitmap bm(400, 400);
  ASSERT_TRUE(bm.InvertRect(10, 20, 50, 25).ok());
  EXPECT_EQ(bm.PopCount(), 50u * 25u);
}

TEST(BitmapTest, InvertRectIsSelfInverse) {
  // The formNodeEdit warm run relies on this.
  Bitmap bm(128, 128);
  bm.Set(5, 5, true);
  Bitmap before = bm;
  ASSERT_TRUE(bm.InvertRect(3, 3, 40, 40).ok());
  EXPECT_NE(bm, before);
  ASSERT_TRUE(bm.InvertRect(3, 3, 40, 40).ok());
  EXPECT_EQ(bm, before);
}

TEST(BitmapTest, InvertRectOutOfBoundsRejected) {
  Bitmap bm(100, 100);
  EXPECT_FALSE(bm.InvertRect(90, 90, 20, 20).ok());
  EXPECT_EQ(bm.PopCount(), 0u);  // untouched on failure
}

TEST(BitmapTest, InvertRectCrossesWordBoundaries) {
  Bitmap bm(200, 4);
  ASSERT_TRUE(bm.InvertRect(60, 0, 70, 4).ok());  // spans words 0,1,2
  EXPECT_EQ(bm.PopCount(), 70u * 4u);
  for (uint32_t x = 0; x < 200; ++x) {
    EXPECT_EQ(bm.Get(x, 1), x >= 60 && x < 130) << "x=" << x;
  }
}

TEST(BitmapTest, SerializeRoundTrip) {
  Bitmap bm(130, 77);
  bm.Set(129, 76, true);
  bm.Set(64, 0, true);
  auto round = Bitmap::Deserialize(bm.Serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round, bm);
}

TEST(BitmapTest, DeserializeRejectsTruncated) {
  Bitmap bm(100, 100);
  std::string bytes = bm.Serialize();
  EXPECT_FALSE(Bitmap::Deserialize(bytes.substr(0, 4)).ok());
  EXPECT_FALSE(
      Bitmap::Deserialize(bytes.substr(0, bytes.size() - 1)).ok());
}

// A header is checked against the body before anything is allocated:
// text read as a header claims ~2^57 bytes of rows.
TEST(BitmapTest, DeserializeRefusesAHeaderTheBodyCannotHold) {
  auto text = Bitmap::Deserialize("not a bitmap");
  EXPECT_TRUE(text.status().IsCorruption()) << text.status().ToString();
}

// A width near 2^32 needs 2^26 words a row; counted in 32 bits it
// wrapped to none, and the bitmap decoded with no storage at all.
TEST(BitmapTest, DeserializeCountsRowWordsWithoutWrapping) {
  auto wide = Bitmap::Deserialize(std::string(12, '\xFF'));
  EXPECT_TRUE(wide.status().IsCorruption()) << wide.status().ToString();
  // The same width with no rows claims no storage, and round-trips.
  std::string empty;
  PutFixed32(&empty, 0xFFFFFFFFu);
  PutFixed32(&empty, 0);
  auto round = Bitmap::Deserialize(empty);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->width(), 0xFFFFFFFFu);
  EXPECT_EQ(round->height(), 0u);
  EXPECT_EQ(round->Serialize(), empty);
}

TEST(BitmapTest, InvertRectRefusesARectThatWrapsTheBounds) {
  Bitmap bm(100, 100);
  EXPECT_FALSE(bm.InvertRect(10, 0, 0xFFFFFFFFu, 1).ok());
  EXPECT_FALSE(bm.InvertRect(0, 10, 1, 0xFFFFFFFFu).ok());
}

// Property sweep: inversion inverts exactly the rectangle, everywhere.
class BitmapRectTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BitmapRectTest, InvertExactlyTheRect) {
  uint32_t seed = GetParam();
  Rng rng(seed);
  uint32_t w = static_cast<uint32_t>(rng.UniformInt(100, 400));
  uint32_t h = static_cast<uint32_t>(rng.UniformInt(100, 400));
  Bitmap bm(w, h);
  uint32_t rw = static_cast<uint32_t>(rng.UniformInt(25, 50));
  uint32_t rh = static_cast<uint32_t>(rng.UniformInt(25, 50));
  uint32_t x = static_cast<uint32_t>(rng.UniformInt(0, w - rw));
  uint32_t y = static_cast<uint32_t>(rng.UniformInt(0, h - rh));
  ASSERT_TRUE(bm.InvertRect(x, y, rw, rh).ok());
  EXPECT_EQ(bm.PopCount(), static_cast<uint64_t>(rw) * rh);
  // Spot-check corners inside and outside.
  EXPECT_TRUE(bm.Get(x, y));
  EXPECT_TRUE(bm.Get(x + rw - 1, y + rh - 1));
  if (x > 0) EXPECT_FALSE(bm.Get(x - 1, y));
  if (y > 0) EXPECT_FALSE(bm.Get(x, y - 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapRectTest,
                         ::testing::Range(0u, 20u));

// ---------- Text ----------

TEST(TextTest, GeneratedTextMatchesSpec) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::string text = GenerateTextContents(&rng);
    // Split into words.
    std::vector<std::string> words;
    std::stringstream ss(text);
    std::string word;
    while (ss >> word) words.push_back(word);
    ASSERT_GE(words.size(), 10u);
    ASSERT_LE(words.size(), 100u);
    EXPECT_EQ(words.front(), "version1");
    EXPECT_EQ(words[words.size() / 2], "version1");
    EXPECT_EQ(words.back(), "version1");
    for (const std::string& w : words) {
      EXPECT_GE(w.size(), 1u);
      EXPECT_LE(w.size(), 10u);
      if (w == "version1") continue;
      for (char c : w) {
        EXPECT_GE(c, 'a');
        EXPECT_LE(c, 'z');
      }
    }
  }
}

TEST(TextTest, ReplaceAllBasic) {
  std::string s = "version1 foo version1 bar version1";
  EXPECT_EQ(ReplaceAll(&s, "version1", "version-2"), 3u);
  EXPECT_EQ(s, "version-2 foo version-2 bar version-2");
  EXPECT_EQ(ReplaceAll(&s, "version-2", "version1"), 3u);
  EXPECT_EQ(s, "version1 foo version1 bar version1");
}

TEST(TextTest, ReplaceAllHandlesGrowth) {
  // "version-2" is one character longer than "version1" (§6.7).
  std::string s(1, 'x');
  s = "version1version1";
  EXPECT_EQ(ReplaceAll(&s, "version1", "version-2"), 2u);
  EXPECT_EQ(s, "version-2version-2");
}

TEST(TextTest, ReplaceAllNoMatch) {
  std::string s = "nothing here";
  EXPECT_EQ(ReplaceAll(&s, "version1", "x"), 0u);
  EXPECT_EQ(s, "nothing here");
}

TEST(TextTest, ReplaceAllEmptyNeedleIsNoop) {
  std::string s = "abc";
  EXPECT_EQ(ReplaceAll(&s, "", "x"), 0u);
  EXPECT_EQ(s, "abc");
}

TEST(TextTest, CountOccurrences) {
  EXPECT_EQ(CountOccurrences("aaa", "aa"), 1u);  // non-overlapping
  EXPECT_EQ(CountOccurrences("version1 v version1", "version1"), 2u);
  EXPECT_EQ(CountOccurrences("abc", ""), 0u);
}

// ---------- Stats ----------

TEST(StatsTest, BasicMoments) {
  StatsAccumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) acc.Add(v);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.Min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 5.0);
  EXPECT_NEAR(acc.StdDev(), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(acc.Percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(1.0), 5.0);
}

TEST(StatsTest, EmptyIsZero) {
  StatsAccumulator acc;
  EXPECT_EQ(acc.Mean(), 0.0);
  EXPECT_EQ(acc.Percentile(0.5), 0.0);
  EXPECT_EQ(acc.StdDev(), 0.0);
}

// ---------- HM_CHECK ----------

TEST(CheckTest, PassingChecksAreSilent) {
  HM_CHECK(1 + 1 == 2);
  HM_CHECK_EQ(2 + 2, 4);
  HM_CHECK_NE(std::string("a"), std::string("b"));
  HM_CHECK_LT(1, 2);
  HM_CHECK_GE(2u, 2u);
}

TEST(CheckTest, OperandsAreEvaluatedOnce) {
  int calls = 0;
  auto next = [&calls] { return ++calls; };
  HM_CHECK_LE(next(), 10);
  EXPECT_EQ(calls, 1);
}

// The comparison macros report both operand values, GTest-style —
// "(3 vs 5)" — not just the failed expression text.
TEST(CheckDeathTest, ComparisonFailurePrintsOperands) {
  int lhs = 3;
  int rhs = 5;
  EXPECT_DEATH(HM_CHECK_EQ(lhs, rhs),
               "HM_CHECK failed: lhs == rhs \\(3 vs 5\\) at");
  EXPECT_DEATH(HM_CHECK_GT(lhs, rhs),
               "HM_CHECK failed: lhs > rhs \\(3 vs 5\\) at");
}

TEST(CheckDeathTest, StreamableOperandsPrintValues) {
  std::string got = "actual";
  EXPECT_DEATH(HM_CHECK_EQ(got, std::string("expected")),
               "\\(actual vs expected\\)");
}

TEST(CheckDeathTest, PlainCheckPrintsExpression) {
  EXPECT_DEATH(HM_CHECK(1 == 2), "HM_CHECK failed: 1 == 2 at");
  EXPECT_DEATH(HM_CHECK_MSG(false, "context %d", 7),
               "HM_CHECK failed: false at .*: context 7");
}

TEST(TimerTest, MeasuresElapsed) {
  Timer timer;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  EXPECT_GT(timer.ElapsedMicros(), 0.0);
  double first = timer.ElapsedMillis();
  double second = timer.ElapsedMillis();
  EXPECT_LE(first, second);  // monotone
  timer.Restart();
  EXPECT_LT(timer.ElapsedMillis(), first + 1000.0);
}

}  // namespace
}  // namespace hm::util
