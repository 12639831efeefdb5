#include "util/bitmap.h"

#include <bit>

#include "util/check.h"
#include "util/coding.h"

namespace hm::util {

namespace {

/// Words in a row `width` bits wide, counted in 64 bits so a width near
/// 2^32 does not wrap to zero.
uint32_t WordsPerRow(uint32_t width) {
  return static_cast<uint32_t>((uint64_t{width} + 63) / 64);
}

}  // namespace

Bitmap::Bitmap(uint32_t width, uint32_t height)
    : width_(width),
      height_(height),
      words_per_row_(WordsPerRow(width)),
      bits_(static_cast<size_t>(words_per_row_) * height, 0) {}

size_t Bitmap::WordIndex(uint32_t x, uint32_t y) const {
  return static_cast<size_t>(y) * words_per_row_ + x / 64;
}

uint64_t Bitmap::BitMask(uint32_t x) const { return 1ULL << (x % 64); }

uint64_t Bitmap::PopCount() const {
  uint64_t total = 0;
  for (uint64_t word : bits_) total += std::popcount(word);
  return total;
}

bool Bitmap::Get(uint32_t x, uint32_t y) const {
  HM_CHECK(x < width_ && y < height_);
  return (bits_[WordIndex(x, y)] & BitMask(x)) != 0;
}

void Bitmap::Set(uint32_t x, uint32_t y, bool value) {
  HM_CHECK(x < width_ && y < height_);
  if (value) {
    bits_[WordIndex(x, y)] |= BitMask(x);
  } else {
    bits_[WordIndex(x, y)] &= ~BitMask(x);
  }
}

Status Bitmap::InvertRect(uint32_t x, uint32_t y, uint32_t rect_width,
                          uint32_t rect_height) {
  if (uint64_t{x} + rect_width > width_ ||
      uint64_t{y} + rect_height > height_) {
    return Status::OutOfRange("InvertRect rectangle exceeds bitmap bounds");
  }
  for (uint32_t row = y; row < y + rect_height; ++row) {
    uint32_t col = x;
    uint32_t end = x + rect_width;
    while (col < end) {
      // Flip whole words where the rectangle spans them, bit-by-bit at
      // the ragged edges.
      if (col % 64 == 0 && end - col >= 64) {
        bits_[WordIndex(col, row)] ^= ~0ULL;
        col += 64;
      } else {
        bits_[WordIndex(col, row)] ^= BitMask(col);
        ++col;
      }
    }
  }
  return Status::Ok();
}

std::string Bitmap::Serialize() const {
  std::string out;
  out.reserve(8 + bits_.size() * 8);
  PutFixed32(&out, width_);
  PutFixed32(&out, height_);
  for (uint64_t word : bits_) PutFixed64(&out, word);
  return out;
}

Result<Bitmap> Bitmap::Deserialize(std::string_view data) {
  Decoder dec(data);
  uint32_t width = 0;
  uint32_t height = 0;
  if (!dec.GetFixed32(&width) || !dec.GetFixed32(&height)) {
    return Status::Corruption("bitmap header truncated");
  }
  // The header is not trusted: the body must hold every word it
  // implies before any is allocated (at most 2^58 words, no overflow).
  const uint64_t words = uint64_t{WordsPerRow(width)} * height;
  if ((data.size() - 8) / 8 < words) {
    return Status::Corruption("bitmap body truncated");
  }
  Bitmap bm(width, height);
  for (uint64_t& word : bm.bits_) dec.GetFixed64(&word);
  return bm;
}

}  // namespace hm::util
