#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace hm::util {
namespace {

// The word loop below folds 4-byte loads as little-endian integers; a
// big-endian build would compute different checksums, so refuse it.
static_assert(std::endian::native == std::endian::little,
              "Crc32 slicing assumes little-endian word loads");

constexpr uint32_t kPolynomial = 0xEDB88320U;  // reflected IEEE
constexpr int kSlices = 16;

using Tables = std::array<std::array<uint32_t, 256>, kSlices>;

// Slicing-by-16 tables: kTables[0] is the classic byte-at-a-time table;
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so
// sixteen lookups advance the CRC over sixteen input bytes at once.
constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
    }
    tables[0][i] = crc;
  }
  for (int k = 1; k < kSlices; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

inline uint32_t LoadWord(const unsigned char* p) {
  uint32_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// Four table lookups for one 4-byte word of a 16-byte block; its first
// byte is followed by `table` more bytes of the block.
inline uint32_t FoldWord(uint32_t word, int table) {
  return kTables[table][word & 0xFF] ^
         kTables[table - 1][(word >> 8) & 0xFF] ^
         kTables[table - 2][(word >> 16) & 0xFF] ^
         kTables[table - 3][word >> 24];
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = ~seed;
  while (n >= kSlices) {
    crc = FoldWord(LoadWord(p) ^ crc, 15) ^ FoldWord(LoadWord(p + 4), 11) ^
          FoldWord(LoadWord(p + 8), 7) ^ FoldWord(LoadWord(p + 12), 3);
    p += kSlices;
    n -= kSlices;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

}  // namespace hm::util
