#ifndef HM_UTIL_CODING_H_
#define HM_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace hm::util {

/// Little-endian fixed-width integer encode/decode helpers used by the
/// on-disk page, object and WAL record formats.

inline void EncodeFixed16(char* dst, uint16_t value) {
  std::memcpy(dst, &value, sizeof(value));
}

inline void EncodeFixed32(char* dst, uint32_t value) {
  std::memcpy(dst, &value, sizeof(value));
}

inline void EncodeFixed64(char* dst, uint64_t value) {
  std::memcpy(dst, &value, sizeof(value));
}

inline uint16_t DecodeFixed16(const char* src) {
  uint16_t value;
  std::memcpy(&value, src, sizeof(value));
  return value;
}

inline uint32_t DecodeFixed32(const char* src) {
  uint32_t value;
  std::memcpy(&value, src, sizeof(value));
  return value;
}

inline uint64_t DecodeFixed64(const char* src) {
  uint64_t value;
  std::memcpy(&value, src, sizeof(value));
  return value;
}

inline void PutFixed16(std::string* dst, uint16_t value) {
  char buf[sizeof(value)];
  EncodeFixed16(buf, value);
  dst->append(buf, sizeof(buf));
}

inline void PutFixed32(std::string* dst, uint32_t value) {
  char buf[sizeof(value)];
  EncodeFixed32(buf, value);
  dst->append(buf, sizeof(buf));
}

inline void PutFixed64(std::string* dst, uint64_t value) {
  char buf[sizeof(value)];
  EncodeFixed64(buf, value);
  dst->append(buf, sizeof(buf));
}

/// Appends a length-prefixed (fixed32) byte string.
inline void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutFixed32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

/// LEB128 variable-length encoding: 7 value bits per byte, high bit =
/// continuation. Small values (relationship counts, offsets 0..9) take
/// one byte instead of eight; used by the image serializer.
inline void PutVarint64(std::string* dst, uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

inline void PutVarint32(std::string* dst, uint32_t value) {
  PutVarint64(dst, value);
}

/// Zig-zag transform so small negative values also encode compactly.
inline uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

inline int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

inline void PutVarSigned64(std::string* dst, int64_t value) {
  PutVarint64(dst, ZigZagEncode(value));
}

/// Cursor-style decoder over a byte buffer. All `Get*` methods return
/// false (leaving outputs untouched) when the buffer is exhausted,
/// letting callers surface Corruption instead of reading past the end.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  bool GetFixed16(uint16_t* value) {
    if (data_.size() < sizeof(*value)) return false;
    *value = DecodeFixed16(data_.data());
    data_.remove_prefix(sizeof(*value));
    return true;
  }

  bool GetFixed32(uint32_t* value) {
    if (data_.size() < sizeof(*value)) return false;
    *value = DecodeFixed32(data_.data());
    data_.remove_prefix(sizeof(*value));
    return true;
  }

  bool GetFixed64(uint64_t* value) {
    if (data_.size() < sizeof(*value)) return false;
    *value = DecodeFixed64(data_.data());
    data_.remove_prefix(sizeof(*value));
    return true;
  }

  bool GetLengthPrefixed(std::string_view* value) {
    uint32_t len = 0;
    if (!GetFixed32(&len)) return false;
    if (data_.size() < len) return false;
    *value = data_.substr(0, len);
    data_.remove_prefix(len);
    return true;
  }

  /// Decodes a LEB128 varint; false on truncation or overlong (>10
  /// byte) encodings.
  bool GetVarint64(uint64_t* value) {
    uint64_t result = 0;
    for (uint32_t shift = 0; shift < 64; shift += 7) {
      if (data_.empty()) return false;
      uint8_t byte = static_cast<uint8_t>(data_.front());
      data_.remove_prefix(1);
      result |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *value = result;
        return true;
      }
    }
    return false;  // overlong
  }

  bool GetVarint32(uint32_t* value) {
    uint64_t wide = 0;
    if (!GetVarint64(&wide) || wide > 0xFFFFFFFFULL) return false;
    *value = static_cast<uint32_t>(wide);
    return true;
  }

  bool GetVarSigned64(int64_t* value) {
    uint64_t raw = 0;
    if (!GetVarint64(&raw)) return false;
    *value = ZigZagDecode(raw);
    return true;
  }

  bool GetByte(uint8_t* value) {
    if (data_.empty()) return false;
    *value = static_cast<uint8_t>(data_.front());
    data_.remove_prefix(1);
    return true;
  }

  /// Consumes and returns every byte left.
  std::string_view TakeRest() {
    std::string_view rest = data_;
    data_ = std::string_view();
    return rest;
  }

  bool Skip(size_t n) {
    if (data_.size() < n) return false;
    data_.remove_prefix(n);
    return true;
  }

  bool Empty() const { return data_.empty(); }
  size_t Remaining() const { return data_.size(); }

 private:
  std::string_view data_;
};

}  // namespace hm::util

#endif  // HM_UTIL_CODING_H_
