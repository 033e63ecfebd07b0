// Byte-wise little-endian scalar codecs (host-endianness-proof): the one
// definition behind every binary format the repo writes — job and event
// traces (trace/format.h) and span spools (obs/span_export.h).
#pragma once

#include <cstdint>

namespace cmvrp {

inline void store_le16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}

inline void store_le32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline void store_le64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline std::uint16_t load_le16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

inline std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

inline void store_le_i64(unsigned char* p, std::int64_t v) {
  store_le64(p, static_cast<std::uint64_t>(v));
}

inline std::int64_t load_le_i64(const unsigned char* p) {
  return static_cast<std::int64_t>(load_le64(p));
}

}  // namespace cmvrp
