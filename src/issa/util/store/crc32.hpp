// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte ranges.
//
// Frames every record of the persistent result store: a torn tail from a
// killed process or a bit-flipped byte fails its checksum and the loader
// drops the damaged suffix instead of trusting poisoned cache entries.
// Table-driven software implementation, no dependencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace issa::util::store {

/// CRC-32 of `size` bytes at `data`.  Pass a previous result as `seed` to
/// checksum a logical stream in chunks: crc32(b, crc32(a)) == crc32(a+b).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0) noexcept;

inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) noexcept {
  return crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace issa::util::store
