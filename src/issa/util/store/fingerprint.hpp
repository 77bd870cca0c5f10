// Content fingerprints for cache keys: SHA-256 plus a canonical field
// hasher.
//
// The Monte-Carlo sample cache addresses results by WHAT was computed, never
// by when or where: a fingerprint digests every input that determines a
// sample's value (canonicalized netlist, device cards, aging/mismatch
// parameters, condition, seed, schema version).  Two runs that hash the same
// fingerprint are guaranteed to be computing the same pure function, so a
// stored result can be replayed bit-identically.
//
// Hasher gives the digesting a canonical form: every field is fed as a fixed
// 8-byte little-endian word (doubles by bit pattern) and every string is
// length-prefixed, so no two distinct field sequences can produce the same
// byte stream (no "ab"+"c" vs "a"+"bc" ambiguity).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace issa::util::store {

/// A 256-bit digest.
struct Fingerprint {
  std::array<std::uint8_t, 32> bytes{};

  /// Lowercase hex, 64 characters.
  std::string hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const std::uint8_t b : bytes) {
      out.push_back(kDigits[b >> 4]);
      out.push_back(kDigits[b & 0xF]);
    }
    return out;
  }

  bool operator==(const Fingerprint&) const = default;
};

/// Incremental SHA-256 (FIPS 180-4).  Self-contained software implementation
/// so the store has no external dependencies.
class Sha256 {
 public:
  Sha256();

  void update(const void* data, std::size_t size);
  void update(std::string_view bytes) { update(bytes.data(), bytes.size()); }

  /// Finalizes and returns the digest.  The hasher must not be reused after.
  Fingerprint finish();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Canonical field-by-field hashing on top of Sha256 (see file comment).
class Hasher {
 public:
  Hasher& u64(std::uint64_t v);
  Hasher& u32(std::uint32_t v) { return u64(v); }
  Hasher& f64(double v);  ///< exact bit pattern, so replay is bit-identical
  Hasher& boolean(bool v) { return u64(v ? 1 : 0); }
  Hasher& str(std::string_view s);  ///< length-prefixed

  Fingerprint finish() { return sha_.finish(); }

 private:
  Sha256 sha_;
};

}  // namespace issa::util::store
