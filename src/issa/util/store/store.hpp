// Append-only, crash-safe, content-addressed key/value store.
//
// A store is a DIRECTORY of segment files.  Every writer process appends to
// its own segment (named after its run id), so any number of processes can
// populate one store directory concurrently without coordination; a
// reader simply loads every segment it finds.  Values are addressed by
// content-derived keys (the Monte-Carlo cache uses SHA-256 fingerprints), so
// two writers can only ever disagree about a key if one of them is buggy —
// duplicate records are deduplicated first-loaded-wins and counted.
//
// Segment layout (all integers little-endian):
//
//   header   8 bytes   magic "ISSASEG1"
//            4 bytes   u32 format version (kFormatVersion)
//            4 bytes   u32 CRC-32 of the 12 bytes above
//   record   4 bytes   u32 key length
//            4 bytes   u32 value length
//            K bytes   key
//            V bytes   value
//            4 bytes   u32 CRC-32 over the 8 length bytes + key + value
//   ...repeated until end of file.
//
// Crash safety: records are buffered in memory and written + fsync'd every
// kCheckpointEvery appends (and on flush()/destruction).  A process killed
// mid-write leaves at most a torn tail; the loader validates each record's
// CRC and drops the segment's damaged suffix, so a restarted sweep resumes
// from the last checkpoint instead of recomputing everything — or crashing.
//
// Thread safety: all public methods are safe to call concurrently; the store
// serializes them on an internal mutex (the values are tiny — tens of bytes
// — so the critical sections are short compared to one Monte-Carlo sample).
//
// A store simply isn't opened unless --cache asks for one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace issa::util::store {

/// Load/health accounting of one open store, for reports and tests.
struct StoreStats {
  std::size_t segments_loaded = 0;    ///< segment files found on open
  std::size_t corrupt_segments = 0;   ///< segments with a dropped (torn/corrupt) suffix
  std::size_t records_loaded = 0;     ///< valid records recovered on open
  std::size_t duplicate_records = 0;  ///< records whose key was already loaded
  std::uint64_t bytes_loaded = 0;     ///< valid payload bytes recovered on open
  std::uint64_t bytes_dropped = 0;    ///< torn/corrupt suffix bytes ignored on open
  std::size_t records_appended = 0;   ///< put()s accepted by this instance
  std::size_t checkpoints = 0;        ///< fsync'd write-outs performed
};

class Store {
 public:
  /// Records buffered between fsync'd write-outs.  Lower = smaller replay
  /// window after a kill; higher = fewer fsyncs on the sample hot path.
  static constexpr std::size_t kCheckpointEvery = 64;

  struct Options {
    /// Open an existing directory only (store_report uses this so a typo'd
    /// path errors instead of silently creating an empty store).
    bool must_exist = false;
  };

  /// Opens (creating the directory unless must_exist) and loads every valid
  /// record of every segment into the in-memory index.  Corruption never
  /// throws — it is counted in stats(); I/O errors (unreadable directory,
  /// missing must_exist target) throw std::runtime_error.
  explicit Store(std::string directory) : Store(std::move(directory), Options()) {}
  Store(std::string directory, Options options);

  /// Flushes buffered records (best-effort; errors go to stderr).
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  const std::string& directory() const noexcept { return directory_; }

  bool contains(std::string_view key) const;
  std::optional<std::string> get(std::string_view key) const;

  /// Appends a record.  Returns false (and appends nothing) when the key is
  /// already present — the store is content-addressed, so the existing value
  /// is by construction the same.  Auto-checkpoints every
  /// kCheckpointEvery accepted records.
  bool put(std::string_view key, std::string_view value);

  /// Writes buffered records to this process's segment and fsyncs it.
  /// Throws std::runtime_error when the segment cannot be written.
  void flush();

  /// Number of distinct keys currently loaded/written.
  std::size_t size() const;

  /// Visits every (key, value) pair; do not call store methods re-entrantly.
  void for_each(const std::function<void(const std::string&, const std::string&)>& fn) const;

  StoreStats stats() const;

 private:
  void load_segment(const std::string& path);
  void write_pending_locked();  // requires lock_ held

  mutable std::mutex lock_;
  std::string directory_;
  std::unordered_map<std::string, std::string> index_;
  std::string write_path_;     // this process's segment (created lazily)
  std::string pending_;        // encoded records not yet written
  std::size_t pending_records_ = 0;
  bool wrote_header_ = false;
  StoreStats stats_;
};

}  // namespace issa::util::store
