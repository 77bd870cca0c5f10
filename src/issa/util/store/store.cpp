#include "issa/util/store/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>  // fsync

#include "issa/util/runinfo.hpp"
#include "issa/util/store/crc32.hpp"

namespace issa::util::store {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'I', 'S', 'S', 'A', 'S', 'E', 'G', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderBytes = 16;
constexpr char kSegmentSuffix[] = ".issaseg";
// Sanity bound on one record: the MC cache stores tens of bytes per sample,
// so anything approaching this is a corrupt length field, not a record.
constexpr std::uint64_t kMaxRecordBytes = std::uint64_t{1} << 30;

void append_u32_le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t read_u32_le(const char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::string segment_header() {
  std::string header(kMagic, sizeof kMagic);
  append_u32_le(header, kFormatVersion);
  append_u32_le(header, crc32(header));
  return header;
}

}  // namespace

Store::Store(std::string directory, Options options) : directory_(std::move(directory)) {
  std::error_code ec;
  if (options.must_exist) {
    if (!fs::is_directory(directory_, ec)) {
      throw std::runtime_error("store: no such store directory: " + directory_);
    }
  } else {
    fs::create_directories(directory_, ec);
    if (ec) {
      throw std::runtime_error("store: cannot create directory " + directory_ + ": " +
                               ec.message());
    }
  }

  // Load every segment, sorted by name so duplicate resolution (first wins)
  // is deterministic for a given directory state.
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > sizeof(kSegmentSuffix) - 1 && name.ends_with(kSegmentSuffix)) {
      segments.push_back(entry.path().string());
    }
  }
  if (ec) {
    throw std::runtime_error("store: cannot list directory " + directory_ + ": " + ec.message());
  }
  std::sort(segments.begin(), segments.end());
  for (const std::string& path : segments) load_segment(path);

  // This process appends to its own uniquely-named segment so concurrent
  // writer processes never contend for a file.
  write_path_ = (fs::path(directory_) / ("seg-" + generate_run_id() + kSegmentSuffix)).string();
}

Store::~Store() {
  try {
    flush();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "store: flush on close failed: %s\n", e.what());
  }
}

void Store::load_segment(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;  // unreadable file: treat as absent
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();

  ++stats_.segments_loaded;
  if (data.size() < kHeaderBytes || std::string_view(data.data(), sizeof kMagic) !=
                                        std::string_view(kMagic, sizeof kMagic)) {
    ++stats_.corrupt_segments;
    stats_.bytes_dropped += data.size();
    return;
  }
  const std::uint32_t version = read_u32_le(data.data() + sizeof kMagic);
  const std::uint32_t header_crc = read_u32_le(data.data() + 12);
  if (version != kFormatVersion || header_crc != crc32(data.data(), 12)) {
    ++stats_.corrupt_segments;
    stats_.bytes_dropped += data.size();
    return;
  }

  std::size_t offset = kHeaderBytes;
  bool damaged = false;
  while (offset < data.size()) {
    if (data.size() - offset < 8) {
      damaged = true;  // torn mid-header
      break;
    }
    const std::uint64_t key_len = read_u32_le(data.data() + offset);
    const std::uint64_t value_len = read_u32_le(data.data() + offset + 4);
    const std::uint64_t body = 8 + key_len + value_len;
    if (key_len + value_len > kMaxRecordBytes || data.size() - offset < body + 4) {
      damaged = true;  // corrupt length or torn payload
      break;
    }
    const std::uint32_t stored_crc = read_u32_le(data.data() + offset + body);
    if (stored_crc != crc32(data.data() + offset, static_cast<std::size_t>(body))) {
      damaged = true;  // bit rot / partial write
      break;
    }
    std::string key(data.data() + offset + 8, static_cast<std::size_t>(key_len));
    std::string value(data.data() + offset + 8 + key_len, static_cast<std::size_t>(value_len));
    if (!index_.emplace(std::move(key), std::move(value)).second) {
      ++stats_.duplicate_records;
    } else {
      ++stats_.records_loaded;
    }
    stats_.bytes_loaded += body + 4;
    offset += static_cast<std::size_t>(body) + 4;
  }
  if (damaged) {
    ++stats_.corrupt_segments;
    stats_.bytes_dropped += data.size() - offset;
  }
}

bool Store::contains(std::string_view key) const {
  const std::lock_guard<std::mutex> guard(lock_);
  return index_.find(std::string(key)) != index_.end();
}

std::optional<std::string> Store::get(std::string_view key) const {
  const std::lock_guard<std::mutex> guard(lock_);
  const auto it = index_.find(std::string(key));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

bool Store::put(std::string_view key, std::string_view value) {
  const std::lock_guard<std::mutex> guard(lock_);
  if (!index_.emplace(std::string(key), std::string(value)).second) return false;

  std::string record;
  record.reserve(12 + key.size() + value.size());
  append_u32_le(record, static_cast<std::uint32_t>(key.size()));
  append_u32_le(record, static_cast<std::uint32_t>(value.size()));
  record.append(key);
  record.append(value);
  append_u32_le(record, crc32(record));
  pending_.append(record);
  ++pending_records_;
  ++stats_.records_appended;
  if (pending_records_ >= kCheckpointEvery) write_pending_locked();
  return true;
}

void Store::flush() {
  const std::lock_guard<std::mutex> guard(lock_);
  write_pending_locked();
}

void Store::write_pending_locked() {
  if (pending_.empty()) return;
  std::FILE* file = std::fopen(write_path_.c_str(), "ab");
  if (file == nullptr) {
    throw std::runtime_error("store: cannot open segment for append: " + write_path_);
  }
  bool ok = true;
  if (!wrote_header_) {
    const std::string header = segment_header();
    ok = std::fwrite(header.data(), 1, header.size(), file) == header.size();
  }
  ok = ok && std::fwrite(pending_.data(), 1, pending_.size(), file) == pending_.size();
  ok = ok && std::fflush(file) == 0;
  // fsync is the checkpoint contract: a record that was reported flushed
  // must survive a kill -9 of this process.
  ok = ok && fsync(fileno(file)) == 0;
  const bool closed = std::fclose(file) == 0;
  if (!ok || !closed) {
    throw std::runtime_error("store: write/fsync failed for segment " + write_path_);
  }
  wrote_header_ = true;
  pending_.clear();
  pending_records_ = 0;
  ++stats_.checkpoints;
}

std::size_t Store::size() const {
  const std::lock_guard<std::mutex> guard(lock_);
  return index_.size();
}

void Store::for_each(
    const std::function<void(const std::string&, const std::string&)>& fn) const {
  const std::lock_guard<std::mutex> guard(lock_);
  for (const auto& [key, value] : index_) fn(key, value);
}

StoreStats Store::stats() const {
  const std::lock_guard<std::mutex> guard(lock_);
  return stats_;
}

}  // namespace issa::util::store

