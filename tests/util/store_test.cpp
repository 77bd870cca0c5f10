// The append-only segment store under util/store: round trips, reopen
// persistence, content-addressed dedup, CRC recovery of torn/corrupt
// segments, checkpoint visibility, concurrent writers, and the SHA-256 /
// CRC-32 primitives it is built on.
#include "issa/util/store/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "issa/util/store/crc32.hpp"
#include "issa/util/store/fingerprint.hpp"

namespace issa::util::store {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/issa_store_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string only_segment(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(found.empty()) << "more than one segment in " << dir;
    found = entry.path().string();
  }
  EXPECT_FALSE(found.empty()) << "no segment in " << dir;
  return found;
}

TEST(Crc32Test, MatchesKnownVectors) {
  // The standard CRC-32 check value ("123456789" -> 0xCBF43926) pins the
  // polynomial, reflection, and final XOR all at once.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_NE(crc32("abc"), crc32("abd"));
}

TEST(Sha256Test, MatchesFipsVectors) {
  EXPECT_EQ(Sha256().finish().hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  Sha256 h;
  h.update("abc", 3);
  EXPECT_EQ(h.finish().hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Multi-block message (> 64 bytes) exercises the block loop and padding.
  Sha256 h2;
  const std::string msg = "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
  h2.update(msg.data(), msg.size());
  EXPECT_EQ(h2.finish().hex(),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(HasherTest, CanonicalFormSeparatesFieldBoundaries) {
  // "ab" + "c" must not collide with "a" + "bc": strings are length-prefixed.
  Hasher h1;
  h1.str("ab").str("c");
  Hasher h2;
  h2.str("a").str("bc");
  EXPECT_NE(h1.finish().hex(), h2.finish().hex());

  Hasher h3;
  h3.u64(1).u64(2);
  Hasher h4;
  h4.u64(2).u64(1);
  EXPECT_NE(h3.finish().hex(), h4.finish().hex());
}

TEST(StoreTest, PutGetRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  Store store(dir);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.contains("k1"));
  EXPECT_TRUE(store.put("k1", "v1"));
  EXPECT_TRUE(store.put("k2", std::string("\x00\xff binary \n", 11)));
  EXPECT_TRUE(store.contains("k1"));
  EXPECT_EQ(store.get("k1").value(), "v1");
  EXPECT_EQ(store.get("k2").value(), std::string("\x00\xff binary \n", 11));
  EXPECT_FALSE(store.get("absent").has_value());
  EXPECT_EQ(store.size(), 2u);
}

TEST(StoreTest, DuplicateKeyIsRejectedNotRewritten) {
  const std::string dir = fresh_dir("dedup");
  Store store(dir);
  EXPECT_TRUE(store.put("k", "original"));
  EXPECT_FALSE(store.put("k", "other"));
  EXPECT_EQ(store.get("k").value(), "original");
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().records_appended, 1u);
}

TEST(StoreTest, ReopenReloadsEverything) {
  const std::string dir = fresh_dir("reopen");
  {
    Store store(dir);
    for (int i = 0; i < 100; ++i) {
      store.put("key" + std::to_string(i), "value" + std::to_string(i));
    }
  }  // destructor flushes
  Store reopened(dir);
  EXPECT_EQ(reopened.size(), 100u);
  EXPECT_EQ(reopened.get("key42").value(), "value42");
  EXPECT_EQ(reopened.stats().records_loaded, 100u);
  EXPECT_EQ(reopened.stats().corrupt_segments, 0u);
}

TEST(StoreTest, EmptyValueAndLongKeyRoundTrip) {
  const std::string dir = fresh_dir("edge");
  const std::string long_key(4096, 'k');
  {
    Store store(dir);
    store.put("empty", "");
    store.put(long_key, "v");
  }
  Store reopened(dir);
  EXPECT_EQ(reopened.get("empty").value(), "");
  EXPECT_EQ(reopened.get(long_key).value(), "v");
}

TEST(StoreTest, MustExistRefusesMissingDirectory) {
  Store::Options options;
  options.must_exist = true;
  EXPECT_THROW(Store(fresh_dir("missing"), options), std::runtime_error);
}

TEST(StoreTest, TornTailIsDroppedAndRecoverable) {
  const std::string dir = fresh_dir("torn");
  {
    Store store(dir);
    for (int i = 0; i < 50; ++i) store.put("key" + std::to_string(i), "0123456789");
  }
  // Simulate a kill mid-write: chop into the last record.
  const std::string segment = only_segment(dir);
  const auto size = fs::file_size(segment);
  fs::resize_file(segment, size - 7);

  Store recovered(dir);
  EXPECT_EQ(recovered.size(), 49u);
  EXPECT_TRUE(recovered.contains("key0"));
  EXPECT_FALSE(recovered.contains("key49"));
  EXPECT_EQ(recovered.stats().corrupt_segments, 1u);
  EXPECT_GT(recovered.stats().bytes_dropped, 0u);

  // The store stays writable after recovery: the lost record can be redone.
  EXPECT_TRUE(recovered.put("key49", "0123456789"));
  recovered.flush();
  Store again(dir);
  EXPECT_EQ(again.size(), 50u);
}

TEST(StoreTest, CorruptedRecordDropsOnlyTheDamagedSuffix) {
  const std::string dir = fresh_dir("bitflip");
  {
    Store store(dir);
    for (int i = 0; i < 20; ++i) store.put("key" + std::to_string(i), "payload");
  }
  // Flip one byte two records from the end: the CRC must reject that record
  // and everything after it, keeping the intact prefix.
  const std::string segment = only_segment(dir);
  const auto size = fs::file_size(segment);
  std::fstream f(segment, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(size) - 30);
  const char flipped = static_cast<char>(f.get() ^ 0xff);
  f.seekp(static_cast<std::streamoff>(size) - 30);
  f.put(flipped);
  f.close();

  Store recovered(dir);
  EXPECT_LT(recovered.size(), 20u);
  EXPECT_GE(recovered.size(), 18u);
  EXPECT_TRUE(recovered.contains("key0"));
  EXPECT_EQ(recovered.stats().corrupt_segments, 1u);
}

TEST(StoreTest, GarbageFileIsCountedNotFatal) {
  const std::string dir = fresh_dir("garbage");
  fs::create_directories(dir);
  std::ofstream(dir + "/seg-junk.issaseg") << "this is not a segment";
  std::ofstream(dir + "/README.txt") << "ignored: wrong suffix";
  Store store(dir);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.stats().corrupt_segments, 1u);
  EXPECT_TRUE(store.put("k", "v"));
}

TEST(StoreTest, CheckpointMakesRecordsDurableBeforeClose) {
  static_assert(Store::kCheckpointEvery == 64);
  const std::string dir = fresh_dir("checkpoint");
  Store store(dir);  // stays open: simulates a process that dies
  for (int i = 0; i < 150; ++i) store.put("key" + std::to_string(i), "v");
  EXPECT_EQ(store.stats().checkpoints, 2u);

  // A second reader sees exactly the checkpointed prefix (128 of 150).
  Store reader(dir);
  EXPECT_EQ(reader.size(), 128u);
  EXPECT_TRUE(reader.contains("key127"));
  EXPECT_FALSE(reader.contains("key128"));
}

TEST(StoreTest, TwoWritersShareOneDirectory) {
  const std::string dir = fresh_dir("twowriters");
  {
    Store a(dir);
    Store b(dir);
    a.put("a1", "va");
    b.put("b1", "vb");
    a.put("shared", "same");
    b.put("shared", "same");  // accepted: b cannot see a's unsynced record
  }
  Store merged(dir);
  EXPECT_EQ(merged.stats().segments_loaded, 2u);
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.get("a1").value(), "va");
  EXPECT_EQ(merged.get("b1").value(), "vb");
  EXPECT_EQ(merged.get("shared").value(), "same");
  EXPECT_EQ(merged.stats().duplicate_records, 1u);
}

TEST(StoreTest, ConcurrentPutsFromManyThreads) {
  const std::string dir = fresh_dir("threads");
  {
    Store store(dir);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&store, t] {
        for (int i = 0; i < 200; ++i) {
          store.put("t" + std::to_string(t) + "-" + std::to_string(i), "v");
          store.put("contended" + std::to_string(i), "v");  // all threads race
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(store.size(), 4u * 200u + 200u);
  }
  Store reopened(dir);
  EXPECT_EQ(reopened.size(), 4u * 200u + 200u);
}

TEST(StoreTest, ForEachVisitsEveryRecord) {
  const std::string dir = fresh_dir("for_each");
  Store store(dir);
  store.put("b", "2");
  store.put("a", "1");
  store.put("c", "3");
  std::vector<std::string> visited;
  store.for_each([&](const std::string& key, const std::string& value) {
    visited.push_back(key + "=" + value);
  });
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, (std::vector<std::string>{"a=1", "b=2", "c=3"}));
}

}  // namespace
}  // namespace issa::util::store
