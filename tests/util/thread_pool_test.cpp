#include "issa/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <vector>

#include "issa/util/metrics.hpp"
#include "issa/util/trace.hpp"

namespace issa::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, HandlesSingleElement) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, OffsetRange) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(10, 110, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  long expected = 0;
  for (long i = 10; i < 110; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(0, 10, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SequentialFallbackForTinyRanges) {
  ThreadPool pool(8);
  std::vector<int> hits(1, 0);
  pool.parallel_for(0, 1, [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  std::atomic<int> count{0};
  ThreadPool::global().parallel_for(0, 16, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, NestedUseFromManyCallers) {
  // Multiple sequential parallel_for calls must not deadlock or misbehave.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 50, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, RecursiveSubmissionDoesNotDeadlock) {
  // A task body issuing its own parallel_for on the same pool used to
  // deadlock once every worker blocked waiting for inner chunks nobody was
  // left to run; waiters now drain the queue themselves.
  ThreadPool pool(2);
  std::atomic<int> inner_count{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 16, [&](std::size_t) { inner_count.fetch_add(1); });
  });
  EXPECT_EQ(inner_count.load(), 8 * 16);
}

TEST(ThreadPool, DeeplyNestedRecursionCompletes) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  std::function<void(int)> recurse = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    pool.parallel_for(0, 3, [&](std::size_t) { recurse(depth - 1); });
  };
  recurse(4);  // 3^4 leaves
  EXPECT_EQ(leaves.load(), 81);
}

TEST(ThreadPool, ExceptionFromRecursiveSubmissionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 4,
                                 [&](std::size_t outer) {
                                   pool.parallel_for(0, 8, [&](std::size_t inner) {
                                     if (outer == 1 && inner == 5) {
                                       throw std::runtime_error("nested boom");
                                     }
                                   });
                                 }),
               std::runtime_error);
  // The pool must remain usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, CountsTasksWhenMetricsEnabled) {
  metrics::Registry::instance().reset();
  metrics::set_enabled(true);
  ThreadPool pool(2);
  pool.parallel_for(0, 64, [](std::size_t) {});
  metrics::set_enabled(false);
  const metrics::Snapshot snap = metrics::Registry::instance().snapshot();
  // Every queued task runs once under its own pool.task span and records its
  // queue latency once.
  const std::uint64_t executed = snap.value(metrics::names::kPoolTasksExecuted);
  EXPECT_GT(executed, 0u);
  const metrics::SnapshotEntry* task = snap.find(trace::spans::kPoolTask);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->count, executed);
  const metrics::SnapshotEntry* latency = snap.find(metrics::names::kPoolQueueLatency);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, executed);
  metrics::Registry::instance().reset();
}

}  // namespace
}  // namespace issa::util
