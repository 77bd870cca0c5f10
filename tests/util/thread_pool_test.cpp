#include "issa/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
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
  // A body issuing its own parallel_for on the same pool finds the job slot
  // taken and runs the inner range itself.
  ThreadPool pool(2);
  std::atomic<int> inner_count{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 16, [&](std::size_t) { inner_count.fetch_add(1); });
  });
  EXPECT_EQ(inner_count.load(), 8 * 16);
}

TEST(ThreadPool, NestedCallRunsOnItsCaller) {
  ThreadPool pool(2);
  std::atomic<int> foreign{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    pool.parallel_for(0, 4, [&](std::size_t) {
      if (std::this_thread::get_id() != outer) foreign.fetch_add(1);
    });
  });
  EXPECT_EQ(foreign.load(), 0);
}

TEST(ThreadPool, ZeroWorkersRunEveryIndexOnTheCaller) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(0, 16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(16);
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, SlowIndexDoesNotHoldBackTheRest) {
  // Indices are dealt one at a time: while one participant is stuck in
  // body(0), the other runs every remaining index.
  ThreadPool pool(1);
  std::atomic<int> others{0};
  std::atomic<bool> timed_out{false};
  pool.parallel_for(0, 8, [&](std::size_t i) {
    if (i != 0) {
      others.fetch_add(1);
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others.load() < 7) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(others.load(), 7);
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
  // Each participant (the caller and every worker that joined) takes one
  // turn: one count, one pool.task span and one queue latency.
  const std::uint64_t executed = snap.value(metrics::names::kPoolTasksExecuted);
  EXPECT_GE(executed, 1u);
  EXPECT_LE(executed, 3u);
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
