// A small fixed-size thread pool with a parallel_for convenience wrapper.
//
// Monte-Carlo loops dominate the runtime of every bench; each iteration is an
// independent transient simulation, so a static block partition is enough.
//
// parallel_for's caller participates in draining the task queue while it
// waits, which (a) uses the calling thread as one more worker and (b) makes
// nested parallel_for calls issued from inside pool tasks deadlock-free: any
// thread blocked on completion keeps executing queued chunks, so some thread
// always makes progress.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace issa::util {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Runs body(i) for i in [begin, end), partitioned across workers, and
  /// blocks until every index has completed.  body must be thread-safe across
  /// distinct indices.  Exceptions thrown by body propagate to the caller
  /// (the first one encountered).  Safe to call from inside a pool task
  /// (nested chunks are drained by the waiting threads themselves).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Submits fire-and-forget work.  The destructor drains every task still
  /// queued before joining, so enqueued work is never silently dropped.
  void enqueue(std::function<void()> fn);

  /// Process-wide default pool (lazily constructed, sized to the machine).
  static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;  // set only while metrics are enabled
  };

  void worker_loop();
  void run_task(Task task);
  /// Pops one queued task if any and runs it; returns false when idle.
  bool try_run_one();

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace issa::util
