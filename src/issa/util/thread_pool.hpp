// A fixed set of worker threads that runs one parallel_for job at a time.
//
// Every Monte-Carlo pass is one parallel_for over sample indices, each an
// independent transient simulation whose result lands in its own slot.  The
// caller posts the job into the pool's single slot; the workers and the
// caller then claim indices one at a time from the job's atomic counter
// until the range runs out, so a slow sample never holds back the indices
// behind it.  Which thread runs an index never changes what it computes.
//
// A parallel_for issued while the slot is taken (from inside a body, or by a
// second caller) runs its range serially on its own thread, as do a range of
// one index and a pool without workers: nesting needs no queue and cannot
// deadlock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace issa::util {

class ThreadPool {
 public:
  /// Starts exactly `workers` threads; with 0 the caller runs every job alone.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs body(i) for every i in [begin, end) and returns once all have run
  /// and every worker that joined has left.  body must be thread-safe across
  /// distinct indices.  After a body throws no further index starts, and the
  /// first exception is rethrown here.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Process-wide pool with one worker per hardware thread.
  static ThreadPool& global();

 private:
  struct Job;

  void worker_loop();

  std::mutex mutex_;
  std::condition_variable posted_;  // a job was posted, or the pool stops
  std::condition_variable left_;    // the last joined worker left its job
  Job* job_ = nullptr;              // the job in flight, open to workers
  std::uint64_t posts_ = 0;         // jobs posted so far
  std::size_t joined_ = 0;          // workers inside a job
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: the threads use every member above
};

}  // namespace issa::util
