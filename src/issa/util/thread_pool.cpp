#include "issa/util/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>

#include "issa/util/faultpoint.hpp"
#include "issa/util/metrics.hpp"
#include "issa/util/trace.hpp"

namespace issa::util {

namespace {

metrics::Counter& tasks_executed() {
  static metrics::Counter& c =
      metrics::Registry::instance().counter(metrics::names::kPoolTasksExecuted);
  return c;
}

metrics::Histogram& queue_latency() {
  static metrics::Histogram& h =
      metrics::Registry::instance().histogram(metrics::names::kPoolQueueLatency);
  return h;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 4 : hw;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_task(Task task) {
  if (task.enqueue_ns != 0 && metrics::enabled()) {
    queue_latency().record(metrics::monotonic_ns() - task.enqueue_ns);
  }
  tasks_executed().add();
  {
    // Task spans make worker utilization visible in the trace timeline: the
    // gap between pool.task spans on a tid is idle/queueing time.
    const trace::Span span(trace::spans::kPoolTask, "pool");
    task.fn();
  }
  // A parallel_for chunk signals its caller only here, so the caller never
  // returns before the chunk's span is recorded.
  task.done();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    run_task(std::move(task));
  }
}

bool ThreadPool::try_run_one() {
  Task task;
  {
    std::lock_guard lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  run_task(std::move(task));
  return true;
}

void ThreadPool::push(Task task) {
  if (metrics::enabled()) task.enqueue_ns = metrics::monotonic_ns();
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, workers_.size() * 4);
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  // The completion state is shared with every chunk task, not stack-local:
  // the caller may observe remaining == 0 through the atomic and return
  // while the finishing worker is still inside notify_all, so the cv/mutex
  // must outlive that call — the last shared_ptr to die keeps them alive.
  struct Sync {
    std::atomic<std::size_t> remaining;
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };
  auto sync = std::make_shared<Sync>();
  sync->remaining.store(chunks, std::memory_order_relaxed);

  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    auto chunk = [sync, &body, lo, hi] {
      try {
        // Inside the try so an injected throw exercises the first-error
        // capture + rethrow-at-join contract below, not worker_loop.
        faultpoint::maybe_fail(faultpoint::sites::kPoolTaskThrow);
        for (std::size_t i = lo; i < hi && !sync->failed.load(std::memory_order_relaxed);
             ++i) {
          body(i);
        }
      } catch (...) {
        std::lock_guard lock(sync->error_mutex);
        if (!sync->failed.exchange(true)) sync->first_error = std::current_exception();
      }
    };
    auto signal = [sync] {
      if (sync->remaining.fetch_sub(1) == 1) {
        std::lock_guard lock(sync->done_mutex);
        sync->done_cv.notify_all();
      }
    };
    push(Task{.fn = std::move(chunk), .done = std::move(signal)});
  }

  // Help drain the queue while waiting.  Once the queue is empty every chunk
  // of THIS call is either finished or running on another thread, so blocking
  // on done_cv cannot deadlock: the predicate re-check under done_mutex
  // catches a completion that slipped in between the pop attempt and the wait.
  while (sync->remaining.load(std::memory_order_acquire) != 0) {
    if (try_run_one()) continue;
    std::unique_lock lock(sync->done_mutex);
    sync->done_cv.wait(
        lock, [&] { return sync->remaining.load(std::memory_order_acquire) == 0; });
  }
  if (sync->first_error) std::rethrow_exception(sync->first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace issa::util
