#include "issa/util/thread_pool.hpp"

#include <atomic>
#include <exception>

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

struct ThreadPool::Job {
  Job(const std::function<void(std::size_t)>& body, std::size_t begin, std::size_t end)
      : body(body),
        next(begin),
        end(end),
        post_ns(metrics::enabled() ? metrics::monotonic_ns() : 0) {}

  const std::function<void(std::size_t)>& body;
  std::atomic<std::size_t> next;
  const std::size_t end;
  const std::uint64_t post_ns;  // 0 unless metrics were enabled at the post
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;  // written only by the participant that set failed

  // One participant's turn: claims indices until none is left or a body
  // threw.  The turn's pool.task span closes before it returns, and so
  // before a worker reports that it left.
  void take_part() {
    if (post_ns != 0 && metrics::enabled()) {
      queue_latency().record(metrics::monotonic_ns() - post_ns);
    }
    tasks_executed().add();
    // The gap between pool.task spans on a tid is the time its thread idled.
    const trace::Span span(trace::spans::kPoolTask, "pool");
    try {
      // Inside the try so an injected throw exercises the first-error
      // capture and the rethrow at the join.
      faultpoint::maybe_fail(faultpoint::sites::kPoolTaskThrow);
      while (!failed.load()) {
        const std::size_t i = next.fetch_add(1);
        if (i >= end) break;
        body(i);
      }
    } catch (...) {
      if (!failed.exchange(true)) first_error = std::current_exception();
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  posted_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;  // the last job this worker joined
  std::unique_lock lock(mutex_);
  for (;;) {
    posted_.wait(lock, [&] { return stop_ || (job_ != nullptr && posts_ != seen); });
    if (stop_) return;
    seen = posts_;
    Job& job = *job_;
    ++joined_;
    lock.unlock();
    job.take_part();
    lock.lock();
    if (--joined_ == 0) left_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  std::unique_lock lock(mutex_);
  // The slot stays taken until the last worker of the previous job has left.
  if (end - begin == 1 || workers_.empty() || job_ != nullptr || joined_ != 0) {
    lock.unlock();
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  Job job(body, begin, end);
  job_ = &job;
  ++posts_;
  lock.unlock();
  posted_.notify_all();

  job.take_part();

  // Every index has been claimed (or a body threw): close the job to late
  // workers and wait for those still inside it.
  lock.lock();
  job_ = nullptr;
  left_.wait(lock, [this] { return joined_ == 0; });
  lock.unlock();
  if (job.first_error) std::rethrow_exception(job.first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4u : hw;
  }());
  return pool;
}

}  // namespace issa::util
