// Observability layer: lock-free counters, timers, and histograms behind a
// global registry, with JSON and table renderings of a snapshot.
//
// The hot paths (Newton iterations, LU factorizations, thread-pool tasks,
// Monte-Carlo samples) increment these from many threads at once, so every
// metric is striped across cache-line-padded atomic cells indexed by a
// per-thread stripe id; updates are a relaxed fetch_add with no shared
// write-line contention in the common case.
//
// Below the sample level (Newton, assembly, LU) work is only counted; every
// timer is the aggregate of the util::trace::Span of the same name.
//
// Metrics start disabled: instrumented sites pay one relaxed atomic load +
// predicted branch until set_enabled(true) is called (the --metrics run
// flag).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace issa::util::metrics {

enum class Kind { kCounter, kTimer, kHistogram };

/// Turns collection on or off at run time (default: off).
void set_enabled(bool on) noexcept;

bool enabled() noexcept;

/// Monotonic wall-clock in nanoseconds (steady_clock).
std::uint64_t monotonic_ns() noexcept;

namespace detail {

inline constexpr std::size_t kStripes = 16;

/// Stable per-thread stripe index in [0, kStripes).
std::size_t thread_stripe() noexcept;

struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct alignas(64) TimerCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
};

}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    cells_[detail::thread_stripe()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  std::array<detail::CounterCell, detail::kStripes> cells_{};
};

/// Accumulated duration plus event count.  Code times a scope with a
/// util::trace::Span, which feeds the timer of its own name on close.
class Timer {
 public:
  void record_ns(std::uint64_t ns) noexcept {
    if (!enabled()) return;
    auto& cell = cells_[detail::thread_stripe()];
    cell.count.fetch_add(1, std::memory_order_relaxed);
    cell.total_ns.fetch_add(ns, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept;
  std::uint64_t total_ns() const noexcept;
  void reset() noexcept;

 private:
  std::array<detail::TimerCell, detail::kStripes> cells_{};
};

/// Log2-bucketed distribution of nonnegative values (e.g. latencies in ns):
/// bucket b counts values v with bit_width(v) == b (v = 0 lands in bucket 0).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void record(std::uint64_t v) noexcept {
    if (!enabled()) return;
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept;
  std::uint64_t total() const noexcept;
  std::uint64_t bucket(std::size_t b) const noexcept;
  void reset() noexcept;

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    std::size_t b = 0;
    while (v != 0 && b + 1 < kBuckets) {
      v >>= 1;
      ++b;
    }
    return b;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> total_{0};
};


/// One metric's value at snapshot time.
struct SnapshotEntry {
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;     ///< counter value / timer count / histogram count
  std::uint64_t total_ns = 0;  ///< timers: accumulated ns; histograms: value sum
  std::vector<std::uint64_t> buckets;  ///< histograms only (log2 buckets)

  double mean_ns() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(count);
  }
};

/// A consistent-enough view of every registered metric (each metric is read
/// atomically; the set as a whole is not a cross-metric atomic snapshot).
struct Snapshot {
  std::vector<SnapshotEntry> entries;

  const SnapshotEntry* find(std::string_view name) const noexcept;
  /// Counter value / event count of `name`, 0 when absent.
  std::uint64_t value(std::string_view name) const noexcept;
  /// Entry-wise difference vs. an earlier snapshot (clamped at 0), for
  /// scoped per-condition reporting on top of cumulative metrics.
  Snapshot delta_since(const Snapshot& earlier) const;
};

/// Well-known metric names; pre-registered so every report carries the full
/// schema even when a path was never exercised (its counts read 0).
namespace names {
inline constexpr const char* kNewtonIterations = "sim.newton_iterations";
inline constexpr const char* kNewtonFailures = "sim.newton_failures";
inline constexpr const char* kStepRejections = "sim.step_rejections";
inline constexpr const char* kJacobianBuilds = "sim.jacobian_builds";
/// MOSFET model evaluations: one per device per Jacobian build.
inline constexpr const char* kDeviceEvaluations = "sim.device_evaluations";
inline constexpr const char* kTransientSteps = "sim.transient_steps";
inline constexpr const char* kDcSolves = "sim.dc_solves";
inline constexpr const char* kTransientEarlyExits = "sim.transient_early_exits";
inline constexpr const char* kLuFactorizations = "lu.factorizations";
inline constexpr const char* kPoolTasksExecuted = "pool.tasks_executed";
inline constexpr const char* kPoolQueueLatency = "pool.queue_latency";
inline constexpr const char* kMcSamples = "mc.samples";
inline constexpr const char* kMcSaturatedSamples = "mc.saturated_samples";
inline constexpr const char* kMcSampleFailures = "mc.sample_failures";
inline constexpr const char* kMcQuarantinedSamples = "mc.quarantined_samples";
inline constexpr const char* kMcCacheHits = "mc.cache_hits";
inline constexpr const char* kMcCacheMisses = "mc.cache_misses";
inline constexpr const char* kMcCacheStores = "mc.cache_stores";
}  // namespace names

/// Process-wide metric registry.  Lookup is mutex-protected (per-iteration
/// call sites cache the returned reference; a closing span looks its timer
/// up); the metrics themselves are lock-free.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Timer& timer(std::string_view name);
  Histogram& histogram(std::string_view name);

  Snapshot snapshot() const;
  /// Zeroes every registered metric (names stay registered).
  void reset();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry();
  struct Impl;
  Impl* impl_;  // leaked singleton state; never destroyed (safe at exit)
};

/// Serializes a snapshot as one JSON object, {"<name>": {"kind", "count",
/// ...}, ...}, with one metric per line.  Each line after the opening brace
/// starts with `indent`, so the object nests at that depth in a report.
std::string to_json(const Snapshot& snapshot, std::string_view indent = "");

/// Renders a snapshot as a human-readable ASCII table string.
std::string to_table(const Snapshot& snapshot);

}  // namespace issa::util::metrics
