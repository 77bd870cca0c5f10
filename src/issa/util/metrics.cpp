#include "issa/util/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>

#include "issa/util/json.hpp"
#include "issa/util/table.hpp"
#include "issa/util/trace.hpp"  // spans::kAll

namespace issa::util::metrics {

std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

namespace detail {

std::size_t thread_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

}  // namespace detail

std::uint64_t Counter::value() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& cell : cells_) sum += cell.value.load(std::memory_order_relaxed);
  return sum;
}

void Counter::reset() noexcept {
  for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
}

std::uint64_t Timer::count() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& cell : cells_) sum += cell.count.load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t Timer::total_ns() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& cell : cells_) sum += cell.total_ns.load(std::memory_order_relaxed);
  return sum;
}

void Timer::reset() noexcept {
  for (auto& cell : cells_) {
    cell.count.store(0, std::memory_order_relaxed);
    cell.total_ns.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& b : buckets_) sum += b.load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t Histogram::total() const noexcept {
  return total_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket(std::size_t b) const noexcept {
  return b < kBuckets ? buckets_[b].load(std::memory_order_relaxed) : 0;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
}

const SnapshotEntry* Snapshot::find(std::string_view name) const noexcept {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::uint64_t Snapshot::value(std::string_view name) const noexcept {
  const SnapshotEntry* e = find(name);
  return e == nullptr ? 0 : e->count;
}

Snapshot Snapshot::delta_since(const Snapshot& earlier) const {
  auto sub = [](std::uint64_t now, std::uint64_t then) {
    return now >= then ? now - then : 0;  // clamp across an interleaved reset
  };
  Snapshot delta;
  delta.entries.reserve(entries.size());
  for (const auto& e : entries) {
    SnapshotEntry d = e;
    if (const SnapshotEntry* prev = earlier.find(e.name)) {
      d.count = sub(e.count, prev->count);
      d.total_ns = sub(e.total_ns, prev->total_ns);
      for (std::size_t b = 0; b < d.buckets.size(); ++b) {
        const std::uint64_t before = b < prev->buckets.size() ? prev->buckets[b] : 0;
        d.buckets[b] = sub(d.buckets[b], before);
      }
    }
    delta.entries.push_back(std::move(d));
  }
  return delta;
}

// ---------------------------------------------------------------------------
// Registry

struct Registry::Impl {
  template <typename Metric>
  struct Named {
    std::string name;
    std::unique_ptr<Metric> metric;
  };
  mutable std::mutex mutex;
  std::vector<Named<Counter>> counters;
  std::vector<Named<Timer>> timers;
  std::vector<Named<Histogram>> histograms;

  template <typename Metric>
  Metric& get(std::vector<Named<Metric>>& list, std::string_view name) {
    std::lock_guard lock(mutex);
    for (auto& entry : list) {
      if (entry.name == name) return *entry.metric;
    }
    list.push_back({std::string(name), std::make_unique<Metric>()});
    return *list.back().metric;
  }
};

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Registry() : impl_(new Impl) {
  // Pre-register the canonical schema (the span timers included) so every
  // report lists the full metric set even for binaries that never touch
  // some subsystem.
  for (const char* name :
       {names::kNewtonIterations, names::kNewtonFailures, names::kStepRejections,
        names::kJacobianBuilds, names::kDeviceEvaluations, names::kTransientSteps,
        names::kDcSolves, names::kTransientEarlyExits, names::kLuFactorizations,
        names::kPoolTasksExecuted, names::kMcSamples, names::kMcSaturatedSamples,
        names::kMcCacheHits, names::kMcCacheMisses, names::kMcCacheStores}) {
    counter(name);
  }
  for (const char* name : trace::spans::kAll) timer(name);
  histogram(names::kPoolQueueLatency);
}

Counter& Registry::counter(std::string_view name) {
  return impl_->get(impl_->counters, name);
}

Timer& Registry::timer(std::string_view name) {
  return impl_->get(impl_->timers, name);
}

Histogram& Registry::histogram(std::string_view name) {
  return impl_->get(impl_->histograms, name);
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard lock(impl_->mutex);
  snap.entries.reserve(impl_->counters.size() + impl_->timers.size() +
                       impl_->histograms.size());
  for (const auto& c : impl_->counters) {
    SnapshotEntry e;
    e.name = c.name;
    e.kind = Kind::kCounter;
    e.count = c.metric->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& t : impl_->timers) {
    SnapshotEntry e;
    e.name = t.name;
    e.kind = Kind::kTimer;
    e.count = t.metric->count();
    e.total_ns = t.metric->total_ns();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& h : impl_->histograms) {
    SnapshotEntry e;
    e.name = h.name;
    e.kind = Kind::kHistogram;
    e.count = h.metric->count();
    e.total_ns = h.metric->total();
    e.buckets.resize(Histogram::kBuckets);
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) e.buckets[b] = h.metric->bucket(b);
    // Drop the empty tail so reports stay compact.
    while (!e.buckets.empty() && e.buckets.back() == 0) e.buckets.pop_back();
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard lock(impl_->mutex);
  for (auto& c : impl_->counters) c.metric->reset();
  for (auto& t : impl_->timers) t.metric->reset();
  for (auto& h : impl_->histograms) h.metric->reset();
}

// ---------------------------------------------------------------------------
// Reports

namespace {

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCounter:
      return "counter";
    case Kind::kTimer:
      return "timer";
    case Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string to_json(const Snapshot& snapshot, std::string_view indent) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& e : snapshot.entries) {
    os << (first ? "\n" : ",\n") << indent << "  \"" << json::escape(e.name)
       << "\": {\"kind\": \"" << kind_name(e.kind) << "\", \"count\": " << e.count;
    first = false;
    if (e.kind != Kind::kCounter) {
      os << ", \"total_ns\": " << e.total_ns << ", \"mean_ns\": " << e.mean_ns();
    }
    if (e.kind == Kind::kHistogram) {
      os << ", \"log2_buckets\": [";
      for (std::size_t b = 0; b < e.buckets.size(); ++b) {
        if (b != 0) os << ", ";
        os << e.buckets[b];
      }
      os << "]";
    }
    os << "}";
  }
  os << "\n" << indent << "}";
  return os.str();
}

std::string to_table(const Snapshot& snapshot) {
  AsciiTable table({"metric", "kind", "count", "total_ns", "mean_ns"},
                   {Align::kLeft, Align::kLeft, Align::kRight, Align::kRight, Align::kRight});
  for (const auto& e : snapshot.entries) {
    table.add_row({e.name, kind_name(e.kind), std::to_string(e.count),
                   std::to_string(e.total_ns), AsciiTable::num(e.mean_ns(), 1)});
  }
  return table.to_string();
}

}  // namespace issa::util::metrics
