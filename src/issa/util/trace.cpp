#include "issa/util/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>

#include "issa/util/json.hpp"
#include "issa/util/metrics.hpp"

namespace issa::util::trace {

namespace {

std::atomic<bool> g_enabled{false};

// Registry of per-thread rings.  The mutex guards registration and draining
// only; the producer path never takes it.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<SpanEvent> ring;
  std::atomic<std::uint64_t> seq{0};  // events ever pushed (monotonic)

  void push(SpanEvent&& event) {
    const std::uint64_t n = seq.load(std::memory_order_relaxed);
    ring[n % ring.size()] = std::move(event);
    seq.store(n + 1, std::memory_order_release);
  }
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;

  std::mutex forensic_mutex;
  std::vector<ForensicEvent> forensics;
  std::uint64_t forensics_dropped = 0;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: safe at exit
  return *r;
}

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    auto owned = std::make_unique<ThreadBuffer>();
    owned->tid = static_cast<std::uint32_t>(r.buffers.size());
    owned->ring.resize(kRingCapacity);
    ThreadBuffer* raw = owned.get();
    r.buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

// Per-thread stack of the open traced spans, outermost first.
thread_local std::vector<const Span*> t_span_stack;

void append_double(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

// Writes each attr as a JSON object member preceded by ", ".
void append_members(std::ostringstream& os, const std::vector<Attr>& attrs) {
  for (const Attr& a : attrs) {
    os << ", \"" << json::escape(a.key) << "\": ";
    switch (a.type) {
      case Attr::Type::kUint:
        os << a.u;
        break;
      case Attr::Type::kDouble:
        append_double(os, a.d);
        break;
      case Attr::Type::kString:
        os << "\"" << json::escape(a.s) << "\"";
        break;
    }
  }
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, const char* category) noexcept
    : timed_(metrics::enabled() || enabled()),
      traced_(enabled()),
      name_(name),
      category_(category) {
  if (!timed_) return;
  if (traced_) t_span_stack.push_back(this);
  start_ns_ = metrics::monotonic_ns();
}

Span::~Span() {
  if (!timed_) return;
  const std::uint64_t end_ns = metrics::monotonic_ns();
  // Spans sit at sample level and above, so the registry's locked lookup
  // stays off the hot path.
  metrics::Registry::instance().timer(name_).record_ns(end_ns - start_ns_);
  if (!traced_) return;
  t_span_stack.pop_back();
  ThreadBuffer& buffer = thread_buffer();
  SpanEvent event;
  event.name = name_;
  event.category = category_;
  event.start_ns = start_ns_;
  event.dur_ns = end_ns - start_ns_;
  event.tid = buffer.tid;
  event.depth = static_cast<std::uint32_t>(t_span_stack.size());
  event.attrs = std::move(attrs_);
  buffer.push(std::move(event));
}

void Span::attr_u64(const char* key, std::uint64_t value) {
  if (traced_) attrs_.push_back(Attr::u64(key, value));
}
void Span::attr_f64(const char* key, double value) {
  if (traced_) attrs_.push_back(Attr::f64(key, value));
}
void Span::attr_str(const char* key, std::string value) {
  if (traced_) attrs_.push_back(Attr::str(key, std::move(value)));
}

void record_forensic(ForensicEvent event) {
  if (!enabled()) return;
  ThreadBuffer& buffer = thread_buffer();
  event.time_ns = metrics::monotonic_ns();
  event.tid = buffer.tid;
  // Open-span attrs outermost first, the caller's extras last; a key keeps
  // its first position and takes its innermost value.
  std::vector<Attr> attrs;
  auto merge = [&attrs](const Attr& a) {
    const auto same = std::find_if(attrs.begin(), attrs.end(), [&a](const Attr& b) {
      return std::strcmp(a.key, b.key) == 0;
    });
    if (same == attrs.end()) {
      attrs.push_back(a);
    } else {
      *same = a;
    }
  };
  for (const Span* span : t_span_stack) {
    event.span_path.emplace_back(span->name_);
    for (const Attr& a : span->attrs_) merge(a);
  }
  for (const Attr& a : event.attrs) merge(a);
  event.attrs = std::move(attrs);

  Registry& r = registry();
  std::lock_guard lock(r.forensic_mutex);
  if (r.forensics.size() >= kMaxForensicEvents) {
    ++r.forensics_dropped;
    return;
  }
  r.forensics.push_back(std::move(event));
}

TraceData collect() {
  TraceData data;
  Registry& r = registry();
  {
    std::lock_guard lock(r.mutex);
    for (const auto& b : r.buffers) {
      const std::uint64_t seq = b->seq.load(std::memory_order_acquire);
      const std::uint64_t cap = b->ring.size();
      const std::uint64_t n = std::min(seq, cap);
      data.dropped += seq - n;
      // Oldest first when the ring wrapped.
      const std::uint64_t first = seq - n;
      for (std::uint64_t k = 0; k < n; ++k) {
        data.spans.push_back(b->ring[(first + k) % cap]);
      }
    }
  }
  {
    std::lock_guard lock(r.forensic_mutex);
    data.forensics = r.forensics;
    data.forensics_dropped = r.forensics_dropped;
  }
  std::stable_sort(data.spans.begin(), data.spans.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return data;
}

void clear() {
  Registry& r = registry();
  {
    std::lock_guard lock(r.mutex);
    for (auto& b : r.buffers) b->seq.store(0, std::memory_order_relaxed);
  }
  std::lock_guard lock(r.forensic_mutex);
  r.forensics.clear();
  r.forensics_dropped = 0;
}

// ---------------------------------------------------------------------------
// Serialization

namespace {

void append_ts_us(std::ostringstream& os, std::uint64_t ns) {
  // Chrome trace timestamps are microseconds; keep ns precision as decimals.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  os << buf;
}

}  // namespace

std::string to_chrome_json(const TraceData& data, std::string_view run_id) {
  std::ostringstream os;
  os << "{\n\"traceEvents\": [\n";
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
        "\"args\": {\"name\": \"issa\"}}";

  std::vector<std::uint32_t> tids;
  for (const auto& e : data.spans) tids.push_back(e.tid);
  for (const auto& f : data.forensics) tids.push_back(f.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (const std::uint32_t tid : tids) {
    os << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
       << ", \"args\": {\"name\": \"issa-worker-" << tid << "\"}}";
  }

  for (const auto& e : data.spans) {
    os << ",\n{\"name\": \"" << json::escape(e.name) << "\", \"cat\": \""
       << json::escape(e.category) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid
       << ", \"ts\": ";
    append_ts_us(os, e.start_ns);
    os << ", \"dur\": ";
    append_ts_us(os, e.dur_ns);
    os << ", \"args\": {\"depth\": " << e.depth;
    append_members(os, e.attrs);
    os << "}}";
  }

  for (const auto& f : data.forensics) {
    os << ",\n{\"name\": \"forensic." << json::escape(f.kind)
       << "\", \"cat\": \"forensic\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": "
       << f.tid << ", \"ts\": ";
    append_ts_us(os, f.time_ns);
    std::string path;
    for (const auto& name : f.span_path) {
      if (!path.empty()) path += " > ";
      path += name;
    }
    os << ", \"args\": {\"span_path\": \"" << json::escape(path) << "\"";
    append_members(os, f.attrs);
    auto series = [&os](const char* key, const std::vector<double>& values) {
      os << ", \"" << key << "\": [";
      for (std::size_t k = 0; k < values.size(); ++k) {
        if (k != 0) os << ", ";
        append_double(os, values[k]);
      }
      os << "]";
    };
    series("residual_history", f.residual_history);
    series("alpha_history", f.alpha_history);
    series("node_voltages", f.node_voltages);
    os << "}}";
  }

  os << "\n],\n\"displayTimeUnit\": \"ns\",\n\"metadata\": {\"run_id\": \""
     << json::escape(run_id) << "\", \"dropped_spans\": " << data.dropped
     << ", \"dropped_forensics\": " << data.forensics_dropped
     << ", \"clock\": \"steady_ns\"}\n}\n";
  return os.str();
}

}  // namespace issa::util::trace
