#include "issa/util/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
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

// Per-thread open-span stack (names only; attrs live on the Span itself) and
// key/value context pushed by ContextScope.
thread_local std::vector<const char*> t_span_stack;
thread_local std::vector<Attr> t_context;

void append_double(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void append_attrs_object(std::ostringstream& os, const std::vector<Attr>& attrs) {
  os << "{";
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    const Attr& a = attrs[i];
    os << (i == 0 ? "" : ", ") << "\"" << json::escape(a.key) << "\": ";
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
  os << "}";
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
  if (traced_) t_span_stack.push_back(name);
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

ContextScope::ContextScope(std::vector<Attr> attrs) : pushed_(0) {
  if (!enabled()) return;
  pushed_ = attrs.size();
  for (auto& a : attrs) t_context.push_back(std::move(a));
}

ContextScope::~ContextScope() {
  for (std::size_t i = 0; i < pushed_ && !t_context.empty(); ++i) t_context.pop_back();
}

void record_forensic(ForensicEvent event) {
  if (!enabled()) return;
  ThreadBuffer& buffer = thread_buffer();
  event.time_ns = metrics::monotonic_ns();
  event.tid = buffer.tid;
  event.span_path.assign(t_span_stack.begin(), t_span_stack.end());
  // Thread context first, caller extras after (caller wins on display).
  std::vector<Attr> attrs(t_context.begin(), t_context.end());
  attrs.insert(attrs.end(), std::make_move_iterator(event.attrs.begin()),
               std::make_move_iterator(event.attrs.end()));
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
    os << ", \"args\": ";
    std::vector<Attr> attrs = e.attrs;
    attrs.push_back(Attr::u64("depth", e.depth));
    append_attrs_object(os, attrs);
    os << "}";
  }

  for (const auto& f : data.forensics) {
    os << ",\n{\"name\": \"forensic." << json::escape(f.kind)
       << "\", \"cat\": \"forensic\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": "
       << f.tid << ", \"ts\": ";
    append_ts_us(os, f.time_ns);
    os << ", \"args\": ";
    std::vector<Attr> attrs = f.attrs;
    std::string path;
    for (const auto& name : f.span_path) {
      if (!path.empty()) path += " > ";
      path += name;
    }
    attrs.push_back(Attr::str("span_path", std::move(path)));
    attrs.push_back(Attr::u64("iterations", f.residual_history.size()));
    if (!f.residual_history.empty()) {
      attrs.push_back(Attr::f64("final_residual", f.residual_history.back()));
    }
    append_attrs_object(os, attrs);
    os << "}";
  }

  os << "\n],\n\"displayTimeUnit\": \"ns\",\n\"metadata\": {\"run_id\": \""
     << json::escape(run_id) << "\", \"dropped_spans\": " << data.dropped
     << ", \"dropped_forensics\": " << data.forensics_dropped
     << ", \"clock\": \"steady_ns\"}\n}\n";
  return os.str();
}

std::string forensics_to_json(const TraceData& data, std::string_view run_id) {
  std::ostringstream os;
  os << "{\n\"run_id\": \"" << json::escape(run_id) << "\",\n\"dropped\": "
     << data.forensics_dropped << ",\n\"events\": [";
  for (std::size_t i = 0; i < data.forensics.size(); ++i) {
    const ForensicEvent& f = data.forensics[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "{\"kind\": \"" << json::escape(f.kind) << "\", \"ts_ns\": " << f.time_ns
       << ", \"tid\": " << f.tid << ",\n \"span_path\": [";
    for (std::size_t k = 0; k < f.span_path.size(); ++k) {
      os << (k == 0 ? "" : ", ") << "\"" << json::escape(f.span_path[k]) << "\"";
    }
    os << "],\n \"attrs\": ";
    append_attrs_object(os, f.attrs);
    auto dump_series = [&os](const char* key, const std::vector<double>& values) {
      os << ",\n \"" << key << "\": [";
      for (std::size_t k = 0; k < values.size(); ++k) {
        if (k != 0) os << ", ";
        append_double(os, values[k]);
      }
      os << "]";
    };
    dump_series("residual_history", f.residual_history);
    dump_series("alpha_history", f.alpha_history);
    dump_series("node_voltages", f.node_voltages);
    os << "}";
  }
  os << "\n]\n}\n";
  return os.str();
}

namespace {

void write_text(const std::string& path, const std::string& text, const char* what) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(std::string(what) + ": cannot open " + path);
  out << text;
  out.flush();
  if (!out) throw std::runtime_error(std::string(what) + ": write failed for " + path);
}

}  // namespace

void write_chrome_json(const std::string& path, const TraceData& data,
                       std::string_view run_id) {
  write_text(path, to_chrome_json(data, run_id), "trace");
}

void write_forensics_json(const std::string& path, const TraceData& data,
                          std::string_view run_id) {
  write_text(path, forensics_to_json(data, run_id), "trace");
}

}  // namespace issa::util::trace
