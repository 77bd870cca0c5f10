// Hierarchical span tracing: where the wall-clock of a run goes, span by
// span, plus failure forensics for the nonlinear solver.
//
// Model: a Span is an RAII scope and the stack's only timer: closing one adds
// its duration to the util::metrics timer of its name.  While tracing is on,
// opening a span also pushes it onto a thread-local stack (giving every span
// its nesting depth, and forensic bundles their span path and context) and
// closing one appends a completed-span record to a per-thread ring buffer.
// The producer path is lock-free: a monotonically increasing local sequence
// number plus a plain write into the thread's own ring slot — no shared write
// line, no mutex, no allocation for attribute-free spans.  The rings are
// drained by collect() once the traced region has quiesced, and the merged
// event set serializes to one Chrome trace-event JSON document (loadable in
// Perfetto / chrome://tracing).  Spans sit at sample granularity and above
// (spans::kAll); Newton and LU work is only counted.
//
// Like util/metrics, tracing starts disabled: with metrics off too, every
// span site pays two relaxed atomic loads + a predicted branch until
// set_enabled(true) (the --trace run flag).
//
// Forensics: when a Newton solve gives up or a transient's step-size control
// collapses, the solver captures a diagnostic bundle — residual and damping
// histories, the node-voltage vector, the enclosing span path, and the attrs
// of the spans open on the failing thread (the mc.sample span names the
// sample, seed and operating condition).  Bundles are rare by construction,
// so they go through a mutex-protected bounded list; the hot path only ever
// asks a single relaxed question ("is tracing on?") before doing any work.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace issa::util::trace {

/// Completed spans kept per thread.  Holds a full 400-sample table run
/// without dropping; a run that overflows a ring wraps (oldest events
/// overwritten, counted in TraceData::dropped).
inline constexpr std::size_t kRingCapacity = std::size_t{1} << 16;
/// Bound on stored forensic bundles.
inline constexpr std::size_t kMaxForensicEvents = 64;

/// Turns span collection (and forensic capture) on or off at run time
/// (default: off).
void set_enabled(bool on) noexcept;

/// One relaxed load; solver failure paths check this before assembling a
/// forensic bundle.
bool enabled() noexcept;

/// One typed key/value pair attached to a span or forensic event.  Keys are
/// string literals (the tracer stores the pointer, not a copy).
struct Attr {
  enum class Type { kUint, kDouble, kString };
  const char* key = "";
  Type type = Type::kUint;
  std::uint64_t u = 0;
  double d = 0.0;
  std::string s;

  static Attr u64(const char* key, std::uint64_t value) {
    Attr a;
    a.key = key;
    a.type = Type::kUint;
    a.u = value;
    return a;
  }
  static Attr f64(const char* key, double value) {
    Attr a;
    a.key = key;
    a.type = Type::kDouble;
    a.d = value;
    return a;
  }
  static Attr str(const char* key, std::string value) {
    Attr a;
    a.key = key;
    a.type = Type::kString;
    a.s = std::move(value);
    return a;
  }
};

/// A completed span as drained from a thread ring.
struct SpanEvent {
  const char* name = "";      ///< string literal passed to the Span
  const char* category = "";  ///< coarse grouping ("sim", "mc", "pool", ...)
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;   ///< stable small per-thread index (0, 1, ...)
  std::uint32_t depth = 0; ///< nesting depth at open time (0 = top level)
  std::vector<Attr> attrs;
};

/// Diagnostic bundle captured at a solver failure.
struct ForensicEvent {
  std::string kind;    ///< "newton_nonconvergence" | "transient_step_collapse"
  std::uint64_t time_ns = 0;
  std::uint32_t tid = 0;
  std::vector<std::string> span_path;  ///< enclosing spans, outermost first
  std::vector<Attr> attrs;             ///< open-span attrs + caller extras
  std::vector<double> residual_history;  ///< |F| per Newton iteration
  std::vector<double> alpha_history;     ///< accepted damping per iteration
  std::vector<double> node_voltages;     ///< full node vector at failure
};

/// RAII span (see the file comment): timed while metrics or tracing is on,
/// recorded as a raw event only while tracing is on.  `name` and `category`
/// must be string literals (or otherwise outlive collect()).
class Span {
 public:
  explicit Span(const char* name, const char* category = "app") noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when the span keeps a raw trace event; callers guard attribute
  /// construction with it.
  bool traced() const noexcept { return traced_; }

  /// Attach attributes (no-ops on an untraced span).
  void attr_u64(const char* key, std::uint64_t value);
  void attr_f64(const char* key, double value);
  void attr_str(const char* key, std::string value);

 private:
  friend void record_forensic(ForensicEvent event);

  bool timed_;
  bool traced_;
  std::uint64_t start_ns_ = 0;
  const char* name_ = "";
  const char* category_ = "";
  std::vector<Attr> attrs_;
};

/// Records a forensic bundle; the caller supplies kind, histories and extra
/// attrs.  Fills time_ns, tid and span_path from the calling thread, and
/// prepends the attrs of its open spans, outermost first: a key appears
/// once, with the value of the innermost span (or the caller) that set it.
/// No-op unless enabled(); the stored list is bounded by kMaxForensicEvents
/// (further events only bump TraceData::forensics_dropped).
void record_forensic(ForensicEvent event);

/// Everything collected so far: all thread rings merged (sorted by start
/// time) plus the forensic list.  Call with tracing disabled or the traced
/// region quiescent — draining does not synchronize with producers.
struct TraceData {
  std::vector<SpanEvent> spans;
  std::vector<ForensicEvent> forensics;
  std::uint64_t dropped = 0;            ///< spans lost to ring wrap-around
  std::uint64_t forensics_dropped = 0;  ///< bundles past kMaxForensicEvents
};

TraceData collect();

/// Drops every buffered span and forensic event (rings stay registered).
void clear();

/// Chrome trace-event JSON: {"traceEvents": [...], "metadata": {...}}.
/// Spans become complete ("ph":"X") events with microsecond timestamps;
/// forensic bundles become instant ("ph":"i") events so they show up on the
/// timeline, their args holding the context attrs, the span path and the
/// residual_history, alpha_history and node_voltages arrays; thread-name
/// metadata records the tid mapping.
std::string to_chrome_json(const TraceData& data, std::string_view run_id = {});

/// Well-known span names (one taxonomy across the stack; see DESIGN.md §13).
namespace spans {
inline constexpr const char* kExperimentCell = "experiment.cell";
inline constexpr const char* kMcOffsetDistribution = "mc.offset_distribution";
inline constexpr const char* kMcDelayDistribution = "mc.delay_distribution";
inline constexpr const char* kMcSample = "mc.sample";
inline constexpr const char* kDcSolve = "sim.dc_solve";
inline constexpr const char* kTransient = "sim.transient";
inline constexpr const char* kPoolTask = "pool.task";
inline constexpr const char* kSaOffsetModelFit = "sa.offset_model_fit";
/// Every name above; util::metrics pre-registers a timer for each.
inline constexpr std::array kAll = {kExperimentCell, kMcOffsetDistribution,
                                    kMcDelayDistribution, kMcSample, kDcSolve,
                                    kTransient, kPoolTask, kSaOffsetModelFit};
}  // namespace spans

}  // namespace issa::util::trace
