// trace_report: terminal summaries of the sidecars written by --trace.
//
//   trace_report <run.trace.json>           full report
//   trace_report --check <run.trace.json>   validate only (CI)
//
// The full report shows where the run's wall clock went (per-span-name
// breakdown, with the CPU time over the wall time of the spans that record
// their thread's CPU time), the shape of each span population (log2
// duration histograms), the slowest Monte-Carlo samples with their CPU
// time, condition, sample and seed,
// how busy each worker thread was (from pool.task spans), and any solver
// forensic events with every scalar arg.  Both modes read only the Chrome
// trace-event document --trace writes (the format Perfetto and
// chrome://tracing load) and check every event structurally: a forensic
// instant event must carry its residual_history, alpha_history and
// node_voltages arrays and no args key twice.  --check also fails a trace
// that dropped spans.
// Any malformation or loss exits non-zero, which is what the CI smoke job
// gates on.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "issa/util/json.hpp"
#include "issa/util/table.hpp"

namespace {

using issa::util::AsciiTable;
using issa::util::json::Value;

// Rows of the "Slowest samples" table.
constexpr std::size_t kSlowestSamples = 10;

// The args of an mc.sample span that name its sample, in table order.
constexpr const char* kSampleArgs[] = {"condition", "sample", "seed"};

struct SpanRec {
  std::string name;
  std::string cat;
  double start_ns = 0.0;
  double dur_ns = 0.0;
  std::uint32_t tid = 0;
  double cpu_ns = -1.0;  // the thread's CPU time inside the span; -1 if not recorded
  std::vector<std::string> sample_args;  // mc.sample only: kSampleArgs' values, "-" if absent
};

struct ForensicRec {
  std::string name;  // "forensic.<kind>"
  std::uint32_t tid = 0;
  std::string span_path;
  std::string detail;  // flattened scalar args
};

struct Trace {
  std::vector<SpanRec> spans;
  std::vector<ForensicRec> forensics;
  std::string run_id;
  double dropped_spans = 0.0;
  double dropped_forensics = 0.0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// "key=value" for every scalar arg but the span path, then the Newton
// iteration count and final residual from a non-empty residual history.
std::string flatten_forensic_args(const Value& args) {
  std::string out;
  auto append = [&out](const std::string& key, const std::string& value) {
    if (!out.empty()) out += " ";
    out += key + "=" + value;
  };
  for (const auto& [key, v] : args.as_object()) {
    if (key == "span_path") continue;
    if (v.is_string()) {
      append(key, v.as_string());
    } else if (v.is_number()) {
      append(key, format_number(v.as_number()));
    }
  }
  const std::vector<Value>& residuals = args.at("residual_history").as_array();
  if (!residuals.empty()) {
    append("iterations", std::to_string(residuals.size()));
    if (residuals.back().is_number()) {
      append("final_residual", format_number(residuals.back().as_number()));
    }
  }
  return out;
}

// --- Chrome trace-event ingestion -----------------------------------------

const char* check_chrome_event(const Value& e) {
  if (!e.is_object()) return "traceEvents entry is not an object";
  const Value* name = e.find("name");
  if (name == nullptr || !name->is_string()) return "event without a string \"name\"";
  const Value* ph = e.find("ph");
  if (ph == nullptr || !ph->is_string() || ph->as_string().empty()) {
    return "event without a string \"ph\"";
  }
  const std::string& phase = ph->as_string();
  if (phase == "M") return nullptr;  // metadata events carry no timestamps
  const Value* ts = e.find("ts");
  if (ts == nullptr || !ts->is_number()) return "timed event without numeric \"ts\"";
  const Value* tid = e.find("tid");
  if (tid == nullptr || !tid->is_number()) return "timed event without numeric \"tid\"";
  if (phase == "X") {
    const Value* dur = e.find("dur");
    if (dur == nullptr || !dur->is_number()) return "complete event without numeric \"dur\"";
    if (dur->as_number() < 0) return "complete event with negative \"dur\"";
  }
  if (phase == "i") {
    const Value* args = e.find("args");
    if (args == nullptr || !args->is_object()) return "forensic event without \"args\"";
    for (const char* key : {"residual_history", "alpha_history", "node_voltages"}) {
      const Value* series = args->find(key);
      if (series == nullptr || !series->is_array()) {
        return "forensic event without a residual_history, alpha_history or node_voltages array";
      }
    }
    std::set<std::string> keys;
    for (const auto& member : args->as_object()) {
      if (!keys.insert(member.first).second) return "forensic event repeats an args key";
    }
  }
  return nullptr;
}

Trace ingest_chrome(const Value& doc) {
  Trace trace;
  const Value& events = doc.at("traceEvents");
  for (const Value& e : events.as_array()) {
    if (const char* err = check_chrome_event(e)) throw std::runtime_error(err);
    const std::string& ph = e.at("ph").as_string();
    if (ph == "X") {
      SpanRec s;
      s.name = e.at("name").as_string();
      s.cat = e.string_or("cat", "");
      s.start_ns = e.at("ts").as_number() * 1000.0;
      s.dur_ns = e.at("dur").as_number() * 1000.0;
      s.tid = static_cast<std::uint32_t>(e.at("tid").as_number());
      const Value* args = e.find("args");
      if (args != nullptr && args->is_object()) {
        if (const Value* cpu = args->find("cpu_us"); cpu != nullptr && cpu->is_number()) {
          s.cpu_ns = cpu->as_number() * 1000.0;
        }
      }
      if (s.name == "mc.sample") {
        for (const char* key : kSampleArgs) {
          const Value* v = args != nullptr && args->is_object() ? args->find(key) : nullptr;
          if (v != nullptr && v->is_string()) {
            s.sample_args.push_back(v->as_string());
          } else if (v != nullptr && v->is_number()) {
            s.sample_args.push_back(format_number(v->as_number()));
          } else {
            s.sample_args.push_back("-");
          }
        }
      }
      trace.spans.push_back(std::move(s));
    } else if (ph == "i") {
      ForensicRec f;
      f.name = e.at("name").as_string();
      f.tid = static_cast<std::uint32_t>(e.at("tid").as_number());
      const Value& args = e.at("args");
      f.span_path = args.string_or("span_path", "");
      f.detail = flatten_forensic_args(args);
      trace.forensics.push_back(std::move(f));
    }
  }
  if (const Value* meta = doc.find("metadata"); meta != nullptr && meta->is_object()) {
    trace.run_id = meta->string_or("run_id", "");
    trace.dropped_spans = meta->number_or("dropped_spans", 0.0);
    trace.dropped_forensics = meta->number_or("dropped_forensics", 0.0);
  }
  return trace;
}

// Parses the whole document, requires a traceEvents array, and
// structurally checks every event (ingest_chrome runs check_chrome_event on
// each entry).
Trace load(const std::string& path) {
  const Value doc = Value::parse(read_file(path));
  const Value* events = doc.find("traceEvents");
  if (events == nullptr) throw std::runtime_error("document has no \"traceEvents\" array");
  if (!events->is_array()) throw std::runtime_error("\"traceEvents\" is not an array");
  return ingest_chrome(doc);
}

// --- Reporting -------------------------------------------------------------

std::string fmt_ms(double ns) { return AsciiTable::num(ns / 1e6, 2); }
std::string fmt_us(double ns) { return AsciiTable::num(ns / 1e3, 1); }

struct NameStats {
  std::size_t count = 0;
  double total_ns = 0.0;
  double cpu_ns = 0.0;       // CPU time of the spans that recorded it
  double cpu_wall_ns = 0.0;  // wall time of the same spans
  double min_ns = 0.0;
  double max_ns = 0.0;
  std::vector<std::size_t> log2_us;  // bucket b: [2^b, 2^(b+1)) microseconds

  void add(double dur_ns, double span_cpu_ns) {
    if (span_cpu_ns >= 0.0) {
      cpu_ns += span_cpu_ns;
      cpu_wall_ns += dur_ns;
    }
    if (count == 0) {
      min_ns = max_ns = dur_ns;
    } else {
      min_ns = std::min(min_ns, dur_ns);
      max_ns = std::max(max_ns, dur_ns);
    }
    ++count;
    total_ns += dur_ns;
    const double us = dur_ns / 1e3;
    const std::size_t bucket =
        us < 1.0 ? 0 : static_cast<std::size_t>(std::floor(std::log2(us))) + 1;
    if (log2_us.size() <= bucket) log2_us.resize(bucket + 1, 0);
    ++log2_us[bucket];
  }
};

void print_report(const Trace& trace) {
  if (!trace.run_id.empty()) std::printf("run id       : %s\n", trace.run_id.c_str());
  std::printf("spans        : %zu (%.0f dropped)\n", trace.spans.size(), trace.dropped_spans);
  std::printf("forensics    : %zu (%.0f dropped)\n", trace.forensics.size(),
              trace.dropped_forensics);
  if (trace.spans.empty()) return;

  double t_min = trace.spans.front().start_ns;
  double t_max = 0.0;
  for (const auto& s : trace.spans) {
    t_min = std::min(t_min, s.start_ns);
    t_max = std::max(t_max, s.start_ns + s.dur_ns);
  }
  const double wall_ns = std::max(1.0, t_max - t_min);
  std::printf("trace window : %s ms\n\n", fmt_ms(wall_ns).c_str());

  std::map<std::string, NameStats> by_name;
  for (const auto& s : trace.spans) by_name[s.name].add(s.dur_ns, s.cpu_ns);

  std::vector<std::pair<std::string, const NameStats*>> order;
  for (const auto& [name, stats] : by_name) order.emplace_back(name, &stats);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second->total_ns > b.second->total_ns;
  });

  std::printf("### Per-span breakdown (sorted by total time)\n\n");
  AsciiTable table(
      {"span", "count", "total(ms)", "mean(us)", "min(us)", "max(us)", "%window", "cpu/wall"});
  for (const auto& [name, stats] : order) {
    table.add_row({name, std::to_string(stats->count), fmt_ms(stats->total_ns),
                   fmt_us(stats->total_ns / static_cast<double>(stats->count)),
                   fmt_us(stats->min_ns), fmt_us(stats->max_ns),
                   AsciiTable::num(100.0 * stats->total_ns / wall_ns, 1),
                   stats->cpu_wall_ns > 0.0 ? AsciiTable::num(stats->cpu_ns / stats->cpu_wall_ns, 2)
                                            : "-"});
  }
  std::ostringstream os;
  os << table;
  std::printf("%s\n", os.str().c_str());

  std::printf("### Span-duration histograms (log2 microsecond buckets)\n\n");
  for (const auto& [name, stats] : order) {
    std::printf("%s\n", name.c_str());
    std::size_t peak = 1;
    for (const std::size_t c : stats->log2_us) peak = std::max(peak, c);
    for (std::size_t b = 0; b < stats->log2_us.size(); ++b) {
      if (stats->log2_us[b] == 0) continue;
      const double lo = b == 0 ? 0.0 : std::pow(2.0, static_cast<double>(b - 1));
      const double hi = std::pow(2.0, static_cast<double>(b));
      const int bar = static_cast<int>(40.0 * static_cast<double>(stats->log2_us[b]) /
                                       static_cast<double>(peak));
      std::printf("  [%8.0f, %8.0f) us |%-40.*s| %zu\n", lo, hi, bar,
                  "########################################", stats->log2_us[b]);
    }
  }
  std::printf("\n");

  // The slowest samples: which condition, sample and seed were hard.
  std::vector<const SpanRec*> samples;
  for (const auto& s : trace.spans) {
    if (s.name == "mc.sample") samples.push_back(&s);
  }
  if (!samples.empty()) {
    const std::size_t shown = std::min(samples.size(), kSlowestSamples);
    std::partial_sort(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(shown),
                      samples.end(),
                      [](const SpanRec* a, const SpanRec* b) { return a->dur_ns > b->dur_ns; });
    std::printf("### Slowest samples (%zu of %zu mc.sample spans)\n\n", shown, samples.size());
    AsciiTable slowest({"ms", "cpu ms", "condition", "sample", "seed"});
    for (std::size_t i = 0; i < shown; ++i) {
      const double cpu_ns = samples[i]->cpu_ns;
      std::vector<std::string> row{fmt_ms(samples[i]->dur_ns),
                                   cpu_ns >= 0.0 ? fmt_ms(cpu_ns) : "-"};
      row.insert(row.end(), samples[i]->sample_args.begin(), samples[i]->sample_args.end());
      slowest.add_row(std::move(row));
    }
    std::ostringstream sos;
    sos << slowest;
    std::printf("%s\n", sos.str().c_str());
  }

  // Worker utilization: the pool.task spans cover the time each thread spent
  // executing queued work; everything else inside the window is idle/queue
  // time on that thread.
  std::map<std::uint32_t, std::pair<std::size_t, double>> pool;  // tid -> (tasks, busy)
  for (const auto& s : trace.spans) {
    if (s.name == "pool.task") {
      auto& [count, busy] = pool[s.tid];
      ++count;
      busy += s.dur_ns;
    }
  }
  if (!pool.empty()) {
    std::printf("### Worker utilization (pool.task spans per thread)\n\n");
    AsciiTable workers({"tid", "tasks", "busy(ms)", "utilization(%)"});
    for (const auto& [tid, stats] : pool) {
      workers.add_row({std::to_string(tid), std::to_string(stats.first),
                       fmt_ms(stats.second), AsciiTable::num(100.0 * stats.second / wall_ns, 1)});
    }
    std::ostringstream wos;
    wos << workers;
    std::printf("%s\n", wos.str().c_str());
  }

  if (!trace.forensics.empty()) {
    std::printf("### Forensic events\n\n");
    for (const auto& f : trace.forensics) {
      std::printf("- %s (tid %u)\n", f.name.c_str(), f.tid);
      if (!f.span_path.empty()) std::printf("    in: %s\n", f.span_path.c_str());
      if (!f.detail.empty()) std::printf("    %s\n", f.detail.c_str());
    }
  }
}

int check(const std::string& path) {
  const Trace trace = load(path);
  // A trace that lost spans to ring wrap-around cannot say where the time
  // went, however well-formed it is.
  if (trace.dropped_spans > 0) {
    throw std::runtime_error("lossy trace: metadata.dropped_spans = " +
                             std::to_string(static_cast<std::uint64_t>(trace.dropped_spans)));
  }
  std::printf("OK: %s is valid Chrome trace-event JSON (%zu spans, %zu forensic events)\n",
              path.c_str(), trace.spans.size(), trace.forensics.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_only = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--check") {
      check_only = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: trace_report [--check] <run.trace.json>\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "trace_report: unknown flag %s\n", argv[i]);
      return 2;
    } else if (path.empty()) {
      path = std::string(arg);
    } else {
      std::fprintf(stderr, "trace_report: more than one input file\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: trace_report [--check] <run.trace.json>\n");
    return 2;
  }
  try {
    if (check_only) return check(path);
    print_report(load(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_report: %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  return 0;
}
