#include "issa/core/run_context.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "issa/analysis/mc_cache.hpp"
#include "issa/util/faultpoint.hpp"
#include "issa/util/json.hpp"
#include "issa/util/metrics.hpp"
#include "issa/util/runinfo.hpp"
#include "issa/util/store/store.hpp"
#include "issa/util/trace.hpp"

namespace issa::core {

namespace {

// The run flags (see run_context.hpp), in util::Options spec form.
constexpr std::string_view kRunFlags[] = {
    "mc=N",           "seed=S",         "quarantine-max=F", "faults=spec",
    "cache[=dir]",    "metrics[=stem]", "trace[=stem]"};

// The value of --name=value, or `fallback` when absent or bare.
std::string value_or(const util::Options& options, std::string_view name,
                     std::string_view fallback) {
  if (const auto v = options.get_string(name); v && !v->empty()) return *v;
  return std::string(fallback);
}

// True for a non-empty string of decimal digits.  Unsigned values are
// checked with it first: std::stoul/stoull would also take a sign, and wrap
// "-4" to 2^64 - 4.
bool digits(const std::string& s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; });
}

// Parses --seed=S: exactly the decimal digits of a uint64_t.
std::uint64_t parse_seed(const std::string& v) {
  try {
    if (!digits(v)) throw std::invalid_argument("not digits");
    return std::stoull(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad --seed value (want 0 to 2^64 - 1 in decimal): " + v);
  }
}

analysis::McConfig mc_config(const util::Options& options, std::string run_id) {
  analysis::McConfig mc;
  mc.iterations = options.get_count_or("mc", 400);
  if (const auto seed = options.get_string("seed")) mc.seed = parse_seed(*seed);
  mc.max_quarantine_fraction =
      options.get_double_or("quarantine-max", mc.max_quarantine_fraction);
  if (mc.max_quarantine_fraction < 0.0 || mc.max_quarantine_fraction > 1.0) {
    throw std::invalid_argument("--quarantine-max must be a fraction in [0, 1]: " +
                                *options.get_string("quarantine-max"));
  }
  mc.run_id = std::move(run_id);
  // Every distribution reports a standard deviation, which takes two samples.
  if (mc.iterations < 2) {
    throw std::invalid_argument("--mc=" + std::to_string(mc.iterations) +
                                ": a run needs at least 2 samples");
  }
  return mc;
}

std::vector<std::string_view> with_run_flags(const std::vector<std::string_view>& extra) {
  std::vector<std::string_view> flags = extra;
  flags.insert(flags.end(), std::begin(kRunFlags), std::end(kRunFlags));
  return flags;
}

// Writes one sidecar, the only way a run writes a file, and says so on stdout;
// throws std::runtime_error when the file cannot be written.
void write_sidecar(const std::string& path, const std::string& text,
                   const std::string& note = "") {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("write failed for " + path);
  std::cout << "wrote " << path << note << "\n";
}

// Runs one step of finish(); a failure is reported and does not stop the
// remaining steps.
template <typename Step>
bool guarded(const char* what, Step&& step) {
  try {
    step();
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", what, e.what());
    return false;
  }
}

}  // namespace

RunContext::RunContext(int argc, const char* const* argv, std::string_view name,
                       const std::vector<std::string_view>& extra_flags)
    : options_(argc, argv, with_run_flags(extra_flags)),
      name_(name),
      run_id_(util::generate_run_id()),
      start_(std::chrono::steady_clock::now()) {
  try {
    mc_ = mc_config(options_, run_id_);
  } catch (const std::invalid_argument& e) {
    options_.fail(e.what());
  }
  if (const std::string spec = value_or(options_, "faults", ""); !spec.empty()) {
    try {
      util::faultpoint::configure(spec);
    } catch (const std::invalid_argument& e) {
      options_.fail(std::string("[issa] bad --faults spec: ") + e.what());
    }
  }

  metrics_ = options_.has_flag("metrics");
  if (metrics_) util::metrics::set_enabled(true);
  if (options_.has_flag("cache")) {
    // One shared default directory, so a warm rerun of any binary hits the
    // same store.
    cache_dir_ = value_or(options_, "cache", ".issa-cache");
    analysis::mc_cache::open(cache_dir_);
    const util::store::StoreStats stats = analysis::mc_cache::store()->stats();
    std::cout << "cache: loaded " << stats.records_loaded << " record(s) from "
              << stats.segments_loaded << " segment(s) in " << cache_dir_;
    if (stats.corrupt_segments > 0) {
      std::cout << " (" << stats.corrupt_segments << " segment(s) had a damaged tail; "
                << stats.bytes_dropped << " byte(s) dropped, will re-simulate)";
    }
    std::cout << "\n";
  }
  trace_ = options_.has_flag("trace");
  if (trace_) util::trace::set_enabled(true);
}

RunContext::~RunContext() { finish(); }

bool RunContext::finish() {
  if (finished_) return ok_;
  finished_ = true;
  if (trace_) ok_ &= guarded("trace report failed", [this] { write_trace(); });
  if (!cache_dir_.empty()) ok_ &= guarded("cache close failed", [this] { close_cache(); });
  if (metrics_) ok_ &= guarded("metrics report failed", [this] { write_metrics(); });
  return ok_;
}

void RunContext::write_trace() {
  // Disable before draining: collect() requires quiescent producers.
  util::trace::set_enabled(false);
  const util::trace::TraceData data = util::trace::collect();
  write_sidecar(value_or(options_, "trace", name_) + ".trace.json",
                util::trace::to_chrome_json(data, run_id_),
                " (" + std::to_string(data.spans.size()) + " spans, " +
                    std::to_string(data.dropped) + " dropped, " +
                    std::to_string(data.forensics.size()) + " forensic events)");
}

void RunContext::close_cache() {
  const analysis::mc_cache::CacheCounts counts = analysis::mc_cache::counts();
  analysis::mc_cache::close();
  std::cout << "cache: hits=" << counts.hits << " misses=" << counts.misses
            << " stores=" << counts.stores << " dir=" << cache_dir_ << "\n";
}

void RunContext::write_metrics() {
  const double wall_clock_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  const util::metrics::Snapshot snapshot = util::metrics::Registry::instance().snapshot();
  util::metrics::set_enabled(false);
  std::size_t quarantined = 0;
  std::size_t recovered = 0;
  for (const ExperimentRow& row : rows_) {
    quarantined += row.quarantined;
    recovered += row.recovered;
  }

  using util::json::escape;
  std::ostringstream os;
  os << "{\n  \"title\": \"" << escape(name_) << "\",\n";
  os << "  \"run_id\": \"" << escape(run_id_) << "\",\n";
  os << "  \"wall_clock_s\": " << wall_clock_s << ",\n";
  os << "  \"rss_peak_kb\": " << util::rss_peak_kb() << ",\n";
  // The degradation summary of the attached conditions comes first, so a
  // degraded run shows at the top of the report.
  os << "  \"quarantined_samples\": " << quarantined << ",\n";
  os << "  \"recovered_samples\": " << recovered << ",\n";
  os << "  \"degraded_conditions\": [";
  bool first = true;
  for (const ExperimentRow& row : rows_) {
    if (!row.degraded() && row.recovered == 0) continue;
    os << (first ? "\n" : ",\n") << "    {\"condition\": \"" << escape(row.condition_label())
       << "\", \"quarantined\": " << row.quarantined << ", \"recovered\": " << row.recovered
       << "}";
    first = false;
  }
  os << (first ? "],\n" : "\n  ],\n");
  os << "  \"metrics\": " << util::metrics::to_json(snapshot, "  ") << ",\n";
  os << "  \"conditions\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"condition\": \""
       << escape(rows_[i].condition_label())
       << "\", \"metrics\": " << util::metrics::to_json(rows_[i].metrics, "    ") << "}";
  }
  os << (rows_.empty() ? "]\n}\n" : "\n  ]\n}\n");
  write_sidecar(value_or(options_, "metrics", name_) + ".metrics.json", os.str());
}

}  // namespace issa::core
