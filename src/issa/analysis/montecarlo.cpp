#include "issa/analysis/montecarlo.hpp"

#include <atomic>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>

#include "issa/aging/bti_model.hpp"
#include "issa/aging/bti_params.hpp"
#include "issa/analysis/mc_cache.hpp"
#include "issa/sa/double_tail.hpp"
#include "issa/util/faultpoint.hpp"
#include "issa/util/metrics.hpp"
#include "issa/util/store/store.hpp"
#include "issa/util/thread_pool.hpp"
#include "issa/util/trace.hpp"
#include "issa/variation/mismatch.hpp"
#include "issa/workload/stress_map.hpp"

namespace issa::analysis {

namespace {

namespace mnames = util::metrics::names;

// The engine's counters, looked up in the registry once.
struct Counters {
  util::metrics::Registry& registry = util::metrics::Registry::instance();
  util::metrics::Counter& samples = registry.counter(mnames::kMcSamples);
  util::metrics::Counter& saturated = registry.counter(mnames::kMcSaturatedSamples);
  util::metrics::Counter& failures = registry.counter(mnames::kMcSampleFailures);
  util::metrics::Counter& quarantined = registry.counter(mnames::kMcQuarantinedSamples);
};

Counters& counters() {
  static Counters c;
  return c;
}

// FNV-1a, for the deterministic auto run id.  The id is stamped into a
// quarantine record when the distribution is assembled, never stored with a
// cached sample, so changing it renames future records only.
std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) noexcept {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::atomic<std::uint64_t> g_stress_map_builds{0};

// The passes' reports since the last take_pass_reports(), in run order.
std::mutex g_pass_mutex;
std::vector<PassReport> g_passes;

// effective_run_id() of a condition labelled `label`.
std::string run_id_for(const std::string& label, const McConfig& mc) {
  if (!mc.run_id.empty()) return mc.run_id;
  std::uint64_t h = fnv1a(label.data(), label.size(), 1469598103934665603ull);
  h = fnv1a(&mc.seed, sizeof mc.seed, h);
  char buf[24];
  std::snprintf(buf, sizeof buf, "auto-%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

double OffsetDistribution::spec() const {
  return offset_voltage_spec(summary.mean, summary.stddev);
}

std::uint64_t condition_stress_map_builds() noexcept {
  return g_stress_map_builds.load(std::memory_order_relaxed);
}

std::string effective_run_id(const Condition& condition, const McConfig& mc) {
  return run_id_for(condition_label(condition), mc);
}

aging::DeviceStressMap condition_stress_map(const Condition& condition) {
  g_stress_map_builds.fetch_add(1, std::memory_order_relaxed);
  const double vdd = condition.config.vdd;
  switch (condition.kind) {
    case sa::SenseAmpKind::kNssa:
      return workload::nssa_stress_map(condition.workload, vdd);
    case sa::SenseAmpKind::kIssa:
      return workload::issa_stress_map(condition.workload, vdd);
    case sa::SenseAmpKind::kDoubleTail:
      return sa::double_tail_stress_map(condition.workload, vdd);
    case sa::SenseAmpKind::kDoubleTailSwitching:
      return sa::double_tail_switching_stress_map(condition.workload, vdd);
  }
  throw std::logic_error("condition_stress_map: unknown kind " +
                         std::to_string(static_cast<int>(condition.kind)));
}

sa::SenseAmpCircuit build_sample(const Condition& condition, const McConfig& mc,
                                 std::size_t sample_index,
                                 const aging::DeviceStressMap* stress) {
  sa::SenseAmpCircuit circuit = sa::build_sense_amp(condition.kind, condition.config);
  variation::apply_process_variation(circuit.netlist(), variation::default_mismatch(), mc.seed,
                                     sample_index);
  if (condition.aged()) {
    aging::DeviceStressMap local;
    if (stress == nullptr) {
      local = condition_stress_map(condition);
      stress = &local;
    }
    aging::apply_bti_aging(circuit.netlist(), aging::default_bti(), *stress,
                           condition.stress_time_s, condition.config.temperature_k(), mc.seed,
                           sample_index);
  }
  return circuit;
}

namespace {

// Per-sample outcomes, as CachedSample::status persists them: a warm rerun
// replays the full outcome record.
enum : unsigned char {
  kSampleOk = 0,
  kSampleRecovered = 1,
  kSampleQuarantined = 2,
};

// Puts the cell's label and the seed on a traced span.
void attr_condition(util::trace::Span& span, const std::string& label, const McConfig& mc) {
  span.attr_str("condition", label);
  span.attr_u64("seed", mc.seed);
}

enum class Quantity { kOffset, kDelay };

// One quantity a pass measures on every sample, and its per-sample outcomes
// in the form the sample cache stores them.  The slots are index-addressed
// (one per sample, no locks), so recording an outcome is scheduling-free and
// the quarantine list assembled from them is bit-identical for every thread
// count.
struct Measurement {
  Quantity quantity;
  const char* key;  // the mc_cache record kind; names the measurement in reports
  std::vector<mc_cache::CachedSample> slots;
};

// Measures a built sample into its slot.  The offset's retry (attempt 1) runs
// the robust profile: full-window bisection over full-length transients
// approaches the flip from different operating points than the model-started
// fast path — the "perturbed initial guess".  The delay has no search
// profile; its retry draws fresh injected-fault decisions only.
void measure(Quantity quantity, sa::SenseAmpCircuit& circuit, mc_cache::CachedSample& slot,
             int attempt) {
  if (quantity == Quantity::kDelay) {
    slot.value = sa::measure_delay(circuit).worst();
    return;
  }
  sa::OffsetSearchOptions search;
  search.robust = attempt > 0;
  const sa::OffsetResult r = sa::measure_offset(circuit, search);
  slot.value = r.offset;
  slot.saturated = r.saturated;
}

// Runs one measurement of sample i on its build.  A measurement that throws
// std::runtime_error (solver failures: ConvergenceError, singular LU,
// unresolvable delay, injected faults) is retried once on the same build
// under its own fault draws (attempt = 1), and quarantined if the retry
// fails too; the quarantine's forensic event takes the sample, seed and
// condition of the open mc.sample span.  Reusing the build is exact: every
// run re-drives the bitlines and no measurement touches a threshold shift.
// logic_error and friends still propagate: those are bugs, not sample
// pathologies.
void measure_with_retry(Measurement& m, sa::SenseAmpCircuit& circuit, std::size_t i,
                        const std::string& run_id) {
  mc_cache::CachedSample& slot = m.slots[i];
  try {
    measure(m.quantity, circuit, slot, 0);
  } catch (const std::runtime_error&) {
    counters().failures.add();
    try {
      util::faultpoint::RetryScope retry;
      measure(m.quantity, circuit, slot, 1);
      slot.status = kSampleRecovered;
    } catch (const std::runtime_error& second) {
      slot.status = kSampleQuarantined;
      slot.error = second.what();
      counters().quarantined.add();
      if (util::trace::enabled()) {
        util::trace::ForensicEvent event;
        event.kind = "mc_sample_quarantined";
        event.attrs.push_back(util::trace::Attr::str("measurement", m.key));
        event.attrs.push_back(util::trace::Attr::str("run_id", run_id));
        event.attrs.push_back(util::trace::Attr::str("error", slot.error));
        util::trace::record_forensic(std::move(event));
      }
    }
  }
}

// One measurement's distribution: its per-sample values (NaN where
// quarantined), the summary over the valid ones and the degradation record,
// in an OffsetDistribution (a delay's saturated count stays 0).  Counts its
// saturated samples, and says so on stderr when it is degraded.
OffsetDistribution assemble(Measurement& m, const std::string& label, const McConfig& mc,
                            const std::string& run_id) {
  OffsetDistribution dist;
  McDegradation& deg = dist.degradation;
  std::vector<double> valid;
  for (std::size_t i = 0; i < m.slots.size(); ++i) {
    mc_cache::CachedSample& slot = m.slots[i];
    dist.offsets.push_back(slot.value);
    dist.saturated_count += slot.saturated ? 1 : 0;
    if (slot.status == kSampleQuarantined) {
      deg.quarantined.push_back(
          QuarantinedSample{i, mc.seed, label, run_id, std::move(slot.error)});
      continue;
    }
    valid.push_back(slot.value);
    if (slot.status == kSampleRecovered) ++deg.recovered;
  }
  dist.summary = util::summarize(valid);
  counters().saturated.add(dist.saturated_count);

  if (deg.degraded()) {
    // Loud by design: a degraded distribution must never pass silently.
    std::fprintf(stderr,
                 "[issa] DEGRADED MC RUN %s: %zu/%zu sample(s) quarantined, %zu recovered "
                 "by retry [%s seed=%llu]\n",
                 m.key, deg.quarantined.size(), mc.iterations, deg.recovered, label.c_str(),
                 static_cast<unsigned long long>(mc.seed));
  }
  return dist;
}

// Throws McDegradationError, with the degradation record moved into it, when
// the quarantined fraction of a distribution exceeds
// mc.max_quarantine_fraction.
void check_bound(const char* key, McDegradation& deg, const std::string& label,
                 const McConfig& mc) {
  const double fraction =
      mc.iterations == 0 ? 0.0
                         : static_cast<double>(deg.quarantined.size()) /
                               static_cast<double>(mc.iterations);
  if (fraction > mc.max_quarantine_fraction) {
    std::ostringstream os;
    os << key << ": " << deg.quarantined.size() << "/" << mc.iterations
       << " samples quarantined (" << fraction * 100.0 << "% > max "
       << mc.max_quarantine_fraction * 100.0 << "%) [" << label
       << " seed=" << mc.seed << "]";
    constexpr std::size_t kListed = 8;
    os << "; quarantined:";
    for (std::size_t q = 0; q < deg.quarantined.size() && q < kListed; ++q) {
      const QuarantinedSample& s = deg.quarantined[q];
      os << " #" << s.sample << " (" << s.error << ")";
    }
    if (deg.quarantined.size() > kListed) {
      os << " ... +" << deg.quarantined.size() - kListed << " more";
    }
    throw McDegradationError(os.str(), std::move(deg));
  }
}

// True when the open sample cache holds a `kind` record for every sample, so
// that the distribution replays them all.
bool cache_holds_all(const std::string& fingerprint, const char* kind, const McConfig& mc) {
  const util::store::Store* store = mc_cache::store();
  if (fingerprint.empty() || store == nullptr) return false;
  for (std::size_t i = 0; i < mc.iterations; ++i) {
    if (!store->contains(mc_cache::sample_key(fingerprint, kind, i))) return false;
  }
  return true;
}

// The one Monte-Carlo pass over a condition's samples, measuring each of
// `quantities` on every sample; the distributions of the others stay empty.
// An aged condition ages under `stress` when it is given, else under its own
// condition_stress_map().
//
// What depends on the condition alone is done once, before the samples: the
// cache fingerprint, the aged stress map (shared read-only across the pool)
// and, unless the cache replays every offset, the fast path's offset model,
// fitted outside every sample's span and fault scope.  Then each sample
// replays every measurement the cache holds.  If one is missing, the sample
// is built once and each missing measurement runs on that build, under a
// trace span carrying the sample's index, the seed and the cell's label (a
// forensic bundle recorded by a solver failure deep inside a transient takes
// them as context) and under the sample's fault key, so that an armed trigger
// decides by sample index, never by schedule.  Every computed outcome is
// persisted: ok, recovered and quarantined alike.  Every distribution is
// assembled, announced when degraded and, with metrics on, reported (the
// whole pass's work), before the first one over its quarantine bound throws.
CellDistributions run_pass(const Condition& condition, const McConfig& mc,
                           std::initializer_list<Quantity> quantities,
                           const aging::DeviceStressMap* stress = nullptr) {
  // The cell's one label, for its spans, notices, quarantine records and report.
  const std::string label = condition_label(condition);
  const bool report = util::metrics::enabled();
  util::metrics::Snapshot before;
  if (report) before = counters().registry.snapshot();
  std::optional<util::trace::Span> phase(std::in_place, util::trace::spans::kMcDistribution, "mc");
  if (phase->traced()) {
    attr_condition(*phase, label, mc);
    phase->attr_u64("iterations", mc.iterations);
  }
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<Measurement> measurements;
  for (const Quantity q : quantities) {
    measurements.push_back({q, q == Quantity::kOffset ? "offset" : "delay.worst",
                            std::vector<mc_cache::CachedSample>(
                                mc.iterations, {kSampleOk, kNaN, false, {}})});
  }
  // One fingerprint covers every per-condition cache input; samples then key
  // off (fingerprint, kind, index).
  const std::string fp = mc_cache::enabled()
                             ? mc_cache::condition_fingerprint(condition, mc, stress)
                             : std::string();
  std::optional<aging::DeviceStressMap> own_stress;
  if (condition.aged() && stress == nullptr) {
    stress = &own_stress.emplace(condition_stress_map(condition));
  }
  for (const Measurement& m : measurements) {
    if (m.quantity == Quantity::kOffset && !cache_holds_all(fp, m.key, mc)) {
      sa::offset_model(condition.kind, condition.config);
    }
  }
  const std::string run_id = run_id_for(label, mc);

  auto visit = [&](std::size_t i) {
    counters().samples.add();
    std::vector<Measurement*> missing;
    for (Measurement& m : measurements) {
      mc_cache::CachedSample cached;
      if (fp.empty() || !mc_cache::lookup(fp, m.key, i, cached)) {
        missing.push_back(&m);
        continue;
      }
      // The report lists a replayed quarantine, so the metric counts it.
      if (cached.status == kSampleQuarantined) counters().quarantined.add();
      m.slots[i] = std::move(cached);
    }
    if (missing.empty()) return;
    util::trace::Span span(util::trace::spans::kMcSample, "mc");
    if (span.traced()) {
      attr_condition(span, label, mc);
      span.attr_u64("sample", i);
    }
    util::faultpoint::SampleScope fault_key(i);
    sa::SenseAmpCircuit circuit = build_sample(condition, mc, i, stress);
    for (Measurement* m : missing) {
      measure_with_retry(*m, circuit, i, run_id);
      if (!fp.empty()) mc_cache::insert(fp, m->key, i, m->slots[i]);
    }
  };
  util::ThreadPool& pool = mc.pool != nullptr ? *mc.pool : util::ThreadPool::global();
  pool.parallel_for(0, mc.iterations, visit);

  std::vector<OffsetDistribution> dists;
  for (Measurement& m : measurements) dists.push_back(assemble(m, label, mc, run_id));
  phase.reset();  // the report holds its mc.distribution timer
  if (report) {
    PassReport pass{label, 0, 0, counters().registry.snapshot().delta_since(before)};
    for (const OffsetDistribution& dist : dists) {
      pass.quarantined += dist.degradation.quarantined.size();
      pass.recovered += dist.degradation.recovered;
    }
    const std::lock_guard<std::mutex> lock(g_pass_mutex);
    g_passes.push_back(std::move(pass));
  }
  CellDistributions cell;
  for (std::size_t k = 0; k < measurements.size(); ++k) {
    OffsetDistribution& dist = dists[k];
    check_bound(measurements[k].key, dist.degradation, label, mc);
    if (measurements[k].quantity == Quantity::kOffset) {
      cell.offset = std::move(dist);
    } else {
      cell.delay.delays = std::move(dist.offsets);
      cell.delay.summary = dist.summary;
      cell.delay.degradation = std::move(dist.degradation);
    }
  }
  return cell;
}

}  // namespace

std::vector<PassReport> take_pass_reports() {
  const std::lock_guard<std::mutex> lock(g_pass_mutex);
  return std::exchange(g_passes, {});
}

Condition make_condition(sa::SenseAmpKind kind, const workload::Workload& workload,
                         double stress_time_s, double vdd_scale, double temperature_c) {
  Condition c{.kind = kind,
              .config = sa::nominal_config(),
              .workload = workload,
              .stress_time_s = stress_time_s};
  c.config.vdd *= vdd_scale;
  c.config.temperature_c = temperature_c;
  return c;
}

std::string condition_label(const Condition& condition) {
  // A fresh cell has seen no workload, so only an aged one names it.
  const std::string workload = condition.aged() ? condition.workload.name() : "";
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s%s%s vdd=%.2fV T=%.1fC stress=%gs",
                sa::kind_name(condition.kind), workload.empty() ? "" : " ", workload.c_str(),
                condition.config.vdd, condition.config.temperature_c, condition.stress_time_s);
  return buf;
}

CellDistributions measure_cell(const Condition& condition, const McConfig& mc) {
  return run_pass(condition, mc, {Quantity::kOffset, Quantity::kDelay});
}

OffsetDistribution measure_offset_distribution(const Condition& condition, const McConfig& mc,
                                               const aging::DeviceStressMap* stress) {
  return run_pass(condition, mc, {Quantity::kOffset}, stress).offset;
}

DelayDistribution measure_delay_distribution(const Condition& condition, const McConfig& mc) {
  return run_pass(condition, mc, {Quantity::kDelay}).delay;
}

}  // namespace issa::analysis
