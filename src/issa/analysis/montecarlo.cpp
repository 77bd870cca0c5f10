#include "issa/analysis/montecarlo.hpp"

#include <atomic>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>

#include "issa/aging/bti_model.hpp"
#include "issa/analysis/mc_cache.hpp"
#include "issa/sa/double_tail.hpp"
#include "issa/util/faultpoint.hpp"
#include "issa/util/metrics.hpp"
#include "issa/util/store/store.hpp"
#include "issa/util/thread_pool.hpp"
#include "issa/util/trace.hpp"
#include "issa/workload/stress_map.hpp"

namespace issa::analysis {

namespace {

namespace mnames = util::metrics::names;

util::metrics::Counter& m_samples() {
  static util::metrics::Counter& c = util::metrics::Registry::instance().counter(mnames::kMcSamples);
  return c;
}
util::metrics::Counter& m_saturated() {
  static util::metrics::Counter& c =
      util::metrics::Registry::instance().counter(mnames::kMcSaturatedSamples);
  return c;
}
util::metrics::Counter& m_sample_failures() {
  static util::metrics::Counter& c =
      util::metrics::Registry::instance().counter(mnames::kMcSampleFailures);
  return c;
}
util::metrics::Counter& m_sample_retries() {
  static util::metrics::Counter& c =
      util::metrics::Registry::instance().counter(mnames::kMcSampleRetries);
  return c;
}
util::metrics::Counter& m_quarantined() {
  static util::metrics::Counter& c =
      util::metrics::Registry::instance().counter(mnames::kMcQuarantinedSamples);
  return c;
}

// FNV-1a, for the deterministic auto run id.  Quarantine records carry that
// id and warm reruns replay them from the sample cache, so the hash must not
// change: a different one would rename every auto id already in a store.
std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) noexcept {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::atomic<std::uint64_t> g_stress_map_builds{0};

}  // namespace

double OffsetDistribution::spec(double failure_rate) const {
  return offset_voltage_spec(summary.mean, summary.stddev, failure_rate);
}

std::uint64_t condition_stress_map_builds() noexcept {
  return g_stress_map_builds.load(std::memory_order_relaxed);
}

std::string effective_run_id(const Condition& condition, const McConfig& mc) {
  if (!mc.run_id.empty()) return mc.run_id;
  const std::string label = condition_label(condition);
  std::uint64_t h = fnv1a(label.data(), label.size(), 1469598103934665603ull);
  h = fnv1a(&mc.seed, sizeof mc.seed, h);
  char buf[24];
  std::snprintf(buf, sizeof buf, "auto-%016llx", static_cast<unsigned long long>(h));
  return buf;
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
                                 std::size_t sample_index) {
  return build_sample(condition, mc, sample_index, nullptr);
}

sa::SenseAmpCircuit build_sample(const Condition& condition, const McConfig& mc,
                                 std::size_t sample_index,
                                 const aging::DeviceStressMap* stress) {
  sa::SenseAmpCircuit circuit = sa::build_sense_amp(condition.kind, condition.config);
  variation::apply_process_variation(circuit.netlist(), mc.mismatch, mc.seed, sample_index);
  if (condition.aged()) {
    aging::DeviceStressMap local;
    if (stress == nullptr) {
      local = condition_stress_map(condition);
      stress = &local;
    }
    aging::apply_bti_aging(circuit.netlist(), mc.bti, *stress, condition.stress_time_s,
                           condition.config.temperature_k(), mc.seed, sample_index);
  }
  return circuit;
}

namespace {

// Per-sample outcome slots.  Index-addressed (one slot per sample, no locks)
// so recording an outcome is scheduling-free: the quarantine list assembled
// from the slots afterwards is bit-identical for every thread count.  The
// ok/recovered/quarantined values are also what the sample cache persists in
// CachedSample::status, so a warm rerun replays the full outcome record.
enum : unsigned char {
  kSampleOk = 0,
  kSampleRecovered = 1,
  kSampleQuarantined = 2,
};

// Puts the operating condition and seed on a traced span.
void attr_condition(util::trace::Span& span, const Condition& condition, const McConfig& mc) {
  span.attr_u64("seed", mc.seed);
  span.attr_str("kind", sa::kind_name(condition.kind));
  span.attr_f64("vdd", condition.config.vdd);
  span.attr_f64("temperature_c", condition.config.temperature_c);
  span.attr_f64("stress_time_s", condition.stress_time_s);
}

// Runs `body(i, attempt)` over the sample indices, in parallel when
// requested, with per-sample work accounting and fault tolerance.  Each
// sample gets a trace span carrying its index, seed and operating condition
// — a forensic bundle recorded by a solver failure deep inside a transient
// takes them as context, so it names the exact (condition, seed, sample)
// that produced it.
//
// A body that throws std::runtime_error (solver failures: ConvergenceError,
// singular LU, unresolvable delay, injected faults) is retried once with
// attempt = 1 — the body selects a perturbed/robust strategy — and
// quarantined if the retry also fails.  logic_error and friends still
// propagate: those are bugs, not sample pathologies.  Throws
// McDegradationError after the full sweep when the quarantined fraction
// exceeds mc.max_quarantine_fraction.
//
// `replay(i, status, error)` short-circuits a sample from the cache: when it
// returns true the body is skipped entirely — the replayer has written the
// sample's value slot and outcome.  `persist(i, status, error)` is invoked
// for every computed sample (ok, recovered, and quarantined alike) so the
// cache captures the complete outcome record.
template <typename Body, typename Replay, typename Persist>
McDegradation for_samples(const Condition& condition, const McConfig& mc,
                          const char* phase_name, Body&& body, Replay&& replay,
                          Persist&& persist) {
  util::trace::Span phase(phase_name, "mc");
  if (phase.traced()) {
    phase.attr_u64("iterations", mc.iterations);
    attr_condition(phase, condition, mc);
  }

  std::vector<unsigned char> status(mc.iterations, kSampleOk);
  std::vector<std::string> errors(mc.iterations);
  const std::string run_id = effective_run_id(condition, mc);

  auto counted = [&](std::size_t i) {
    // Cache replay first: a hit costs a hash lookup, not a simulation.  The
    // replayed outcome (ok/recovered/quarantined) flows through the same
    // status slots, so degradation accounting is identical warm and cold.
    if (replay(i, status[i], errors[i])) {
      // Keep the quarantine counter honest on warm reruns: the report lists
      // the replayed quarantine, so the metric must account for it too.
      if (status[i] == kSampleQuarantined) m_quarantined().add();
      m_samples().add();
      return;
    }
    util::trace::Span span(util::trace::spans::kMcSample, "mc");
    if (span.traced()) {
      span.attr_u64("sample", i);
      attr_condition(span, condition, mc);
    }
    // Scope the deterministic fault-trigger key to this sample: an armed
    // key/probability trigger decides by sample index, never by schedule.
    util::faultpoint::SampleScope fault_key(i);
    try {
      body(i, 0);
    } catch (const std::runtime_error&) {
      m_sample_failures().add();
      m_sample_retries().add();
      try {
        // The retry draws its own injected-fault decisions (attempt = 1)
        // and the body switches to its robust profile — together the
        // deterministic analog of "retry from a perturbed initial guess".
        util::faultpoint::RetryScope retry;
        body(i, 1);
        status[i] = kSampleRecovered;
      } catch (const std::runtime_error& second) {
        status[i] = kSampleQuarantined;
        errors[i] = second.what();
      }
      if (status[i] == kSampleQuarantined) {
        m_quarantined().add();
        if (util::trace::enabled()) {
          util::trace::ForensicEvent event;
          event.kind = "mc_sample_quarantined";
          event.attrs.push_back(util::trace::Attr::str("condition", condition_label(condition)));
          event.attrs.push_back(util::trace::Attr::str("run_id", run_id));
          event.attrs.push_back(util::trace::Attr::str("error", errors[i]));
          util::trace::record_forensic(std::move(event));
        }
      }
    }
    persist(i, status[i], errors[i]);
    m_samples().add();
  };
  if (mc.parallel) {
    util::ThreadPool& pool = mc.pool != nullptr ? *mc.pool : util::ThreadPool::global();
    pool.parallel_for(0, mc.iterations, counted);
  } else {
    for (std::size_t i = 0; i < mc.iterations; ++i) counted(i);
  }

  McDegradation deg;
  for (std::size_t i = 0; i < mc.iterations; ++i) {
    if (status[i] == kSampleRecovered) {
      ++deg.recovered;
    } else if (status[i] == kSampleQuarantined) {
      deg.quarantined.push_back(QuarantinedSample{i, mc.seed, condition_label(condition),
                                                  run_id, std::move(errors[i])});
    }
  }

  if (deg.degraded()) {
    // Loud by design: a degraded distribution must never pass silently.
    std::fprintf(stderr,
                 "[issa] DEGRADED MC RUN %s: %zu/%zu sample(s) quarantined, %zu recovered "
                 "by retry [%s seed=%llu]\n",
                 phase_name, deg.quarantined.size(), mc.iterations, deg.recovered,
                 condition_label(condition).c_str(),
                 static_cast<unsigned long long>(mc.seed));
  }

  const double fraction =
      mc.iterations == 0 ? 0.0
                         : static_cast<double>(deg.quarantined.size()) /
                               static_cast<double>(mc.iterations);
  if (fraction > mc.max_quarantine_fraction) {
    std::ostringstream os;
    os << phase_name << ": " << deg.quarantined.size() << "/" << mc.iterations
       << " samples quarantined (" << fraction * 100.0 << "% > max "
       << mc.max_quarantine_fraction * 100.0 << "%) [" << condition_label(condition)
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
  return deg;
}

// Drops the quarantined slots (ascending-sorted in `quarantined`), so the
// summary statistics see only valid samples.
std::vector<double> valid_samples(const std::vector<double>& values,
                                  const std::vector<QuarantinedSample>& quarantined) {
  std::vector<double> out;
  out.reserve(values.size() - quarantined.size());
  std::size_t qi = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (qi < quarantined.size() && quarantined[qi].sample == i) {
      ++qi;
      continue;
    }
    out.push_back(values[i]);
  }
  return out;
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

}  // namespace

std::string condition_label(const Condition& condition) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s vdd=%.2fV T=%.1fC stress=%gs",
                sa::kind_name(condition.kind), condition.config.vdd,
                condition.config.temperature_c, condition.stress_time_s);
  return buf;
}

OffsetDistribution measure_offset_distribution(const Condition& condition, const McConfig& mc) {
  OffsetDistribution dist;
  dist.offsets.assign(mc.iterations, std::numeric_limits<double>::quiet_NaN());
  std::vector<char> saturated(mc.iterations, 0);

  // One fingerprint per distribution call covers every per-condition cache
  // input; samples then key off (fingerprint, kind, index).
  const std::string fp =
      mc_cache::enabled() ? mc_cache::condition_fingerprint(condition, mc) : std::string();

  // Aged stress maps are identical across samples: compute once, share
  // read-only across the pool.  So is the fast path's warm-start model, which
  // depends only on (kind, config): fit it here (once per process), outside
  // every sample's span and fault scope, unless the cache replays every
  // sample and nothing is simulated.
  std::optional<aging::DeviceStressMap> stress;
  if (condition.aged()) stress.emplace(condition_stress_map(condition));
  if (!cache_holds_all(fp, "offset", mc)) sa::offset_model(condition.kind, condition.config);
  dist.degradation = for_samples(
      condition, mc, util::trace::spans::kMcOffsetDistribution,
      [&](std::size_t i, int attempt) {
        sa::SenseAmpCircuit circuit = build_sample(condition, mc, i, stress ? &*stress : nullptr);
        // The retry runs the robust profile: full-window bisection over
        // full-length transients approaches the flip from different
        // operating points than the model-started fast path — the
        // "perturbed initial guess".
        sa::OffsetSearchOptions search;
        search.robust = attempt > 0;
        const sa::OffsetResult r = sa::measure_offset(circuit, search);
        dist.offsets[i] = r.offset;
        saturated[i] = r.saturated ? 1 : 0;
      },
      [&](std::size_t i, unsigned char& status, std::string& error) {
        if (fp.empty()) return false;
        mc_cache::CachedSample cached;
        if (!mc_cache::lookup(fp, "offset", i, cached)) return false;
        dist.offsets[i] = cached.value;
        saturated[i] = cached.saturated ? 1 : 0;
        status = cached.status;
        error = cached.error;
        return true;
      },
      [&](std::size_t i, unsigned char status, const std::string& error) {
        if (fp.empty()) return;
        mc_cache::insert(fp, "offset", i,
                         mc_cache::CachedSample{status, dist.offsets[i], saturated[i] != 0, error});
      });

  for (const char s : saturated) dist.saturated_count += s;
  m_saturated().add(dist.saturated_count);
  dist.summary = util::summarize(valid_samples(dist.offsets, dist.degradation.quarantined));
  return dist;
}

DelayDistribution measure_delay_distribution(const Condition& condition, const McConfig& mc) {
  DelayDistribution dist;
  dist.delays.assign(mc.iterations, std::numeric_limits<double>::quiet_NaN());
  const std::string fp =
      mc_cache::enabled() ? mc_cache::condition_fingerprint(condition, mc) : std::string();
  std::optional<aging::DeviceStressMap> stress;
  if (condition.aged()) stress.emplace(condition_stress_map(condition));
  dist.degradation = for_samples(
      condition, mc, util::trace::spans::kMcDelayDistribution,
      [&](std::size_t i, int) {
        // The delay measurement has no tunable search profile; the retry
        // still re-runs from a fresh build and draws fresh injected-fault
        // decisions (attempt = 1).
        sa::SenseAmpCircuit circuit = build_sample(condition, mc, i, stress ? &*stress : nullptr);
        dist.delays[i] = sa::measure_delay(circuit).worst();
      },
      [&](std::size_t i, unsigned char& status, std::string& error) {
        if (fp.empty()) return false;
        mc_cache::CachedSample cached;
        if (!mc_cache::lookup(fp, "delay.worst", i, cached)) return false;
        dist.delays[i] = cached.value;
        status = cached.status;
        error = cached.error;
        return true;
      },
      [&](std::size_t i, unsigned char status, const std::string& error) {
        if (fp.empty()) return;
        mc_cache::insert(fp, "delay.worst", i,
                         mc_cache::CachedSample{status, dist.delays[i], false, error});
      });
  dist.summary = util::summarize(valid_samples(dist.delays, dist.degradation.quarantined));
  return dist;
}

}  // namespace issa::analysis
