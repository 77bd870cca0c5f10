// Monte-Carlo evaluation of a sense amplifier under one experimental
// condition (scheme x workload x supply x temperature x stress time).
//
// Identity: a cell is a Condition, built by make_condition() and named by
// condition_label() — one label in the stderr notices, the quarantine
// records, the metrics report and the trace (the mc.distribution and
// mc.sample spans carry it as `condition`, and a forensic bundle inherits it
// from the open mc.sample span).  While util::metrics is enabled each pass
// records its PassReport, also when it then fails the run.
//
// One pass visits every sample i: it builds a fresh testbench once, draws its
// process variation and BTI trap sets from streams keyed by (seed, i, device
// name), and measures the offset voltage and/or the sensing delay on that
// build by transient simulation.  Samples are independent, so they run on
// McConfig::pool (the global pool by default); results are deterministic in
// (condition, mc config) regardless of thread count.
//
// Fault tolerance, per measurement: a solver failure (ConvergenceError,
// singular LU, unresolvable delay, injected fault) is retried once on the
// sample's build (the offset with its robust search profile); if that also
// fails the sample is QUARANTINED from that distribution — recorded with its
// index/seed/condition/run id, its slot holding NaN — and the summary is
// computed over the valid samples.  The run itself only fails
// (McDegradationError) when a distribution's quarantined fraction exceeds
// McConfig::max_quarantine_fraction.  The quarantine decision is a pure
// function of (condition, mc config, fault spec), never of scheduling, so
// the quarantine list is bit-identical across thread counts.
//
// Persistence: when the Monte-Carlo sample cache is open (analysis/mc_cache,
// benches wire it to --cache), every computed per-sample result
// — including quarantine verdicts — is stored under a content fingerprint of
// its inputs and its measurement ("offset", "delay.worst"), and a rerun of
// the same sweep replays stored samples from disk bit-identically instead of
// re-simulating them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "issa/aging/bti_model.hpp"
#include "issa/analysis/spec.hpp"
#include "issa/sa/builder.hpp"
#include "issa/sa/measure.hpp"
#include "issa/util/metrics.hpp"
#include "issa/util/statistics.hpp"
#include "issa/workload/workload.hpp"

namespace issa::util {
class ThreadPool;
}

namespace issa::analysis {

/// One cell of the paper's experiment grid.
struct Condition {
  sa::SenseAmpKind kind = sa::SenseAmpKind::kNssa;
  sa::SenseAmpConfig config;        ///< supply, temperature, sizing, timing
  workload::Workload workload;      ///< external read workload
  double stress_time_s = 0.0;       ///< 0 = fresh (time-zero only)

  bool aged() const noexcept { return stress_time_s > 0.0; }
};

/// The cell at `kind` x `workload` x `stress_time_s` on the nominal SA
/// (sa::nominal_config()) with its supply scaled by `vdd_scale` and its die at
/// `temperature_c`: the one way every table, example and tool builds a cell.
Condition make_condition(sa::SenseAmpKind kind, const workload::Workload& workload,
                         double stress_time_s, double vdd_scale = 1.0,
                         double temperature_c = 25.0);

/// The one name of a cell, in every report and sidecar (stderr notices,
/// quarantine records, trace spans and forensic events, the metrics report's
/// conditions): "NSSA vdd=1.00V T=25.0C stress=0s" for a fresh cell and, with
/// the workload that aged it, "NSSA 80r0 vdd=1.00V T=25.0C stress=1e+08s".
std::string condition_label(const Condition& condition);

/// One sample excluded from a distribution: its solver failed on the first
/// attempt and again on the retry.
struct QuarantinedSample {
  std::size_t sample = 0;  ///< Monte-Carlo sample index
  std::uint64_t seed = 0;  ///< the run's McConfig::seed
  std::string condition;   ///< condition_label() of the run
  std::string run_id;      ///< forensic run id (McConfig::run_id; may be empty)
  std::string error;       ///< what() of the final failure
};

/// Degradation record of one distribution run.
struct McDegradation {
  std::vector<QuarantinedSample> quarantined;  ///< ascending sample index
  std::size_t recovered = 0;  ///< samples that failed once but retried clean

  bool degraded() const noexcept { return !quarantined.empty() || recovered > 0; }
};

/// What one Monte-Carlo pass did: one entry of the metrics report's conditions.
struct PassReport {
  std::string condition;            ///< condition_label() of the pass's cell
  std::size_t quarantined = 0;      ///< summed over the pass's distributions
  std::size_t recovered = 0;        ///< summed over the pass's distributions
  util::metrics::Snapshot metrics;  ///< the work of the whole pass, model fit included
};

/// Takes the reports recorded since the last call, in run order.
std::vector<PassReport> take_pass_reports();

/// Thrown when quarantined samples exceed McConfig::max_quarantine_fraction.
/// what() carries the per-sample quarantine summary; degradation() the
/// structured record.
class McDegradationError : public std::runtime_error {
 public:
  McDegradationError(const std::string& message, McDegradation degradation)
      : std::runtime_error(message), degradation_(std::move(degradation)) {}

  const McDegradation& degradation() const noexcept { return degradation_; }

 private:
  McDegradation degradation_;
};

struct McConfig {
  std::size_t iterations = 400;  ///< the paper's Monte-Carlo count
  std::uint64_t seed = 42;
  /// Pool that runs the samples (non-owning; nullptr = the global pool).
  /// Results are identical for every pool size; a pool of 0 workers runs the
  /// samples serially on the calling thread.
  util::ThreadPool* pool = nullptr;

  /// The run throws McDegradationError when strictly more than this fraction
  /// of iterations ends up quarantined (1% of samples exactly still passes).
  double max_quarantine_fraction = 0.01;
  /// Forensic run id stamped into quarantine records.  Benches pass their
  /// session run id so a quarantined sample joins the .metrics and .trace
  /// sidecars of the same invocation.  When left EMPTY the engine
  /// stamps a deterministic fallback derived from (condition, seed) — see
  /// effective_run_id() — so records are always joinable.
  std::string run_id;
};

/// The run id actually stamped into quarantine records and forensic events:
/// McConfig::run_id when set, otherwise "auto-<hash>" over (condition label,
/// seed) — deterministic, so reruns of the same cell produce the same id.
std::string effective_run_id(const Condition& condition, const McConfig& mc);

/// Offset-distribution result of one condition.
struct OffsetDistribution {
  /// Per-sample offset voltages [V]; quarantined slots hold NaN.
  std::vector<double> offsets;
  util::DistributionSummary summary;  ///< over valid (non-quarantined) samples
  std::size_t saturated_count = 0;  ///< samples whose flip left the window
  McDegradation degradation;

  std::size_t valid_count() const noexcept {
    return offsets.size() - degradation.quarantined.size();
  }

  /// Offset-voltage specification per Eq. 3 at the paper's failure rate.
  double spec() const;
};

/// Delay-distribution result of one condition.
struct DelayDistribution {
  /// Per-sample sensing delays [s]; quarantined slots hold NaN.
  std::vector<double> delays;
  util::DistributionSummary summary;  ///< over valid (non-quarantined) samples
  McDegradation degradation;

  std::size_t valid_count() const noexcept {
    return delays.size() - degradation.quarantined.size();
  }
};

/// Builds one sample's testbench: fresh circuit + mismatch (+ BTI when the
/// condition is aged), both at their calibrated defaults
/// (variation::default_mismatch(), aging::default_bti()).  Exposed so
/// examples/tests can inspect single samples.
/// An aged build computes the condition's stress map unless `stress` passes
/// it in: the map depends only on the condition, never the sample, so the
/// Monte-Carlo pass computes it once and shares it (read-only).
sa::SenseAmpCircuit build_sample(const Condition& condition, const McConfig& mc,
                                 std::size_t sample_index,
                                 const aging::DeviceStressMap* stress = nullptr);

/// Cumulative number of condition_stress_map() evaluations in this process.
/// Test hook for the compute-once contract: one pass over an aged condition
/// must advance this by exactly 1 regardless of sample count.
std::uint64_t condition_stress_map_builds() noexcept;

/// Both distributions of one condition, measured on the same samples.
struct CellDistributions {
  OffsetDistribution offset;
  DelayDistribution delay;
};

/// Measures both distributions of a condition in one pass that builds each
/// sample once: bit for bit what separate measure_offset_distribution() and
/// measure_delay_distribution() calls return.
CellDistributions measure_cell(const Condition& condition, const McConfig& mc);

/// Measures the offset distribution of a condition.  An aged condition ages
/// under `stress` when it is given, instead of condition_stress_map(): a
/// study of a stress map no workload produces (a residual internal
/// imbalance, say) keeps the engine's retry, quarantine and cache.  The
/// sample cache keys such a pass by its map, apart from the condition's own.
OffsetDistribution measure_offset_distribution(const Condition& condition, const McConfig& mc,
                                               const aging::DeviceStressMap* stress = nullptr);

/// Measures the sensing-delay distribution of a condition.  Each sample
/// contributes its slower read direction (DelayPair::worst()): a memory's
/// timing is set by its slowest read, as in the delay experiments of Sec. IV.
DelayDistribution measure_delay_distribution(const Condition& condition, const McConfig& mc);

/// The per-transistor stress map implied by a condition (NSSA maps the
/// external workload directly; ISSA balances it internally).
aging::DeviceStressMap condition_stress_map(const Condition& condition);

}  // namespace issa::analysis
