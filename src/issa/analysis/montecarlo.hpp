// Monte-Carlo evaluation of a sense amplifier under one experimental
// condition (scheme x workload x supply x temperature x stress time).
//
// Every sample i builds a fresh testbench, draws its process variation and
// BTI trap sets from streams keyed by (seed, i, device name), and measures
// the offset voltage and/or sensing delay by transient simulation.  Samples
// are independent, so they run on the global thread pool; results are
// deterministic in (condition, mc config) regardless of thread count.
//
// Fault tolerance: a per-sample solver failure (ConvergenceError, singular
// LU, unresolvable delay, injected fault) no longer destroys the whole
// distribution.  The failed sample is retried once from a perturbed
// (cold-start, robust-profile) initial guess; if that also fails the sample
// is QUARANTINED — recorded with its index/seed/condition/run id, its slot
// holding NaN — and the summary is computed over the valid samples.  The run
// itself only fails (McDegradationError) when the quarantined fraction
// exceeds McConfig::max_quarantine_fraction.  The quarantine decision is a
// pure function of (condition, mc config, fault spec), never of scheduling,
// so the quarantine list is bit-identical across thread counts.
//
// Persistence: when the Monte-Carlo sample cache is open (analysis/mc_cache,
// benches wire it to --cache), every computed per-sample result
// — including quarantine verdicts — is stored under a content fingerprint of
// its inputs, and a rerun of the same sweep replays stored samples from disk
// bit-identically instead of re-simulating them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "issa/aging/bti_model.hpp"
#include "issa/aging/bti_params.hpp"
#include "issa/analysis/spec.hpp"
#include "issa/sa/builder.hpp"
#include "issa/sa/measure.hpp"
#include "issa/util/statistics.hpp"
#include "issa/variation/mismatch.hpp"
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

/// Human-readable cell label used in quarantine records and error messages:
/// "NSSA vdd=1.00V T=25.0C stress=1e+08s".
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
  bool parallel = true;
  /// Pool for parallel runs (non-owning; nullptr = the global pool).  Results
  /// are identical for every pool size, including serial (parallel = false).
  util::ThreadPool* pool = nullptr;
  variation::MismatchParams mismatch = variation::default_mismatch();
  aging::BtiParams bti = aging::default_bti();

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

  /// Offset-voltage specification per Eq. 3 at the given failure rate.
  double spec(double failure_rate = kPaperFailureRate) const;
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
/// condition is aged).  Exposed so examples/tests can inspect single samples.
sa::SenseAmpCircuit build_sample(const Condition& condition, const McConfig& mc,
                                 std::size_t sample_index);

/// Same, but with a caller-provided stress map for aged conditions (pass
/// nullptr for the self-computing behaviour above).  The map depends only on
/// the condition, never the sample, so the distribution loops compute it
/// once and share it across all samples and threads (read-only).
sa::SenseAmpCircuit build_sample(const Condition& condition, const McConfig& mc,
                                 std::size_t sample_index,
                                 const aging::DeviceStressMap* stress);

/// Cumulative number of condition_stress_map() evaluations in this process.
/// Test hook for the compute-once contract: a distribution call over an aged
/// condition must advance this by exactly 1 regardless of sample count.
std::uint64_t condition_stress_map_builds() noexcept;

/// Measures the offset distribution of a condition.
OffsetDistribution measure_offset_distribution(const Condition& condition, const McConfig& mc);

/// Measures the sensing-delay distribution of a condition.  Each sample
/// contributes its slower read direction (DelayPair::worst()): a memory's
/// timing is set by its slowest read, as in the delay experiments of Sec. IV.
DelayDistribution measure_delay_distribution(const Condition& condition, const McConfig& mc);

/// The per-transistor stress map implied by a condition (NSSA maps the
/// external workload directly; ISSA balances it internally).
aging::DeviceStressMap condition_stress_map(const Condition& condition);

}  // namespace issa::analysis
