// Deterministic fault injection: named fault sites compiled into the failure
// paths of the solver stack (LU pivoting, Newton convergence, gmin homotopy,
// transient step control, thread-pool task bodies), armed at run time from a
// compact trigger spec.  The point is to make behavior under faults a TESTED
// CONTRACT: a Monte-Carlo run must quarantine a pathological sample instead
// of dying, and the quarantine set must be bit-identical across thread
// counts — which is only provable by injecting the faults on demand.
//
// Determinism model.  Every trigger decision is a pure function of
// (site, spec, key, attempt), never of scheduling order:
//  * the KEY is pushed by the work loop that owns the unit of work — the
//    Monte-Carlo engine scopes each sample's index via SampleScope, so a
//    doomed sample is doomed on every thread count, serial included;
//  * the ATTEMPT counts retries (RetryScope).  Probabilistic triggers draw
//    independently per attempt — the deterministic analog of "retry with a
//    perturbed initial guess may escape the failure"; key-list triggers
//    ignore the attempt and model a sample that is pathological no matter
//    how it is approached (it must end up quarantined).
//
// Spec syntax (the --faults= run flag); entries separated by ';' or ',':
//
//   <site>=<trigger>[;<site>=<trigger>...]
//
//   trigger := p<float>[@<seed>]      fire with probability <float> per key
//                                     (seeded hash; default seed 0)
//            | key<int>[|<int>...]    fire whenever the scoped key matches
//                                     one of the listed values (any attempt)
//            | always                 fire on every evaluation
//
//   example: --faults='lu.singular_pivot=p0.01@7;sim.gmin_stage_fail=key3'
//
// Site names must be registered below (or carry the 'test.' prefix reserved
// for unit tests); configure() rejects unknown names so a typo cannot arm
// nothing silently.
//
// Like util/metrics and util/trace, sites are unarmed by default: every
// check pays one relaxed atomic load + predicted branch until configure()
// arms a spec.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace issa::util::faultpoint {

/// Thrown by maybe_fail() when its site fires.  Derives std::runtime_error
/// so an injected fault travels the same catch paths as the natural failure
/// it stands in for (e.g. the LU singular-pivot throw).
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const char* site)
      : std::runtime_error(std::string("fault injected at site '") + site + "'"), site_(site) {}

  /// The site literal that fired (stable for the process lifetime).
  const char* site() const noexcept { return site_; }

 private:
  const char* site_;
};

/// Registered fault sites (one taxonomy across the stack, like
/// metrics::names and trace::spans).  Each names the FAILURE the site
/// simulates, at the exact point the natural failure would originate.
namespace sites {
/// LuFactorization::factorize throws its singular-pivot runtime_error.
inline constexpr const char* kLuSingularPivot = "lu.singular_pivot";
/// One Newton solve reports non-convergence (caller falls back).
inline constexpr const char* kNewtonNonconvergence = "sim.newton_nonconvergence";
/// One gmin-homotopy stage of solve_dc fails (falls through to source stepping).
inline constexpr const char* kGminStageFail = "sim.gmin_stage_fail";
/// The transient step-size control collapses (terminal ConvergenceError).
inline constexpr const char* kTransientStepCollapse = "sim.transient_step_collapse";
/// A participant's turn at a thread-pool parallel_for job throws before it
/// claims an index (exercises the first-error capture + rethrow-at-join
/// contract).
inline constexpr const char* kPoolTaskThrow = "pool.task_throw";
}  // namespace sites

/// Evaluation/fire counts of one configured site, for reports and tests.
struct SiteReport {
  std::string site;
  std::string trigger;           ///< the spec entry that armed it
  std::uint64_t evaluations = 0;
  std::uint64_t fires = 0;
};

/// True when any site is armed.  One relaxed load; every instrumented site
/// asks this (directly or via should_fire) before doing any other work.
bool armed() noexcept;

/// True when the named site is armed and its trigger fires for the calling
/// thread's current (key, attempt).  Counts the evaluation either way.
bool should_fire(const char* site) noexcept;

/// Parses and arms a spec (see file comment for the grammar), replacing any
/// previous configuration.  Call while the instrumented code is quiescent.
/// Throws std::invalid_argument naming the offending entry on bad syntax or
/// an unregistered site.  An empty spec disarms everything.
void configure(std::string_view spec);

/// Disarms every site.
void clear();

/// Evaluation/fire counts per configured site, in spec order.
std::vector<SiteReport> report();

/// Test oracle: would `site` fire for (key, attempt) under the current
/// configuration?  Pure — does not count an evaluation.
bool would_fire(std::string_view site, std::uint64_t key, std::uint32_t attempt) noexcept;

/// Scopes the calling thread's deterministic trigger key (e.g. the
/// Monte-Carlo sample index).  Nests; innermost wins.
class SampleScope {
 public:
  explicit SampleScope(std::uint64_t key) noexcept;
  ~SampleScope();
  SampleScope(const SampleScope&) = delete;
  SampleScope& operator=(const SampleScope&) = delete;
};

/// Marks a retry attempt: probabilistic triggers draw independently inside
/// the scope (attempt + 1), key-list triggers are unaffected.  Nests.
class RetryScope {
 public:
  RetryScope() noexcept;
  ~RetryScope();
  RetryScope(const RetryScope&) = delete;
  RetryScope& operator=(const RetryScope&) = delete;
};

/// Suspends every site on the calling thread: inside the scope nothing
/// fires and no evaluation is counted.  For work that is no unit of work the
/// triggers model, such as a model fitted once and shared by every sample of
/// a condition: it must not inherit one sample's injected pathology, and
/// must come out the same wherever it runs.  Nests.
class SuspendScope {
 public:
  SuspendScope() noexcept;
  ~SuspendScope();
  SuspendScope(const SuspendScope&) = delete;
  SuspendScope& operator=(const SuspendScope&) = delete;
};

/// Throws FaultInjected(site) when the site fires.  Use at sites whose
/// natural failure is an exception; sites whose failure is a status code
/// branch on should_fire() instead.
inline void maybe_fail(const char* site) {
  if (should_fire(site)) throw FaultInjected(site);
}

}  // namespace issa::util::faultpoint
