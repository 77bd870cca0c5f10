// The run wiring every bench and example main shares, as one RAII object:
// strict option parsing, the run id, fault injection, the Monte-Carlo sample
// cache, the McConfig, and the report sidecars.
//
// Run flags, accepted by every binary that builds a RunContext (each setting
// has only this spelling; the environment does not steer a run):
//   --mc=N                    MC iterations (the paper's 400)
//   --seed=S                  master seed (42)
//   --quarantine-max=F        tolerated quarantined-sample fraction, in [0, 1]
//   --metrics[=stem]          <stem>.metrics.json: the whole-run metrics and
//                             one entry per Monte-Carlo pass
//   --trace[=stem]            <stem>.trace.json: the spans and the solver
//                             forensic bundles
//   --faults=spec             arms util::faultpoint
//   --cache[=dir]             opens the MC sample cache (default directory
//                             .issa-cache)
// Each flag writes exactly one file.  Report stems default to the run name;
// every sidecar carries the run id.
//
// Construction validates all arguments before any work starts (--help exits
// 0; an unknown option or a malformed value exits 2, see util::Options).  The
// sidecars are written and the cache closed exactly once — by finish(), or
// else by the destructor, so an early return still reports, and by guard()
// when the work throws.  Closing the cache prints the summary line
// scripts/check_cache_*.sh parse:
//   cache: hits=<h> misses=<m> stores=<s> dir=<directory>
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "issa/analysis/montecarlo.hpp"
#include "issa/util/cli.hpp"
#include "issa/util/runinfo.hpp"

namespace issa::core {

class RunContext {
 public:
  /// `extra_flags` are the program's own options beyond the run flags, in
  /// util::Options spec form ("csv=path").
  RunContext(int argc, const char* const* argv, std::string_view name,
             const std::vector<std::string_view>& extra_flags = {});
  ~RunContext();

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  const util::Options& options() const noexcept { return options_; }
  const std::string& run_id() const noexcept { return run_id_; }
  /// Monte-Carlo config from the run flags, stamped with run_id() so
  /// quarantine records join the run's sidecars.
  const analysis::McConfig& mc() const noexcept { return mc_; }

  /// Runs the program's work and returns main()'s exit status: 0, or 1 after
  /// printing "<name>: <what()>" and finish() when it throws std::exception
  /// (a degraded Monte-Carlo run, say: its trace holds the forensic events).
  int guard(const std::function<void()>& work);

  /// Writes the requested sidecars and closes the cache.  Returns false when
  /// something could not be written (the reason goes to stderr).  Only the
  /// first call acts; later calls return its result.
  bool finish();

 private:
  void write_trace();
  void close_cache();
  void write_metrics();

  util::Options options_;
  std::string name_;
  std::string run_id_;
  std::chrono::steady_clock::time_point start_;
  util::ProcessUsage usage_at_start_;
  analysis::McConfig mc_;
  bool metrics_ = false;
  bool trace_ = false;
  std::string cache_dir_;  // empty unless the cache is open
  bool finished_ = false;
  bool ok_ = true;
};

}  // namespace issa::core
