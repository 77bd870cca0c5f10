// Run-level provenance for the report sidecars: the run id shared by the
// --metrics and --trace outputs of one binary invocation (correlating them is
// a join on run_id), the peak RSS the run cost, and the CPU time and
// involuntary context switches that tell a throttled host from slower code.
#pragma once

#include <string>

namespace issa::util {

/// A process-unique run id: <pid hex>-<steady-clock ns hex>.  Cheap, ordered
/// within a process, unique enough to join sidecars from one invocation.
std::string generate_run_id();

/// Peak resident set size of this process in kB (getrusage ru_maxrss); 0
/// when the platform does not report it.
long rss_peak_kb() noexcept;

/// What getrusage(RUSAGE_SELF) reports of this process so far; zeros when
/// the platform does not report it.
struct ProcessUsage {
  double cpu_s = 0.0;                     ///< user + system time, every thread
  long involuntary_context_switches = 0;  ///< preemptions (ru_nivcsw)
};
ProcessUsage process_usage() noexcept;

}  // namespace issa::util
