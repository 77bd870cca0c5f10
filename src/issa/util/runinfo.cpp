#include "issa/util/runinfo.hpp"

#include <cstdio>

#include "issa/util/metrics.hpp"  // monotonic_ns

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace issa::util {

std::string generate_run_id() {
  unsigned long pid = 0;
#if defined(__unix__) || defined(__APPLE__)
  pid = static_cast<unsigned long>(::getpid());
#endif
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lx-%llx", pid,
                static_cast<unsigned long long>(metrics::monotonic_ns()));
  return buf;
}

long rss_peak_kb() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<long>(usage.ru_maxrss / 1024);  // bytes on macOS
#else
  return static_cast<long>(usage.ru_maxrss);  // kB on Linux
#endif
#else
  return 0;
#endif
}

ProcessUsage process_usage() noexcept {
  ProcessUsage out;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return out;
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  out.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  out.involuntary_context_switches = static_cast<long>(usage.ru_nivcsw);
#endif
  return out;
}

}  // namespace issa::util
