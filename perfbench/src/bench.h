#ifndef DUP_PERFBENCH_BENCH_H_
#define DUP_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "metrics/summary.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline uint64_t Nanos(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// CPU time consumed by the calling thread, in ns. Unlike wall time it
/// does not advance while the thread waits for a core.
inline uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Exact heap accounting from the binary's own operator new/delete
/// (heap.cc): every block carries its size, so live and peak are exact.
namespace heap {
uint64_t Live();
/// Restarts peak tracking from the current live level.
void ResetPeak();
uint64_t Peak();
}  // namespace heap

/// What one invocation was asked to do (run.py passes these through).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One reported metric: name -> value with unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a workload hands back to main(): the metrics for the
/// requested mode, failure accounting and the output checks.
struct Report {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed output check; empty means correct.
  std::vector<std::string> check_failures;
  /// Human-readable progress lines, printed before the metrics.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Bit-exact rendering of every RunMetrics field (doubles as hex floats),
/// so two runs compare equal iff their metrics are bit-identical.
std::string Digest(const dupnet::metrics::RunMetrics& metrics);

/// Median of `values` (which it reorders); 0 when empty.
double Median(std::vector<double>& values);
/// The q-quantile (0..1) of `values` by nearest rank; 0 when empty.
double Quantile(std::vector<double>& values, double q);

Report RunDup1m(const Options& options);
Report RunMixed4k(const Options& options);
Report RunWireLoopback(const Options& options);

}  // namespace perfbench

#endif  // DUP_PERFBENCH_BENCH_H_
