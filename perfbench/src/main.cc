// perfbench — the repository benchmark (NOTES.md).
//
//   perfbench --workload dup-1m|mixed-4k|wire-loopback --seed N
//             --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of untraced runs; with
// --trace 1 the per-layer metrics of a traced run plus single-layer
// probes. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Output checks that fail are listed on stderr and make "correct" false
// and the exit code 1.

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dup-1m|mixed-4k|wire-loopback --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

uint64_t ParseUnsigned(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    Usage((std::string("bad value for ") + flag + ": " + text).c_str());
  }
  return value;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned("--seed", value);
    } else if (flag == "--seconds") {
      const uint64_t seconds = ParseUnsigned("--seconds", value);
      if (seconds < 1 || seconds > 3600) Usage("--seconds must be 1..3600");
      options.seconds = static_cast<double>(seconds);
      have_seconds = true;
    } else if (flag == "--trace") {
      const uint64_t trace = ParseUnsigned("--trace", value);
      if (trace > 1) Usage("--trace must be 0 or 1");
      options.trace = trace == 1;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (!have_seconds) Usage("--seconds is required");
  return options;
}

void PrintJson(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              report.check_failures.empty() ? "true" : "false",
              report.attempted, report.failed);
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  Report report;
  if (options.workload == "dup-1m") {
    report = perfbench::RunDup1m(options);
  } else if (options.workload == "mixed-4k") {
    report = perfbench::RunMixed4k(options);
  } else if (options.workload == "wire-loopback") {
    report = perfbench::RunWireLoopback(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  for (const auto& [name, metric] : report.metrics) {
    report.Check(std::isfinite(metric.value), name + " is not finite");
  }
  if (report.attempted == 0) report.Check(false, "nothing was attempted");
  for (const std::string& failure : report.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%-34s %18.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  PrintJson(report);
  return report.check_failures.empty() ? 0 : 1;
}
