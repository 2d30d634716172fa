// The three benchmark workloads.  Each builds its inputs from the seed,
// measures for the requested seconds (or, with tracing, splits them into
// an untraced and a traced half) and checks every output it receives.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>

#include "harness.hpp"

namespace barracuda::perfbench {

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Checks that span the whole run (e.g. registry agreement after SYNC).
  bool checks_ok = true;
  /// Metric name -> value; units come from the metric table in main.cpp.
  std::map<std::string, double> metrics;
};

Result run_tune(const Args& args);
Result run_serve_churn(const Args& args);
Result run_remote(const Args& args);

/// Measurement windows of a serving workload measuring for `seconds`: half
/// a second each, so the median steps over the stalls a shared host
/// imposes now and then.
inline std::size_t serve_windows(double seconds) {
  return std::max<std::size_t>(4, static_cast<std::size_t>(seconds / 0.5));
}

/// The tracing overhead figures of a traced run: the op latencies of its
/// untraced and traced halves.
void trace_overhead(std::vector<double> untraced, std::vector<double> traced,
                    std::map<std::string, double>& metrics);

/// Median of `reps` timed calls of `setup`, in seconds; the last call's
/// state is what the workload then runs on.
template <typename Fn>
double timed_setup(int reps, Fn&& setup) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t start = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  return median(seconds);
}

}  // namespace barracuda::perfbench
