#include "workloads.hpp"

namespace barracuda::perfbench {

void trace_overhead(std::vector<double> untraced, std::vector<double> traced,
                    std::map<std::string, double>& metrics) {
  const double untraced_p50 = percentile(untraced, 50);
  const double traced_p50 = percentile(traced, 50);
  metrics["trace.untraced_p50_us"] = untraced_p50;
  metrics["trace.untraced_p99_us"] = percentile(untraced, 99);
  metrics["trace.traced_p50_us"] = traced_p50;
  metrics["trace.overhead_pct"] =
      100 * (traced_p50 - untraced_p50) / untraced_p50;
}

}  // namespace barracuda::perfbench
