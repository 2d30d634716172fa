// perfbench: the repository benchmark.  See README.md in this directory
// for the workloads, the metrics and what each layer metric should move.
//
//   perfbench --workload tune|serve-churn|remote --seed N
//             --seconds S --trace 0|1 [--commit C] [--out-dir D]
//
// The last line of standard output is the result object; with --trace 0
// it carries the end-to-end metrics, with --trace 1 the per-layer ones.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by every workload (see README.md for each one's meaning).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"cpu_us_per_op", "us"},
    {"plan_gflops_geomean", "GFlop/s"},
};

// Reported by the traced run of every workload; a layer the workload does
// not reach reads 0.
const std::vector<MetricDef> kPerLayer = {
    {"ops_per_s", "1/s"},
    {"p50_us", "us"},
    {"p90_us", "us"},
    {"octopi.enumerate_us", "us"},
    {"octopi.variants", "count"},
    {"tcr.space_us", "us"},
    {"tcr.joint_space", "count"},
    {"surf.featurize_us", "us"},
    {"chill.lower_us", "us"},
    {"vgpu.model_us", "us"},
    {"surf.evals", "count"},
    {"surf.search_self_us", "us"},
    {"core.tune_us", "us"},
    {"core.other_us", "us"},
    {"core.replay_match", "ratio"},
    {"serve.clients", "count"},
    {"serve.get_plan_us", "us"},
    {"serve.signature_us", "us"},
    {"serve.lookup_us", "us"},
    {"serve.demand_us", "us"},
    {"serve.get_plan_other_us", "us"},
    {"serve.hit_ratio", "ratio"},
    {"cold_p50_us", "us"},
    {"time_to_tuned_p50_s", "s"},
    {"serve.never_tuned", "count"},
    {"serve.cold_fallback_us", "us"},
    {"serve.publish_us", "us"},
    {"serve.registry_size", "count"},
    {"serve.tunes_started", "count"},
    {"serve.rejected", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.tune_mean_ms", "ms"},
    {"gen.late_p99_us", "us"},
    {"net.encode_us", "us"},
    {"net.ping_rtt_us", "us"},
    {"remote.fetch_us", "us"},
    {"remote.handler_us", "us"},
    {"sync_p50_ms", "ms"},
    {"serve.to_text_ms", "ms"},
    {"serve.merge_text_ms", "ms"},
    {"remote.sync_bytes", "bytes"},
    {"remote.errors", "count"},
    {"remote.unavailable", "count"},
    {"trace.untraced_p50_us", "us"},
    {"trace.untraced_p99_us", "us"},
    {"trace.traced_p50_us", "us"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace barracuda::perfbench;
  try {
    const Args args = parse_args(argc, argv);
    Result result;
    HostProbe probe;
    if (args.workload == "tune") {
      result = run_tune(args);
    } else if (args.workload == "serve-churn") {
      result = run_serve_churn(args);
    } else if (args.workload == "remote") {
      result = run_remote(args);
    } else {
      throw std::runtime_error("unknown workload " + args.workload);
    }
    Report report(probe.stop());
    for (const MetricDef& def : args.trace ? kPerLayer : kEndToEnd) {
      auto it = result.metrics.find(def.name);
      if (it == result.metrics.end()) {
        if (!args.trace) {
          throw std::runtime_error(std::string("workload did not measure ") +
                                   def.name);
        }
        report.metric(def.name, 0, def.unit);
      } else {
        report.metric(def.name, it->second, def.unit);
      }
    }
    report.print(args, result.checks_ok && result.failed == 0,
                 result.attempted, result.failed);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
