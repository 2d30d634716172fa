#include "serve_setup.hpp"

#include <stdexcept>

#include "bench_common.hpp"
#include "harness.hpp"
#include "octopi/parser.hpp"
#include "serve/service.hpp"

namespace barracuda::perfbench {

core::TuneOptions serve_tune_options() {
  core::TuneOptions options = bench::paper_tune_options(1);
  options.search.n_jobs = 1;
  return options;
}

std::vector<serve::PlanEntry> prewarm_registry(
    serve::PlanRegistry& registry, const std::vector<Request>& warm,
    int jobs) {
  serve::PrewarmOptions options;
  options.tune = serve_tune_options();
  options.tune.search.n_jobs = jobs;
  // One prewarm grid per (family, extents): the grid spans the devices.
  for (std::size_t i = 0; i < warm.size(); i += paper_devices().size()) {
    const std::string dsl =
        shape_families()[warm[i].family].dsl(warm[i].a, warm[i].b);
    serve::prewarm(registry, octopi::parse_octopi(dsl), paper_devices(),
                   options);
  }
  std::vector<serve::PlanEntry> entries(warm.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    if (!registry.peek(warm[i].signature, &entries[i]) ||
        !entries[i].tuned) {
      throw std::runtime_error("prewarm left " + warm[i].signature +
                               " untuned");
    }
  }
  return entries;
}

double plan_gflops(const core::TuningProblem& problem,
                   const serve::PlanEntry& entry) {
  const auto variants = core::enumerate_programs(problem);
  return static_cast<double>(variants.at(entry.variant).flops()) / 1e3 /
         entry.modeled_us;
}

double geomean_plan_gflops(const std::vector<Request>& requests,
                           const std::vector<serve::PlanEntry>& entries) {
  std::vector<double> gflops;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    gflops.push_back(plan_gflops(requests[i].problem, entries[i]));
  }
  return geomean(gflops);
}

}  // namespace barracuda::perfbench
