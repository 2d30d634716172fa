// The prewarmed serving state shared by `serve-churn` and `remote`: the
// warm signature set tuned into a PlanRegistry.
#pragma once

#include <memory>
#include <vector>

#include "problems.hpp"
#include "serve/registry.hpp"

namespace barracuda::perfbench {

/// The tune options of every serving workload's prewarm and background
/// tunes: the paper budget with a fixed search seed, so the served plans
/// do not depend on the workload seed.
core::TuneOptions serve_tune_options();

/// Tunes every warm_set() signature into `registry` through
/// serve::prewarm (searches spread over `jobs` lanes) and returns the
/// entry each signature then holds; throws if one is missing or untuned.
std::vector<serve::PlanEntry> prewarm_registry(
    serve::PlanRegistry& registry, const std::vector<Request>& warm,
    int jobs);

/// Modeled GFlop/s of a served plan for `problem`.
double plan_gflops(const core::TuningProblem& problem,
                   const serve::PlanEntry& entry);

/// Geometric mean of plan_gflops over `requests` and their `entries`.
double geomean_plan_gflops(const std::vector<Request>& requests,
                           const std::vector<serve::PlanEntry>& entries);

}  // namespace barracuda::perfbench
