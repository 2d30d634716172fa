// `tune`: one core::tune() at a time over a seeded draw of the paper's
// kernels on the three modeled GPUs, with the paper's search budget.
// Nearly all of the work is in octopi / tcr / chill / vgpu / surf.

#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "problems.hpp"
#include "support/rng.hpp"
#include "surf/features.hpp"
#include "tcr/loopnest.hpp"
#include "tensor/einsum.hpp"
#include "vgpu/executor.hpp"
#include "workloads.hpp"

namespace barracuda::perfbench {
namespace {

// Only kernels this small are executed against the tensor reference
// (Eqn.(1) at n=10); the rest are too large for the host interpreter.
constexpr std::int64_t kExecuteFlops = 20'000'000;

struct Reference {
  std::size_t variant = 0;
  std::string recipe;
  double modeled_us = 0;
};

Reference reference_of(const core::TuneResult& r) {
  return {r.best_variant, core::serialize_recipe(r.best_recipe),
          r.modeled_us()};
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Runs the tuned plan on the modeled GPU and compares every output with
/// the tensor-algebra reference evaluation of the original statements.
bool executes_correctly(const core::TuningProblem& problem,
                        const core::TuneResult& result, std::uint64_t seed) {
  const tcr::TcrProgram& program = result.best_program();
  Rng rng(seed);
  tensor::TensorEnv env;
  auto dims_of = [&](const std::string& name) {
    std::vector<std::int64_t> dims;
    for (const auto& ix : program.variable(name).indices) {
      dims.push_back(program.extents.at(ix));
    }
    return dims;
  };
  for (const auto& name : program.input_names()) {
    env.emplace(name, tensor::Tensor::random(dims_of(name), rng));
  }
  for (const auto& name : program.output_names()) {
    env.emplace(name, tensor::Tensor::zeros(dims_of(name)));
  }
  tensor::TensorEnv reference = env;
  result.run(env);
  for (const auto& stmt : problem.statements) {
    tensor::evaluate(stmt, problem.extents, reference);
  }
  for (const auto& name : program.output_names()) {
    if (!tensor::Tensor::allclose(env.at(name), reference.at(name), 1e-9)) {
      return false;
    }
  }
  return true;
}

// --- Traced replay of core::tune() -------------------------------------
// The same public calls tune() makes, in the same order and with the same
// pool, each wrapped in a span.  The pool materialization below mirrors
// core/barracuda.cpp so the replayed search evaluates the same candidates.

struct PoolEntry {
  std::size_t variant = 0;
  std::vector<std::size_t> config;
  auto operator<=>(const PoolEntry&) const = default;
};

struct VariantSpace {
  std::vector<std::vector<tcr::KernelConfig>> op_configs;
  double size = 1;
};

chill::Recipe recipe_of(const VariantSpace& space, const PoolEntry& e) {
  chill::Recipe recipe;
  for (std::size_t op = 0; op < space.op_configs.size(); ++op) {
    recipe.push_back(space.op_configs[op][e.config[op]]);
  }
  return recipe;
}

std::vector<PoolEntry> materialize_pool(const std::vector<VariantSpace>& spaces,
                                        double total_size,
                                        const core::TuneOptions& options) {
  std::vector<PoolEntry> pool;
  if (total_size <= static_cast<double>(options.max_pool)) {
    for (std::size_t v = 0; v < spaces.size(); ++v) {
      PoolEntry e;
      e.variant = v;
      e.config.assign(spaces[v].op_configs.size(), 0);
      while (true) {
        pool.push_back(e);
        std::size_t d = e.config.size();
        bool done = true;
        while (d > 0) {
          --d;
          if (++e.config[d] < spaces[v].op_configs[d].size()) {
            done = false;
            break;
          }
          e.config[d] = 0;
        }
        if (done) break;
      }
    }
    return pool;
  }
  Rng rng(options.pool_seed);
  std::set<PoolEntry> seen;
  const std::size_t share =
      std::max<std::size_t>(1, options.max_pool / spaces.size());
  for (std::size_t v = 0; v < spaces.size(); ++v) {
    const std::size_t quota = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(share), spaces[v].size));
    std::size_t attempts = 0, taken = 0;
    while (taken < quota && attempts < quota * 20) {
      ++attempts;
      PoolEntry e;
      e.variant = v;
      for (const auto& configs : spaces[v].op_configs) {
        e.config.push_back(rng.index(configs.size()));
      }
      if (seen.insert(e).second) {
        pool.push_back(std::move(e));
        ++taken;
      }
    }
  }
  return pool;
}

struct ReplayStats {
  std::size_t variants = 0;
  double joint_space = 0;
  std::size_t evaluations = 0;
  Reference best;
};

ReplayStats replay_tune(Tracer& tracer, std::uint64_t op,
                        const core::TuningProblem& problem,
                        const vgpu::DeviceProfile& device,
                        const core::TuneOptions& options) {
  Tracer::Scope root(&tracer, "core.replay", op);
  ReplayStats stats;
  std::vector<tcr::TcrProgram> variants;
  {
    Tracer::Scope s(&tracer, "octopi.enumerate", op);
    variants = core::enumerate_programs(problem, options.octopi,
                                        options.max_joint_variants);
  }
  std::vector<VariantSpace> spaces;
  double total_size = 0;
  {
    Tracer::Scope s(&tracer, "tcr.space", op);
    for (const auto& program : variants) {
      VariantSpace space;
      for (const auto& nest : tcr::build_loop_nests(program)) {
        tcr::KernelSpace ks = tcr::derive_space(nest, options.decision);
        space.op_configs.push_back(tcr::enumerate_configs(nest, ks));
        space.size *= static_cast<double>(space.op_configs.back().size());
      }
      total_size += space.size;
      spaces.push_back(std::move(space));
    }
  }
  std::vector<PoolEntry> pool;
  {
    Tracer::Scope s(&tracer, "core.pool", op);
    pool = materialize_pool(spaces, total_size, options);
  }
  if (pool.empty()) throw std::runtime_error("replay: empty tuning pool");
  std::vector<std::vector<double>> features;
  {
    Tracer::Scope s(&tracer, "surf.featurize", op);
    surf::RecipeFeaturizer featurizer(variants);
    features.reserve(pool.size());
    for (const auto& e : pool) {
      features.push_back(
          featurizer.encode(e.variant, recipe_of(spaces[e.variant], e)));
    }
  }
  surf::SearchResult search;
  {
    Tracer::Scope s(&tracer, "surf.search", op);
    const std::uint64_t parent = s.id();
    // Evaluations may run on pool threads, so their parent is explicit.
    auto objective = [&](std::size_t i) {
      const PoolEntry& e = pool[i];
      const chill::Recipe recipe = recipe_of(spaces[e.variant], e);
      chill::GpuPlan plan;
      {
        Tracer::Scope lower(&tracer, "chill.lower", op, parent);
        plan = chill::lower_program(variants[e.variant], recipe);
      }
      double us = 0;
      {
        Tracer::Scope model(&tracer, "vgpu.model", op, parent);
        us = vgpu::model_plan(plan, device).total_us;
      }
      return std::isfinite(us) ? us : 1e15;
    };
    search = surf::surf_search(features, objective, options.search);
  }
  {
    Tracer::Scope s(&tracer, "core.finalize", op);
    const PoolEntry& best = pool[search.best_index];
    std::size_t best_variant = best.variant;
    chill::Recipe best_recipe = recipe_of(spaces[best.variant], best);
    chill::Recipe default_recipe =
        chill::openacc_optimized_recipe(variants.front());
    const double default_us =
        vgpu::model_plan(chill::lower_program(variants.front(), default_recipe),
                         device)
            .total_us;
    if (default_us < search.best_value) {
      best_variant = 0;
      best_recipe = std::move(default_recipe);
    }
    const double us =
        vgpu::model_plan(
            chill::lower_program(variants[best_variant], best_recipe), device)
            .total_us;
    stats.best = {best_variant, core::serialize_recipe(best_recipe), us};
  }
  stats.variants = variants.size();
  stats.joint_space = total_size;
  stats.evaluations = search.evaluations();
  return stats;
}

}  // namespace

Result run_tune(const Args& args) {
  Result result;
  // The search seed is the tuner's own setting, not an input: the workload
  // seed draws the kernels and their order only.  One evaluation lane: with
  // nproc lanes a tune waits on its slowest lane, and on a shared host its
  // wall time then follows the neighbours' load rather than the program.
  core::TuneOptions options = bench::paper_tune_options();
  options.search.n_jobs = 1;

  std::vector<TuneCase> pass;
  std::vector<double> baseline_us;
  result.metrics["setup_s"] = timed_setup(101, [&] {
    pass = tune_pass(args.seed);
    baseline_us.clear();
    for (const TuneCase& c : pass) {
      baseline_us.push_back(
          core::openacc_baseline(c.problem, *c.device, true).timing.total_us);
    }
  });

  // Warm-up: one full pass.  It fixes the per-(kernel, device) reference
  // result every later tune must reproduce bit for bit, and the plan
  // quality figure, which therefore depends on the seed alone.
  std::vector<Reference> reference(pass.size());
  std::vector<double> gflops;
  std::int64_t warm_start = now_ns();
  for (std::size_t i = 0; i < pass.size(); ++i) {
    ++result.attempted;
    const core::TuneResult r = core::tune(pass[i].problem, *pass[i].device,
                                          options);
    reference[i] = reference_of(r);
    gflops.push_back(r.modeled_gflops());
    bool ok = r.modeled_us() <= baseline_us[i];
    if (ok && pass[i].problem.direct_flops() <= kExecuteFlops) {
      ok = executes_correctly(pass[i].problem, r, args.seed);
    }
    if (!ok) ++result.failed;
  }
  const double pass_seconds =
      static_cast<double>(now_ns() - warm_start) * 1e-9;
  result.metrics["plan_gflops_geomean"] = geomean(gflops);

  auto check = [&](std::size_t i, const core::TuneResult& r) {
    const Reference now = reference_of(r);
    const bool ok = r.modeled_us() <= baseline_us[i] &&
                    now.variant == reference[i].variant &&
                    now.recipe == reference[i].recipe &&
                    same_bits(now.modeled_us, reference[i].modeled_us);
    if (!ok) ++result.failed;
  };

  // Each pass is one measurement window.  Whole passes only, so every
  // window measures the same kernel mix; a pass starts while at least half
  // of it fits in the time box.
  auto run_passes = [&](double seconds, Tracer* tracer, WindowTimes& times,
                        ReplayStats* totals, std::size_t* matches) {
    Windows windows;
    const std::int64_t start = now_ns();
    std::uint64_t op = 0;
    do {
      const std::int64_t pass_start = now_ns();
      const std::int64_t pass_cpu_start = process_cpu_ns();
      Windows one(1);
      for (std::size_t i = 0; i < pass.size(); ++i, ++op) {
        ++result.attempted;
        core::TuneResult r;
        std::int64_t t0 = 0, t1 = 0;
        {
          Tracer::Scope s(tracer, "core.tune", op);
          t0 = now_ns();
          r = core::tune(pass[i].problem, *pass[i].device, options);
          t1 = now_ns();
        }
        ++one.ops[0];
        one.latencies_us[0].push_back(static_cast<double>(t1 - t0) * 1e-3);
        check(i, r);
        if (tracer) {
          const ReplayStats s = replay_tune(*tracer, op, pass[i].problem,
                                            *pass[i].device, options);
          totals->variants += s.variants;
          totals->joint_space += s.joint_space;
          totals->evaluations += s.evaluations;
          const Reference now = reference_of(r);
          if (s.best.variant == now.variant && s.best.recipe == now.recipe &&
              same_bits(s.best.modeled_us, now.modeled_us)) {
            ++*matches;
          }
        }
      }
      times.cpu_seconds.push_back(
          static_cast<double>(process_cpu_ns() - pass_cpu_start) * 1e-9);
      times.seconds.push_back(static_cast<double>(now_ns() - pass_start) *
                              1e-9);
      windows.ops.push_back(one.ops[0]);
      windows.latencies_us.push_back(std::move(one.latencies_us[0]));
    } while (static_cast<double>(now_ns() - start) * 1e-9 + 0.5 * pass_seconds <
             seconds);
    return windows;
  };

  if (!args.trace) {
    WindowTimes times;
    run_passes(args.seconds, nullptr, times, nullptr, nullptr)
        .report(times, result.metrics);
    return result;
  }

  WindowTimes times;
  const Windows untraced_windows =
      run_passes(args.seconds / 2, nullptr, times, nullptr, nullptr);
  untraced_windows.report(times, result.metrics);
  const std::vector<double> untraced = untraced_windows.pooled();
  Tracer tracer;
  ReplayStats totals;
  std::size_t matches = 0;
  WindowTimes unused;
  const std::vector<double> traced =
      run_passes(args.seconds / 2, &tracer, unused, &totals, &matches)
          .pooled();
  tracer.write(args.out_dir + "/trace-tune.jsonl");

  const auto spans = tracer.totals();
  const double ops = static_cast<double>(traced.size());
  auto per_op = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_us / ops;
  };
  auto per_call = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.count);
  };
  auto& m = result.metrics;
  m["octopi.enumerate_us"] = per_op("octopi.enumerate");
  m["octopi.variants"] = static_cast<double>(totals.variants) / ops;
  m["tcr.space_us"] = per_op("tcr.space");
  m["tcr.joint_space"] = totals.joint_space / ops;
  m["surf.featurize_us"] = per_op("surf.featurize");
  m["chill.lower_us"] = per_call("chill.lower");
  m["vgpu.model_us"] = per_call("vgpu.model");
  m["surf.evals"] = static_cast<double>(totals.evaluations) / ops;
  m["surf.search_self_us"] = spans.at("surf.search").self_us / ops;
  m["core.tune_us"] = per_op("core.tune");
  m["core.other_us"] = m["core.tune_us"] - m["octopi.enumerate_us"] -
                       m["tcr.space_us"] - m["surf.featurize_us"] -
                       per_op("surf.search");
  m["core.replay_match"] = static_cast<double>(matches) / ops;
  trace_overhead(untraced, traced, m);
  return result;
}

}  // namespace barracuda::perfbench
