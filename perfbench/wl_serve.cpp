// `serve-churn`: TuningService::get_plan against a prewarmed registry, in
// an open loop that mixes never-seen shapes (cold fallback, background
// tune, better-wins publish) into the warm reads.

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

#include "chill/lower.hpp"
#include "serve/service.hpp"
#include "serve_setup.hpp"
#include "vgpu/perfmodel.hpp"
#include "workloads.hpp"

namespace barracuda::perfbench {
namespace {

struct ServeState {
  std::vector<Request> warm;
  std::vector<serve::PlanEntry> prewarmed;
  std::unique_ptr<serve::PlanRegistry> registry;
  std::unique_ptr<serve::TuningService> service;
};

double setup_serving(ServeState& state) {
  return timed_setup(3, [&] {
    state.service.reset();
    state.registry = std::make_unique<serve::PlanRegistry>();
    state.warm = warm_set();
    state.prewarmed = prewarm_registry(*state.registry, state.warm,
                                       static_cast<int>(nproc()));
    serve::ServeOptions options;
    options.tune = serve_tune_options();
    state.service =
        std::make_unique<serve::TuningService>(*state.registry, options);
  });
}

// The open-loop schedule.  Warm arrivals are Poisson at kWarmRate; new
// shapes arrive evenly spaced at kNovelRate during the measured window
// (none in the last kRecurSeconds, so each one's recurrences fit in the
// run), and every new shape then recurs each kRecurEvery seconds for
// kRecurSeconds, the way a new job shape keeps coming back.  The rates
// keep the seed commit's tuning queue short: no backlog and no rejected
// enqueues.
constexpr double kWarmRate = 3000;
constexpr double kNovelRate = 10;
constexpr double kRecurEvery = 0.01;
constexpr double kRecurSeconds = 1.0;
constexpr double kWarmupSeconds = 0.5;
// Sleep until this long before a request is due, then spin, so the
// generator's own wake-up latency (timer slack, idle-state exit) does not
// dominate warm-hit latency.  At the per-sender rate this keeps each
// sender spinning; half the cores are left to the background tunes.
constexpr std::int64_t kSpinNs = 1'000'000;
// In the traced half, replay the warm path's layer calls after one warm
// request in this many.
constexpr std::size_t kReplayEvery = 16;

struct Arrival {
  std::int64_t due_ns = 0;  // offset from the schedule start
  std::int32_t warm = -1;   // warm-set index, or -1
  std::int32_t novel = -1;  // novel-shape index, or -1
};

struct Answer {
  std::int64_t due_ns = 0, start_ns = 0, end_ns = 0;
  std::int32_t warm = -1, novel = -1;
  double modeled_us = 0;
  bool tuned = false;
  bool cold = false;
  bool warm_hit = false;
  bool ok = true;
};

std::vector<Arrival> churn_schedule(std::uint64_t seed, double seconds,
                                    std::size_t* novel_count,
                                    const ZipfPicker& picker) {
  Rng rng(seed * 0xd6e8feb86659fd93ull + 5);
  std::vector<Arrival> out;
  const double end = kWarmupSeconds + seconds;
  auto exp_gap = [&](double rate) {
    return -std::log(1.0 - rng.uniform()) / rate;
  };
  std::vector<double> warm_times;
  for (double t = exp_gap(kWarmRate); t < end; t += exp_gap(kWarmRate)) {
    warm_times.push_back(t);
  }
  const std::vector<std::uint32_t> picks =
      picker.draw(warm_times.size(), seed * 64 + 63);
  for (std::size_t i = 0; i < warm_times.size(); ++i) {
    out.push_back({static_cast<std::int64_t>(warm_times[i] * 1e9),
                   static_cast<std::int32_t>(picks[i]), -1});
  }
  std::int32_t novel = 0;
  for (double t = kWarmupSeconds + 0.5 / kNovelRate; t < end - kRecurSeconds;
       t += 1 / kNovelRate, ++novel) {
    for (double r = 0; r <= kRecurSeconds + 1e-9; r += kRecurEvery) {
      out.push_back({static_cast<std::int64_t>((t + r) * 1e9), -1, novel});
    }
  }
  *novel_count = static_cast<std::size_t>(novel);
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_ns < b.due_ns;
                   });
  return out;
}

void wait_until(std::int64_t deadline_ns) {
  const std::int64_t sleep_to = deadline_ns - kSpinNs;
  std::int64_t now = now_ns();
  if (now < sleep_to) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_to - now));
  }
  while (now_ns() < deadline_ns) {
  }
}

/// Every answer for one signature must be no slower than each answer that
/// had already completed when it was requested (better-wins publishing).
std::size_t non_monotone(std::vector<const Answer*> answers) {
  std::sort(answers.begin(), answers.end(),
            [](const Answer* a, const Answer* b) {
              return a->end_ns < b->end_ns;
            });
  std::size_t bad = 0;
  for (const Answer* a : answers) {
    for (const Answer* earlier : answers) {
      if (earlier->end_ns >= a->start_ns) break;
      if (a->modeled_us > earlier->modeled_us) {
        ++bad;
        break;
      }
    }
  }
  return bad;
}

}  // namespace

Result run_serve_churn(const Args& args) {
  Result result;
  ServeState state;
  result.metrics["setup_s"] = setup_serving(state);
  serve::TuningService& service = *state.service;
  const std::size_t clients = std::max<std::size_t>(1, nproc() / 2);
  const ZipfPicker picker(state.warm, args.seed);
  std::size_t novel_count = 0;
  const std::vector<Arrival> schedule =
      churn_schedule(args.seed, args.seconds, &novel_count, picker);
  const std::vector<Request> novel = novel_shapes(args.seed, novel_count);

  // With tracing, requests due in the second half of the window carry a
  // get_plan span; the first half stays untraced for the overhead figure.
  Tracer tracer;
  Tracer* tracer_ptr = args.trace ? &tracer : nullptr;
  const std::int64_t window_start =
      static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  const std::int64_t window_end =
      static_cast<std::int64_t>((kWarmupSeconds + args.seconds) * 1e9);
  const std::int64_t traced_from =
      args.trace ? (window_start + window_end) / 2 : window_end + 1;

  std::vector<std::vector<Answer>> answers(clients);
  // The senders spin before each due time, so the program's CPU time is
  // the process's minus the senders' plus the senders' time inside
  // get_plan, which the wall clock around each call gives without putting
  // a CPU-clock system call between a request's due time and its answer.
  std::vector<std::int64_t> sender_cpu_ns(clients), in_request_ns(clients);
  std::barrier<> start_line(static_cast<std::ptrdiff_t>(clients + 1));
  std::int64_t base = 0;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      std::vector<Answer>& mine = answers[t];
      mine.reserve(schedule.size() / clients + 1);
      start_line.arrive_and_wait();
      const std::int64_t cpu_start = thread_cpu_ns();
      Sampler replay(kReplayEvery);
      for (std::size_t i = t; i < schedule.size(); i += clients) {
        const Arrival& a = schedule[i];
        const Request& rq = a.warm >= 0 ? state.warm[a.warm] : novel[a.novel];
        Answer ans;
        ans.due_ns = a.due_ns;
        ans.warm = a.warm;
        ans.novel = a.novel;
        wait_until(base + a.due_ns);
        ans.start_ns = now_ns() - base;
        try {
          serve::ServedPlan served;
          const bool traced = a.due_ns >= traced_from;
          if (traced) {
            Tracer::Scope s(tracer_ptr,
                            a.warm >= 0 ? "serve.get_plan" : "serve.get_new",
                            i);
            served = service.get_plan(rq.problem, *rq.device);
          } else {
            served = service.get_plan(rq.problem, *rq.device);
          }
          ans.end_ns = now_ns() - base;
          ans.modeled_us = served.plan.modeled_us;
          ans.tuned = served.plan.tuned;
          ans.cold = served.source == serve::ServedPlan::Source::kCold;
          ans.warm_hit = served.source == serve::ServedPlan::Source::kWarm;
          if (traced && a.warm >= 0 && replay.due()) {
            // The warm path's layer calls on the same request.
            std::string sig;
            serve::PlanEntry entry;
            {
              Tracer::Scope s(tracer_ptr, "serve.signature", i);
              sig = serve::signature(rq.problem, *rq.device);
            }
            {
              Tracer::Scope s(tracer_ptr, "serve.lookup", i);
              state.registry->lookup(sig, &entry);
            }
            Tracer::Scope s(tracer_ptr, "serve.demand", i);
            state.registry->record_demand(sig, entry.modeled_us);
          }
          ans.ok = served.signature == rq.signature &&
                   (a.warm < 0 ||
                    (served.plan.tuned &&
                     served.plan.modeled_us <= state.prewarmed[a.warm]
                                                   .modeled_us));
        } catch (const std::exception&) {
          ans.end_ns = now_ns() - base;
          ans.ok = false;
        }
        in_request_ns[t] += ans.end_ns - ans.start_ns;
        mine.push_back(ans);
      }
      sender_cpu_ns[t] = thread_cpu_ns() - cpu_start;
    });
  }
  base = now_ns() + 20'000'000;
  const std::int64_t cpu_start = process_cpu_ns();
  start_line.arrive_and_wait();
  // Watch the tuning queue while the schedule runs.
  std::size_t queue_depth_max = 0;
  const std::int64_t schedule_end = base + window_end;
  while (now_ns() < schedule_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const serve::ServeStats s = service.snapshot();
    queue_depth_max = std::max(queue_depth_max, s.queue_depth + s.in_flight);
  }
  for (auto& th : threads) th.join();
  service.drain();
  double program_cpu_ns = static_cast<double>(process_cpu_ns() - cpu_start);
  std::size_t answered = 0;
  for (std::size_t t = 0; t < clients; ++t) {
    program_cpu_ns -=
        static_cast<double>(sender_cpu_ns[t] - in_request_ns[t]);
    answered += answers[t].size();
  }

  // Per-request figures over the measured window: latencies go to the
  // window they were due in, and a window's rate counts the answers
  // completed in it.
  const std::size_t window_count = serve_windows(args.seconds);
  Windows windows(window_count);
  const double window_ns =
      static_cast<double>(window_end - window_start) / window_count;
  auto window_of = [&](std::int64_t t) {
    return static_cast<std::size_t>(static_cast<double>(t - window_start) /
                                    window_ns);
  };
  std::vector<double> cold_us, late_us, latency_traced_us,
      latency_untraced_us;
  std::vector<std::vector<const Answer*>> by_novel(novel.size());
  std::size_t warm_requests = 0, warm_hits = 0;
  for (const auto& list : answers) {
    for (const Answer& a : list) {
      if (a.novel >= 0) by_novel[a.novel].push_back(&a);
      if (a.due_ns < window_start) continue;
      ++result.attempted;
      if (!a.ok) ++result.failed;
      if (a.end_ns >= window_start && a.end_ns < window_end) {
        ++windows.ops[window_of(a.end_ns)];
      }
      const double us = static_cast<double>(a.end_ns - a.due_ns) * 1e-3;
      if (a.due_ns < window_end) {
        windows.latencies_us[window_of(a.due_ns)].push_back(us);
      }
      late_us.push_back(static_cast<double>(a.start_ns - a.due_ns) * 1e-3);
      if (a.cold) cold_us.push_back(us);
      if (a.warm >= 0) {
        ++warm_requests;
        if (a.warm_hit) ++warm_hits;
      }
      (a.due_ns >= traced_from ? latency_traced_us : latency_untraced_us)
          .push_back(us);
    }
  }
  // Time to tuned: from a new shape's first request until the first
  // answer that carried a tuned plan.  A shape never served tuned within
  // its recurrences counts as taking the whole recurrence window.
  std::vector<double> time_to_tuned_s;
  std::size_t never_tuned = 0;
  for (auto& list : by_novel) {
    if (list.empty()) continue;
    result.failed += non_monotone(list);
    std::int64_t first_due = std::numeric_limits<std::int64_t>::max();
    std::int64_t first_tuned = std::numeric_limits<std::int64_t>::max();
    for (const Answer* a : list) {
      first_due = std::min(first_due, a->due_ns);
      if (a->tuned) first_tuned = std::min(first_tuned, a->end_ns);
    }
    if (first_tuned == std::numeric_limits<std::int64_t>::max()) {
      ++never_tuned;
      time_to_tuned_s.push_back(kRecurSeconds);
    } else {
      time_to_tuned_s.push_back(static_cast<double>(first_tuned - first_due) *
                                1e-9);
    }
  }
  // After drain() every new shape must hold a tuned plan.
  std::vector<double> gflops;
  for (std::size_t i = 0; i < state.warm.size(); ++i) {
    serve::PlanEntry e;
    state.registry->peek(state.warm[i].signature, &e);
    gflops.push_back(plan_gflops(state.warm[i].problem, e));
  }
  for (const Request& rq : novel) {
    serve::PlanEntry e;
    if (!state.registry->peek(rq.signature, &e) || !e.tuned) {
      result.checks_ok = false;
      continue;
    }
    gflops.push_back(plan_gflops(rq.problem, e));
  }

  const serve::ServeStats stats = service.snapshot();
  auto& m = result.metrics;
  if (args.trace) {
    // The rate and tail figures of a traced run come from its untraced
    // first half.
    windows.ops.resize(window_count / 2);
    windows.latencies_us.resize(window_count / 2);
  }
  windows.report(
      {std::vector<double>(windows.ops.size(), window_ns * 1e-9), {}}, m);
  // Background tunes and cold fallbacks do not fall evenly into windows,
  // so the CPU figure covers the whole schedule and the drain.
  m["cpu_us_per_op"] = program_cpu_ns * 1e-3 / static_cast<double>(answered);
  if (!args.trace) {
    m["plan_gflops_geomean"] = geomean(gflops);
    return result;
  }

  m["cold_p50_us"] = median(cold_us);
  m["time_to_tuned_p50_s"] = median(time_to_tuned_s);
  m["serve.never_tuned"] = static_cast<double>(never_tuned);
  m["gen.late_p99_us"] = percentile(late_us, 99);
  m["serve.tunes_started"] = static_cast<double>(stats.tunes_started);
  m["serve.rejected"] = static_cast<double>(stats.rejected);
  m["serve.queue_depth_max"] = static_cast<double>(queue_depth_max);
  m["serve.tune_mean_ms"] =
      stats.tunes_completed
          ? 1e3 * stats.tune_seconds_total /
                static_cast<double>(stats.tunes_completed)
          : 0;

  // Replay the cold fallback of every new shape, layer by layer.
  const core::TuneOptions options = serve_tune_options();
  for (std::size_t i = 0; i < novel.size(); ++i) {
    const Request& rq = novel[i];
    Tracer::Scope root(&tracer, "serve.cold_fallback", i);
    std::vector<tcr::TcrProgram> variants;
    {
      Tracer::Scope s(&tracer, "octopi.enumerate", i);
      variants = core::enumerate_programs(rq.problem, options.octopi,
                                          options.max_joint_variants);
    }
    chill::Recipe recipe;
    {
      Tracer::Scope s(&tracer, "chill.recipe", i);
      recipe = chill::openacc_optimized_recipe(variants.front());
    }
    chill::GpuPlan plan;
    {
      Tracer::Scope s(&tracer, "chill.lower", i);
      plan = chill::lower_program(variants.front(), recipe);
    }
    {
      Tracer::Scope s(&tracer, "vgpu.model", i);
      vgpu::model_plan(plan, *rq.device);
    }
  }
  // Publish cost at the registry's final size: copy-on-write publishes of
  // fresh signatures into a registry holding the same entries.
  serve::PlanRegistry side;
  side.merge_text(state.registry->to_text(), "<benchmark>");
  m["serve.registry_size"] = static_cast<double>(side.size());
  const serve::PlanEntry sample_entry = state.prewarmed.front();
  constexpr int kPublishes = 256;
  for (int i = 0; i < kPublishes; ++i) {
    Tracer::Scope s(&tracer, "serve.publish", i);
    side.publish("benchmark-publish-" + std::to_string(i), sample_entry);
  }
  tracer.write(args.out_dir + "/trace-serve-churn.jsonl");
  const auto spans = tracer.totals();
  auto mean = [&](const char* name) {
    const Tracer::Totals& t = spans.at(name);
    return t.total_us / static_cast<double>(t.count);
  };
  m["serve.cold_fallback_us"] = mean("serve.cold_fallback");
  m["octopi.enumerate_us"] = mean("octopi.enumerate");
  m["serve.publish_us"] = mean("serve.publish");
  m["serve.clients"] = static_cast<double>(clients);
  m["serve.hit_ratio"] = static_cast<double>(warm_hits) /
                         static_cast<double>(warm_requests);
  m["serve.get_plan_us"] = mean("serve.get_plan");
  m["serve.signature_us"] = mean("serve.signature");
  m["serve.lookup_us"] = mean("serve.lookup");
  m["serve.demand_us"] = mean("serve.demand");
  m["serve.get_plan_other_us"] = m["serve.get_plan_us"] -
                                 m["serve.signature_us"] -
                                 m["serve.lookup_us"] - m["serve.demand_us"];
  trace_overhead(latency_untraced_us, latency_traced_us, m);
  return result;
}

}  // namespace barracuda::perfbench
