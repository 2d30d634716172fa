#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include "core/report.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/threadpool.hpp"
#include "support/timer.hpp"

namespace barracuda::serve {
namespace {

/// Infeasible plans model to +inf; clamp to the same large finite
/// penalty the tuning objective uses so entries stay serializable and
/// comparable under better_plan.
double finite_us(double us) { return std::isfinite(us) ? us : 1e15; }

/// splitmix64 finisher: full-avalanche mixing for the jitter hash.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Backoff before retry attempt `attempt` (2-based): capped exponential
/// with a deterministic jitter factor in [0.5, 1.0] — a pure function
/// of (jitter_seed, sig, attempt), so retry spacing reproduces exactly
/// and distinct signatures decorrelate.
double backoff_ms(const RetryPolicy& retry, const std::string& sig,
                  std::size_t attempt) {
  double exp_ms = retry.base_delay_ms;
  for (std::size_t k = 2; k < attempt; ++k) exp_ms *= 2.0;
  exp_ms = std::min(exp_ms, retry.cap_ms);
  std::uint64_t h = retry.jitter_seed;
  for (char c : sig) h = mix64(h ^ static_cast<unsigned char>(c));
  h = mix64(h ^ attempt);
  const double unit =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
  return exp_ms * (0.5 + 0.5 * unit);
}

}  // namespace

TuningService::TuningService(PlanRegistry& registry, ServeOptions options)
    : registry_(registry),
      options_(std::move(options)),
      plan_cache_(options_.plan_cache_capacity) {
  BARRACUDA_CHECK_MSG(options_.queue_capacity >= 1,
                      "serve queue capacity must be >= 1");
  BARRACUDA_CHECK_MSG(options_.breaker_cooldown >= 0,
                      "breaker cool-down must be >= 0");
  BARRACUDA_CHECK_MSG(options_.retune_interval >= 0,
                      "retune interval must be >= 0");
  BARRACUDA_CHECK_MSG(options_.anti_entropy_interval >= 0,
                      "anti-entropy interval must be >= 0");
  if (options_.retune_interval > 0) {
    retune_thread_ = std::thread([this] { retune_loop(); });
  }
  if (options_.remote && options_.anti_entropy_interval > 0) {
    anti_entropy_thread_ = std::thread([this] { anti_entropy_loop(); });
  }
}

TuningService::~TuningService() {
  // Stop the maintenance threads FIRST — neither the re-tune scheduler
  // nor the anti-entropy sync may start new work while we drain — then
  // let in-flight tasks finish: they capture `this`, so they must
  // complete before the members they touch are destroyed.  Their
  // upgrades still land in the registry, which outlives the service by
  // contract.
  if (retune_thread_.joinable() || anti_entropy_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(retune_mutex_);
      retune_stop_ = true;
    }
    retune_cv_.notify_all();
    if (retune_thread_.joinable()) retune_thread_.join();
    if (anti_entropy_thread_.joinable()) anti_entropy_thread_.join();
  }
  drain();
}

void TuningService::remember_signature(const std::string& sig,
                                       const core::TuningProblem& problem,
                                       const vgpu::DeviceProfile& device) {
  // Fast path: already known — one mutex-free find on the snapshot.
  if (known_.read()->contains(sig)) return;
  auto context = std::make_shared<const RetuneContext>(
      RetuneContext{problem, device});
  known_.write([&](auto& draft) {
    if (!draft.get().contains(sig)) draft.edit().emplace(sig, context);
  });
}

ServedPlan TuningService::serve_signature(std::string sig,
                                          const core::TuningProblem& problem,
                                          const vgpu::DeviceProfile& device,
                                          std::size_t count) {
  ServedPlan served;
  served.signature = std::move(sig);

  if (registry_.lookup(served.signature, &served.plan)) {
    served.source = ServedPlan::Source::kWarm;
    if (!served.plan.tuned) {
      served.scheduled_tune =
          maybe_schedule(served.signature, problem, device);
    }
    // Demand feeds the adaptive re-tuner: what was served, how often.
    registry_.record_demand(served.signature, served.plan.modeled_us, count);
    remember_signature(served.signature, problem, device);
    return served;
  }

  // Local (L1) miss: consult the remote (L2) tier first — a fleet that
  // already tuned this signature answers it here, and the node inherits
  // the plan instead of redoing the tune.  The backend contract says
  // fetch never throws and never blocks unboundedly, but a remote tier
  // must NEVER be able to fail a request, so the call is fenced anyway.
  if (options_.remote) {
    PlanEntry fetched;
    RemoteStatus status = RemoteStatus::kUnavailable;
    try {
      status = options_.remote->fetch(served.signature, &fetched);
    } catch (...) {
      status = RemoteStatus::kUnavailable;
    }
    switch (status) {
      case RemoteStatus::kHit: {
        remote_hits_.fetch_add(1, std::memory_order_relaxed);
        served.source = ServedPlan::Source::kRemote;
        // Publish into L1 better-wins and serve what the registry then
        // holds — same monotonicity rule as the cold path.
        served.plan = registry_.publish_and_get(served.signature, fetched);
        if (!served.plan.tuned) {
          served.scheduled_tune =
              maybe_schedule(served.signature, problem, device);
        }
        registry_.record_demand(served.signature, served.plan.modeled_us,
                                count);
        remember_signature(served.signature, problem, device);
        return served;
      }
      case RemoteStatus::kMiss:
        remote_misses_.fetch_add(1, std::memory_order_relaxed);
        break;
      case RemoteStatus::kError:
        // A replica answered and rejected the request — the transport
        // works, so this is an application problem, not a dead fleet.
        remote_errors_.fetch_add(1, std::memory_order_relaxed);
        break;
      case RemoteStatus::kUnavailable:
        // No replica reachable: degraded to local-only for this
        // request; the backend's per-endpoint breakers decide when to
        // probe the links again.
        remote_unavailable_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }

  // Cold signature: compute the cheap fallback, publish it better-wins
  // and serve whatever the registry then holds — if a concurrent tune
  // finished in the window since our miss, that's the tuned plan, never
  // anything slower than a previous answer for this signature.
  served.source = ServedPlan::Source::kCold;
  served.plan = registry_.publish_and_get(
      served.signature, fallback_plan(problem, device, options_.tune));
  if (!served.plan.tuned) {
    served.scheduled_tune = maybe_schedule(served.signature, problem, device);
  }
  registry_.record_demand(served.signature, served.plan.modeled_us, count);
  remember_signature(served.signature, problem, device);
  return served;
}

ServedPlan TuningService::get_plan(const core::TuningProblem& problem,
                                   const vgpu::DeviceProfile& device) {
  // Warm path: this relaxed increment plus the registry's mutex-free
  // shard-snapshot lookup is ALL a tuned hit does — no service mutex,
  // no contention with publishing tunes or other readers.
  requests_.fetch_add(1, std::memory_order_relaxed);
  return serve_signature(signature(problem, device), problem, device);
}

std::vector<TuningService::SignatureGroup> TuningService::group_batch(
    const std::vector<core::TuningProblem>& problems,
    const vgpu::DeviceProfile& device) const {
  // Group by DISTINCT problem before canonicalizing: structural
  // equality (statements + extents — exactly what the signature is
  // built from, the display name excluded) is far cheaper than building
  // the signature string, so a batch of a thousand identical requests
  // pays for ONE canonicalization, not a thousand.
  std::vector<SignatureGroup> groups;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const core::TuningProblem& p = problems[i];
    SignatureGroup* group = nullptr;
    for (SignatureGroup& g : groups) {
      // Extents first: same-kernel-different-shape batches (the common
      // heterogeneous mix) share identical statements, so comparing
      // those first would string-compare the whole program before the
      // extents mismatch finally splits the groups.
      if (g.problem == &p || (g.problem->extents == p.extents &&
                              g.problem->statements == p.statements)) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back({&p, signature(p, device), {}});
      group = &groups.back();
    }
    group->items.push_back(i);
  }
  return groups;
}

std::vector<ServedPlan> TuningService::get_plan_batch(
    const std::vector<core::TuningProblem>& problems,
    const vgpu::DeviceProfile& device) {
  // Like get_plan's warm path, the batched warm path is mutex-free:
  // relaxed counter bumps plus one mutex-free registry lookup per
  // DISTINCT signature — the whole point of batching.
  requests_.fetch_add(problems.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_requests_.fetch_add(problems.size(), std::memory_order_relaxed);

  std::vector<ServedPlan> served(problems.size());
  std::vector<SignatureGroup> groups = group_batch(problems, device);
  batch_signature_lookups_.fetch_add(groups.size(),
                                     std::memory_order_relaxed);
  for (SignatureGroup& group : groups) {
    ServedPlan answer = serve_signature(std::move(group.sig), *group.problem,
                                        device, group.items.size());
    for (std::size_t k = 0; k + 1 < group.items.size(); ++k) {
      served[group.items[k]] = answer;
      // At most one item per signature group reports the enqueue —
      // mirroring "at most one request per tune run" of get_plan.
      answer.scheduled_tune = false;
    }
    served[group.items.back()] = std::move(answer);
  }
  return served;
}

std::shared_ptr<const ExecutablePlan> TuningService::executable_for(
    const ServedPlan& served, const core::TuningProblem& problem,
    bool* cache_hit) {
  std::shared_ptr<const ExecutablePlan> cached =
      plan_cache_.find(served.signature);
  if (cached && cached->entry == served.plan) {
    // Fresh hit: the cached plan was lowered from exactly the entry the
    // registry just served — reuse it outright.
    plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    *cache_hit = true;
    return cached;
  }
  if (cached) {
    // A background tune upgraded the entry since this plan was cached:
    // the cached kernels are for the OLD plan, so re-materialize.
    plan_cache_stale_.fetch_add(1, std::memory_order_relaxed);
  } else {
    plan_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  *cache_hit = false;
  ExecutablePlan fresh;
  fresh.entry = served.plan;
  fresh.plan = materialize(problem, served.plan, options_.tune);
  return plan_cache_.insert(served.signature, std::move(fresh));
}

ExecutableServedPlan TuningService::get_executable(
    const core::TuningProblem& problem, const vgpu::DeviceProfile& device) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  ExecutableServedPlan out;
  out.served = serve_signature(signature(problem, device), problem, device);
  out.executable = executable_for(out.served, problem, &out.cache_hit);
  return out;
}

std::vector<ExecutableServedPlan> TuningService::get_executable_batch(
    const std::vector<core::TuningProblem>& problems,
    const vgpu::DeviceProfile& device) {
  requests_.fetch_add(problems.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_requests_.fetch_add(problems.size(), std::memory_order_relaxed);

  std::vector<ExecutableServedPlan> out(problems.size());
  std::vector<SignatureGroup> groups = group_batch(problems, device);
  batch_signature_lookups_.fetch_add(groups.size(),
                                     std::memory_order_relaxed);
  for (SignatureGroup& group : groups) {
    ExecutableServedPlan answer;
    answer.served = serve_signature(std::move(group.sig), *group.problem,
                                    device, group.items.size());
    // ONE materialization (or LRU hit) per distinct signature; every
    // item of the group shares the same executable pointer.
    answer.executable =
        executable_for(answer.served, *group.problem, &answer.cache_hit);
    for (std::size_t k = 0; k < group.items.size(); ++k) {
      out[group.items[k]] = answer;
      answer.served.scheduled_tune = false;
    }
  }
  return out;
}

bool TuningService::maybe_schedule(const std::string& sig,
                                   const core::TuningProblem& problem,
                                   const vgpu::DeviceProfile& device,
                                   bool retune) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Single-flight dedup.  Order matters: a finishing tune publishes
    // its upgrade BEFORE erasing itself from inflight_ (under this
    // mutex), so "not in flight" here means any completed tune is
    // already visible in the registry — the peek below closes the
    // completion race (a request that read the untuned entry before the
    // upgrade landed must not schedule a second tune after it).
    if (inflight_.contains(sig)) return false;
    // Circuit breaker: a signature that exhausted its retries stays on
    // its fallback plan (served instantly, like any other answer) and
    // is not rescheduled — a poisoned problem must not eat the tuning
    // queue forever.  With a cool-down configured, an open breaker
    // turns HALF-OPEN once the cool-down has elapsed: this request may
    // admit exactly one probe tune ("exactly one" is inflight_'s job —
    // the probe sits there until it resolves, blocking any second
    // schedule; a failing probe re-opens the breaker with a fresh
    // clock in run_tune).
    bool is_probe = false;
    auto open = breaker_.find(sig);
    if (open != breaker_.end()) {
      if (options_.breaker_cooldown <= 0) return false;
      const double open_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        open->second)
              .count();
      if (open_seconds < options_.breaker_cooldown) return false;
      is_probe = true;
    }
    // Re-tunes exist to re-run TUNED signatures with a bigger budget,
    // so the tuned-refusal guard applies only to the cold path.
    PlanEntry current;
    if (!retune && registry_.peek(sig, &current) && current.tuned) {
      return false;
    }
    if (scheduled_ + running_ >= options_.queue_capacity) {
      // Backpressure: refuse the enqueue, not the request.  The caller
      // already holds the fallback plan; the signature stays untuned
      // and a later request retries once the queue drained.  A refused
      // probe stays refusable: the breaker clock is untouched, so the
      // next request past the cool-down re-attempts it.
      ++rejected_;
      return false;
    }
    inflight_.insert(sig);
    ++scheduled_;
    ++tunes_started_;
    if (is_probe) ++breaker_probes_;
  }
  // Copies, not references: the tune outlives the request.
  support::ThreadPool::shared().submit([this, sig, problem, device, retune] {
    run_tune(sig, problem, device, retune);
  });
  return true;
}

void TuningService::run_tune(const std::string& sig,
                             const core::TuningProblem& problem,
                             const vgpu::DeviceProfile& device, bool retune) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --scheduled_;
    ++running_;
  }
  WallTimer timer;

  // Cooperative deadline: one wall clock spans the whole run (every
  // retry attempt included).  The search consults it between evaluation
  // batches via SearchOptions::should_stop — possibly from concurrent
  // annealing chains, hence the shared_ptr + atomic flag — and an
  // expired search returns its best-so-far, which publishes like any
  // other result.  The timer lives in a shared_ptr because the options
  // copy (and the lambda in it) is moved into core::tune.
  core::TuneOptions tune_options = options_.tune;
  if (retune) {
    // Hot plans deserve more search: the multiplied budget is the whole
    // reason a re-tune can beat the latency-bound cold tune.
    tune_options.search.max_evaluations =
        options_.retune_budget > 0
            ? options_.retune_budget
            : 4 * std::max<std::size_t>(
                      1, tune_options.search.max_evaluations);
  }
  auto expired = std::make_shared<std::atomic<bool>>(false);
  if (options_.tune_deadline > 0) {
    auto clock = std::make_shared<WallTimer>();
    const double budget = options_.tune_deadline;
    auto inner = tune_options.search.should_stop;
    tune_options.search.should_stop = [clock, budget, expired, inner] {
      if (clock->seconds() >= budget) {
        expired->store(true, std::memory_order_relaxed);
        return true;
      }
      return inner && inner();
    };
  }

  // Retry loop: every attempt's error text is captured (satellite for
  // the old bare `catch (...)`); between attempts the worker sleeps the
  // deterministic backoff.  An exhausted run trips the breaker.
  const std::size_t max_attempts =
      std::max<std::size_t>(1, options_.retry.max_attempts);
  bool succeeded = false;
  bool improved = false;
  std::size_t attempts = 0;
  std::size_t extra_attempts = 0;
  std::string error_text;
  PlanEntry tuned;  // hoisted: a successful run's entry outlives the
                    // loop so it can be published to the remote tier
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      // Retrying after the deadline expired (or an external should_stop
      // fired) would spend time the run no longer has; stop and let the
      // failure record tell the story.  Calling the lambda — not just
      // reading the flag — matters: an attempt that throws before its
      // search starts never consults should_stop, so the flag alone
      // would let a failing run retry far past its deadline.
      if (tune_options.search.should_stop &&
          tune_options.search.should_stop()) {
        break;
      }
      ++extra_attempts;
      const double ms = backoff_ms(options_.retry, sig, attempt);
      if (ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
      }
    }
    ++attempts;
    try {
      // `serve.tune` models the tune pipeline itself throwing (OOM in
      // enumeration, a lowering bug on one problem shape, ...);
      // `serve.retune` is the same failure on a re-tune run, so chaos
      // tests can poison re-tunes without touching cold tunes.
      support::fault::maybe_throw(retune ? "serve.retune" : "serve.tune");
      core::TuneResult result = core::tune(problem, device, tune_options);
      tuned = PlanEntry{};
      tuned.variant = result.best_variant;
      tuned.recipe_text = core::serialize_recipe(result.best_recipe);
      tuned.modeled_us = finite_us(result.modeled_us());
      tuned.tuned = true;
      // Cache the parsed recipe on the entry we already have in hand:
      // every future warm hit serves this entry without re-parsing.
      tuned.parsed =
          std::make_shared<const chill::Recipe>(std::move(result.best_recipe));
      // Better-wins: an upgrade only lands when the tuned plan actually
      // beats the fallback (it always should — the static mapping is a
      // candidate the search compares against), so the served latency
      // for this signature is monotone non-increasing.  For a re-tune
      // the same rule is the safety net: a bigger-budget search that
      // somehow finds nothing better leaves the incumbent untouched.
      improved = registry_.publish(sig, tuned);
      succeeded = true;
      break;
    } catch (const std::exception& e) {
      error_text = e.what();
    } catch (...) {
      error_text = "non-standard exception";
    }
  }

  // Share the win with the fleet: offer the tuned entry to the remote
  // tier (better-wins on the server side), outside any service lock.
  // Best-effort by contract — a dead or refusing backend costs one
  // remote_errors tick, never the tune.  `serve.remote.publish` models
  // this publish step itself failing (e.g. encoding a pathological
  // entry) independently of the socket-level net.* sites.
  std::string remote_error_text;
  if (succeeded && options_.remote) {
    try {
      support::fault::maybe_throw("serve.remote.publish");
      // Only an accepted offer counts as a publish; "backend already
      // holds better" is the idempotent fan-out case and costs nothing.
      switch (options_.remote->publish(sig, tuned)) {
        case RemoteWrite::kOk:
          remote_publishes_.fetch_add(1, std::memory_order_relaxed);
          break;
        case RemoteWrite::kRejected:
          break;
        case RemoteWrite::kError:
          remote_errors_.fetch_add(1, std::memory_order_relaxed);
          break;
        case RemoteWrite::kUnavailable:
          remote_unavailable_.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    } catch (const std::exception& e) {
      remote_errors_.fetch_add(1, std::memory_order_relaxed);
      remote_error_text = e.what();
    } catch (...) {
      remote_errors_.fetch_add(1, std::memory_order_relaxed);
      remote_error_text = "non-standard exception";
    }
  }

  const double seconds = timer.seconds();
  const bool was_expired = expired->load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Publish-then-erase: see maybe_schedule for why this order is the
    // single-flight guarantee.
    inflight_.erase(sig);
    --running_;
    retries_ += extra_attempts;
    if (!error_text.empty()) {
      last_error_ = error_text;
      TuneFailure& record = failures_[sig];
      record.attempts = attempts;
      record.last_error = error_text;
    }
    // A failed remote publish is diagnostic, not a tune failure: no
    // failure record, no breaker — the tuned plan IS serving locally.
    if (!remote_error_text.empty()) {
      last_error_ = "remote publish: " + remote_error_text;
    }
    if (was_expired) ++deadline_expired_;
    if (succeeded) {
      ++tunes_completed_;
      tune_seconds_total_ += seconds;
      if (retune) {
        ++retunes_completed_;
        if (improved) ++retunes_improved_;
      }
      // A successful run through a half-open breaker heals it: the
      // signature leaves quarantine for good (it is now tuned, so
      // maybe_schedule's peek refuses further runs anyway).
      if (breaker_.erase(sig) > 0) ++breaker_healed_;
    } else {
      // Exhausted (or deadline-cut) run: the fallback stays in place
      // and the breaker quarantines the signature — until
      // reset_breakers(), or (with a cool-down configured) until the
      // clock set here admits the next half-open probe.  A failed probe
      // lands here too, restarting the cool-down from now.
      ++tune_failures_;
      breaker_[sig] = std::chrono::steady_clock::now();
    }
    if (scheduled_ + running_ == 0) idle_cv_.notify_all();
  }
}

std::vector<std::string> TuningService::retune_pass() {
  std::vector<std::string> scheduled;
  const std::size_t top_k = options_.retune_top_k;
  if (top_k == 0) return scheduled;
  const std::uint64_t threshold =
      std::max<std::uint64_t>(1, options_.hot_threshold);

  // Candidates: tuned signatures this service has served (we need the
  // remembered problem/device to rebuild the tune), ranked by demand
  // accumulated SINCE their last re-tune — a signature re-tuned once
  // must earn fresh traffic to qualify again.
  std::vector<HotSignature> hot = registry_.hottest(0, threshold);
  std::shared_ptr<const ContextMap> known = known_.read();
  struct Candidate {
    HotSignature hot;
    std::uint64_t fresh = 0;
  };
  std::vector<Candidate> candidates;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (HotSignature& h : hot) {
      if (!h.tuned) continue;  // the cold path owns untuned signatures
      if (!known->contains(h.signature)) continue;
      auto seen = retuned_hits_.find(h.signature);
      const std::uint64_t baseline =
          seen == retuned_hits_.end() ? 0 : seen->second;
      const std::uint64_t fresh =
          h.requests > baseline ? h.requests - baseline : 0;
      if (fresh < threshold) continue;
      candidates.push_back({std::move(h), fresh});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.fresh != b.fresh) return a.fresh > b.fresh;
              return a.hot.signature < b.hot.signature;
            });
  if (candidates.size() > top_k) candidates.resize(top_k);

  for (const Candidate& c : candidates) {
    try {
      // `serve.retune.enqueue` models the scheduler failing on one
      // candidate (e.g. an allocation inside the enqueue): the pass
      // records the error and moves on — adaptive re-tuning degrades,
      // serving never does.
      support::fault::maybe_throw("serve.retune.enqueue");
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mutex_);
      last_error_ = e.what();
      continue;
    }
    const RetuneContext& context = *known->at(c.hot.signature);
    if (maybe_schedule(c.hot.signature, context.problem, context.device,
                       /*retune=*/true)) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++retunes_scheduled_;
      // The candidate's demand reading becomes the new baseline; a
      // REFUSED enqueue (in flight, breaker, backpressure) leaves the
      // baseline alone so the signature stays eligible next pass.
      retuned_hits_[c.hot.signature] = c.hot.requests;
      scheduled.push_back(c.hot.signature);
    }
  }
  return scheduled;
}

void TuningService::retune_loop() {
  std::unique_lock<std::mutex> lock(retune_mutex_);
  const auto interval =
      std::chrono::duration<double>(options_.retune_interval);
  while (!retune_stop_) {
    if (retune_cv_.wait_for(lock, interval, [this] { return retune_stop_; })) {
      break;
    }
    lock.unlock();
    try {
      retune_pass();
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> guard(mutex_);
      last_error_ = e.what();
    }
    lock.lock();
  }
}

bool TuningService::anti_entropy_pass() {
  if (!options_.remote) return false;
  RemoteWrite result = RemoteWrite::kError;
  try {
    result = options_.remote->sync(registry_);
  } catch (...) {
    result = RemoteWrite::kError;  // backends must not throw; fence anyway
  }
  switch (result) {
    case RemoteWrite::kOk:
    case RemoteWrite::kRejected:  // sync never rejects; treat as done
      anti_entropy_rounds_.fetch_add(1, std::memory_order_relaxed);
      return true;
    case RemoteWrite::kError:
      remote_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    case RemoteWrite::kUnavailable:
      remote_unavailable_.fetch_add(1, std::memory_order_relaxed);
      return false;
  }
  return false;
}

void TuningService::anti_entropy_loop() {
  // Same shape as retune_loop, sharing its stop signal: both are
  // periodic maintenance ticks that must never hold a lock while
  // working.  A failed round is already counted by anti_entropy_pass
  // (the backend's breaker turns a dead server into instant false, so
  // the loop stays cheap while degraded and heals when a probe does).
  std::unique_lock<std::mutex> lock(retune_mutex_);
  const auto interval =
      std::chrono::duration<double>(options_.anti_entropy_interval);
  while (!retune_stop_) {
    if (retune_cv_.wait_for(lock, interval, [this] { return retune_stop_; })) {
      break;
    }
    lock.unlock();
    anti_entropy_pass();
    lock.lock();
  }
}

void TuningService::drain() {
  BARRACUDA_CHECK_MSG(!support::ThreadPool::on_worker_thread(),
                      "TuningService::drain() would deadlock on a pool "
                      "worker thread");
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return scheduled_ + running_ == 0; });
}

ServeStats TuningService::snapshot() const {
  ServeStats s;
  // Hot counter: relaxed atomic read, no lock — see the ServeStats
  // consistency contract.  Every counter below is read exactly once
  // into the snapshot (atomics with relaxed loads, mutex-guarded tune
  // state under one lock acquisition), so taking a snapshot while
  // workers mutate the counters is race-free by construction — there is
  // no field-by-field copy of live state anywhere.
  s.requests = requests_.load(std::memory_order_relaxed);
  {
    // Tune-path state: mutex_ is contended only by the miss/untuned
    // path and tune workers, so taking it here never stalls a warm
    // request.
    std::lock_guard<std::mutex> lock(mutex_);
    s.tunes_started = tunes_started_;
    s.tunes_completed = tunes_completed_;
    s.tune_failures = tune_failures_;
    s.retries = retries_;
    s.breaker_open = breaker_.size();
    s.deadline_expired = deadline_expired_;
    s.last_error = last_error_;
    s.rejected = rejected_;
    s.in_flight = running_;
    s.queue_depth = scheduled_;
    s.tune_seconds_total = tune_seconds_total_;
    s.breaker_probes = breaker_probes_;
    s.breaker_healed = breaker_healed_;
    s.retunes_scheduled = retunes_scheduled_;
    s.retunes_completed = retunes_completed_;
    s.retunes_improved = retunes_improved_;
  }
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batch_requests = batch_requests_.load(std::memory_order_relaxed);
  s.batch_signature_lookups =
      batch_signature_lookups_.load(std::memory_order_relaxed);
  s.plan_cache_hits = plan_cache_hits_.load(std::memory_order_relaxed);
  s.plan_cache_stale = plan_cache_stale_.load(std::memory_order_relaxed);
  s.plan_cache_misses = plan_cache_misses_.load(std::memory_order_relaxed);
  s.plan_cache_evictions = plan_cache_.evictions();
  s.plan_cache_size = plan_cache_.size();
  s.remote_hits = remote_hits_.load(std::memory_order_relaxed);
  s.remote_misses = remote_misses_.load(std::memory_order_relaxed);
  s.remote_publishes = remote_publishes_.load(std::memory_order_relaxed);
  s.remote_errors = remote_errors_.load(std::memory_order_relaxed);
  s.remote_unavailable = remote_unavailable_.load(std::memory_order_relaxed);
  if (options_.remote) {
    // Replication counters live on the backend (it owns the endpoint
    // set); the snapshot mirrors them so one struct tells the story.
    const RemoteTelemetry t = options_.remote->telemetry();
    s.remote_failovers = t.failovers;
    s.remote_hedges = t.hedges;
    s.remote_hedge_wins = t.hedge_wins;
  }
  s.anti_entropy_rounds =
      anti_entropy_rounds_.load(std::memory_order_relaxed);
  s.registry_hits = registry_.hits();
  s.registry_misses = registry_.misses();
  s.upgrades = registry_.upgrades();
  s.demand_requests = registry_.demand_requests();
  s.served_latency = registry_.served_latency();
  return s;
}

bool TuningService::last_failure(const std::string& signature,
                                 TuneFailure* failure) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = failures_.find(signature);
  if (it == failures_.end()) return false;
  *failure = it->second;
  failure->breaker_open = breaker_.contains(signature);
  return true;
}

void TuningService::reset_breakers() {
  std::lock_guard<std::mutex> lock(mutex_);
  breaker_.clear();
}

chill::GpuPlan materialize(const core::TuningProblem& problem,
                           const PlanEntry& entry,
                           const core::TuneOptions& options) {
  std::vector<tcr::TcrProgram> variants = core::enumerate_programs(
      problem, options.octopi, options.max_joint_variants);
  BARRACUDA_CHECK_MSG(entry.variant < variants.size(),
                      "served plan variant out of range for this problem");
  // Entries that went through load() or a tune carry their parsed
  // recipe; warm-path materialization then never touches the parser
  // (pinned by tests via core::recipe_parse_count).  The text parse is
  // the fallback for hand-built entries.
  if (entry.parsed) {
    return chill::lower_program(variants[entry.variant], *entry.parsed);
  }
  chill::Recipe recipe =
      core::parse_recipe(entry.recipe_text, "<plan-registry>");
  return chill::lower_program(variants[entry.variant], recipe);
}

PrewarmResult prewarm(PlanRegistry& registry,
                      const octopi::OctopiProgram& program,
                      const std::vector<vgpu::DeviceProfile>& devices,
                      const PrewarmOptions& options) {
  BARRACUDA_CHECK_MSG(!devices.empty(), "prewarm needs at least one device");
  WallTimer timer;
  // The cartesian grid: extent specializations x devices.  Each cell is
  // an independent tune, farmed across the shared pool exactly like
  // core::tune_specializations — the pool-depth guard keeps the search
  // inside each pooled tune sequential, so one n_jobs knob bounds the
  // whole prewarm.
  std::vector<tensor::Extents> points =
      program.specializations(options.max_points);
  struct Cell {
    const tensor::Extents* extents;
    const vgpu::DeviceProfile* device;
  };
  std::vector<Cell> grid;
  grid.reserve(points.size() * devices.size());
  for (const auto& point : points) {
    for (const auto& device : devices) grid.push_back({&point, &device});
  }

  std::atomic<std::size_t> tuned{0}, skipped{0}, published{0};
  support::parallel_apply(
      support::resolve_jobs(options.tune.search.n_jobs), grid.size(),
      [&](std::size_t i) {
        core::TuningProblem problem;
        problem.name = "prewarm";
        problem.extents = *grid[i].extents;
        for (const auto& s : program.statements) {
          problem.statements.push_back(s.to_contraction());
        }
        const std::string sig = signature(problem, *grid[i].device);
        PlanEntry current;
        if (registry.peek(sig, &current) && current.tuned) {
          // Already tuned (a previous prewarm run, or a serving fleet's
          // merge_save): re-running prewarm only pays for new points.
          skipped.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        core::TuneResult result =
            core::tune(problem, *grid[i].device, options.tune);
        PlanEntry entry;
        entry.variant = result.best_variant;
        entry.recipe_text = core::serialize_recipe(result.best_recipe);
        entry.modeled_us = finite_us(result.modeled_us());
        entry.tuned = true;
        entry.parsed = std::make_shared<const chill::Recipe>(
            std::move(result.best_recipe));
        tuned.fetch_add(1, std::memory_order_relaxed);
        if (registry.publish(sig, entry)) {
          published.fetch_add(1, std::memory_order_relaxed);
        }
      });

  PrewarmResult result;
  result.points = grid.size();
  result.tuned = tuned.load(std::memory_order_relaxed);
  result.skipped = skipped.load(std::memory_order_relaxed);
  result.published = published.load(std::memory_order_relaxed);
  result.seconds = timer.seconds();
  return result;
}

PlanEntry fallback_plan(const core::TuningProblem& problem,
                        const vgpu::DeviceProfile& device,
                        const core::TuneOptions& options) {
  // Lowest-flops variant (enumerate_programs sorts ascending) under the
  // decision algorithm's static "optimized OpenACC" mapping — exactly
  // the default candidate tune() guarantees never to lose against.
  std::vector<tcr::TcrProgram> variants = core::enumerate_programs(
      problem, options.octopi, options.max_joint_variants);
  chill::Recipe recipe = chill::openacc_optimized_recipe(variants.front());
  chill::GpuPlan plan = chill::lower_program(variants.front(), recipe);
  PlanEntry entry;
  entry.variant = 0;
  entry.recipe_text = core::serialize_recipe(recipe);
  entry.modeled_us = finite_us(vgpu::model_plan(plan, device).total_us);
  entry.tuned = false;
  entry.parsed = std::make_shared<const chill::Recipe>(std::move(recipe));
  return entry;
}

}  // namespace barracuda::serve
