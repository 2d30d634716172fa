// TuningService: answer every contraction request immediately, tune in
// the background, and never serve a slower plan than before.
//
// The serving protocol (cuTT's plan-cache shape, with Peise-style
// model-first answers):
//
//   get_plan(problem, device)
//     warm signature  -> the registry's current best plan, instantly.
//     cold signature  -> a cheap static fallback (lowest-flops variant
//                        under the decision algorithm's default mapping
//                        — what the compiler would pick without
//                        autotuning), published to the registry and
//                        served instantly, while a full core::tune()
//                        is queued on the shared support::ThreadPool.
//                        When the tune finishes it upgrades the
//                        registry entry (better-wins), so later
//                        requests get the tuned plan.
//
// Single-flight: concurrent requests for the same untuned signature
// schedule exactly one background tune — the first requester enqueues
// it, everyone else is served the fallback and rides the same upgrade.
// The in-flight set is checked together with the registry's tuned flag
// under one mutex, and a finished tune publishes its upgrade BEFORE
// leaving the in-flight set, so the dedup has no completion-race hole.
//
// Backpressure: at most `queue_capacity` background tunes may be
// scheduled-or-running at once.  Beyond that the service REJECTS the
// enqueue, not the request: the caller still gets the fallback plan
// immediately (counted in Stats::rejected), the signature stays
// untuned, and a later request retries the enqueue once the queue has
// drained.  Nothing ever blocks a client on tuning.
//
// Resilience (clients are NEVER failed by a failing tuner):
//
//   Retry    a background tune that throws is retried in place, up to
//            RetryPolicy::max_attempts total attempts, with capped
//            exponential backoff and deterministic jitter (a pure
//            function of jitter_seed, signature and attempt — no
//            wall-clock or global randomness, so failure schedules
//            reproduce exactly).  Each attempt's error text is kept.
//   Breaker  a signature whose run exhausts every attempt trips a
//            per-signature circuit breaker: it keeps being served its
//            fallback plan instantly, but no further tunes are
//            scheduled for it until reset_breakers() — or, with
//            ServeOptions::breaker_cooldown > 0, until the cool-down
//            elapses and the breaker goes HALF-OPEN: the next request
//            admits exactly one probe tune, whose success closes the
//            breaker (self-healing) and whose failure re-opens it with
//            a fresh cool-down.  A poisoned problem cannot eat the
//            tuning queue forever.
//
// Batching (get_plan_batch / get_executable_batch): many requests in
// one call pay the serving overhead — canonicalization, registry
// lookup, cold fallback, tune enqueue, materialization — once per
// DISTINCT signature instead of once per item.  This is the serving
// analog of batched BLAS contractions: one plan amortized across a
// thousand same-shape kernels.
//   Deadline tune_deadline > 0 bounds each tune run's wall time
//            cooperatively: the search checks the budget between
//            evaluation batches (surf::SearchOptions::should_stop) and
//            an expired run publishes the best plan found so far —
//            an answer, not an error.  Counted in Stats::
//            deadline_expired.
//
// Adaptive re-tuning (the traffic -> budget feedback loop): every served
// request records demand on the registry (request counter + served-
// latency histogram, see PlanRegistry::record_demand), and retune_pass()
// ranks the ALREADY-TUNED signatures by requests accumulated since their
// last re-tune, picking the top retune_top_k whose fresh demand clears
// hot_threshold and re-enqueuing them through the SAME single-flight /
// breaker / backpressure machinery as a cold tune — just with a larger
// search budget (retune_budget evaluations).  Publication stays
// better-wins, so a re-tune can only improve or keep the served plan:
// per-signature served latency is monotone non-increasing across
// re-tune publishes.  retune_interval > 0 runs the pass on a background
// scheduler thread; tests and the CLI call retune_pass() directly for
// deterministic behavior.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/barracuda.hpp"
#include "octopi/ast.hpp"
#include "serve/plancache.hpp"
#include "serve/registry.hpp"
#include "serve/remotebackend.hpp"
#include "serve/signature.hpp"
#include "support/snapshot.hpp"

namespace barracuda::serve {

/// Retry schedule for failed background tunes.  Attempt k (2-based)
/// sleeps min(cap_ms, base_delay_ms * 2^(k-2)) scaled by a
/// deterministic jitter factor in [0.5, 1.0] derived from
/// (jitter_seed, signature, k) — retries of the same signature under
/// the same seed always space out identically, and distinct signatures
/// decorrelate instead of thundering together.  The sleep happens on
/// the tuning worker (cheap for the millisecond delays this is meant
/// for; it is backoff, not a scheduler).
struct RetryPolicy {
  /// Total attempts per tune run, first try included.  Must be >= 1;
  /// 1 = no retries.
  std::size_t max_attempts = 3;
  double base_delay_ms = 10.0;
  double cap_ms = 1000.0;
  std::uint64_t jitter_seed = 1;
};

struct ServeOptions {
  /// Configuration for the background core::tune() runs.  To share
  /// measurements across tunes (and with offline runs), point
  /// tune.eval_cache at a core::EvalCache — it is internally
  /// synchronized, so concurrent background tunes may share one.
  core::TuneOptions tune;
  /// Bound on scheduled-plus-running background tunes (the backpressure
  /// knob).  Must be >= 1.
  std::size_t queue_capacity = 16;
  /// Retry/backoff schedule for failing background tunes.
  RetryPolicy retry;
  /// Wall-clock budget in seconds for one background tune run, spanning
  /// all its retry attempts.  0 = unbounded.  Enforced cooperatively
  /// between search batches (never mid-batch), so an expired tune still
  /// publishes the best plan it found — the deadline shapes latency,
  /// it does not discard work.
  double tune_deadline = 0;
  /// Circuit-breaker half-open cool-down in seconds.  0 (the default)
  /// keeps the PR-5 behavior: an open breaker stays open until
  /// reset_breakers().  Positive: once a breaker has been open that
  /// long, the next request for its signature admits exactly ONE probe
  /// tune (single-flight, like any schedule).  A succeeding probe
  /// closes the breaker (the node self-heals a transient poison); a
  /// failing one re-opens it and restarts the cool-down clock.
  double breaker_cooldown = 0;
  /// Capacity of the executable-plan LRU (materialized recipe + lowered
  /// kernels per signature; see serve/plancache.hpp).  Must be >= 1.
  std::size_t plan_cache_capacity = 128;
  /// Search budget (surf::SearchOptions::max_evaluations) for a
  /// re-tune run.  0 = 4x the cold-path tune's budget.  Hot plans
  /// deserve more search than the latency-bound cold tune spent.
  std::size_t retune_budget = 0;
  /// Seconds between background retune_pass() runs.  0 (the default)
  /// starts no scheduler thread — call retune_pass() explicitly.
  double retune_interval = 0;
  /// How many of the hottest signatures one retune_pass() re-enqueues.
  /// 0 disables re-tuning entirely.
  std::size_t retune_top_k = 4;
  /// Minimum requests a signature must have accumulated SINCE ITS LAST
  /// RE-TUNE to qualify as hot (clamped to >= 1) — a signature re-tuned
  /// once must earn fresh traffic before being re-tuned again.
  std::uint64_t hot_threshold = 16;
  /// Remote (L2) plan tier.  When set, a LOCAL registry miss consults
  /// the backend before falling back to the cold path: a remote hit is
  /// published into the local registry (better-wins) and served like a
  /// warm answer — the node inherits the fleet's tuning instead of
  /// redoing it.  Freshly tuned plans are published back through the
  /// backend (best-effort; failures count in ServeStats::remote_errors
  /// or remote_unavailable depending on whether a replica answered).
  /// The warm L1 path never touches the backend.  nullptr (the
  /// default) keeps the service purely local.
  std::shared_ptr<RemoteBackend> remote;
  /// Seconds between background anti-entropy rounds against `remote`
  /// (full-registry sync; see RemoteBackend::sync).  0 (the default)
  /// starts no thread — call anti_entropy_pass() explicitly.  Ignored
  /// without a remote backend.
  double anti_entropy_interval = 0;
};

/// What one get_plan request was answered with.
struct ServedPlan {
  std::string signature;
  /// The plan to lower and run (see materialize()).  Always the
  /// registry's current best for the signature at answer time.
  PlanEntry plan;
  enum class Source {
    kWarm,    ///< local registry hit
    kCold,    ///< fallback computed by this request
    kRemote,  ///< local miss answered by the remote (L2) plan tier
  };
  Source source = Source::kWarm;
  /// True when this request enqueued the background tune (at most one
  /// request per tune run returns true; in a batch, at most one ITEM
  /// per distinct signature).
  bool scheduled_tune = false;
};

/// A served plan together with its ready-to-run materialization from
/// the executable-plan cache: the enumerated variant lowered under the
/// entry's (already parsed) recipe.  The executable is shared and
/// immutable — any number of threads may run it concurrently against
/// disjoint TensorEnvs (see vgpu::execute_plan_batch).
struct ExecutableServedPlan {
  ServedPlan served;
  std::shared_ptr<const ExecutablePlan> executable;
  /// True when the executable came straight from the LRU (no
  /// enumeration, no parse, no lowering on this request).
  bool cache_hit = false;
};

/// Point-in-time service counters.  hits/misses/upgrades come from the
/// shared PlanRegistry and include other services or loads touching it.
///
/// Consistency contract: stats() never blocks the warm serving path.
/// The hot counters (requests, registry hits/misses) are relaxed
/// atomics read without any lock, so a snapshot taken while traffic is
/// flowing is "consistent enough" — each counter is exact, but counters
/// incremented at different points of a request's lifetime may be
/// observed mid-request (e.g. requests may momentarily exceed
/// hits + misses).  The tune-path counters are read under the service
/// mutex, which the warm path no longer touches.
struct ServeStats {
  std::size_t requests = 0;
  std::size_t registry_hits = 0;
  std::size_t registry_misses = 0;
  std::size_t upgrades = 0;
  /// Batched serving (get_plan_batch / get_executable_batch): calls,
  /// items served through them, and registry lookups those calls made —
  /// one per DISTINCT signature per batch, so batch_signature_lookups /
  /// batch_requests is the amortization the batch path bought.  All
  /// three are relaxed atomics: the batched warm path is as mutex-free
  /// as the per-request one.
  std::size_t batches = 0;
  std::size_t batch_requests = 0;
  std::size_t batch_signature_lookups = 0;
  /// Executable-plan LRU: fresh hits (plan reused as-is), stale hits (a
  /// registry upgrade invalidated the cached plan — re-materialized),
  /// misses (materialized for the first time), evictions, and current
  /// size.
  std::size_t plan_cache_hits = 0;
  std::size_t plan_cache_stale = 0;
  std::size_t plan_cache_misses = 0;
  std::size_t plan_cache_evictions = 0;
  std::size_t plan_cache_size = 0;
  /// Half-open circuit breaker: probe tunes admitted after the
  /// cool-down, and breakers closed by a succeeding probe.
  std::size_t breaker_probes = 0;
  std::size_t breaker_healed = 0;
  std::size_t tunes_started = 0;
  std::size_t tunes_completed = 0;
  /// Tune runs that exhausted every retry attempt (each trips the
  /// signature's circuit breaker).
  std::size_t tune_failures = 0;
  /// Tune attempts beyond a run's first — i.e. how often the retry
  /// policy actually fired, across all runs.
  std::size_t retries = 0;
  /// Signatures currently quarantined by the circuit breaker (a gauge;
  /// reset_breakers() drops it to 0).
  std::size_t breaker_open = 0;
  /// Tune runs stopped by the cooperative deadline.  Normally such a
  /// run still publishes its best-so-far plan and counts as completed;
  /// a run whose attempts were all failing when the clock ran out
  /// counts as a failure instead.
  std::size_t deadline_expired = 0;
  /// Error text of the most recent failed tune attempt ("" when none
  /// has failed).
  std::string last_error;
  /// Enqueues refused by the backpressure policy (the request itself
  /// was still answered with the fallback).
  std::size_t rejected = 0;
  /// Background tunes currently executing.
  std::size_t in_flight = 0;
  /// Background tunes submitted but not yet picked up by a worker.
  std::size_t queue_depth = 0;
  /// Total wall seconds inside completed background tunes; divide by
  /// tunes_completed for the mean tune latency.
  double tune_seconds_total = 0;
  /// Adaptive re-tuning: hot signatures re-enqueued by retune_pass(),
  /// re-tune runs that completed, and completions whose bigger-budget
  /// plan actually beat the incumbent (better-wins publish succeeded).
  std::size_t retunes_scheduled = 0;
  std::size_t retunes_completed = 0;
  std::size_t retunes_improved = 0;
  /// Remote (L2) plan tier, all zero without ServeOptions::remote:
  /// local misses answered by the backend (each skipped a cold tune),
  /// local misses the backend also missed, tuned plans published back,
  /// backend operations rejected at the app level (a replica answered
  /// and said no), backend operations with no reachable replica at all
  /// (the node degraded to local-only for that op), and completed
  /// anti-entropy rounds.  The replication counters mirror the
  /// backend's RemoteTelemetry: reads answered by a non-primary
  /// replica after the primary failed, hedged reads launched, and
  /// hedges the second replica won.
  std::size_t remote_hits = 0;
  std::size_t remote_misses = 0;
  std::size_t remote_publishes = 0;
  std::size_t remote_errors = 0;
  std::size_t remote_unavailable = 0;
  std::size_t remote_failovers = 0;
  std::size_t remote_hedges = 0;
  std::size_t remote_hedge_wins = 0;
  std::size_t anti_entropy_rounds = 0;
  /// Demand recorded on the shared registry: total requests (including
  /// baselines loaded from v2 files) and the merged served-latency
  /// histogram across every signature.
  std::uint64_t demand_requests = 0;
  support::HistogramSnapshot served_latency;
};

/// Per-signature failure record, kept from the most recent tune run
/// that had at least one failing attempt.  A run that eventually
/// succeeds after retries still leaves its record (the error history
/// is diagnostic), with breaker_open = false.
struct TuneFailure {
  /// Attempts the recorded run made (== ServeOptions::retry.
  /// max_attempts when the breaker tripped).
  std::size_t attempts = 0;
  /// what() of the run's last failing attempt.
  std::string last_error;
  /// True while the signature is quarantined: no further tunes will be
  /// scheduled for it until reset_breakers().
  bool breaker_open = false;
};

/// Concurrent plan-serving front end over a PlanRegistry.  Thread-safe:
/// any number of client threads may call get_plan concurrently.  The
/// registry must outlive the service.  Destruction drains in-flight
/// tunes (their upgrades still land in the registry).
class TuningService {
 public:
  explicit TuningService(PlanRegistry& registry, ServeOptions options = {});
  ~TuningService();

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Answer a request: never blocks on tuning, never returns a plan
  /// slower than any previously served for the same signature.  The
  /// warm (tuned registry hit) path is mutex-free: a shard-snapshot read
  /// plus relaxed counter increments — it never takes the service mutex
  /// and never contends with a publishing tune, a merge_save, or
  /// another reader.  The miss/untuned path alone takes the service
  /// mutex (single-flight scheduling).
  ServedPlan get_plan(const core::TuningProblem& problem,
                      const vgpu::DeviceProfile& device);

  /// Answer N requests in ONE call, amortizing the per-request serving
  /// overhead across every item that shares a signature: items are
  /// grouped by canonical signature (heterogeneous batches are fine —
  /// each distinct problem is canonicalized once), and each distinct
  /// signature pays ONE registry lookup, ONE cold-path fallback, and at
  /// most ONE single-flight tune enqueue, no matter how many items map
  /// to it.  Answers come back in item order and are identical to what
  /// N get_plan calls would return (scheduled_tune is reported on the
  /// first item of its signature group).  Like get_plan, the warm path
  /// takes no lock.
  std::vector<ServedPlan> get_plan_batch(
      const std::vector<core::TuningProblem>& problems,
      const vgpu::DeviceProfile& device);

  /// get_plan plus materialization through the executable-plan LRU: a
  /// repeat request for an unchanged signature reuses the cached lowered
  /// kernels outright — no enumeration, no recipe parse, no lowering.
  /// A registry upgrade (background tune landing) invalidates the
  /// cached plan on its next request (counted in plan_cache_stale).
  ExecutableServedPlan get_executable(const core::TuningProblem& problem,
                                      const vgpu::DeviceProfile& device);

  /// Batched get_executable: one registry lookup AND at most one
  /// materialization per distinct signature; every item of a signature
  /// group shares the same ExecutablePlan pointer.
  std::vector<ExecutableServedPlan> get_executable_batch(
      const std::vector<core::TuningProblem>& problems,
      const vgpu::DeviceProfile& device);

  /// Block until no background tune is scheduled or running.  Must not
  /// be called from a ThreadPool worker (it would wait on the very pool
  /// it occupies).
  void drain();

  /// Point-in-time counters, each read exactly once (atomics relaxed,
  /// tune state under the service mutex) — safe to call while worker
  /// threads mutate every counter.  Never blocks get_plan's warm path —
  /// see the ServeStats consistency contract.
  ServeStats snapshot() const;

  /// Alias for snapshot() (the historical name).
  ServeStats stats() const { return snapshot(); }

  /// Run one adaptive re-tune pass: rank the already-tuned signatures
  /// this service has served by requests accumulated since their last
  /// re-tune, and re-enqueue the top ServeOptions::retune_top_k whose
  /// fresh demand reaches hot_threshold — through the normal
  /// single-flight / breaker / backpressure machinery, with
  /// retune_budget evaluations.  Returns the signatures actually
  /// enqueued (deterministic: demand descending, signature ascending on
  /// ties).  Publication is better-wins, so served plans only ever
  /// improve.  Thread-safe; the background scheduler (retune_interval >
  /// 0) calls exactly this.
  std::vector<std::string> retune_pass();

  /// Run one anti-entropy round against ServeOptions::remote: push the
  /// local registry's full state, absorb the backend's in return (both
  /// converge to the exact union — better-wins entries, max/freshest
  /// demand).  Returns true when the round completed; false without a
  /// backend or when it failed (counted in remote_errors or
  /// remote_unavailable depending on whether a replica answered).
  /// Thread-safe; the background thread (anti_entropy_interval > 0)
  /// calls exactly this.
  bool anti_entropy_pass();

  /// True (and fills *failure) when `signature`'s most recent tune run
  /// had at least one failing attempt.
  bool last_failure(const std::string& signature, TuneFailure* failure) const;

  /// Close every open circuit breaker: quarantined signatures become
  /// schedulable again on their next untuned request.  Failure records
  /// are kept (with breaker_open cleared) — the history is diagnostic.
  void reset_breakers();

 private:
  /// One batch item group: every item index in `items` maps to the same
  /// canonical signature, computed once.
  struct SignatureGroup {
    const core::TuningProblem* problem = nullptr;
    std::string sig;
    std::vector<std::size_t> items;
  };

  /// Group batch items by signature, canonicalizing each DISTINCT
  /// problem once (duplicates are detected with cheap structural
  /// equality, not by re-canonicalizing).
  std::vector<SignatureGroup> group_batch(
      const std::vector<core::TuningProblem>& problems,
      const vgpu::DeviceProfile& device) const;

  /// The single-signature serving core shared by every entry point:
  /// one lookup, cold fallback on miss, single-flight schedule when
  /// untuned.  Records `count` requests of demand (batch groups pass
  /// their item count) and remembers the (problem, device) context so
  /// retune_pass() can rebuild the tune inputs later.
  ServedPlan serve_signature(std::string sig,
                             const core::TuningProblem& problem,
                             const vgpu::DeviceProfile& device,
                             std::size_t count = 1);

  /// The served plan's executable, from the LRU when fresh, otherwise
  /// materialized and cached.  Sets *cache_hit accordingly.
  std::shared_ptr<const ExecutablePlan> executable_for(
      const ServedPlan& served, const core::TuningProblem& problem,
      bool* cache_hit);

  /// Enqueue the background tune for `sig` unless it is already
  /// in flight, already tuned (skipped for re-tunes — re-tuning tuned
  /// entries is the point), quarantined by its circuit breaker (an
  /// open breaker past its cool-down admits exactly one probe), or the
  /// queue is full.  Returns whether this call scheduled it.
  bool maybe_schedule(const std::string& sig,
                      const core::TuningProblem& problem,
                      const vgpu::DeviceProfile& device,
                      bool retune = false);
  void run_tune(const std::string& sig, const core::TuningProblem& problem,
                const vgpu::DeviceProfile& device, bool retune = false);
  /// Remember the serve context retune_pass() needs to rebuild a tune
  /// for `sig`.  Mutex-free once known (snapshot find); copy-on-write
  /// insert on first sight.
  void remember_signature(const std::string& sig,
                          const core::TuningProblem& problem,
                          const vgpu::DeviceProfile& device);
  /// Body of the retune_interval scheduler thread.
  void retune_loop();
  /// Body of the anti_entropy_interval sync thread (shares the retune
  /// stop signal — both are periodic maintenance loops).
  void anti_entropy_loop();

  PlanRegistry& registry_;
  ServeOptions options_;

  /// Executable-plan LRU (mutex-free reads; see serve/plancache.hpp).
  PlanCache plan_cache_;

  /// Hot-path counters the service itself owns: bumped with relaxed
  /// fetch_adds so warm requests — single or batched — touch no lock.
  std::atomic<std::size_t> requests_{0};
  std::atomic<std::size_t> batches_{0};
  std::atomic<std::size_t> batch_requests_{0};
  std::atomic<std::size_t> batch_signature_lookups_{0};
  std::atomic<std::size_t> plan_cache_hits_{0};
  std::atomic<std::size_t> plan_cache_stale_{0};
  std::atomic<std::size_t> plan_cache_misses_{0};
  /// Remote (L2) tier counters — relaxed atomics because the fetch and
  /// publish sites run outside mutex_ (fetch on the miss path before
  /// scheduling, publish on the tune worker after its run).
  std::atomic<std::size_t> remote_hits_{0};
  std::atomic<std::size_t> remote_misses_{0};
  std::atomic<std::size_t> remote_publishes_{0};
  std::atomic<std::size_t> remote_errors_{0};
  std::atomic<std::size_t> remote_unavailable_{0};
  std::atomic<std::size_t> anti_entropy_rounds_{0};

  /// mutex_ protects ONLY the tune-scheduling state below — it is taken
  /// on the miss/untuned path and by tune workers, never by a warm hit.
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  /// Signatures with a scheduled-or-running background tune.
  std::unordered_set<std::string> inflight_;
  /// Open circuit breakers: when each was (re)opened, for the half-open
  /// cool-down.  "Exactly one probe" needs no extra flag — an admitted
  /// probe sits in inflight_, which already blocks a second schedule.
  std::unordered_map<std::string,
                     std::chrono::steady_clock::time_point> breaker_;
  /// Most recent failing run per signature (attempts + error text;
  /// breaker_open is derived from breaker_ at query time).
  std::unordered_map<std::string, TuneFailure> failures_;
  std::size_t scheduled_ = 0;
  std::size_t running_ = 0;
  std::size_t tunes_started_ = 0;
  std::size_t tunes_completed_ = 0;
  std::size_t tune_failures_ = 0;
  std::size_t retries_ = 0;
  std::size_t deadline_expired_ = 0;
  std::size_t breaker_probes_ = 0;
  std::size_t breaker_healed_ = 0;
  std::string last_error_;
  std::size_t rejected_ = 0;
  double tune_seconds_total_ = 0;
  std::size_t retunes_scheduled_ = 0;
  std::size_t retunes_completed_ = 0;
  std::size_t retunes_improved_ = 0;
  /// Request count each signature had when retune_pass() last enqueued
  /// it — the baseline "fresh demand" is measured against.  Guarded by
  /// mutex_.
  std::unordered_map<std::string, std::uint64_t> retuned_hits_;

  /// Serve context per signature for re-tunes: the problem and device a
  /// future retune_pass() rebuilds core::tune inputs from.  A
  /// copy-on-write snapshot, so the serve path's existence check takes
  /// no mutex.
  struct RetuneContext {
    core::TuningProblem problem;
    vgpu::DeviceProfile device;
  };
  using ContextMap =
      std::unordered_map<std::string, std::shared_ptr<const RetuneContext>>;
  support::CowSnapshot<ContextMap> known_;

  /// The retune_interval scheduler thread and its stop signal (guarded
  /// by retune_mutex_, separate from mutex_ so stopping never contends
  /// with tune workers).
  std::mutex retune_mutex_;
  std::condition_variable retune_cv_;
  bool retune_stop_ = false;
  std::thread retune_thread_;
  std::thread anti_entropy_thread_;
};

/// Re-lower a served plan for execution or code emission: enumerate the
/// problem's joint variants (the same deterministic ascending-flops
/// order the tuner used) and lower under the entry's recipe — the
/// cached PlanEntry::parsed form when present (every registry-served
/// entry), parsing the text only for hand-built entries.  `options`
/// must match the enumeration knobs of the ServeOptions::tune that
/// produced the entry (octopi + max_joint_variants; defaults match
/// defaults).  Prefer TuningService::get_executable, which caches the
/// result.
chill::GpuPlan materialize(const core::TuningProblem& problem,
                           const PlanEntry& entry,
                           const core::TuneOptions& options = {});

/// The cold-path fallback: the lowest-flops variant under the decision
/// algorithm's static default mapping, modeled on `device`.  Cheap (no
/// search) and exposed for tests and benchmarks.
PlanEntry fallback_plan(const core::TuningProblem& problem,
                        const vgpu::DeviceProfile& device,
                        const core::TuneOptions& options = {});

/// Registry pre-warming (the serving analog of tune_specializations):
/// tune a cartesian grid of extent specializations x devices OFFLINE
/// into a registry, so a fleet that load()s the resulting file boots
/// 100% warm — zero cold misses, zero fallback answers, zero background
/// tunes at serve time.
struct PrewarmOptions {
  /// Configuration for the per-point core::tune() runs.
  /// tune.search.n_jobs also sets the outer grid parallelism: points
  /// are independent tunes farmed across the shared ThreadPool, exactly
  /// like core::tune_specializations (the pool-depth guard keeps the
  /// searches inside each pooled tune sequential).
  core::TuneOptions tune;
  /// Cap on the extent grid (OctopiProgram::specializations' cap; the
  /// lowest corners win).  A program without ranged dims has exactly
  /// one point.
  std::size_t max_points = 64;
};

struct PrewarmResult {
  std::size_t points = 0;     ///< grid points visited (extents x devices)
  std::size_t tuned = 0;      ///< full tunes actually run
  std::size_t skipped = 0;    ///< signatures already tuned in the registry
  std::size_t published = 0;  ///< tuned entries that won better-wins
  double seconds = 0;         ///< wall time for the whole grid
};

/// Tune every (specialization, device) pair of `program`'s extent grid
/// into `registry` under the better-wins rule, in parallel on the
/// shared pool.  Signatures the registry already holds a TUNED entry
/// for are skipped (re-running prewarm over a grown grid only pays for
/// the new points).  Throws like core::tune on a broken program; the
/// registry keeps every entry published before the throw.
PrewarmResult prewarm(PlanRegistry& registry,
                      const octopi::OctopiProgram& program,
                      const std::vector<vgpu::DeviceProfile>& devices,
                      const PrewarmOptions& options = {});

}  // namespace barracuda::serve
