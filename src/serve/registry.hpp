// PlanRegistry: the serving layer's thread-safe map from canonical
// contraction signatures (serve/signature.hpp) to the best plan known
// for them.
//
// Unlike core::EvalCache (first-write-wins: measurements are
// deterministic, colliding values agree), the registry's merge rule is
// BETTER-WINS: an entry only ever replaces another when it serves a
// strictly faster plan (or breaks a modeled-time tie by being tuned
// rather than a static fallback).  That one rule is what makes the whole
// serving story monotone — a signature's served plan never gets slower,
// not across background upgrades within a process, not across load()
// from a file, not across concurrent processes composing through
// merge_save().
//
// Concurrency (the warm-serving hot path): the map is SHARDED by
// signature hash — a power-of-two shard count derived from hardware
// concurrency — and each shard is a support::CowSnapshot of its slot
// map.  Readers (lookup/contains/peek) take no mutex: they load the
// shard's current immutable snapshot and search it, so a warm request
// never waits behind a tune publishing, a load() replicating, or a
// merge_save() composing.  The snapshot load is mutex-free but not
// lock-free on libstdc++ 12 (see support/snapshot.hpp).  Writers
// serialize per shard and publish copy-on-write: copy the shard map,
// apply the better-wins change, swap the snapshot — and a write the
// incumbent wins copies nothing.  Hit/miss/upgrade counters are relaxed
// per-shard atomics, summed on read.
//
// Persistence reuses the EvalCache machinery wholesale: a versioned,
// line-oriented text format (UNCHANGED by the sharding — files written
// by single-map builds load here and vice versa; save() still sorts
// globally by signature so the bytes are deterministic), save()
// publishing via temp file + atomic rename(2) (readers and post-crash
// inspectors never see a torn file), merge_save() holding an exclusive
// flock(2) on `<path>.lock` across load-merge-publish so concurrent
// processes compose losslessly, and load() rejecting corrupt files
// loudly instead of serving garbage.
//
// Demand tracking (the adaptive-serving feedback signal): each shard
// slot holds the signature's PlanEntry together with a shared Demand
// record (relaxed-atomic request counter + wait-free served-latency
// Histogram + an idle-generation age).  The record is created in the
// same snapshot as the entry — by publish or by a load/merge that
// seeds it from the file's columns — and survives upgrades, so every
// reader (save() included) sees an entry and its demand together.  The
// recording path (record_demand) loads the shard snapshot, finds the
// slot and bumps atomics; it takes no mutex and copies nothing.  Demand
// feeds three consumers: hottest() ranks signatures for the
// TuningService's background re-tuner, served_latency() merges the
// per-signature histograms for ServeStats, and save() persists the
// request counter + age so a long-lived registry file both unions demand
// across processes and (when an age-out policy is set) drops entries
// nobody has requested for N consecutive generations (a generation =
// one save).  The v2 file format carries the two demand columns; v1
// files still load, with demand starting fresh.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "chill/lower.hpp"
#include "support/histogram.hpp"
#include "support/recovery.hpp"
#include "support/snapshot.hpp"

namespace barracuda::serve {

/// The best known plan for one signature: which joint variant to lower
/// (an index into core::enumerate_programs' deterministic ascending-flops
/// order for the problem) under which recipe, what the model predicts
/// for it, and whether it came from a full tune() or the static fallback
/// mapping.
struct PlanEntry {
  std::size_t variant = 0;
  /// core::serialize_recipe form (one "kernel N: ..." line per kernel);
  /// the PERSISTED form — the file format carries only this text.
  std::string recipe_text;
  double modeled_us = 0;
  bool tuned = false;
  /// The parsed form of recipe_text, cached at load/publish time so a
  /// warm hit never calls core::parse_recipe (the registry's mutex-free
  /// lookup copies the shared_ptr, not the recipe).  Never persisted;
  /// may be null for hand-built entries — materialize() then parses
  /// once and the executable-plan cache keeps the result.
  std::shared_ptr<const chill::Recipe> parsed;

  /// Equality is over the persisted fields only: the parsed cache is a
  /// derived view of recipe_text, not part of the entry's identity.
  bool operator==(const PlanEntry& other) const {
    return variant == other.variant && recipe_text == other.recipe_text &&
           modeled_us == other.modeled_us && tuned == other.tuned;
  }
};

/// True when `a` should replace `b` as the served plan: strictly faster,
/// or equally fast but tuned where `b` is a fallback.  Ties (equal time,
/// equal tuned-ness) keep the incumbent, so merges are idempotent.
bool better_plan(const PlanEntry& a, const PlanEntry& b);

/// The registry file format's one-line recipe encoding: newlines become
/// ';' (recipe lines themselves never contain ';'), trailing separators
/// trimmed.  Shared with the wire protocol's plan records.
std::string flatten_recipe(const std::string& recipe_text);
/// Inverse of flatten_recipe (restores the trailing newline).
std::string unflatten_recipe(const std::string& flat);

/// The power-of-two shard count a default-constructed PlanRegistry uses:
/// hardware concurrency rounded up to a power of two, clamped to
/// [1, 64].
std::size_t default_registry_shards();

/// Point-in-time demand view for one signature (see
/// PlanRegistry::demand).
struct DemandStats {
  /// Total requests recorded for the signature, including the baseline
  /// absorbed from loaded v2 files (the cross-process union).
  std::uint64_t requests = 0;
  /// Consecutive saves since the signature was last requested (0 when
  /// requested since the last save — or never saved).
  std::uint64_t idle_generations = 0;
  support::HistogramSnapshot served_us;
};

/// One row of PlanRegistry::hottest(): a signature ranked by demand.
struct HotSignature {
  std::string signature;
  std::uint64_t requests = 0;
  bool tuned = false;
};

/// Thread-safe signature -> PlanEntry map with better-wins publication.
/// Safe to share across concurrent get_plan requests and background
/// tuning workers alike; reads are mutex-free snapshot loads (see the
/// file comment).
class PlanRegistry {
 public:
  /// Shard count from default_registry_shards().
  PlanRegistry();
  /// Explicit shard count (rounded up to a power of two, >= 1) — for
  /// tests that pin cross-shard behavior; the on-disk format is
  /// identical for every shard count.
  explicit PlanRegistry(std::size_t shards);

  std::size_t shard_count() const { return shard_count_; }

  /// True (and sets *entry) when a plan is registered for `signature`.
  /// Counts as a hit or miss.  Mutex-free.
  bool lookup(const std::string& signature, PlanEntry* entry) const;

  /// True when `signature` has a plan, WITHOUT touching the hit/miss
  /// counters (scheduling probes must not distort the serve hit rate).
  /// Mutex-free.
  bool contains(const std::string& signature) const;

  /// lookup() without the hit/miss counters — the TuningService's
  /// scheduling probe ("is this entry already tuned?"), which must not
  /// distort the serve hit rate.  Mutex-free.
  bool peek(const std::string& signature, PlanEntry* entry) const;

  /// Better-wins publication: installs `entry` when the signature is new
  /// or `entry` beats the incumbent (see better_plan), otherwise keeps
  /// the incumbent.  Returns true when `entry` was installed.  Replacing
  /// an existing entry counts as an upgrade and keeps the signature's
  /// demand; a new signature gets a fresh demand record in the same
  /// snapshot.  Takes only the owning shard's write lock; concurrent
  /// readers are never blocked.
  bool publish(const std::string& signature, const PlanEntry& entry);

  /// publish() and read back the resulting incumbent in one atomic step.
  /// This is how a cold request serves its freshly computed fallback
  /// without ever answering slower than the registry's current best: if
  /// a concurrent tune upgraded the signature between this request's
  /// miss and its publish, the returned entry is that better plan, not
  /// the fallback.
  PlanEntry publish_and_get(const std::string& signature,
                            const PlanEntry& entry);

  std::size_t size() const;
  std::size_t hits() const;
  std::size_t misses() const;
  /// publish() calls that replaced an existing entry with a better one.
  std::size_t upgrades() const;
  void clear();

  /// Record one served request (or `count` batched ones) for
  /// `signature`: bumps the relaxed request counter, marks the
  /// signature fresh for the age-out policy, and records `served_us`
  /// into its latency histogram.  Mutex-free.  Demand lives beside the
  /// entry, so a signature with no registered plan records nothing —
  /// serve paths record after a lookup hit or a publish_and_get.
  void record_demand(const std::string& signature, double served_us,
                     std::uint64_t count = 1);

  /// True (and fills *stats) when `signature` has a registered plan —
  /// every plan carries a demand record, fresh or loaded from a v2 file.
  /// Does not touch hit/miss counters.
  bool demand(const std::string& signature, DemandStats* stats) const;

  /// The signatures with at least max(1, min_requests) recorded
  /// requests, ranked by request count descending (signature ascending
  /// on ties, so the ranking is deterministic), truncated to the top
  /// `k` (k = 0 means no truncation).  `tuned` reflects the registry's
  /// current entry.
  std::vector<HotSignature> hottest(std::size_t k,
                                    std::uint64_t min_requests = 1) const;

  /// Sum of every signature's request counter (including loaded
  /// baselines).
  std::uint64_t demand_requests() const;

  /// All per-signature served-latency histograms merged into one.
  support::HistogramSnapshot served_latency() const;

  /// Enable (n >= 1) or disable (n = 0, the default) the age-out
  /// policy: on save()/merge_save(), an entry whose persisted idle age
  /// reaches n — i.e. not requested for n consecutive saves — is
  /// dropped from the FILE (the in-memory registry keeps serving it).
  /// With the policy disabled, save() never advances ages, so
  /// save->load->save round-trips are byte-identical.
  void set_max_idle_generations(std::uint64_t n) { max_idle_generations_ = n; }
  std::uint64_t max_idle_generations() const { return max_idle_generations_; }

  /// Entries dropped from files by the age-out policy over this
  /// registry's lifetime.
  std::uint64_t aged_out() const {
    return aged_out_.load(std::memory_order_relaxed);
  }

  /// Write every entry to `path` (versioned v2 text, sorted by signature
  /// so the file is deterministic and byte-identical for any shard
  /// count), via temp file + atomic rename — no reader, concurrent or
  /// post-crash, can observe a torn file.  Persists each entry's demand
  /// columns (idle age + request count) and, when an age-out policy is
  /// set, drops entries whose age reaches the limit (counted in
  /// aged_out()).  On success the in-process demand counters fold into
  /// the persisted baseline, so repeated merge_saves union counts
  /// exactly instead of double-counting.  Throws Error on an unwritable
  /// path or an unserializable entry (tab/newline in a signature, ';' or
  /// tab in recipe text, non-finite modeled_us, empty recipe).
  /// Hit/miss/upgrade counters are not persisted.
  void save(const std::string& path) const;

  /// The registry serialized to the v2 text format — the same bytes
  /// save() writes, minus the filesystem: no age-out (every entry is
  /// included with its current age, nothing advances or drops) and no
  /// temp/rename dance.  Demand counters fold into the serialized
  /// baseline exactly like a successful save(), so the text carries the
  /// union and repeated exchanges never double-count — this is the
  /// anti-entropy payload of the distributed tier.  Throws Error on an
  /// unserializable entry (same validation as save()).
  std::string to_text() const;

  /// Merge registry text (v2 or v1, as produced by to_text()/save())
  /// into this registry: better-wins on entries, max/freshest union on
  /// demand — identical semantics to load(), with `source` standing in
  /// for the file path in error messages.  No quarantine is written
  /// (there is no file); under kSalvage malformed lines are dropped and
  /// counted in `report`.  Returns the number of entry lines read.
  /// This is how a node absorbs a peer's anti-entropy exchange.
  std::size_t merge_text(const std::string& text, const std::string& source,
                         support::RecoveryPolicy policy =
                             support::RecoveryPolicy::kStrict,
                         support::SalvageReport* report = nullptr);

  /// Merge entries from a save()d file into this registry under the
  /// better-wins rule (never counts upgrades — load is replication, not
  /// tuning progress).  Returns the number of entry lines read.  Reads
  /// both the current v2 format and legacy v1 files (whose entries load
  /// with fresh demand).  v2 demand columns are absorbed as a baseline:
  /// request counts take the max of file and current baseline (each
  /// file already carries the union at its save time), ages take the
  /// freshest (smallest) of the two sides.
  ///
  /// Failure handling is governed by `policy` (default kStrict): any
  /// corruption — unrecognized header/version, wrong field count,
  /// unparseable or non-finite time, bad tuned flag, recipe text that
  /// does not parse — throws Error, because a corrupt registry must fail
  /// loudly, not serve garbage plans.  Under kSalvage every record that
  /// still parses is merged (better-wins), malformed lines are dropped,
  /// and the damaged original is quarantined to `<path>.corrupt` so the
  /// next strict load finds no file; `report` receives the kept/dropped
  /// counts and the quarantine path.  An unreadable/missing file throws
  /// under both policies.
  std::size_t load(const std::string& path,
                   support::RecoveryPolicy policy =
                       support::RecoveryPolicy::kStrict,
                   support::SalvageReport* report = nullptr);

  /// Cross-process-safe persistence: atomically merge this registry into
  /// the file at `path` under an exclusive flock(2) on `path + ".lock"`,
  /// absorbing any existing file via load() (better-wins, honoring
  /// `policy`) before publishing the merged result with the atomic
  /// save().  Concurrent processes sharing one path therefore converge
  /// to the per-signature best of everything any of them found.  Returns
  /// the number of entries absorbed from the pre-existing file (0 when
  /// absent).
  std::size_t merge_save(
      const std::string& path,
      support::RecoveryPolicy policy = support::RecoveryPolicy::kStrict);

 private:
  /// Live demand state for one signature.  Shared (never copied) between
  /// successive shard snapshots so the recording path can bump it
  /// without holding any lock.  `idle` is -1 while the signature has
  /// been requested (or first published) since the last save; save()
  /// folds it to the persisted age.  Request counts split into the
  /// baseline absorbed from files (`base_hits`) plus the increments
  /// recorded in this process since the last save (`local_hits`); their
  /// sum is the signature's total demand, and save() folds local into
  /// base so the union never double-counts.
  struct Demand {
    std::atomic<std::uint64_t> base_hits{0};
    std::atomic<std::uint64_t> local_hits{0};
    std::atomic<std::int64_t> idle{-1};
    support::Histogram served_us;

    std::uint64_t requests() const {
      return base_hits.load(std::memory_order_relaxed) +
             local_hits.load(std::memory_order_relaxed);
    }
  };
  /// One registered signature: its served plan and its demand, published
  /// together.  `demand` is never null.
  struct Slot {
    PlanEntry entry;
    std::shared_ptr<Demand> demand;
  };
  using ShardMap = std::unordered_map<std::string, Slot>;

  /// One stripe: the slot map plus relaxed counters (summed on read).
  struct Shard {
    support::CowSnapshot<ShardMap> slots;
    mutable std::atomic<std::size_t> hits{0};
    mutable std::atomic<std::size_t> misses{0};
    std::atomic<std::size_t> upgrades{0};
  };
  /// One parsed file row: the entry plus its demand columns.
  struct FileRow {
    std::string signature;
    PlanEntry entry;
    std::uint64_t hits = 0;
    std::uint64_t age = 0;
  };

  /// The one sharding rule: a power-of-two count masks the string hash.
  std::size_t shard_index(const std::string& signature) const;
  Shard& shard_of(const std::string& signature) const;
  /// The shared core of publish() and publish_and_get(): better-wins
  /// install of `entry` in one shard write, the plan then served written
  /// to *served.  Returns true when `entry` was installed.
  bool install(const std::string& signature, const PlanEntry& entry,
               PlanEntry* served);
  /// Merge file rows in one write per shard: entries better-wins, a new
  /// slot's demand seeded from the row, an existing one's reconciled.
  void merge_entries(std::vector<FileRow> rows);
  /// A gathered, validated, sorted point-in-time view of every entry
  /// plus the demand readings needed to fold counters after a
  /// successful publish — the shared core of save() and to_text().
  /// Defined in registry.cpp; the unique_ptr is only ever materialized
  /// there.
  struct SaveBatch;
  /// Snapshot + validate + sort (throws on unserializable entries;
  /// `apply_ageout` advances ages and diverts aged-out rows).
  std::unique_ptr<SaveBatch> gather_rows(bool apply_ageout) const;
  /// The v2 text for a gathered batch.
  static std::string render_rows(const SaveBatch& batch);
  /// Fold the batch's demand readings into the persisted baseline —
  /// call ONLY after the serialized bytes have actually been published
  /// (renamed into place, or handed to the network layer).
  void fold_rows(const SaveBatch& batch) const;
  /// Parse v2/v1 registry text from `in` and merge it (better-wins +
  /// demand union) — the shared core of load() and merge_text().
  std::size_t merge_stream(std::istream& in, const std::string& source,
                           support::RecoveryPolicy policy,
                           support::SalvageReport* local);

  std::size_t shard_count_ = 1;  // power of two
  std::unique_ptr<Shard[]> shards_;
  std::uint64_t max_idle_generations_ = 0;  // 0 = age-out disabled
  mutable std::atomic<std::uint64_t> aged_out_{0};
  /// Serializes save()'s counter folding against concurrent save()s on
  /// the same registry (merge_save already serializes cross-process via
  /// the file lock; this covers two threads saving one registry).
  mutable std::mutex save_mutex_;
};

}  // namespace barracuda::serve
