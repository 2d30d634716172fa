// PlanCache: a small LRU of MATERIALIZED plans — parsed recipe +
// lowered GPU kernels — keyed by canonical signature.
//
// Why it exists: a warm registry hit hands back a PlanEntry, but running
// it still costs enumerate_programs + lower_program per call (and,
// before PR 7, a recipe re-parse).  Those are pure functions of
// (signature, entry), so the serving layer caches the finished
// chill::GpuPlan and answers repeat executions with a shared_ptr copy —
// the per-request cost of a hot signature drops to one snapshot load.
//
// Concurrency discipline: identical to the sharded PlanRegistry's —
// readers are mutex-free.  The whole map is one support::CowSnapshot;
// find() reads the snapshot, looks up, and bumps the entry's recency
// tick with a relaxed atomic store (the tick lives behind a shared_ptr
// in the slot, so it survives snapshot swaps).  insert() is a
// copy-on-write write: copy the map, add the entry, evict the
// least-recently-used slots past capacity, publish.
// A reader holding an evicted plan keeps it alive through its
// shared_ptr — eviction drops the cache's reference, never the plan.
//
// Staleness is the CALLER's contract: a background tune may upgrade the
// registry entry after a plan was cached, so ExecutablePlan carries the
// PlanEntry it was lowered from and TuningService compares it against
// the registry's current entry on every hit (persisted-field equality).
// A stale hit is treated as a miss and re-materialized; the counters
// split the two cases (hits vs stale) so tests can pin the protocol.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "chill/kernel.hpp"
#include "serve/registry.hpp"
#include "support/snapshot.hpp"

namespace barracuda::serve {

/// A plan ready to execute: the registry entry it was materialized from
/// (the staleness witness) plus the lowered kernels.  Immutable once
/// cached; shared read-only across any number of executing threads
/// (vgpu::execute_plan and the batch executors only read the plan).
struct ExecutablePlan {
  PlanEntry entry;
  chill::GpuPlan plan;
};

/// Thread-safe LRU from signature to shared ExecutablePlan.  Reads are
/// mutex-free snapshot loads; writes are serialized copy-on-write.
class PlanCache {
 public:
  /// `capacity` >= 1 (checked): the maximum number of cached plans.
  explicit PlanCache(std::size_t capacity = 128);

  std::size_t capacity() const { return capacity_; }

  /// The cached plan for `signature`, or null.  Mutex-free; bumps the
  /// entry's recency tick and the hit/miss counters (relaxed atomics).
  std::shared_ptr<const ExecutablePlan> find(
      const std::string& signature) const;

  /// Cache `plan` under `signature`, replacing any previous plan for it
  /// (last writer wins — both correspond to some registry state, and
  /// the staleness check re-validates every hit anyway).  Evicts the
  /// least-recently-used entries while size exceeds capacity.  Returns
  /// the shared pointer now cached.
  std::shared_ptr<const ExecutablePlan> insert(const std::string& signature,
                                               ExecutablePlan plan);

  std::size_t size() const;
  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t evictions() const;
  void clear();

 private:
  struct Slot {
    std::shared_ptr<const ExecutablePlan> plan;
    /// Recency: the global tick at last find()/insert().  Behind a
    /// shared_ptr so find() can bump it through a const snapshot.
    std::shared_ptr<std::atomic<std::uint64_t>> last_used;
  };
  using Map = std::unordered_map<std::string, Slot>;

  std::size_t capacity_;
  support::CowSnapshot<Map> snapshot_;
  mutable std::atomic<std::uint64_t> tick_{0};
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> evictions_{0};
};

}  // namespace barracuda::serve
