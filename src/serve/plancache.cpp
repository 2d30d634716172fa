#include "serve/plancache.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace barracuda::serve {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  BARRACUDA_CHECK_MSG(capacity_ >= 1, "plan cache capacity must be >= 1");
}

std::shared_ptr<const ExecutablePlan> PlanCache::find(
    const std::string& signature) const {
  std::shared_ptr<const Map> snap = snapshot_.read();
  auto it = snap->find(signature);
  if (it == snap->end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Recency bump: a monotone global tick, written relaxed — eviction
  // only needs a faithful-enough ordering, not a happens-before edge.
  it->second.last_used->store(tick_.fetch_add(1, std::memory_order_relaxed),
                              std::memory_order_relaxed);
  return it->second.plan;
}

std::shared_ptr<const ExecutablePlan> PlanCache::insert(
    const std::string& signature, ExecutablePlan plan) {
  auto shared = std::make_shared<const ExecutablePlan>(std::move(plan));
  snapshot_.write([&](auto& draft) {
    Map& next = draft.edit();
    Slot& slot = next[signature];
    slot.plan = shared;
    slot.last_used = std::make_shared<std::atomic<std::uint64_t>>(
        tick_.fetch_add(1, std::memory_order_relaxed));
    // LRU eviction past capacity: drop the coldest ticks.  Readers that
    // already hold an evicted plan keep it alive via their shared_ptr.
    while (next.size() > capacity_) {
      auto coldest = next.end();
      std::uint64_t coldest_tick = 0;
      for (auto it = next.begin(); it != next.end(); ++it) {
        if (it->first == signature) continue;  // never evict the newcomer
        const std::uint64_t t =
            it->second.last_used->load(std::memory_order_relaxed);
        if (coldest == next.end() || t < coldest_tick) {
          coldest = it;
          coldest_tick = t;
        }
      }
      if (coldest == next.end()) break;  // capacity 1: only the newcomer
      next.erase(coldest);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return shared;
}

std::size_t PlanCache::size() const {
  return snapshot_.read()->size();
}

std::size_t PlanCache::hits() const {
  return hits_.load(std::memory_order_relaxed);
}

std::size_t PlanCache::misses() const {
  return misses_.load(std::memory_order_relaxed);
}

std::size_t PlanCache::evictions() const {
  return evictions_.load(std::memory_order_relaxed);
}

void PlanCache::clear() { snapshot_.reset(); }

}  // namespace barracuda::serve
