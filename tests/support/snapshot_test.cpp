#include "support/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace barracuda::support {
namespace {

using IntMap = std::map<int, int>;

// A reader's snapshot is immutable and owned by the reader: writes
// publish new snapshots beside it, never into it.
TEST(CowSnapshot, OldSnapshotStaysValidAndUnchangedAcrossWrites) {
  CowSnapshot<IntMap> snap(IntMap{{1, 10}});
  std::shared_ptr<const IntMap> old = snap.read();
  for (int k = 2; k <= 50; ++k) {
    snap.write([&](auto& draft) { draft.edit()[k] = 10 * k; });
  }
  snap.write([](auto& draft) { draft.edit().erase(1); });
  snap.reset();
  EXPECT_EQ(*old, (IntMap{{1, 10}}));
  EXPECT_TRUE(snap.read()->empty());
}

// Writes serialize: every insert from every writer thread lands, while
// readers load snapshots concurrently (the TSan shape of the primitive).
TEST(CowSnapshot, ConcurrentWritersLoseNoUpdate) {
  constexpr int kWriters = 8;
  constexpr int kInserts = 200;
  CowSnapshot<IntMap> snap;
  std::atomic<bool> stop{false};
  std::atomic<int> shrank{0};
  std::thread reader([&] {
    std::size_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t now = snap.read()->size();
      if (now < last) shrank.fetch_add(1);
      last = now;
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kInserts; ++i) {
        snap.write([&](auto& draft) { draft.edit()[w * kInserts + i] = w; });
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  std::shared_ptr<const IntMap> final_map = snap.read();
  ASSERT_EQ(final_map->size(),
            static_cast<std::size_t>(kWriters * kInserts));
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kInserts; ++i) {
      EXPECT_EQ(final_map->at(w * kInserts + i), w);
    }
  }
  EXPECT_EQ(shrank.load(), 0);
}

// A write that never edits (the incumbent wins) copies and publishes
// nothing; one that throws publishes nothing either.
TEST(CowSnapshot, DeclinedOrThrowingWriteKeepsTheSameSnapshot) {
  CowSnapshot<IntMap> snap(IntMap{{1, 10}});
  std::shared_ptr<const IntMap> before = snap.read();
  const bool installed = snap.write([](auto& draft) {
    return draft.get().at(1) < 5;  // incumbent 10 wins: no edit()
  });
  EXPECT_FALSE(installed);
  EXPECT_EQ(snap.read().get(), before.get());

  EXPECT_THROW(snap.write([](auto& draft) {
                 draft.edit()[2] = 20;
                 throw std::runtime_error("abandon the draft");
               }),
               std::runtime_error);
  EXPECT_EQ(snap.read().get(), before.get());

  // get() sees the write's own edits before they publish.
  const int seen = snap.write([](auto& draft) {
    draft.edit()[3] = 30;
    return draft.get().at(3);
  });
  EXPECT_EQ(seen, 30);
  EXPECT_NE(snap.read().get(), before.get());
  EXPECT_EQ(*before, (IntMap{{1, 10}}));
}

}  // namespace
}  // namespace barracuda::support
