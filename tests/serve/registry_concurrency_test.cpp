// Multi-process harness for PlanRegistry::merge_save: concurrent and
// crashing writers sharing one registry path must converge to the
// per-signature BEST of everything any of them published — better-wins
// across processes, no lost signatures, no torn files.
//
// This suite lives in its own test binary on purpose: the fork()ed
// writers must be spawned from a single-threaded process (fork of a
// multithreaded parent is undefined enough that TSan rejects it), so
// nothing here may touch support::ThreadPool — in particular no
// serve::TuningService, whose background tunes run on the shared pool.
// Keep it that way.
#include "serve/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace barracuda::serve {
namespace {

/// Unique path under the gtest temp dir, removed (with its lock) on
/// destruction.
struct TempFile {
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name) {
    cleanup();
  }
  ~TempFile() { cleanup(); }
  void cleanup() {
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
  }
  std::string path;
};

constexpr int kSignatures = 12;

std::string sig(int s) { return "device|n=4,|sig" + std::to_string(s); }

/// Writer w's plan for signature s: every writer knows every signature,
/// but at different quality — writer w models signature s at
/// 100 + ((s + w) % kWriters) us, so for each signature exactly one
/// writer holds the global best (100 us) and the merged file must end
/// with that one.  Only the best writer's entry is tuned, making the
/// variant/tuned fields an extra provenance check on who won.
PlanEntry plan_of(int writer, int s, int writers) {
  PlanEntry e;
  const int rank = (s + writer) % writers;
  e.variant = static_cast<std::size_t>(writer);
  e.recipe_text =
      "kernel 1: tx=i ty=1 bx=j by=1 seq=k unroll=" +
      std::to_string(writer + 1) + " registers=1 shared=-\n";
  e.modeled_us = 100.0 + rank + 1.0 / 3.0 * rank;
  e.tuned = rank == 0;
  return e;
}

int best_writer(int s, int writers) {
  // The writer for whom (s + w) % writers == 0.
  return (writers - s % writers) % writers;
}

#ifndef _WIN32

/// Fork `writers` children; each publishes its plans for every signature
/// and merge_saves into `path`.
void run_writers(const std::string& path, int writers,
                 bool crash_after_save = false) {
  std::vector<pid_t> pids;
  for (int w = 0; w < writers; ++w) {
    pid_t pid = fork();
    ASSERT_NE(pid, -1) << "fork failed";
    if (pid == 0) {
      // Child: no gtest assertions (failures surface as exit status).
      int status = 0;
      try {
        PlanRegistry registry;
        for (int s = 0; s < kSignatures; ++s) {
          registry.publish(sig(s), plan_of(w, s, writers));
        }
        registry.merge_save(path);
      } catch (...) {
        status = 1;
      }
      if (crash_after_save && status == 0) _exit(42);
      _exit(status);
    }
    pids.push_back(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "writer killed by signal";
    EXPECT_EQ(WEXITSTATUS(status), crash_after_save ? 42 : 0)
        << "writer failed";
  }
}

/// The final file must hold, for every signature, exactly the best
/// writer's entry — better-wins composed across all interleavings.
void expect_per_signature_best(const std::string& path, int writers) {
  PlanRegistry merged;
  merged.load(path);
  EXPECT_EQ(merged.size(), static_cast<std::size_t>(kSignatures));
  for (int s = 0; s < kSignatures; ++s) {
    PlanEntry entry;
    ASSERT_TRUE(merged.peek(sig(s), &entry)) << "lost signature " << s;
    PlanEntry expected = plan_of(best_writer(s, writers), s, writers);
    EXPECT_EQ(entry, expected) << "signature " << s
                               << " did not converge to the best plan";
  }
}

// N processes race merge_save on one path; the advisory lock serializes
// load-merge-publish, so every signature ends at the global best no
// matter the interleaving (plain save() would keep the last writer's
// plans — mostly non-best).
TEST(RegistryConcurrency, ConcurrentMergeSaveConvergesToPerSignatureBest) {
  TempFile file("registry_concurrency_best.txt");
  run_writers(file.path, 6);
  expect_per_signature_best(file.path, 6);
}

// Writers dying immediately after publish (no exit handlers) leave a
// complete, loadable best-of file: crash-safety comes from the atomic
// rename, not orderly shutdown.
TEST(RegistryConcurrency, WritersCrashingAfterPublishLoseNothing) {
  TempFile file("registry_concurrency_crash.txt");
  run_writers(file.path, 4, /*crash_after_save=*/true);
  expect_per_signature_best(file.path, 4);
}

// Re-merging the same writers is idempotent: better-wins ties keep the
// incumbent, so a second full wave changes nothing.
TEST(RegistryConcurrency, RemergingIsIdempotent) {
  TempFile file("registry_concurrency_remerge.txt");
  run_writers(file.path, 4);
  PlanRegistry before;
  before.load(file.path);
  run_writers(file.path, 4);
  expect_per_signature_best(file.path, 4);
  PlanRegistry after;
  after.load(file.path);
  EXPECT_EQ(after.size(), before.size());
}

// A stale lock file from a crashed writer must not wedge later writers:
// flock(2) locks die with their holder.
TEST(RegistryConcurrency, StaleLockFileFromDeadWriterIsRecovered) {
  TempFile file("registry_concurrency_stale.txt");
  std::ofstream(file.path + ".lock") << "";
  run_writers(file.path, 3);
  expect_per_signature_best(file.path, 3);
}

#endif  // !_WIN32

// Same-process concurrent writers: flock serializes distinct file
// descriptions within one process too, so threads composing through
// merge_save also converge to the per-signature best.  (Plain
// std::thread on purpose — no ThreadPool in this binary; threads are
// joined before returning, so none outlives the test into a later
// fork.)
TEST(RegistryConcurrency, ThreadedMergeSaveAlsoConverges) {
  TempFile file("registry_concurrency_threads.txt");
  constexpr int kWriters = 4;
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      PlanRegistry registry;
      for (int s = 0; s < kSignatures; ++s) {
        registry.publish(sig(s), plan_of(w, s, kWriters));
      }
      registry.merge_save(file.path);
    });
  }
  for (auto& t : threads) t.join();

  PlanRegistry merged;
  merged.load(file.path);
  EXPECT_EQ(merged.size(), static_cast<std::size_t>(kSignatures));
  for (int s = 0; s < kSignatures; ++s) {
    PlanEntry entry;
    ASSERT_TRUE(merged.peek(sig(s), &entry)) << "lost signature " << s;
    EXPECT_EQ(entry, plan_of(best_writer(s, kWriters), s, kWriters));
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The on-disk format must not depend on how the in-memory map is
// sharded: save() sorts globally by signature, so an 8-shard registry,
// a 1-shard registry, and a cross-shard merge_save union must all
// produce identical bytes for the same entries.
TEST(RegistryConcurrency, ShardCountInvisibleOnDiskByteForByte) {
  TempFile sharded_file("registry_sharded_save.txt");
  TempFile flat_file("registry_flat_save.txt");
  TempFile merged_file("registry_merged_save.txt");

  constexpr int kWriters = 4;
  PlanRegistry sharded(8);
  PlanRegistry flat(1);
  ASSERT_EQ(sharded.shard_count(), 8u);
  ASSERT_EQ(flat.shard_count(), 1u);
  for (int s = 0; s < kSignatures; ++s) {
    PlanEntry best = plan_of(best_writer(s, kWriters), s, kWriters);
    sharded.publish(sig(s), best);
    flat.publish(sig(s), best);
  }
  sharded.save(sharded_file.path);
  flat.save(flat_file.path);
  EXPECT_EQ(file_bytes(sharded_file.path), file_bytes(flat_file.path))
      << "shard count leaked into the file format";

  // merge_save from several partial sharded registries must union to
  // the same bytes as the single-map save of all entries.
  for (int w = 0; w < kWriters; ++w) {
    PlanRegistry partial(8);
    for (int s = 0; s < kSignatures; ++s) {
      partial.publish(sig(s), plan_of(w, s, kWriters));
    }
    partial.merge_save(merged_file.path);
  }
  EXPECT_EQ(file_bytes(merged_file.path), file_bytes(flat_file.path))
      << "cross-shard merge_save diverged from the single-map union";
}

// Readers race snapshot lookups against writers publishing ever-better
// plans.  The copy-on-write snapshot protocol guarantees each reader
// sees a complete, immutable map — under TSan this test is the data-race
// proof for the lock-free warm path.  Observed modeled_us per signature
// must be monotone non-increasing (better-wins means published plans
// only improve).
TEST(RegistryConcurrency, SnapshotReadsRaceWithPublishesCleanly) {
  PlanRegistry registry(4);
  constexpr int kRounds = 40;
  constexpr int kReaders = 4;
  // Seed every signature so readers always hit.
  for (int s = 0; s < kSignatures; ++s) {
    PlanEntry e = plan_of(0, s, 1);
    e.modeled_us = 1000.0;
    registry.publish(sig(s), e);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<double> last(kSignatures, 1e30);
      while (!stop.load(std::memory_order_acquire)) {
        for (int s = 0; s < kSignatures; ++s) {
          PlanEntry entry;
          if (!registry.lookup(sig(s), &entry)) {
            violations.fetch_add(1);
            continue;
          }
          if (entry.modeled_us > last[s] + 1e-9) violations.fetch_add(1);
          last[s] = entry.modeled_us;
        }
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (int s = 0; s < kSignatures; ++s) {
        PlanEntry e = plan_of(0, s, 1);
        e.variant = static_cast<std::size_t>(round);
        e.modeled_us = 1000.0 - round;  // strictly better each round
        registry.publish(sig(s), e);
      }
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0)
      << "reader saw a missing signature or a regressing plan";
  PlanEntry final_entry;
  ASSERT_TRUE(registry.peek(sig(0), &final_entry));
  EXPECT_DOUBLE_EQ(final_entry.modeled_us, 1000.0 - (kRounds - 1));
}

// Eight writer threads race publish() on every signature with different
// qualities; better-wins must hold per shard — each signature ends at
// the global best regardless of arrival order, and upgrade accounting
// stays coherent.
TEST(RegistryConcurrency, BetterWinsUnderEightRacingWriters) {
  PlanRegistry registry(8);
  constexpr int kWriters = 8;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int s = 0; s < kSignatures; ++s) {
        registry.publish(sig(s), plan_of(w, s, kWriters));
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(registry.size(), static_cast<std::size_t>(kSignatures));
  for (int s = 0; s < kSignatures; ++s) {
    PlanEntry entry;
    ASSERT_TRUE(registry.peek(sig(s), &entry)) << "lost signature " << s;
    EXPECT_EQ(entry, plan_of(best_writer(s, kWriters), s, kWriters))
        << "signature " << s << " did not converge to the best plan";
  }
}

/// One saved registry file's rows as (signature, age, hits).
struct SavedRow {
  std::string signature;
  std::string age;
  std::string hits;
};

std::vector<SavedRow> saved_rows(const std::string& path) {
  std::vector<SavedRow> rows;
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::vector<std::string> fields;
    std::istringstream fields_in(line);
    for (std::string f; std::getline(fields_in, f, '\t');) {
      fields.push_back(f);
    }
    if (fields.size() != 7) {
      ADD_FAILURE() << "malformed saved row: " << line;
      continue;
    }
    rows.push_back({fields[6], fields[3], fields[4]});
  }
  return rows;
}

// A save() racing a bulk merge of fresh signatures must never see an
// entry without the demand its file row carried: the entry and its
// demand are published in one snapshot, so every row any save writes
// carries the merged `hits 5`.
TEST(RegistryConcurrency, SaveRacingBulkMergeWritesEveryRowsDemand) {
  TempFile file("registry_concurrency_merge_race.txt");
  constexpr int kFresh = 4000;
  std::string text = "barracuda-planregistry v2\n";
  for (int s = 0; s < kFresh; ++s) {
    text += "12.5\t1\t0\t0\t5\t"
            "kernel 1: tx=i ty=1 bx=j by=1 seq=k unroll=1 registers=1 "
            "shared=-\t" + sig(1000 + s) + "\n";
  }
  PlanRegistry registry(4);
  std::atomic<bool> merged{false};
  std::size_t rows_seen = 0;
  std::size_t wrong_hits = 0;
  std::thread saver([&] {
    bool last_pass = false;
    while (!last_pass) {
      last_pass = merged.load(std::memory_order_acquire);
      registry.save(file.path);
      for (const SavedRow& row : saved_rows(file.path)) {
        ++rows_seen;
        if (row.hits != "5") ++wrong_hits;
      }
    }
  });
  registry.merge_text(text, "race");
  merged.store(true, std::memory_order_release);
  saver.join();
  EXPECT_EQ(wrong_hits, 0u) << "of " << rows_seen << " rows written";
  EXPECT_GE(rows_seen, static_cast<std::size_t>(kFresh));
}

// A save() racing publish() under a one-generation age-out: a
// just-published entry is born requested-fresh, so its first save
// writes it with age 0 and only later saves drop it.  Each save must
// drop exactly the entries earlier saves already wrote — one more means
// a fresh entry was aged out before it ever reached a file.
TEST(RegistryConcurrency, SaveRacingPublishNeverAgesOutAFreshEntry) {
  TempFile file("registry_concurrency_publish_race.txt");
  constexpr int kFresh = 2000;
  PlanRegistry registry(4);
  registry.set_max_idle_generations(1);
  std::atomic<bool> published{false};
  std::set<std::string> written;
  std::size_t aged_fresh = 0;
  std::size_t bad_rows = 0;
  std::thread saver([&] {
    bool last_pass = false;
    while (!last_pass) {
      last_pass = published.load(std::memory_order_acquire);
      const std::uint64_t aged_before = registry.aged_out();
      registry.save(file.path);
      const std::uint64_t dropped = registry.aged_out() - aged_before;
      if (dropped > written.size()) aged_fresh += dropped - written.size();
      for (const SavedRow& row : saved_rows(file.path)) {
        if (row.age != "0" || !written.insert(row.signature).second) {
          ++bad_rows;
        }
      }
    }
  });
  for (int s = 0; s < kFresh; ++s) {
    registry.publish(sig(1000 + s), plan_of(0, s, 1));
  }
  published.store(true, std::memory_order_release);
  saver.join();
  EXPECT_EQ(aged_fresh, 0u) << "fresh entries aged out before any save";
  EXPECT_EQ(bad_rows, 0u) << "rows written twice or with an age above 0";
  EXPECT_EQ(written.size(), static_cast<std::size_t>(kFresh));
}

}  // namespace
}  // namespace barracuda::serve
