// PlanRegistry unit suite: better-wins publication, counters, the
// versioned text format (round-trip, determinism, corrupt-file
// rejection, atomic replacement) and signature canonicalization.
#include "serve/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "serve/signature.hpp"
#include "support/error.hpp"

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
    std::remove((path + ".corrupt").c_str());  // kSalvage's quarantine
  }
  std::string path;
};

PlanEntry entry(double us, bool tuned, std::size_t variant = 0) {
  PlanEntry e;
  e.variant = variant;
  e.recipe_text =
      "kernel 1: tx=i ty=1 bx=j by=1 seq=k unroll=2 registers=1 shared=-\n";
  e.modeled_us = us;
  e.tuned = tuned;
  return e;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

TEST(BetterPlan, FasterWinsTunedBreaksTies) {
  EXPECT_TRUE(better_plan(entry(1, false), entry(2, true)));
  EXPECT_FALSE(better_plan(entry(2, true), entry(1, false)));
  EXPECT_TRUE(better_plan(entry(5, true), entry(5, false)));
  EXPECT_FALSE(better_plan(entry(5, false), entry(5, true)));
  // Full tie: incumbent keeps (idempotent merges).
  EXPECT_FALSE(better_plan(entry(5, true), entry(5, true)));
  EXPECT_FALSE(better_plan(entry(5, false), entry(5, false)));
}

TEST(PlanRegistry, PublishIsBetterWins) {
  PlanRegistry registry;
  EXPECT_TRUE(registry.publish("sig", entry(100, false)));
  EXPECT_EQ(registry.upgrades(), 0u);

  // A slower plan never displaces the incumbent.
  EXPECT_FALSE(registry.publish("sig", entry(200, true)));
  PlanEntry current;
  ASSERT_TRUE(registry.peek("sig", &current));
  EXPECT_EQ(current.modeled_us, 100);

  // A faster one does, and counts as an upgrade.
  EXPECT_TRUE(registry.publish("sig", entry(50, true)));
  EXPECT_EQ(registry.upgrades(), 1u);
  ASSERT_TRUE(registry.peek("sig", &current));
  EXPECT_TRUE(current.tuned);
  EXPECT_EQ(current.modeled_us, 50);

  // Equal-time tuned beats an untuned incumbent, but nothing else.
  PlanRegistry tie;
  tie.publish("sig", entry(50, false));
  EXPECT_TRUE(tie.publish("sig", entry(50, true)));
  EXPECT_FALSE(tie.publish("sig", entry(50, true)));
}

TEST(PlanRegistry, PublishAndGetReturnsIncumbent) {
  PlanRegistry registry;
  PlanEntry got = registry.publish_and_get("sig", entry(100, false));
  EXPECT_EQ(got.modeled_us, 100);
  // Publishing something slower returns the existing better entry — the
  // cold-path guarantee that a request never serves worse than current.
  got = registry.publish_and_get("sig", entry(500, false));
  EXPECT_EQ(got.modeled_us, 100);
  got = registry.publish_and_get("sig", entry(10, true));
  EXPECT_EQ(got.modeled_us, 10);
  EXPECT_EQ(registry.upgrades(), 1u);
}

TEST(PlanRegistry, LookupCountsPeekDoesNot) {
  PlanRegistry registry;
  registry.publish("sig", entry(1, true));
  PlanEntry e;
  EXPECT_TRUE(registry.lookup("sig", &e));
  EXPECT_FALSE(registry.lookup("other", &e));
  EXPECT_EQ(registry.hits(), 1u);
  EXPECT_EQ(registry.misses(), 1u);
  EXPECT_TRUE(registry.peek("sig", &e));
  EXPECT_FALSE(registry.peek("other", &e));
  EXPECT_TRUE(registry.contains("sig"));
  EXPECT_EQ(registry.hits(), 1u);
  EXPECT_EQ(registry.misses(), 1u);
}

TEST(PlanRegistryFile, SaveLoadRoundTripsExactly) {
  TempFile file("registry_roundtrip.txt");
  PlanRegistry registry;
  registry.publish("sigA", entry(123.456789012345678, true, 2));
  registry.publish("sigB", entry(1e-3, false));
  registry.save(file.path);

  PlanRegistry loaded;
  EXPECT_EQ(loaded.load(file.path), 2u);
  EXPECT_EQ(loaded.size(), 2u);
  PlanEntry a, b;
  ASSERT_TRUE(loaded.peek("sigA", &a));
  ASSERT_TRUE(loaded.peek("sigB", &b));
  // %.17g round-trips IEEE doubles exactly; every field survives.
  PlanEntry expect_a = entry(123.456789012345678, true, 2);
  PlanEntry expect_b = entry(1e-3, false);
  EXPECT_EQ(a, expect_a);
  EXPECT_EQ(b, expect_b);

  // The file is deterministic: saving the loaded registry reproduces it
  // byte for byte.
  TempFile copy("registry_roundtrip_copy.txt");
  loaded.save(copy.path);
  EXPECT_EQ(read_file(file.path), read_file(copy.path));
}

TEST(PlanRegistryFile, LoadMergesBetterWins) {
  TempFile file("registry_merge.txt");
  PlanRegistry on_disk;
  on_disk.publish("shared", entry(100, false));
  on_disk.publish("disk_only", entry(7, true));
  on_disk.save(file.path);

  PlanRegistry registry;
  registry.publish("shared", entry(50, true));   // better than the file
  registry.publish("mem_only", entry(9, false));
  EXPECT_EQ(registry.load(file.path), 2u);
  EXPECT_EQ(registry.size(), 3u);
  PlanEntry e;
  ASSERT_TRUE(registry.peek("shared", &e));
  EXPECT_EQ(e.modeled_us, 50);  // in-memory entry was better, kept
  // load() is replication, not tuning progress: no upgrade counted.
  EXPECT_EQ(registry.upgrades(), 0u);

  // The other direction: a better file entry displaces the in-memory one.
  PlanRegistry worse;
  worse.publish("shared", entry(500, false));
  worse.load(file.path);
  ASSERT_TRUE(worse.peek("shared", &e));
  EXPECT_EQ(e.modeled_us, 100);
}

TEST(PlanRegistryFile, MergeSaveComposesAndReportsAbsorbed) {
  TempFile file("registry_merge_save.txt");
  PlanRegistry first;
  first.publish("sigA", entry(10, true));
  EXPECT_EQ(first.merge_save(file.path), 0u);  // no pre-existing file

  PlanRegistry second;
  second.publish("sigB", entry(20, false));
  EXPECT_EQ(second.merge_save(file.path), 1u);  // absorbed sigA

  PlanRegistry loaded;
  loaded.load(file.path);
  EXPECT_EQ(loaded.size(), 2u);
}

TEST(PlanRegistryFile, CorruptFilesRejectedLoudly) {
  TempFile file("registry_corrupt.txt");
  const std::string recipe =
      "kernel 1: tx=i ty=1 bx=j by=1 seq=k unroll=2 registers=1 shared=-";
  const std::string header = "barracuda-planregistry v1\n";

  PlanRegistry registry;
  // Missing file.
  EXPECT_THROW(registry.load(file.path), Error);
  // Wrong/future header (v1 and v2 both load; v3 does not exist yet).
  write_file(file.path, "barracuda-planregistry v3\n");
  EXPECT_THROW(registry.load(file.path), Error);
  write_file(file.path, "something else\n");
  EXPECT_THROW(registry.load(file.path), Error);
  // Wrong field count (torn line).
  write_file(file.path, header + "12.5\t1\t0\t" + recipe + "\n");
  EXPECT_THROW(registry.load(file.path), Error);
  // Bad value.
  write_file(file.path, header + "abc\t1\t0\t" + recipe + "\tsig\n");
  EXPECT_THROW(registry.load(file.path), Error);
  // Non-finite value.
  write_file(file.path, header + "inf\t1\t0\t" + recipe + "\tsig\n");
  EXPECT_THROW(registry.load(file.path), Error);
  write_file(file.path, header + "nan\t1\t0\t" + recipe + "\tsig\n");
  EXPECT_THROW(registry.load(file.path), Error);
  // Bad tuned flag.
  write_file(file.path, header + "12.5\t2\t0\t" + recipe + "\tsig\n");
  EXPECT_THROW(registry.load(file.path), Error);
  // Bad variant index.
  write_file(file.path, header + "12.5\t1\tx\t" + recipe + "\tsig\n");
  EXPECT_THROW(registry.load(file.path), Error);
  // Unparseable recipe.
  write_file(file.path, header + "12.5\t1\t0\tgarbage\tsig\n");
  EXPECT_THROW(registry.load(file.path), Error);
  // v2 demand columns: a non-numeric age or hit count is corruption,
  // and a v2 line with the v1 field count is a torn line, not legacy.
  const std::string v2 = "barracuda-planregistry v2\n";
  write_file(file.path, v2 + "12.5\t1\t0\tx\t7\t" + recipe + "\tsig\n");
  EXPECT_THROW(registry.load(file.path), Error);
  write_file(file.path, v2 + "12.5\t1\t0\t1\t3.5\t" + recipe + "\tsig\n");
  EXPECT_THROW(registry.load(file.path), Error);
  write_file(file.path, v2 + "12.5\t1\t0\t" + recipe + "\tsig\n");
  EXPECT_THROW(registry.load(file.path), Error);
  // Nothing garbled leaked into the registry.
  EXPECT_EQ(registry.size(), 0u);

  // Blank lines are tolerated (trailing newline artifacts, not
  // corruption).
  write_file(file.path, header + "\n12.5\t1\t0\t" + recipe + "\tsig\n\n");
  EXPECT_EQ(registry.load(file.path), 1u);
}

TEST(PlanRegistryFile, SaveReplacesAtomicallyAndValidatesUpFront) {
  TempFile file("registry_atomic.txt");
  PlanRegistry registry;
  registry.publish("sig", entry(10, true));
  registry.save(file.path);
  const std::string before = read_file(file.path);

  // A save that must fail validation leaves the published file intact.
  PlanRegistry bad;
  bad.publish("sig\twith\ttabs", entry(1, true));
  EXPECT_THROW(bad.save(file.path), Error);
  EXPECT_EQ(read_file(file.path), before);

  PlanRegistry empty_recipe;
  PlanEntry no_recipe = entry(1, true);
  no_recipe.recipe_text.clear();
  empty_recipe.publish("sig", no_recipe);
  EXPECT_THROW(empty_recipe.save(file.path), Error);
  EXPECT_EQ(read_file(file.path), before);
}

// ---- Persistence recovery (support::RecoveryPolicy::kSalvage) ----

/// A damaged registry: two parseable entries interleaved with every
/// per-line corruption class load() detects (field count, bad time,
/// bad tuned flag, bad variant, unparseable recipe).
// A bulk merge of never-seen signatures seeds each new slot's demand
// from its own row, in the same pass that installs the entries: through
// merge_text and load() alike, every row keeps its hits and age.
TEST(PlanRegistryFile, BulkMergeOfFreshSignaturesKeepsEveryRowsDemand) {
  constexpr int kRows = 20000;
  auto hits_of = [](int i) { return static_cast<std::uint64_t>(i % 97 + 1); };
  auto age_of = [](int i) { return static_cast<std::uint64_t>(i % 5); };
  auto sig_of = [](int i) { return "bulk|n=" + std::to_string(i) + ",|"; };
  std::string text = "barracuda-planregistry v2\n";
  for (int i = 0; i < kRows; ++i) {
    text += "12.5\t1\t0\t" + std::to_string(age_of(i)) + "\t" +
            std::to_string(hits_of(i)) +
            "\tkernel 1: tx=i ty=1 bx=j by=1 seq=k unroll=2 registers=1 "
            "shared=-\t" + sig_of(i) + "\n";
  }
  TempFile file("registry_bulk_merge.txt");
  write_file(file.path, text);
  PlanRegistry merged(4);
  PlanRegistry loaded(4);
  EXPECT_EQ(merged.merge_text(text, "bulk"), static_cast<std::size_t>(kRows));
  EXPECT_EQ(loaded.load(file.path), static_cast<std::size_t>(kRows));
  for (const PlanRegistry* registry : {&merged, &loaded}) {
    EXPECT_EQ(registry->size(), static_cast<std::size_t>(kRows));
    int wrong = 0;
    for (int i = 0; i < kRows; ++i) {
      DemandStats demand;
      if (!registry->demand(sig_of(i), &demand) ||
          demand.requests != hits_of(i) ||
          demand.idle_generations != age_of(i)) {
        ++wrong;
      }
    }
    EXPECT_EQ(wrong, 0) << "rows lost their file demand";
  }
}

std::string corrupt_registry_body() {
  const std::string recipe =
      "kernel 1: tx=i ty=1 bx=j by=1 seq=k unroll=2 registers=1 shared=-";
  return "barracuda-planregistry v1\n"
         "10\t1\t0\t" + recipe + "\tgood-sig-one\n"
         "only\ttwo\n"
         "not-a-number\t1\t0\t" + recipe + "\tbad-time\n"
         "10\t2\t0\t" + recipe + "\tbad-tuned-flag\n"
         "10\t1\tx\t" + recipe + "\tbad-variant\n"
         "10\t1\t0\tnot a recipe at all\tbad-recipe\n"
         "20\t0\t1\t" + recipe + "\tgood-sig-two\n";
}

TEST(PlanRegistryRecovery, SalvageKeepsExactlyTheParseableEntries) {
  TempFile file("registry_salvage.txt");
  write_file(file.path, corrupt_registry_body());

  PlanRegistry registry;
  support::SalvageReport report;
  EXPECT_EQ(registry.load(file.path, support::RecoveryPolicy::kSalvage,
                          &report),
            2u);
  EXPECT_EQ(report.kept, 2u);
  EXPECT_EQ(report.dropped, 5u);
  EXPECT_TRUE(report.salvaged());
  EXPECT_EQ(report.quarantine_path, file.path + ".corrupt");

  PlanEntry e;
  ASSERT_TRUE(registry.peek("good-sig-one", &e));
  EXPECT_EQ(e.modeled_us, 10);
  EXPECT_TRUE(e.tuned);
  ASSERT_TRUE(registry.peek("good-sig-two", &e));
  EXPECT_EQ(e.modeled_us, 20);
  EXPECT_FALSE(e.tuned);
  EXPECT_EQ(e.variant, 1u);
  EXPECT_EQ(registry.size(), 2u);

  // Quarantined: a strict load now finds no file, the evidence moved to
  // `.corrupt` byte for byte.
  PlanRegistry strict;
  EXPECT_THROW(strict.load(file.path), Error);
  EXPECT_EQ(read_file(report.quarantine_path), corrupt_registry_body());
}

TEST(PlanRegistryRecovery, SalvageOfBadHeaderKeepsNothing) {
  TempFile file("registry_salvage_header.txt");
  const std::string recipe =
      "kernel 1: tx=i ty=1 bx=j by=1 seq=k unroll=2 registers=1 shared=-";
  write_file(file.path,
             "barracuda-planregistry v9\n10\t1\t0\t" + recipe + "\tsig\n");

  PlanRegistry registry;
  support::SalvageReport report;
  EXPECT_EQ(registry.load(file.path, support::RecoveryPolicy::kSalvage,
                          &report),
            0u);
  EXPECT_EQ(report.kept, 0u);
  EXPECT_EQ(report.dropped, 1u);  // the header itself
  EXPECT_TRUE(report.salvaged());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(PlanRegistryRecovery, DefaultPolicyStillRejectsLoudly) {
  TempFile file("registry_salvage_default.txt");
  write_file(file.path, corrupt_registry_body());
  PlanRegistry registry;
  EXPECT_THROW(registry.load(file.path), Error);
  // Strict rejection must not quarantine or move anything.
  EXPECT_TRUE(std::ifstream(file.path).good());
  EXPECT_FALSE(std::ifstream(file.path + ".corrupt").good());
}

TEST(PlanRegistryRecovery, CleanFileUnderSalvageIsUntouched) {
  TempFile file("registry_salvage_clean.txt");
  PlanRegistry registry;
  registry.publish("sig", entry(5, true));
  registry.save(file.path);

  PlanRegistry loaded;
  support::SalvageReport report;
  EXPECT_EQ(loaded.load(file.path, support::RecoveryPolicy::kSalvage,
                        &report),
            1u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_FALSE(report.salvaged());
  EXPECT_TRUE(std::ifstream(file.path).good());
  EXPECT_FALSE(std::ifstream(file.path + ".corrupt").good());
}

// The full --recover round trip: salvage, merge better-wins, republish
// clean, and the next STRICT load succeeds.
TEST(PlanRegistryRecovery, MergeSaveSalvagesAndRepublishesClean) {
  TempFile file("registry_salvage_roundtrip.txt");
  write_file(file.path, corrupt_registry_body());

  PlanRegistry registry;
  registry.publish("good-sig-one", entry(5, true));  // beats the file's 10
  EXPECT_EQ(registry.merge_save(file.path,
                                support::RecoveryPolicy::kSalvage),
            2u);

  PlanRegistry reloaded;
  EXPECT_EQ(reloaded.load(file.path), 2u);  // strict: the file is clean
  PlanEntry e;
  ASSERT_TRUE(reloaded.peek("good-sig-one", &e));
  EXPECT_EQ(e.modeled_us, 5);  // better-wins merge kept the in-memory plan
  ASSERT_TRUE(reloaded.peek("good-sig-two", &e));
  EXPECT_EQ(e.modeled_us, 20);
}

TEST(Signature, CanonicalizesAcrossNamesAndDevices) {
  const char* dsl = R"(
dim i j k = 4
C[i j] = Sum([k], A[i k] * B[k j])
)";
  core::TuningProblem p1 = core::TuningProblem::from_dsl(dsl, "one");
  core::TuningProblem p2 = core::TuningProblem::from_dsl(dsl, "two");
  auto k20 = vgpu::DeviceProfile::tesla_k20();
  auto gtx = vgpu::DeviceProfile::gtx980();
  // Same computation, different display names: same signature.
  EXPECT_EQ(signature(p1, k20), signature(p2, k20));
  EXPECT_EQ(signature(p1, k20), signature_of_dsl(dsl, k20));
  // Different device: different signature.
  EXPECT_NE(signature(p1, k20), signature(p1, gtx));
  // Different extents: different signature.
  core::TuningProblem bigger = core::TuningProblem::from_dsl(R"(
dim i j k = 8
C[i j] = Sum([k], A[i k] * B[k j])
)");
  EXPECT_NE(signature(p1, k20), signature(bigger, k20));
  // Registry-format safe: no tabs or newlines.
  EXPECT_EQ(signature(p1, k20).find_first_of("\t\n"), std::string::npos);
}

}  // namespace
}  // namespace barracuda::serve
