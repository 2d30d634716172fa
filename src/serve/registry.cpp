#include "serve/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/filelock.hpp"
#include "support/str.hpp"

namespace barracuda::serve {
namespace {

// On-disk format (line-oriented text; one plan per line):
//
//   barracuda-planregistry v2
//   <modeled_us>\t<tuned 0|1>\t<variant>\t<age>\t<hits>\t<recipe>\t<signature>
//   ...
//
// modeled_us prints with %.17g (exact IEEE round-trip).  The recipe
// field is core::serialize_recipe text with its newlines replaced by
// ';' so the whole entry stays one line; recipe lines themselves never
// contain ';' (identifiers, digits, ',', '-', '=').  Signatures are
// '|'/','/';'-separated to_string()s, free of tabs and newlines.
//
// v2 added the two demand columns: `age` counts consecutive saves since
// the signature was last requested (the age-out policy drops entries
// whose age reaches the configured limit at save time) and `hits` is
// the cumulative request count unioned across every process that ever
// merge_saved this file.  Legacy v1 files (no demand columns) still
// load; their entries start with fresh demand.
constexpr const char* kHeader = "barracuda-planregistry v2";
constexpr const char* kHeaderV1 = "barracuda-planregistry v1";

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

bool better_plan(const PlanEntry& a, const PlanEntry& b) {
  if (a.modeled_us != b.modeled_us) return a.modeled_us < b.modeled_us;
  return a.tuned && !b.tuned;
}

std::string flatten_recipe(const std::string& recipe_text) {
  std::string flat = recipe_text;
  std::replace(flat.begin(), flat.end(), '\n', ';');
  while (!flat.empty() && flat.back() == ';') flat.pop_back();
  return flat;
}

std::string unflatten_recipe(const std::string& flat) {
  std::string text = flat;
  std::replace(text.begin(), text.end(), ';', '\n');
  text.push_back('\n');
  return text;
}

std::size_t default_registry_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(64, round_up_pow2(std::max(1u, hw)));
}

PlanRegistry::PlanRegistry() : PlanRegistry(default_registry_shards()) {}

PlanRegistry::PlanRegistry(std::size_t shards)
    : shard_count_(round_up_pow2(std::max<std::size_t>(1, shards))),
      shards_(std::make_unique<Shard[]>(shard_count_)) {}

std::size_t PlanRegistry::shard_index(const std::string& signature) const {
  return std::hash<std::string>{}(signature) & (shard_count_ - 1);
}

PlanRegistry::Shard& PlanRegistry::shard_of(
    const std::string& signature) const {
  return shards_[shard_index(signature)];
}

bool PlanRegistry::lookup(const std::string& signature,
                          PlanEntry* entry) const {
  const Shard& shard = shard_of(signature);
  // No mutex — this is the warm serving path.
  std::shared_ptr<const ShardMap> snap = shard.slots.read();
  auto it = snap->find(signature);
  if (it == snap->end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  *entry = it->second.entry;
  return true;
}

bool PlanRegistry::contains(const std::string& signature) const {
  std::shared_ptr<const ShardMap> snap = shard_of(signature).slots.read();
  return snap->find(signature) != snap->end();
}

bool PlanRegistry::peek(const std::string& signature,
                        PlanEntry* entry) const {
  std::shared_ptr<const ShardMap> snap = shard_of(signature).slots.read();
  auto it = snap->find(signature);
  if (it == snap->end()) return false;
  *entry = it->second.entry;
  return true;
}

bool PlanRegistry::install(const std::string& signature,
                           const PlanEntry& entry, PlanEntry* served) {
  Shard& shard = shard_of(signature);
  return shard.slots.write([&](auto& draft) {
    auto it = draft.get().find(signature);
    const bool is_new = it == draft.get().end();
    if (!is_new && !better_plan(entry, it->second.entry)) {
      *served = it->second.entry;
      return false;
    }
    // An upgrade keeps the slot's demand; a new signature's demand is
    // born in the same snapshot as its entry, so no reader ever sees one
    // without the other.
    Slot& slot = draft.edit()[signature];
    slot.entry = entry;
    if (is_new) {
      slot.demand = std::make_shared<Demand>();
    } else {
      shard.upgrades.fetch_add(1, std::memory_order_relaxed);
    }
    *served = entry;
    return true;
  });
}

bool PlanRegistry::publish(const std::string& signature,
                           const PlanEntry& entry) {
  PlanEntry served;
  return install(signature, entry, &served);
}

PlanEntry PlanRegistry::publish_and_get(const std::string& signature,
                                        const PlanEntry& entry) {
  PlanEntry served;
  install(signature, entry, &served);
  return served;
}

std::size_t PlanRegistry::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].slots.read()->size();
  }
  return total;
}

std::size_t PlanRegistry::hits() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].hits.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t PlanRegistry::misses() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].misses.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t PlanRegistry::upgrades() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].upgrades.load(std::memory_order_relaxed);
  }
  return total;
}

void PlanRegistry::clear() {
  for (std::size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    shard.slots.reset();
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
    shard.upgrades.store(0, std::memory_order_relaxed);
  }
  aged_out_.store(0, std::memory_order_relaxed);
}

void PlanRegistry::record_demand(const std::string& signature,
                                 double served_us, std::uint64_t count) {
  if (count == 0) return;
  std::shared_ptr<const ShardMap> snap = shard_of(signature).slots.read();
  auto it = snap->find(signature);
  if (it == snap->end()) return;
  Demand& d = *it->second.demand;
  d.local_hits.fetch_add(count, std::memory_order_relaxed);
  // -1 = "requested since the last save"; save() folds it to age 0.
  d.idle.store(-1, std::memory_order_relaxed);
  d.served_us.record(served_us, count);
}

bool PlanRegistry::demand(const std::string& signature,
                          DemandStats* stats) const {
  std::shared_ptr<const ShardMap> snap = shard_of(signature).slots.read();
  auto it = snap->find(signature);
  if (it == snap->end()) return false;
  const Demand& d = *it->second.demand;
  stats->requests = d.requests();
  const std::int64_t idle = d.idle.load(std::memory_order_relaxed);
  stats->idle_generations =
      idle < 0 ? 0 : static_cast<std::uint64_t>(idle);
  stats->served_us = d.served_us.snapshot();
  return true;
}

std::vector<HotSignature> PlanRegistry::hottest(
    std::size_t k, std::uint64_t min_requests) const {
  if (min_requests == 0) min_requests = 1;
  std::vector<HotSignature> ranked;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    std::shared_ptr<const ShardMap> snap = shards_[s].slots.read();
    for (const auto& [sig, slot] : *snap) {
      const std::uint64_t requests = slot.demand->requests();
      if (requests < min_requests) continue;
      ranked.push_back({sig, requests, slot.entry.tuned});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const HotSignature& a, const HotSignature& b) {
              if (a.requests != b.requests) return a.requests > b.requests;
              return a.signature < b.signature;
            });
  if (k > 0 && ranked.size() > k) ranked.resize(k);
  return ranked;
}

std::uint64_t PlanRegistry::demand_requests() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    std::shared_ptr<const ShardMap> snap = shards_[s].slots.read();
    for (const auto& [sig, slot] : *snap) {
      total += slot.demand->requests();
    }
  }
  return total;
}

support::HistogramSnapshot PlanRegistry::served_latency() const {
  support::HistogramSnapshot merged = support::Histogram().snapshot();
  for (std::size_t s = 0; s < shard_count_; ++s) {
    std::shared_ptr<const ShardMap> snap = shards_[s].slots.read();
    for (const auto& [sig, slot] : *snap) {
      merged.merge(slot.demand->served_us.snapshot());
    }
  }
  return merged;
}

/// The shared serialization core of save() and to_text(): a gathered
/// point-in-time view (rows to persist, rows diverted by age-out) plus
/// the demand readings fold_rows() needs once the bytes have published.
struct PlanRegistry::SaveBatch {
  struct Row {
    std::string signature;
    PlanEntry entry;
    std::shared_ptr<Demand> demand;
    std::int64_t idle_read = 0;      // idle value at gather time
    std::uint64_t local_read = 0;    // local_hits at gather time
    std::uint64_t age = 0;           // persisted age column
    std::uint64_t hits = 0;          // persisted hits column
  };
  std::vector<Row> rows;
  std::vector<Row> aged;  // diverted by age-out
};

std::unique_ptr<PlanRegistry::SaveBatch> PlanRegistry::gather_rows(
    bool apply_ageout) const {
  // Gather a point-in-time view from the shard snapshots (no mutex —
  // each shard's snapshot is immutable, and each slot carries its entry
  // and demand together) and sort globally by signature, so the
  // serialized text is deterministic and byte-identical for any shard
  // count.
  using Row = SaveBatch::Row;
  auto batch = std::make_unique<SaveBatch>();
  const bool age_out = apply_ageout;
  std::vector<Row>& rows = batch->rows;
  std::vector<Row>& aged = batch->aged;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    std::shared_ptr<const ShardMap> snap = shards_[s].slots.read();
    for (const auto& [signature, slot] : *snap) {
      Row row;
      row.signature = signature;
      row.entry = slot.entry;
      row.demand = slot.demand;
      const Demand& d = *slot.demand;
      row.idle_read = d.idle.load(std::memory_order_relaxed);
      row.local_read = d.local_hits.load(std::memory_order_relaxed);
      row.hits = d.base_hits.load(std::memory_order_relaxed) + row.local_read;
      // A save closes a generation: a signature requested since the
      // last save persists age 0; an idle one ages by one — but only
      // when the age-out policy is armed, so policy-free registries
      // round-trip byte-identically no matter how often they save.
      row.age = row.idle_read < 0
                    ? 0
                    : static_cast<std::uint64_t>(row.idle_read) +
                          (age_out ? 1 : 0);
      if (age_out && row.age >= max_idle_generations_) {
        // `registry.save.ageout` models the age-out branch failing
        // (fires before any filesystem work, so the target file stays
        // intact).
        support::fault::maybe_throw("registry.save.ageout");
        // The aged entry stops being persisted but its in-memory
        // demand keeps aging — folded with the kept rows below, only
        // once the new file has actually published.
        aged.push_back(std::move(row));
        continue;
      }
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.signature < b.signature;
  });

  // Validate at gather time so a serialization error never leaves a
  // partial temp file (or a half-built wire payload) behind.
  for (const Row& row : rows) {
    if (row.signature.find_first_of("\t\n") != std::string::npos) {
      throw Error("plan registry signature contains tab/newline, "
                  "not serializable: " + row.signature);
    }
    if (row.entry.recipe_text.find_first_of("\t;") != std::string::npos) {
      throw Error("plan registry recipe contains tab/';', "
                  "not serializable (signature " + row.signature + ")");
    }
    if (flatten_recipe(row.entry.recipe_text).empty()) {
      throw Error("plan registry entry has an empty recipe (signature " +
                  row.signature + ")");
    }
    if (!std::isfinite(row.entry.modeled_us)) {
      throw Error("plan registry modeled time for '" + row.signature +
                  "' is not finite, not serializable");
    }
  }
  return batch;
}

std::string PlanRegistry::render_rows(const SaveBatch& batch) {
  std::string text = kHeader;
  text.push_back('\n');
  char time_text[64];
  for (const SaveBatch::Row& row : batch.rows) {
    std::snprintf(time_text, sizeof time_text, "%.17g",
                  row.entry.modeled_us);
    text += time_text;
    text.push_back('\t');
    text += row.entry.tuned ? '1' : '0';
    text.push_back('\t');
    text += std::to_string(row.entry.variant);
    text.push_back('\t');
    text += std::to_string(row.age);
    text.push_back('\t');
    text += std::to_string(row.hits);
    text.push_back('\t');
    text += flatten_recipe(row.entry.recipe_text);
    text.push_back('\t');
    text += row.signature;
    text.push_back('\n');
  }
  return text;
}

void PlanRegistry::fold_rows(const SaveBatch& batch) const {
  // The serialized bytes have published; fold what they recorded into
  // the live demand so the NEXT serialization unions instead of
  // double-counting: the persisted hit count becomes the new baseline
  // (local increments recorded since the gather survive the
  // subtraction), and the persisted age becomes the new idle value —
  // unless a request arrived meanwhile (idle went to -1), which must
  // not be overwritten.
  auto fold = [](const SaveBatch::Row& row) {
    std::int64_t expected = row.idle_read;
    row.demand->idle.compare_exchange_strong(
        expected, static_cast<std::int64_t>(row.age),
        std::memory_order_relaxed);
    row.demand->base_hits.store(row.hits, std::memory_order_relaxed);
    if (row.local_read > 0) {
      row.demand->local_hits.fetch_sub(row.local_read,
                                       std::memory_order_relaxed);
    }
  };
  for (const SaveBatch::Row& row : batch.rows) fold(row);
  for (const SaveBatch::Row& row : batch.aged) fold(row);
  aged_out_.fetch_add(batch.aged.size(), std::memory_order_relaxed);
}

void PlanRegistry::save(const std::string& path) const {
  // Serialize against concurrent save()s on this registry: the
  // post-publish counter folding must see its own reads.
  std::lock_guard<std::mutex> save_lock(save_mutex_);
  std::unique_ptr<SaveBatch> batch =
      gather_rows(/*apply_ageout=*/max_idle_generations_ > 0);
  const std::string text = render_rows(*batch);

  // Atomic publish, exactly like EvalCache::save: complete temp file,
  // then rename(2) over the target — readers see the previous complete
  // registry or the new one, never a torn file.
  const std::string tmp =
      path + ".tmp." + std::to_string(support::process_tag());
  {
    // `registry.save.open` models the temp file failing to open (full
    // disk, unwritable directory) — same path as a real ofstream error.
    std::ofstream out(support::fault::hit("registry.save.open") ? "" : tmp);
    if (!out) throw Error("cannot write plan registry: " + tmp);
    out << text;
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw Error("failed writing plan registry: " + tmp);
    }
  }
  // `registry.save.rename` models a failed publish: the target is left
  // unchanged, exactly like a cross-device or permission rename failure.
  if (support::fault::hit("registry.save.rename") ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("cannot publish plan registry: rename " + tmp + " -> " +
                path);
  }
  fold_rows(*batch);
}

std::string PlanRegistry::to_text() const {
  std::lock_guard<std::mutex> save_lock(save_mutex_);
  // No age-out over the wire: ageing is a generation of the FILE, and
  // an anti-entropy exchange must ship everything this node serves.
  std::unique_ptr<SaveBatch> batch = gather_rows(/*apply_ageout=*/false);
  std::string text = render_rows(*batch);
  // Handing the bytes to the caller counts as publishing them — the
  // folded baseline is exactly what the text carries.
  fold_rows(*batch);
  return text;
}

void PlanRegistry::merge_entries(std::vector<FileRow> rows) {
  // Group by owning shard, then apply each group in ONE shard write: a
  // bulk load of N rows costs at most one snapshot copy per shard, and
  // none for a shard where every row loses to its incumbent.
  std::vector<std::vector<FileRow>> by_shard(shard_count_);
  for (FileRow& row : rows) {
    by_shard[shard_index(row.signature)].push_back(std::move(row));
  }
  for (std::size_t s = 0; s < shard_count_; ++s) {
    if (by_shard[s].empty()) continue;
    shards_[s].slots.write([&](auto& draft) {
      for (FileRow& row : by_shard[s]) {
        auto it = draft.get().find(row.signature);
        if (it == draft.get().end()) {
          // First sighting: the slot's demand IS the file's state.
          auto demand = std::make_shared<Demand>();
          demand->base_hits.store(row.hits, std::memory_order_relaxed);
          demand->idle.store(static_cast<std::int64_t>(row.age),
                             std::memory_order_relaxed);
          draft.edit().emplace(std::move(row.signature),
                               Slot{std::move(row.entry), std::move(demand)});
          continue;
        }
        // Demand merges independently of better-wins: even when the
        // row's entry loses to a faster incumbent, its recorded demand
        // is real traffic and joins the union.  The record is shared
        // with the published snapshot, so reconciling needs no copy.
        // Request counts: every v2 file carries the union as of its
        // save, so the baselines reconcile by max, never by addition
        // (addition would double-count the shared history).
        Demand& d = *it->second.demand;
        std::uint64_t base = d.base_hits.load(std::memory_order_relaxed);
        while (row.hits > base &&
               !d.base_hits.compare_exchange_weak(
                   base, row.hits, std::memory_order_relaxed)) {
        }
        // Ages reconcile by freshest-wins: -1 (requested in this
        // process) beats any file age, otherwise the smaller age stands.
        std::int64_t cur = d.idle.load(std::memory_order_relaxed);
        const auto age = static_cast<std::int64_t>(row.age);
        while (cur != -1 && age < cur &&
               !d.idle.compare_exchange_weak(cur, age,
                                             std::memory_order_relaxed)) {
        }
        // Never counts upgrades — load is replication, not tuning
        // progress.
        if (better_plan(row.entry, it->second.entry)) {
          draft.edit()[row.signature].entry = std::move(row.entry);
        }
      }
    });
  }
}

std::size_t PlanRegistry::merge_stream(std::istream& in,
                                       const std::string& source,
                                       support::RecoveryPolicy policy,
                                       support::SalvageReport* local_report) {
  const bool salvage = policy == support::RecoveryPolicy::kSalvage;
  support::SalvageReport& local = *local_report;

  // Under kSalvage a malformed line is dropped instead of thrown.
  auto reject = [&](const std::string& message) {
    if (!salvage) throw Error(message);
    ++local.dropped;
  };

  std::string line;
  int version = 0;
  if (!std::getline(in, line)) {
    reject("not a barracuda plan registry (bad or missing '" +
           std::string(kHeader) + "' header): " + source);
    in.setstate(std::ios::eofbit);
  } else if (line == kHeader) {
    version = 2;
  } else if (line == kHeaderV1) {
    version = 1;
  } else {
    reject("not a barracuda plan registry (bad or missing '" +
           std::string(kHeader) + "' header): " + source);
    // A wrong header means nothing after it is trustworthy as
    // records: salvage keeps zero entries (load() quarantines).
    in.setstate(std::ios::eofbit);
  }
  // Parse everything first (throwing under kStrict leaves the registry
  // untouched — load stays all-or-nothing), then bulk-merge per shard.
  // v1 lines have 5 fields, v2 lines add the age and hits columns.
  const std::size_t field_count = version == 1 ? 5 : 7;
  const char* shape = version == 1
      ? "expected <us>\\t<tuned>\\t<variant>\\t<recipe>\\t<sig>"
      : "expected <us>\\t<tuned>\\t<variant>\\t<age>\\t<hits>\\t<recipe>"
        "\\t<sig>";
  std::vector<FileRow> parsed;
  std::size_t loaded = 0;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto fail = [&](const std::string& msg) {
      reject("corrupt plan registry at " + source + ":" +
             std::to_string(line_no) + ": " + msg);
    };
    std::vector<std::string> fields = split(line, '\t');
    if (fields.size() != field_count) {
      fail(shape);
      continue;
    }
    FileRow row;
    PlanEntry& entry = row.entry;
    char* end = nullptr;
    entry.modeled_us = std::strtod(fields[0].c_str(), &end);
    if (end == fields[0].c_str() || *end != '\0' ||
        !std::isfinite(entry.modeled_us)) {
      fail("bad modeled time '" + fields[0] + "'");
      continue;
    }
    if (fields[1] == "0") {
      entry.tuned = false;
    } else if (fields[1] == "1") {
      entry.tuned = true;
    } else {
      fail("bad tuned flag '" + fields[1] + "'");
      continue;
    }
    entry.variant =
        static_cast<std::size_t>(std::strtoull(fields[2].c_str(), &end, 10));
    if (end == fields[2].c_str() || *end != '\0') {
      fail("bad variant index '" + fields[2] + "'");
      continue;
    }
    if (version == 2) {
      row.age = std::strtoull(fields[3].c_str(), &end, 10);
      if (end == fields[3].c_str() || *end != '\0') {
        fail("bad idle age '" + fields[3] + "'");
        continue;
      }
      row.hits = std::strtoull(fields[4].c_str(), &end, 10);
      if (end == fields[4].c_str() || *end != '\0') {
        fail("bad hit count '" + fields[4] + "'");
        continue;
      }
    }
    const std::string& recipe_field = fields[field_count - 2];
    const std::string& signature = fields[field_count - 1];
    entry.recipe_text = unflatten_recipe(recipe_field);
    try {
      // The recipe must at least parse; lowering validates it against
      // the program at serve time.  The validation parse is KEPT in the
      // entry, so every warm hit on a loaded registry serves the parsed
      // recipe without ever calling parse_recipe again.
      entry.parsed = std::make_shared<const chill::Recipe>(
          core::parse_recipe(entry.recipe_text, source));
    } catch (const Error& e) {
      fail("unparseable recipe: " + std::string(e.what()));
      continue;
    }
    row.signature = signature;
    parsed.push_back(std::move(row));
    ++loaded;
  }
  // Better-wins merge: a loaded entry only displaces what this registry
  // already serves when it is actually faster.  v1 rows carry hits 0 /
  // age 0.
  merge_entries(std::move(parsed));
  local.kept = loaded;
  return loaded;
}

std::size_t PlanRegistry::load(const std::string& path,
                               support::RecoveryPolicy policy,
                               support::SalvageReport* report) {
  const bool salvage = policy == support::RecoveryPolicy::kSalvage;
  support::SalvageReport local;
  // `registry.load` models an unreadable file — failing before any
  // record lands keeps load() all-or-nothing under fault injection too.
  support::fault::maybe_throw("registry.load");
  std::ifstream in(path);
  if (!in) throw Error("cannot read plan registry: " + path);
  const std::size_t loaded = merge_stream(in, path, policy, &local);
  in.close();
  if (salvage && local.dropped > 0) {
    // Quarantine the damaged original; the salvaged state gets
    // re-published by the caller's next save.
    const std::string quarantine = path + ".corrupt";
    if (std::rename(path.c_str(), quarantine.c_str()) != 0) {
      throw Error("cannot quarantine corrupt plan registry: rename " + path +
                  " -> " + quarantine);
    }
    local.quarantine_path = quarantine;
  }
  if (report) *report = local;
  return loaded;
}

std::size_t PlanRegistry::merge_text(const std::string& text,
                                     const std::string& source,
                                     support::RecoveryPolicy policy,
                                     support::SalvageReport* report) {
  // The in-memory twin of load(): same parse, same better-wins entry
  // merge, same max/freshest demand union — but the bytes came off the
  // wire (or a test), so there is no file to quarantine.
  support::SalvageReport local;
  std::istringstream in(text);
  const std::size_t loaded = merge_stream(in, source, policy, &local);
  if (report) *report = local;
  return loaded;
}

std::size_t PlanRegistry::merge_save(const std::string& path,
                                     support::RecoveryPolicy policy) {
  // Serialize the whole read-modify-write against every other
  // merge_save on this path (threads and processes alike), exactly like
  // EvalCache::merge_save — see support::FileLock for the protocol.
  support::FileLock lock(path + ".lock");
  std::size_t absorbed = 0;
  {
    std::ifstream probe(path);
    if (probe.good()) {
      probe.close();
      absorbed = load(path, policy);
    }
  }
  save(path);
  return absorbed;
}

}  // namespace barracuda::serve
