// Cluster benchmark (DESIGN.md §14): one logical HyperModel database
// sharded over K in-process server fleets, measured through the
// routing shard:// client. Two modes:
//
//  - sweep (default): for each K in --shards=1,2,4 build the §5.2
//    database on a fresh K-shard loopback fleet and measure the two
//    ops the cluster changes most — seqScan (/*09*/, pure fan-out
//    bulk reads) and closure1N (/*10*/, pushdown vs scatter-gather).
//    Every fleet is built first, then timed in kSweepRounds rounds
//    with the K order alternating; a row is its median round. With
//    --json=PATH the sweep is written as BENCH_shard JSON.
//
//  - --verify-level=L: build level L twice — once on a single-node
//    remote loopback server, once on a max(--shards)-way fleet — run
//    all twenty operations with identical deterministically-chosen
//    inputs on both, and require uid-translated outputs to be
//    byte-identical (exact order for ordered results). Exits non-zero
//    on any mismatch; this is the cluster acceptance gate.
//
// Both sides of the verify run share one Generator seed, so position i
// of every TestDatabase vector names the same logical node on both
// stores; refs differ (the fleet's carry a shard byte) but uniqueIds
// match, which is what the comparison is phrased in.

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/backends/sharded_store.h"
#include "hypermodel/operations.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using hm::bench::CheckOk;

/// Timed rounds of the sweep; odd, so a row's median is one round.
constexpr int kSweepRounds = 7;

struct SweepRow {
  int shards = 0;
  std::string op;
  long units = 0;  // nodes scanned / closures run
  double wall_ms = 0;
  double per_sec = 0;
  // vs the first fleet's row of the same op: the ratio of the medians,
  // and the range of the per-round ratios.
  double speedup = 0;
  double speedup_min = 0;
  double speedup_max = 0;
};

int64_t Uid(hm::HyperStore* store, hm::NodeRef ref) {
  auto uid = store->GetAttr(ref, hm::Attr::kUniqueId);
  CheckOk(uid.status());
  return *uid;
}

std::vector<int64_t> Uids(hm::HyperStore* store,
                          const std::vector<hm::NodeRef>& refs) {
  std::vector<int64_t> out;
  out.reserve(refs.size());
  for (hm::NodeRef ref : refs) out.push_back(Uid(store, ref));
  return out;
}

// ---- verify mode ----------------------------------------------------

struct VerifyState {
  hm::HyperStore* single = nullptr;
  hm::HyperStore* fleet = nullptr;
  const hm::TestDatabase* db_single = nullptr;
  const hm::TestDatabase* db_fleet = nullptr;
  int failures = 0;
};

void Report(VerifyState* state, const std::string& op, bool ok,
            const std::string& detail) {
  std::cout << "  " << std::left << std::setw(28) << op
            << (ok ? "PASS" : "FAIL");
  if (!ok) {
    std::cout << "  " << detail;
    state->failures++;
  }
  std::cout << "\n";
}

template <typename T>
std::string DiffDetail(const std::vector<T>& a, const std::vector<T>& b) {
  std::ostringstream out;
  out << "single=" << a.size() << " items, fleet=" << b.size() << " items";
  size_t limit = std::min(a.size(), b.size());
  for (size_t i = 0; i < limit; ++i) {
    if (!(a[i] == b[i])) {
      out << "; first diff at [" << i << "]";
      break;
    }
  }
  return out.str();
}

// Ordered uid-list comparison (closures, children: order is part of
// the contract, §6.5 "children order preserved").
void CheckLists(VerifyState* state, const std::string& op,
                const std::vector<hm::NodeRef>& single_refs,
                const std::vector<hm::NodeRef>& fleet_refs) {
  std::vector<int64_t> a = Uids(state->single, single_refs);
  std::vector<int64_t> b = Uids(state->fleet, fleet_refs);
  Report(state, op, a == b, DiffDetail(a, b));
}

// Set-valued results (parts, refs, index scans): the paper's M-N
// relationships are sets, so compare sorted.
void CheckSets(VerifyState* state, const std::string& op,
               const std::vector<hm::NodeRef>& single_refs,
               const std::vector<hm::NodeRef>& fleet_refs) {
  std::vector<int64_t> a = Uids(state->single, single_refs);
  std::vector<int64_t> b = Uids(state->fleet, fleet_refs);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  Report(state, op, a == b, DiffDetail(a, b));
}

void CheckScalar(VerifyState* state, const std::string& op, int64_t a,
                 int64_t b) {
  std::ostringstream detail;
  detail << "single=" << a << " fleet=" << b;
  Report(state, op, a == b, detail.str());
}

// Runs all twenty §6 operations on both stores and compares. Inputs
// are drawn once from a fixed-seed RNG as *positions* into the
// TestDatabase vectors, so both sides see the same logical node.
int RunVerify(VerifyState* state, int probes) {
  const hm::TestDatabase& dbs = *state->db_single;
  const hm::TestDatabase& dbf = *state->db_fleet;
  hm::util::Rng rng(0xC1A57E12);
  auto pick = [&rng](size_t size) {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(size) - 1));
  };
  size_t closure_level = std::min<size_t>(3, dbs.nodes_by_level.size() - 2);
  const int depth = 25;

  for (int probe = 0; probe < probes; ++probe) {
    std::cout << " probe " << (probe + 1) << "/" << probes << "\n";
    size_t any = pick(dbs.all_nodes.size());
    size_t internal = pick(dbs.internal_nodes.size());
    size_t closure_start = pick(dbs.level(closure_level).size());
    int64_t hundred_x = rng.UniformInt(1, 91);
    int64_t million_x = rng.UniformInt(1, 990001);

    // /*01*/ + /*02*/ — name lookups, by uid and by ref.
    {
      int64_t uid = Uid(state->single, dbs.all_nodes[any]);
      auto a = hm::ops::NameLookup(state->single, uid);
      auto b = hm::ops::NameLookup(state->fleet, uid);
      CheckOk(a.status());
      CheckOk(b.status());
      CheckScalar(state, "01 nameLookup", *a, *b);
      auto a2 = hm::ops::NameOidLookup(state->single, dbs.all_nodes[any]);
      auto b2 = hm::ops::NameOidLookup(state->fleet, dbf.all_nodes[any]);
      CheckOk(a2.status());
      CheckOk(b2.status());
      CheckScalar(state, "02 nameOIDLookup", *a2, *b2);
    }
    // /*03*/ + /*04*/ — index range scans (run before the mutating
    // closure ops so both sides still hold creation-time values).
    {
      std::vector<hm::NodeRef> a, b;
      CheckOk(hm::ops::RangeLookupHundred(state->single, hundred_x, &a));
      CheckOk(hm::ops::RangeLookupHundred(state->fleet, hundred_x, &b));
      CheckSets(state, "03 rangeLookupHundred", a, b);
      a.clear();
      b.clear();
      CheckOk(hm::ops::RangeLookupMillion(state->single, million_x, &a));
      CheckOk(hm::ops::RangeLookupMillion(state->fleet, million_x, &b));
      CheckSets(state, "04 rangeLookupMillion", a, b);
    }
    // /*05A*/../*08*/ — group and reference lookups.
    {
      std::vector<hm::NodeRef> a, b;
      CheckOk(hm::ops::GroupLookup1N(state->single,
                                     dbs.internal_nodes[internal], &a));
      CheckOk(hm::ops::GroupLookup1N(state->fleet,
                                     dbf.internal_nodes[internal], &b));
      CheckLists(state, "05A groupLookup1N", a, b);
      a.clear();
      b.clear();
      CheckOk(hm::ops::GroupLookupMN(state->single,
                                     dbs.internal_nodes[internal], &a));
      CheckOk(hm::ops::GroupLookupMN(state->fleet,
                                     dbf.internal_nodes[internal], &b));
      CheckSets(state, "05B groupLookupMN", a, b);
      a.clear();
      b.clear();
      CheckOk(
          hm::ops::GroupLookupMNAtt(state->single, dbs.all_nodes[any], &a));
      CheckOk(
          hm::ops::GroupLookupMNAtt(state->fleet, dbf.all_nodes[any], &b));
      CheckSets(state, "06 groupLookupMNATT", a, b);

      auto pa = hm::ops::RefLookup1N(state->single, dbs.all_nodes[any]);
      auto pb = hm::ops::RefLookup1N(state->fleet, dbf.all_nodes[any]);
      if (pa.ok() != pb.ok()) {
        Report(state, "07A refLookup1N", false, "status mismatch");
      } else if (pa.ok()) {
        CheckScalar(state, "07A refLookup1N", Uid(state->single, *pa),
                    Uid(state->fleet, *pb));
      } else {
        Report(state, "07A refLookup1N", true, "");  // both rootless
      }
      a.clear();
      b.clear();
      CheckOk(hm::ops::RefLookupMN(state->single, dbs.all_nodes[any], &a));
      CheckOk(hm::ops::RefLookupMN(state->fleet, dbf.all_nodes[any], &b));
      CheckSets(state, "07B refLookupMN", a, b);
      a.clear();
      b.clear();
      CheckOk(
          hm::ops::RefLookupMNAtt(state->single, dbs.all_nodes[any], &a));
      CheckOk(
          hm::ops::RefLookupMNAtt(state->fleet, dbf.all_nodes[any], &b));
      CheckSets(state, "08 refLookupMNATT", a, b);
    }
    // /*10*/, /*13*/../*15*/, /*18*/ — read-only closures, exact order.
    {
      hm::NodeRef sa = dbs.level(closure_level)[closure_start];
      hm::NodeRef sb = dbf.level(closure_level)[closure_start];
      std::vector<hm::NodeRef> a, b;
      CheckOk(hm::ops::Closure1N(state->single, sa, &a));
      CheckOk(hm::ops::Closure1N(state->fleet, sb, &b));
      CheckLists(state, "10 closure1N", a, b);
      a.clear();
      b.clear();
      CheckOk(hm::ops::Closure1NPred(state->single, sa, million_x, &a));
      CheckOk(hm::ops::Closure1NPred(state->fleet, sb, million_x, &b));
      CheckLists(state, "13 closure1NPred", a, b);
      a.clear();
      b.clear();
      CheckOk(hm::ops::ClosureMN(state->single, sa, &a));
      CheckOk(hm::ops::ClosureMN(state->fleet, sb, &b));
      CheckLists(state, "14 closureMN", a, b);
      a.clear();
      b.clear();
      CheckOk(hm::ops::ClosureMNAtt(state->single, dbs.all_nodes[any],
                                    depth, &a));
      CheckOk(hm::ops::ClosureMNAtt(state->fleet, dbf.all_nodes[any],
                                    depth, &b));
      CheckLists(state, "15 closureMNATT", a, b);

      std::vector<hm::NodeDistance> da, db;
      CheckOk(hm::ops::ClosureMNAttLinkSum(state->single,
                                           dbs.all_nodes[any], depth, &da));
      CheckOk(hm::ops::ClosureMNAttLinkSum(state->fleet, dbf.all_nodes[any],
                                           depth, &db));
      std::vector<int64_t> flat_a, flat_b;
      for (const hm::NodeDistance& nd : da) {
        flat_a.push_back(Uid(state->single, nd.node));
        flat_a.push_back(nd.distance);
      }
      for (const hm::NodeDistance& nd : db) {
        flat_b.push_back(Uid(state->fleet, nd.node));
        flat_b.push_back(nd.distance);
      }
      Report(state, "18 closureMNATTLINKSUM", flat_a == flat_b,
             DiffDetail(flat_a, flat_b));
    }
    // /*11*/ + /*12*/ — attribute closures. closure1NAttSet runs twice
    // (it is self-inverse), restoring the hundred values it flipped.
    {
      hm::NodeRef sa = dbs.level(closure_level)[closure_start];
      hm::NodeRef sb = dbf.level(closure_level)[closure_start];
      uint64_t visited_a = 0, visited_b = 0;
      auto suma = hm::ops::Closure1NAttSum(state->single, sa, &visited_a);
      auto sumb = hm::ops::Closure1NAttSum(state->fleet, sb, &visited_b);
      CheckOk(suma.status());
      CheckOk(sumb.status());
      CheckScalar(state, "11 closure1NAttSum", *suma, *sumb);
      CheckScalar(state, "11 closure1NAttSum visited",
                  static_cast<int64_t>(visited_a),
                  static_cast<int64_t>(visited_b));
      for (int pass = 0; pass < 2; ++pass) {
        auto seta = hm::ops::Closure1NAttSet(state->single, sa);
        auto setb = hm::ops::Closure1NAttSet(state->fleet, sb);
        CheckOk(seta.status());
        CheckOk(setb.status());
        CheckScalar(state,
                    pass == 0 ? "12 closure1NAttSet" : "12 (inverse pass)",
                    static_cast<int64_t>(*seta),
                    static_cast<int64_t>(*setb));
      }
      auto suma2 = hm::ops::Closure1NAttSum(state->single, sa, nullptr);
      auto sumb2 = hm::ops::Closure1NAttSum(state->fleet, sb, nullptr);
      CheckOk(suma2.status());
      CheckOk(sumb2.status());
      CheckScalar(state, "12 post-restore sum", *suma2, *sumb2);
    }
    // /*09*/ — sequential scan of the whole test structure.
    {
      auto a = hm::ops::SeqScan(state->single, dbs.all_nodes);
      auto b = hm::ops::SeqScan(state->fleet, dbf.all_nodes);
      CheckOk(a.status());
      CheckOk(b.status());
      CheckScalar(state, "09 seqScan", static_cast<int64_t>(*a),
                  static_cast<int64_t>(*b));
    }
    // /*16*/ — text edit there and back, then compare the bytes.
    if (!dbs.text_nodes.empty()) {
      size_t text = pick(dbs.text_nodes.size());
      hm::NodeRef ta = dbs.text_nodes[text];
      hm::NodeRef tb = dbf.text_nodes[text];
      auto ea = hm::ops::TextNodeEdit(state->single, ta, "version1",
                                      "version-2");
      auto eb =
          hm::ops::TextNodeEdit(state->fleet, tb, "version1", "version-2");
      CheckOk(ea.status());
      CheckOk(eb.status());
      CheckScalar(state, "16 textNodeEdit", static_cast<int64_t>(*ea),
                  static_cast<int64_t>(*eb));
      CheckOk(hm::ops::TextNodeEdit(state->single, ta, "version-2",
                                    "version1")
                  .status());
      CheckOk(
          hm::ops::TextNodeEdit(state->fleet, tb, "version-2", "version1")
              .status());
      auto text_a = state->single->GetText(ta);
      auto text_b = state->fleet->GetText(tb);
      CheckOk(text_a.status());
      CheckOk(text_b.status());
      Report(state, "16 post-edit text bytes", *text_a == *text_b,
             "text content diverged");
    }
    // /*17*/ — form edit (self-inverse invert), compare serialized
    // bitmap bytes after one application and restore with a second.
    if (!dbs.form_nodes.empty()) {
      size_t form = pick(dbs.form_nodes.size());
      hm::NodeRef fa = dbs.form_nodes[form];
      hm::NodeRef fb = dbf.form_nodes[form];
      for (int pass = 0; pass < 2; ++pass) {
        CheckOk(hm::ops::FormNodeEdit(state->single, fa, 5, 7, 30, 25));
        CheckOk(hm::ops::FormNodeEdit(state->fleet, fb, 5, 7, 30, 25));
        if (pass == 0) {
          auto form_a = state->single->GetForm(fa);
          auto form_b = state->fleet->GetForm(fb);
          CheckOk(form_a.status());
          CheckOk(form_b.status());
          Report(state, "17 formNodeEdit bitmap",
                 form_a->Serialize() == form_b->Serialize(),
                 "bitmap bytes diverged");
        }
      }
    }
  }
  return state->failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> shard_counts{1, 2, 4};
  int verify_level = 0;
  int verify_probes = 3;
  std::vector<int> levels{5};
  hm::backends::RemoteMode remote_mode = hm::backends::RemoteMode::kPushdown;
  std::string json_path;
  hm::bench::Flags flags("bench_shard");
  flags.Add("shards", &shard_counts)
      .Add("verify-level", &verify_level)
      .Add("verify-probes", &verify_probes)
      .Add("levels", &levels)
      .Add("remote-mode", &remote_mode)
      .Add("json", &json_path)
      .Parse(argc, argv);
  if (levels.size() != 1 || shard_counts.empty()) {
    flags.Fail("needs one level and shard counts");
  }

  if (verify_level > 0) {
    int fleet_size = 1;
    for (int k : shard_counts) fleet_size = std::max(fleet_size, k);
    std::cout << "### Cluster verification: level " << verify_level
              << ", single-node remote vs " << fleet_size
              << "-shard fleet, all twenty operations\n\n";

    auto single = hm::backends::RemoteStore::Loopback(
        std::make_unique<hm::backends::MemStore>(), {}, remote_mode);
    CheckOk(single.status());
    auto fleet = hm::backends::ShardedStore::Loopback(
        static_cast<uint32_t>(fleet_size), remote_mode);
    CheckOk(fleet.status());

    hm::TestDatabase db_single =
        hm::bench::BuildDatabase(single->get(), verify_level, nullptr);
    hm::TestDatabase db_fleet =
        hm::bench::BuildDatabase(fleet->get(), verify_level, nullptr);
    std::cout << "(built " << db_single.node_count()
              << " nodes per side)\n\n";

    VerifyState state;
    state.single = single->get();
    state.fleet = fleet->get();
    state.db_single = &db_single;
    state.db_fleet = &db_fleet;
    int failures = RunVerify(&state, verify_probes);
    std::cout << "\n"
              << (failures == 0 ? "VERIFY PASS" : "VERIFY FAIL") << " ("
              << failures << " mismatch(es))\n";
    return failures == 0 ? 0 : 1;
  }

  const int level = levels[0];
  std::cout << "### Cluster sweep (DESIGN.md §14): shard:// client over "
               "K-shard loopback fleets, level "
            << level << ", median of " << kSweepRounds << " rounds\n\n";

  // Every fleet is built once; each round then times every row, in
  // ascending K on even rounds and descending on odd ones, so drift
  // over the run reaches both ends of a speed-up alike.
  struct Fleet {
    int shards = 0;
    std::unique_ptr<hm::HyperStore> store;
    hm::TestDatabase db;
    hm::util::Rng rng{17};  // closure starts
  };
  std::vector<Fleet> fleets(shard_counts.size());
  for (size_t k = 0; k < fleets.size(); ++k) {
    Fleet& fleet = fleets[k];
    fleet.shards = shard_counts[k];
    auto store = hm::backends::ShardedStore::Loopback(
        static_cast<uint32_t>(fleet.shards), remote_mode);
    CheckOk(store.status());
    fleet.store = std::move(*store);
    fleet.db = hm::bench::BuildDatabase(fleet.store.get(), level, nullptr);
  }
  const size_t closure_level =
      std::min<size_t>(3, fleets[0].db.nodes_by_level.size() - 2);

  // Each row repeats its op until it has timed at least kRowMinMs: a
  // level-5 scan is ~1-2 ms of work, and a few reps of it spread the
  // speed-up column far wider than the effects it is read for.
  constexpr double kRowMinMs = 100;
  constexpr int kRowMinReps = 5;
  // One round's row of `op`: `rep(&units)` runs one repetition and
  // adds what it visited.
  auto time_row = [&](const char* op, int shards, const auto& rep) {
    SweepRow row{shards, op};
    long reps = 0;
    hm::util::Timer timer;
    while (reps < kRowMinReps || timer.ElapsedMillis() < kRowMinMs) {
      rep(&row.units);
      ++reps;
    }
    row.wall_ms = timer.ElapsedMillis();
    row.per_sec = static_cast<double>(row.units) / (row.wall_ms / 1000.0);
    return row;
  };
  // /*09*/ seqScan: every node's ten attribute, per-sec = nodes/sec.
  auto seq_scan = [&](Fleet& fleet) {
    return time_row("seq_scan", fleet.shards, [&](long* units) {
      auto count = hm::ops::SeqScan(fleet.store.get(), fleet.db.all_nodes);
      CheckOk(count.status());
      *units += static_cast<long>(*count);
    });
  };
  // /*10*/ closure1N from random level-3 starts, per-sec = closures/sec.
  auto closure_1n = [&](Fleet& fleet) {
    const auto& pool = fleet.db.level(closure_level);
    return time_row("closure_1n", fleet.shards, [&](long* units) {
      hm::NodeRef start = pool[static_cast<size_t>(fleet.rng.UniformInt(
          0, static_cast<int64_t>(pool.size()) - 1))];
      std::vector<hm::NodeRef> out;
      CheckOk(hm::ops::Closure1N(fleet.store.get(), start, &out));
      ++*units;
    });
  };

  // Warm both paths untimed (server caches, proxy maps).
  for (Fleet& fleet : fleets) {
    std::vector<hm::NodeRef> out;
    CheckOk(hm::ops::Closure1N(fleet.store.get(),
                               fleet.db.level(closure_level)[0], &out));
    CheckOk(hm::ops::SeqScan(fleet.store.get(), fleet.db.all_nodes).status());
  }

  // samples[2k] and samples[2k + 1]: fleet k's seq_scan and closure_1n
  // rows, one per round.
  std::vector<std::vector<SweepRow>> samples(2 * fleets.size());
  for (int round = 0; round < kSweepRounds; ++round) {
    for (size_t i = 0; i < fleets.size(); ++i) {
      const size_t k = round % 2 == 0 ? i : fleets.size() - 1 - i;
      samples[2 * k].push_back(seq_scan(fleets[k]));
      samples[2 * k + 1].push_back(closure_1n(fleets[k]));
    }
  }

  // Each row is its median round; the speed-up divides it by the
  // first fleet's median, with the range of the per-round ratios.
  auto median = [](std::vector<SweepRow> rounds) {
    std::nth_element(rounds.begin(), rounds.begin() + rounds.size() / 2,
                     rounds.end(), [](const SweepRow& a, const SweepRow& b) {
                       return a.per_sec < b.per_sec;
                     });
    return rounds[rounds.size() / 2];
  };
  std::vector<SweepRow> rows;
  for (size_t r = 0; r < samples.size(); ++r) {
    const std::vector<SweepRow>& base = samples[r % 2];
    SweepRow row = median(samples[r]);
    row.speedup = row.per_sec / median(base).per_sec;
    row.speedup_min = row.speedup_max = samples[r][0].per_sec / base[0].per_sec;
    for (int round = 1; round < kSweepRounds; ++round) {
      const double ratio = samples[r][round].per_sec / base[round].per_sec;
      row.speedup_min = std::min(row.speedup_min, ratio);
      row.speedup_max = std::max(row.speedup_max, ratio);
    }
    rows.push_back(row);
  }

  std::cout << std::left << std::setw(8) << "shards" << std::setw(14) << "op"
            << std::right << std::setw(12) << "units" << std::setw(14)
            << "wall-ms" << std::setw(14) << "per-sec" << std::setw(12)
            << "speedup" << std::setw(16) << "round range"
            << "\n";
  for (const SweepRow& row : rows) {
    std::ostringstream range;
    range << std::fixed << std::setprecision(2) << row.speedup_min << "-"
          << row.speedup_max;
    std::cout << std::left << std::setw(8) << row.shards << std::setw(14)
              << row.op << std::right << std::setw(12) << row.units
              << std::fixed << std::setprecision(1) << std::setw(14)
              << row.wall_ms << std::setprecision(0) << std::setw(14)
              << row.per_sec << std::setprecision(2) << std::setw(12)
              << row.speedup << std::setw(16) << range.str() << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"shard\",\n  \"level\": " << level
        << ",\n  \"rounds\": " << kSweepRounds
        << ",\n  \"host_cores\": " << std::thread::hardware_concurrency()
        << ",\n  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& row = rows[i];
      out << "    {\"shards\": " << row.shards << ", \"op\": \"" << row.op
          << "\", \"units\": " << row.units << ", \"wall_ms\": "
          << std::fixed << std::setprecision(1) << row.wall_ms
          << ", \"per_sec\": " << std::setprecision(0) << row.per_sec
          << ", \"speedup\": " << std::setprecision(2) << row.speedup
          << ", \"speedup_min\": " << row.speedup_min
          << ", \"speedup_max\": " << row.speedup_max << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\n(JSON written to " << json_path << ")\n";
  }

  unsigned cores = std::thread::hardware_concurrency();
  std::cout << "\nHost has " << cores
            << " core(s). Expected shape: closure throughput holds near "
               "the single-shard rate while the walk stays on one shard "
               "(pushdown), and seq-scan aggregate grows toward "
               "min(K, cores)x as shards add real cores. All K loopback "
               "servers share this host's core(s), so on a 1-core host "
               "flat aggregate throughput across K is the correct "
               "result — the win is capacity (each shard holds 1/K of "
               "the graph), not single-client speed.\n";
  return 0;
}
