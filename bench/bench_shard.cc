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
//    remote loopback server, once on a max(--shards)-way fleet — and
//    run all twenty operations on both through analysis::CompareOps,
//    which requires uid-translated outputs to be byte-identical (exact
//    order for ordered results). Exits non-zero on any mismatch; this
//    is the cluster acceptance gate.

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/compare.h"
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

    const hm::analysis::CompareReport report = hm::analysis::CompareOps(
        single->get(), db_single, fleet->get(), db_fleet, verify_probes);
    report.PrintTo(std::cout);
    std::cout << "\n"
              << (report.ok() ? "VERIFY PASS" : "VERIFY FAIL") << " ("
              << report.failures() << " mismatch(es))\n";
    return report.ok() ? 0 : 1;
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
