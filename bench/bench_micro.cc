// Substrate micro-benchmarks (google-benchmark): the primitive costs
// underneath the paper tables — B+tree point ops, object store CRUD,
// buffer-pool hit path, slotted-page ops, WAL appends, CRC32, bitmap
// inversion — the oodb §5.2 load, the warm closures of ops 10, 11, 13,
// 14, 15 and 18 on `mem` and `oodb`, and one loopback wire round trip. Useful for attributing where
// the macro numbers come from.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/generator.h"
#include "hypermodel/operations.h"
#include "index/bptree.h"
#include "objstore/object_store.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "storage/commit_pipeline/segmented_wal.h"
#include "storage/slotted_page.h"
#include "util/bitmap.h"
#include "util/crc32.h"
#include "util/random.h"

namespace {

using hm::index::BPlusTree;
using hm::index::Key128;

std::string ScratchDir(const std::string& name) {
  std::string dir = "/tmp/hm_micro_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------- CRC32 ----------

void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hm::util::Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(8192);

// ---------- Bitmap ----------

void BM_BitmapInvertRect(benchmark::State& state) {
  hm::util::Bitmap bitmap(400, 400);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitmap.InvertRect(100, 100, 50, 50).ok());
  }
}
BENCHMARK(BM_BitmapInvertRect);

// ---------- SlottedPage ----------

void BM_SlottedInsertErase(benchmark::State& state) {
  hm::storage::Page page;
  hm::storage::SlottedPage::Init(&page);
  std::string record(100, 'r');
  for (auto _ : state) {
    auto slot = hm::storage::SlottedPage::Insert(&page, record);
    benchmark::DoNotOptimize(slot.ok());
    if (slot.ok()) {
      (void)hm::storage::SlottedPage::Erase(&page, *slot);
    } else {
      hm::storage::SlottedPage::Compact(&page);
    }
  }
}
BENCHMARK(BM_SlottedInsertErase);

// ---------- BufferPool ----------

void BM_BufferPoolHit(benchmark::State& state) {
  std::string dir = ScratchDir("pool");
  hm::storage::FileManager fm;
  (void)fm.Open(dir + "/p.db");
  hm::storage::BufferPool pool(&fm, 64);
  auto guard = pool.New(hm::storage::PageType::kSlotted);
  hm::storage::PageId id = guard->id();
  guard->Release();
  for (auto _ : state) {
    auto fetched = pool.Fetch(id);
    benchmark::DoNotOptimize(fetched->page());
  }
}
BENCHMARK(BM_BufferPoolHit);

// ---------- BPlusTree ----------

void BM_BPlusTreeInsert(benchmark::State& state) {
  std::string dir = ScratchDir("bpt_insert");
  hm::storage::FileManager fm;
  (void)fm.Open(dir + "/i.db");
  hm::storage::BufferPool pool(&fm, 4096);
  BPlusTree tree = *BPlusTree::Create(&pool);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Insert(Key128{key++, 0}, key).ok());
  }
}
BENCHMARK(BM_BPlusTreeInsert);

void BM_BPlusTreeGet(benchmark::State& state) {
  std::string dir = ScratchDir("bpt_get");
  hm::storage::FileManager fm;
  (void)fm.Open(dir + "/g.db");
  hm::storage::BufferPool pool(&fm, 4096);
  BPlusTree tree = *BPlusTree::Create(&pool);
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; ++i) {
    (void)tree.Insert(Key128{i, 0}, i);
  }
  hm::util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Get(Key128{rng.NextBounded(n), 0}).ok());
  }
}
BENCHMARK(BM_BPlusTreeGet);

void BM_BPlusTreeScan100(benchmark::State& state) {
  std::string dir = ScratchDir("bpt_scan");
  hm::storage::FileManager fm;
  (void)fm.Open(dir + "/s.db");
  hm::storage::BufferPool pool(&fm, 4096);
  BPlusTree tree = *BPlusTree::Create(&pool);
  for (uint64_t i = 0; i < 100000; ++i) {
    (void)tree.Insert(Key128{i, 0}, i);
  }
  hm::util::Rng rng(1);
  for (auto _ : state) {
    uint64_t start = rng.NextBounded(99900);
    uint64_t sum = 0;
    (void)tree.ScanRange(Key128{start, 0}, Key128{start + 99, ~0ULL},
                         [&](Key128, uint64_t value) {
                           sum += value;
                           return true;
                         });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BPlusTreeScan100);

// ---------- ObjectStore ----------

void BM_ObjectCreate(benchmark::State& state) {
  std::string dir = ScratchDir("obj_create");
  auto store = std::move(*hm::objstore::ObjectStore::Open({}, dir));
  auto txn = *store->Begin();
  std::string data(static_cast<size_t>(state.range(0)), 'o');
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Create(&txn, data).ok());
  }
  (void)store->Commit(&txn);
  (void)store->Close();
}
BENCHMARK(BM_ObjectCreate)->Arg(80)->Arg(380);

void BM_ObjectRead(benchmark::State& state) {
  std::string dir = ScratchDir("obj_read");
  auto store = std::move(*hm::objstore::ObjectStore::Open({}, dir));
  auto txn = *store->Begin();
  const uint64_t n = 10000;
  for (uint64_t i = 0; i < n; ++i) {
    (void)store->Create(&txn, std::string(100, 'r'));
  }
  (void)store->Commit(&txn);
  hm::util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Read(1 + rng.NextBounded(n)).ok());
  }
  (void)store->Close();
}
BENCHMARK(BM_ObjectRead);

void BM_ObjectUpdateCommit(benchmark::State& state) {
  std::string dir = ScratchDir("obj_commit");
  auto store = std::move(*hm::objstore::ObjectStore::Open({}, dir));
  auto setup = *store->Begin();
  auto oid = *store->Create(&setup, std::string(100, 'u'));
  (void)store->Commit(&setup);
  // One update + durable commit per iteration: the paper's per-op
  // commit cost.
  for (auto _ : state) {
    auto txn = *store->Begin();
    (void)store->Update(&txn, oid, std::string(100, 'v'));
    benchmark::DoNotOptimize(store->Commit(&txn).ok());
  }
  (void)store->Close();
}
BENCHMARK(BM_ObjectUpdateCommit);

// ---------- WAL ----------

void BM_WalAppend(benchmark::State& state) {
  std::string dir = ScratchDir("wal");
  hm::storage::SegmentedWal wal;
  (void)wal.Open(dir + "/w.log");
  std::string payload(static_cast<size_t>(state.range(0)), 'w');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wal.Append(hm::storage::WalRecordType::kUpdate, 1, payload).ok());
  }
  (void)wal.Sync();
  (void)wal.Close();
}
BENCHMARK(BM_WalAppend)->Arg(100)->Arg(1000);

// ---------- §5.2 load ----------

// One level-5 oodb build per iteration into a fresh directory, opening
// and closing untimed. Without contents every record update belongs to
// an edge phase, so `updates_per_rel` is the edge phases' record
// updates per relationship; `wal_bytes_per_rel` is the whole build's
// WAL bytes per relationship.
void BM_LoadOodb(benchmark::State& state) {
  hm::GeneratorConfig config;
  config.levels = 5;
  config.generate_contents = false;
  const std::string dir = ScratchDir("load_oodb") + "/db";
  uint64_t updates = 0;
  uint64_t wal_bytes = 0;
  uint64_t relationships = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    auto opened = hm::backends::OodbStore::Open({}, dir);
    if (!opened.ok()) {
      state.SkipWithError("could not open the store");
      break;
    }
    hm::objstore::ObjectStore* objects = (*opened)->object_store();
    const uint64_t wal_before = objects->wal()->SizeBytes();
    hm::CreationTiming timing;
    state.ResumeTiming();
    auto db = hm::Generator(config).Build(opened->get(), &timing);
    state.PauseTiming();
    if (!db.ok()) {
      state.SkipWithError("could not build the level-5 database");
      break;
    }
    updates += objects->stats().objects_updated;
    wal_bytes += objects->wal()->SizeBytes() - wal_before;
    relationships += timing.rel_1n + timing.rel_mn + timing.rel_mnatt;
    opened->reset();
    state.ResumeTiming();
  }
  if (relationships == 0) return;
  state.counters["updates_per_rel"] =
      static_cast<double>(updates) / static_cast<double>(relationships);
  state.counters["wal_bytes_per_rel"] =
      static_cast<double>(wal_bytes) / static_cast<double>(relationships);
}
BENCHMARK(BM_LoadOodb)->Unit(benchmark::kMillisecond);

// ---------- Closures ----------

enum class ClosureOp { k1N, k1NAttSum, k1NPred, kMN, kMNAtt, kMNAttLinkSum };

/// A level-5 database (no text or form contents) per backend, built on
/// first use and shared by every case on that backend.
struct ClosureFixture {
  std::unique_ptr<hm::HyperStore> store;
  hm::backends::OodbStore* oodb = nullptr;  // null on mem
  std::vector<hm::NodeRef> starts;          // the level-3 nodes, §6.5
};

ClosureFixture* Fixture(bool oodb) {
  static ClosureFixture fixtures[2];
  ClosureFixture& fixture = fixtures[oodb ? 1 : 0];
  if (fixture.store != nullptr) return &fixture;
  if (oodb) {
    auto opened = hm::backends::OodbStore::Open(
        {}, ScratchDir("closure_oodb") + "/db");
    if (!opened.ok()) return nullptr;
    fixture.oodb = opened->get();
    fixture.store = std::move(*opened);
  } else {
    fixture.store = std::make_unique<hm::backends::MemStore>();
  }
  hm::GeneratorConfig config;
  config.levels = 5;
  config.generate_contents = false;
  auto db = hm::Generator(config).Build(fixture.store.get(), nullptr);
  if (!db.ok()) {
    fixture.store.reset();
    return nullptr;
  }
  fixture.starts = db->level(3);
  return &fixture;
}

/// One closure from the i-th start node (mod the level size). Op 13's
/// band is fixed: million in [500000, 509999]; ops 15 and 18 follow
/// refTo to the paper's depth, 25.
bool RunClosure(hm::HyperStore* store, ClosureOp op, hm::NodeRef start,
                std::vector<hm::NodeRef>* out) {
  switch (op) {
    case ClosureOp::k1N:
      return hm::ops::Closure1N(store, start, out).ok();
    case ClosureOp::k1NAttSum:
      return hm::ops::Closure1NAttSum(store, start, nullptr).ok();
    case ClosureOp::k1NPred:
      return hm::ops::Closure1NPred(store, start, 500000, out).ok();
    case ClosureOp::kMN:
      return hm::ops::ClosureMN(store, start, out).ok();
    case ClosureOp::kMNAtt:
      return hm::ops::ClosureMNAtt(store, start, 25, out).ok();
    case ClosureOp::kMNAttLinkSum: {
      std::vector<hm::NodeDistance> reached;
      return hm::ops::ClosureMNAttLinkSum(store, start, 25, &reached).ok();
    }
  }
  return false;
}

// Warm: every start node runs once before timing. On oodb the
// `objects_read` counter is the object store's reads per closure, and
// `pool_fetches` its buffer-pool fetches (hits plus misses) per
// closure.
void BM_Closure(benchmark::State& state, ClosureOp op, bool oodb) {
  ClosureFixture* fixture = Fixture(oodb);
  if (fixture == nullptr) {
    state.SkipWithError("could not build the level-5 database");
    return;
  }
  std::vector<hm::NodeRef> out;
  for (hm::NodeRef start : fixture->starts) {
    if (!RunClosure(fixture->store.get(), op, start, &out)) {
      state.SkipWithError("closure failed");
      return;
    }
  }
  auto fetches = [fixture] {
    const hm::storage::BufferPoolStats pool =
        fixture->oodb->object_store()->buffer_pool()->stats();
    return pool.hits + pool.misses;
  };
  const uint64_t reads_before =
      oodb ? fixture->oodb->object_store()->stats().objects_read : 0;
  const uint64_t fetches_before = oodb ? fetches() : 0;
  size_t i = 0;
  for (auto _ : state) {
    const hm::NodeRef start = fixture->starts[i++ % fixture->starts.size()];
    benchmark::DoNotOptimize(
        RunClosure(fixture->store.get(), op, start, &out));
  }
  if (oodb) {
    state.counters["objects_read"] = benchmark::Counter(
        static_cast<double>(
            fixture->oodb->object_store()->stats().objects_read -
            reads_before),
        benchmark::Counter::kAvgIterations);
    state.counters["pool_fetches"] = benchmark::Counter(
        static_cast<double>(fetches() - fetches_before),
        benchmark::Counter::kAvgIterations);
  }
}
BENCHMARK_CAPTURE(BM_Closure, op10_mem, ClosureOp::k1N, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Closure, op11_mem, ClosureOp::k1NAttSum, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Closure, op13_mem, ClosureOp::k1NPred, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Closure, op14_mem, ClosureOp::kMN, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Closure, op15_mem, ClosureOp::kMNAtt, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Closure, op18_mem, ClosureOp::kMNAttLinkSum, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Closure, op10_oodb, ClosureOp::k1N, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Closure, op11_oodb, ClosureOp::k1NAttSum, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Closure, op13_oodb, ClosureOp::k1NPred, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Closure, op14_oodb, ClosureOp::kMN, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Closure, op15_oodb, ClosureOp::kMNAtt, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Closure, op18_oodb, ClosureOp::kMNAttLinkSum, true)
    ->Unit(benchmark::kMicrosecond);

// ---------- Wire round trip ----------

// One kPing per iteration from a loopback `remote` client to an
// in-process server over `mem`: the frame, socket and dispatch path of
// every remote call with no backend work. Wall time, since the cost is
// mostly waiting on the other thread.
void BM_RemotePing(benchmark::State& state) {
  auto store = hm::backends::RemoteStore::Loopback(
      std::make_unique<hm::backends::MemStore>());
  if (!store.ok()) {
    state.SkipWithError("could not start the loopback server");
    return;
  }
  for (auto _ : state) {
    if (!(*store)->Ping().ok()) {
      state.SkipWithError("ping failed");
      break;
    }
  }
}
BENCHMARK(BM_RemotePing)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
