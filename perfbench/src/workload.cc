#include "workload.h"

#include <array>
#include <filesystem>

#include "cluster/shard_local_store.h"
#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/sharded_store.h"
#include "stats.h"
#include "storage/buffer_pool.h"
#include "storage/commit_pipeline/segmented_wal.h"
#include "storage/file_manager.h"
#include "timed_store.h"
#include "util/crc32.h"
#include "util/random.h"

namespace hm::perfbench {

namespace {

constexpr uint32_t kShards = 2;

constexpr std::array<WorkloadConfig, 2> kWorkloads = {{
    // §6 on in-process oodb: storage, objstore and index do the work;
    // every op's working set fits the default 2048-page pool.
    {"paper-oodb", false},
    // §6 through shard:// over two mem-backed servers: wire, dispatch,
    // fan-out and the traversal engine do the work, storage none.
    {"paper-shard2", true},
}};

int64_t Elapsed(int64_t start_ns) { return Tracer::NowNs() - start_ns; }

/// Runs `batch` `batches` times, recording a probe span per batch, and
/// returns the median batch time in ns.
template <typename F>
util::Result<double> TimeBatches(Tracer* tracer, uint16_t probe, int batches,
                                 F&& batch) {
  std::vector<double> times;
  for (int b = 0; b < batches; ++b) {
    int64_t start = Tracer::NowNs();
    HM_RETURN_IF_ERROR(batch());
    int64_t end = Tracer::NowNs();
    tracer->Record({start, end, probe, Layer::kProbe, kNoParent});
    times.push_back(static_cast<double>(end - start));
  }
  return Median(times);
}

}  // namespace

const WorkloadConfig* FindWorkload(std::string_view name) {
  for (const WorkloadConfig& config : kWorkloads) {
    if (config.name == name) return &config;
  }
  return nullptr;
}

std::vector<std::string_view> WorkloadNames() {
  std::vector<std::string_view> names;
  for (const WorkloadConfig& config : kWorkloads) names.push_back(config.name);
  return names;
}

util::Result<std::unique_ptr<Stack>> Stack::Open(const WorkloadConfig& config,
                                                 const std::string& dir,
                                                 Tracer* server_tracer) {
  std::unique_ptr<Stack> stack(new Stack(config, dir));
  if (!config.sharded) {
    std::filesystem::create_directories(dir);
    HM_RETURN_IF_ERROR(stack->OpenOodb());
    return stack;
  }
  std::string addrs;
  for (uint32_t k = 0; k < kShards; ++k) {
    std::unique_ptr<HyperStore> base = std::make_unique<backends::MemStore>();
    if (server_tracer != nullptr) {
      base = MakeTimedStore(std::move(base), server_tracer, Layer::kServer);
    }
    HM_ASSIGN_OR_RETURN(
        std::unique_ptr<cluster::ShardLocalStore> shard,
        cluster::ShardLocalStore::Wrap({k, kShards}, std::move(base)));
    server::ServerOptions options;
    options.shard_id = k;
    options.shard_count = kShards;
    HM_ASSIGN_OR_RETURN(std::unique_ptr<server::Server> server,
                        server::Server::Start(options, std::move(shard)));
    addrs += (k == 0 ? "" : ",") + server->host() + ":" +
             std::to_string(server->port());
    stack->servers_.push_back(std::move(server));
  }
  backends::RemoteOptions client;
  client.mode = backends::RemoteMode::kPushdown;
  HM_ASSIGN_OR_RETURN(std::unique_ptr<backends::ShardedStore> sharded,
                      backends::ShardedStore::Connect(addrs, client));
  stack->client_ = std::move(sharded);
  return stack;
}

Stack::~Stack() {
  client_.reset();  // hang up before the servers drain
  for (auto& server : servers_) server->Stop();
}

util::Status Stack::OpenOodb() {
  backends::OodbOptions options;
  options.cache_pages = kPoolPages;
  HM_ASSIGN_OR_RETURN(std::unique_ptr<backends::OodbStore> store,
                      backends::OodbStore::Open(options, dir_));
  oodb_ = store.get();
  client_ = std::move(store);
  return util::Status::Ok();
}

util::Status Stack::Reopen() {
  if (config_.sharded) return client_->CloseReopen();
  oodb_ = nullptr;
  client_.reset();
  return OpenOodb();
}

util::Result<std::map<std::string, double>> RunProbes(
    const std::string& data_file, const std::string& scratch_dir,
    Tracer* tracer) {
  std::map<std::string, double> out;
  std::filesystem::create_directories(scratch_dir);
  util::Rng rng(0x9A6E);

  // Page read plus checksum verify, on the workload's own file when it
  // has one.
  {
    storage::FileManager file;
    std::string path = data_file;
    if (path.empty()) {
      path = scratch_dir + "/probe.db";
      HM_RETURN_IF_ERROR(file.Open(path));
      storage::Page page;
      for (int i = 0; i < 512; ++i) {
        HM_ASSIGN_OR_RETURN(storage::PageId id, file.AllocatePage());
        HM_RETURN_IF_ERROR(file.WritePage(id, &page));
      }
    } else {
      HM_RETURN_IF_ERROR(file.Open(path));
    }
    const int64_t pages = static_cast<int64_t>(file.page_count());
    storage::Page page;
    std::vector<double> reads;
    for (int i = 0; i < 2000 && pages > 0; ++i) {
      storage::PageId id =
          static_cast<storage::PageId>(rng.UniformInt(0, pages - 1));
      int64_t start = Tracer::NowNs();
      if (file.ReadPage(id, &page).ok()) {
        reads.push_back(static_cast<double>(Elapsed(start)) / 1000.0);
        tracer->Record({start, Tracer::NowNs(), 0, Layer::kProbe, kNoParent});
      }
    }
    out["storage.page_read_us"] = Median(reads);
    HM_RETURN_IF_ERROR(file.Close());
  }

  // CRC32 over one page, 256 pages per batch.
  {
    std::string buffer(storage::kPageSize, '\0');
    for (char& c : buffer) c = static_cast<char>(rng.Next64());
    volatile uint32_t sink = 0;
    HM_ASSIGN_OR_RETURN(double ns, TimeBatches(tracer, 1, 9, [&] {
      for (int i = 0; i < 256; ++i) sink = util::Crc32(buffer, sink);
      return util::Status::Ok();
    }));
    out["storage.crc32_mb_per_s"] =
        256.0 * storage::kPageSize / (ns / 1e9) / 1e6;
  }

  // A resident buffer-pool fetch (read pin) and release.
  {
    storage::FileManager file;
    HM_RETURN_IF_ERROR(file.Open(scratch_dir + "/pool.db"));
    storage::Page page;
    HM_ASSIGN_OR_RETURN(storage::PageId id, file.AllocatePage());
    HM_RETURN_IF_ERROR(file.WritePage(id, &page));
    {
      storage::BufferPool pool(&file, 64);
      HM_ASSIGN_OR_RETURN(double ns, TimeBatches(tracer, 2, 9, [&] {
        for (int i = 0; i < 10000; ++i) {
          auto guard = pool.Fetch(id, storage::PinMode::kRead);
          if (!guard.ok()) return guard.status();
        }
        return util::Status::Ok();
      }));
      out["storage.pool_hit_ns"] = ns / 10000;
    }
    // fsync after one page write.
    HM_ASSIGN_OR_RETURN(double ns, TimeBatches(tracer, 3, 21, [&] {
      HM_RETURN_IF_ERROR(file.WritePage(id, &page));
      return file.Sync();
    }));
    out["storage.fsync_us"] = ns / 1000;
    HM_RETURN_IF_ERROR(file.Close());
  }

  // A 1 KiB WAL append (buffered; the fsync is measured above).
  {
    storage::SegmentedWal wal;
    HM_RETURN_IF_ERROR(wal.Open(scratch_dir + "/probe.wal"));
    std::string payload(1024, 'w');
    uint64_t txn = 0;
    HM_ASSIGN_OR_RETURN(double ns, TimeBatches(tracer, 4, 9, [&] {
      for (int i = 0; i < 256; ++i) {
        auto lsn = wal.Append(storage::WalRecordType::kUpdate, ++txn, payload);
        if (!lsn.ok()) return lsn.status();
      }
      return util::Status::Ok();
    }));
    out["storage.wal_append_us"] = ns / 256 / 1000;
    HM_RETURN_IF_ERROR(wal.Sync());
    HM_RETURN_IF_ERROR(wal.Close());
  }
  std::filesystem::remove_all(scratch_dir);
  return out;
}

}  // namespace hm::perfbench
