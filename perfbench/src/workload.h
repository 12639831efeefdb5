#ifndef HM_PERFBENCH_WORKLOAD_H_
#define HM_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/store.h"
#include "server/server.h"
#include "tracer.h"
#include "util/status.h"

namespace hm::perfbench {

/// One named workload. Every workload runs the same two measured
/// phases on its own store stack — the §6 protocol in seeded passes,
/// then a closed-loop textNodeEdit+commit editor — so every end-to-end
/// metric exists everywhere.
struct WorkloadConfig {
  std::string_view name;
  /// false: in-process `oodb`; true: a `shard://` client over two
  /// in-process mem-backed servers.
  bool sharded = false;
};

/// Every workload runs on the level-6 database (19 531 nodes, ~16 MB
/// as oodb).
inline constexpr int kLevel = 6;
/// The oodb buffer pool: the default 2048 pages, which every op's
/// working set fits.
inline constexpr size_t kPoolPages = 2048;

/// The workload named `name`, or null.
const WorkloadConfig* FindWorkload(std::string_view name);
std::vector<std::string_view> WorkloadNames();

/// The store stack a workload runs on, with everything it owns: the
/// oodb store, or the shard servers and the routing client. With a
/// non-null `server_tracer`, each shard's base store is wrapped in a
/// timing decorator recording server spans.
class Stack {
 public:
  static util::Result<std::unique_ptr<Stack>> Open(
      const WorkloadConfig& config, const std::string& dir,
      Tracer* server_tracer);

  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  HyperStore* store() { return client_.get(); }
  /// The oodb store, or null on a sharded stack.
  backends::OodbStore* oodb() { return oodb_; }
  const std::string& dir() const { return dir_; }

  /// Makes every acknowledged write prove itself: the oodb store is
  /// closed and recovered from its files; a fleet drops its caches.
  util::Status Reopen();

 private:
  Stack(const WorkloadConfig& config, std::string dir)
      : config_(config), dir_(std::move(dir)) {}

  util::Status OpenOodb();

  const WorkloadConfig& config_;
  std::string dir_;
  std::vector<std::unique_ptr<server::Server>> servers_;
  std::unique_ptr<HyperStore> client_;
  backends::OodbStore* oodb_ = nullptr;
};

/// Unit-cost probes of storage public functions, each the median of
/// its batches: FileManager::ReadPage on `data_file` (µs), Crc32 over
/// 8 KiB (MB/s), a resident BufferPool fetch (ns), a 1 KiB
/// SegmentedWal append (µs) and an fsync after one page write (µs).
/// Scratch files go under `scratch_dir`. Records one probe span per
/// batch into `tracer`.
util::Result<std::map<std::string, double>> RunProbes(
    const std::string& data_file, const std::string& scratch_dir,
    Tracer* tracer);

}  // namespace hm::perfbench

#endif  // HM_PERFBENCH_WORKLOAD_H_
