// hm_perfbench — one run of one benchmark workload (see README.md).
//
//   hm_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                --workdir=DIR [--commit=SHA] [--trace-out=PATH]
//
// Set-up builds the level-6 database once. The run then measures two
// phases on it: seeded passes of the §6 protocol (every op: close, 50
// cold calls + commit, 50 warm calls + commit, close), and a closed-loop
// textNodeEdit+commit editor. Every call is checked against a `mem`
// oracle generated from the same seed.
// The last stdout line is the result object; with --trace=0 it carries
// the end-to-end metrics, with --trace=1 the per-layer metrics of the
// same run with spans recorded.

#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/fsck.h"
#include "hypermodel/backends/mem_store.h"
#include "hypermodel/driver.h"
#include "hypermodel/generator.h"
#include "hypermodel/operations.h"
#include "objstore/object_store.h"
#include "protocol.h"
#include "stats.h"
#include "telemetry/metrics.h"
#include "timed_store.h"
#include "tracer.h"
#include "util/random.h"
#include "util/text.h"
#include "workload.h"

namespace hm::perfbench {
namespace {

constexpr int kIterations = 50;  // the paper's per-phase call count
constexpr int kVerifyIterations = 3;
constexpr size_t kKeptSpansPerPhase = 2000;
constexpr size_t kOpCount = 20;
constexpr double kEditorRoundS = 0.5;
/// An op's ms/node over passes is summarized by the lower quartile on
/// each CPU. Interference from other tenants only ever adds time, so a
/// low quantile is the steadiest estimate of the op's own cost; a
/// median still moves with the share of passes a neighbour slowed.
constexpr double kPassQuantile = 0.25;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string commit = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (!arg.starts_with("--") || eq == std::string::npos) return false;
    std::string key = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::stoull(value);
    } else if (key == "seconds") {
      args->seconds = std::stod(value);
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "workdir") {
      args->workdir = value;
    } else if (key == "commit") {
      args->commit = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0;
}

/// Independent seed streams derived from the workload seed (SplitMix64
/// finalizer): the generator, the verification pass, each protocol
/// pass and each editor draw from their own stream.
uint64_t Derive(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(Tracer::NowNs() - start_ns) / 1e9;
}

/// Pins the calling thread to one allowed CPU at a time while alive,
/// restoring the full set on destruction. On a shared host each CPU
/// runs at the speed its neighbours leave it; pinning turn k to the
/// k-th allowed CPU spreads a run's passes over all of them, so a run
/// is not biased by the CPU the scheduler happened to pick. Threads
/// started while pinned inherit the pin, so none is started then. A
/// disabled rotation pins nothing and has one slot: the shard fleet's
/// server threads run beside the client, and pinning the client makes
/// the scheduler wake them on its CPU.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&all_);
    if (!enabled || sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the CPU of `turn` and returns its slot (0-based index
  /// among the allowed CPUs).
  size_t Pin(size_t turn) {
    if (cpus_.empty()) return 0;
    const size_t slot = turn % cpus_.size();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    return slot;
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

/// Operations attempted and failed; any failure makes the run incorrect.
struct Accounting {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(uint64_t attempts, uint64_t failures, const std::string& what) {
    attempted += attempts;
    failed += failures;
    if (failures > 0) {
      std::cerr << "perfbench: " << failures << " failed check(s): " << what
                << "\n";
    }
  }
  void Error(const util::Status& status, const std::string& what) {
    Check(1, 1, what + ": " + status.ToString());
  }
};

void Merge(const telemetry::HistogramData& from, telemetry::HistogramData* to) {
  to->count += from.count;
  to->sum += from.sum;
  for (const auto& [index, n] : from.buckets) to->buckets[index] += n;
}

telemetry::HistogramData HistogramOf(const telemetry::Snapshot& snapshot,
                                     const std::string& name) {
  auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? telemetry::HistogramData{}
                                         : it->second;
}

uint64_t SumCounters(const telemetry::Snapshot& snapshot,
                     std::string_view prefix, std::string_view suffix) {
  uint64_t total = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.starts_with(prefix) && name.ends_with(suffix)) total += value;
  }
  return total;
}

constexpr size_t kClasses = static_cast<size_t>(MethodClass::kCount);

/// Per-layer totals of one (op, phase) over every traced pass.
struct PhaseLayers {
  uint64_t calls = 0;
  uint64_t nodes = 0;
  double op_us = 0;
  std::array<double, kClasses> store_us{};  // store spans inside op spans
  std::array<uint64_t, kClasses> store_calls{};
  double server_us = 0;  // server spans inside those store spans
  uint64_t misses = 0;
  uint64_t hits = 0;
  uint64_t objects_read = 0;
  uint64_t roundtrips = 0;
  uint64_t wire_bytes = 0;
  std::vector<uint64_t> shard_rpcs;
  telemetry::HistogramData fanout;

  double child_store_us() const {
    double total = 0;
    for (double us : store_us) total += us;
    return total;
  }
  uint64_t child_store_calls() const {
    uint64_t total = 0;
    for (uint64_t n : store_calls) total += n;
    return total;
  }

  /// Adds one traced phase: `spans` sorted with parents assigned.
  void AddSpans(const std::vector<Span>& spans) {
    for (const Span& span : spans) {
      double us = static_cast<double>(span.duration_ns()) / 1000.0;
      const Span* parent =
          span.parent == kNoParent ? nullptr : &spans[span.parent];
      if (span.layer == Layer::kOp) {
        op_us += us;
        ++calls;
      } else if (span.layer == Layer::kStore && parent != nullptr &&
                 parent->layer == Layer::kOp) {
        size_t cls = static_cast<size_t>(ClassOf(static_cast<Method>(span.name)));
        store_us[cls] += us;
        ++store_calls[cls];
      } else if (span.layer == Layer::kServer && parent != nullptr &&
                 parent->layer == Layer::kStore &&
                 parent->parent != kNoParent &&
                 spans[parent->parent].layer == Layer::kOp) {
        server_us += us;
      }
    }
  }

  void AddCounters(const telemetry::Snapshot& diff, uint64_t objects) {
    misses += diff.counter("storage.buffer_pool.misses");
    hits += diff.counter("storage.buffer_pool.hits");
    objects_read += objects;
    roundtrips += SumCounters(diff, "remote.", ".roundtrips");
    wire_bytes += diff.counter("server.net.bytes_in") +
                  diff.counter("server.net.bytes_out");
    shard_rpcs.resize(2);
    for (size_t k = 0; k < shard_rpcs.size(); ++k) {
      shard_rpcs[k] += diff.counter("cluster.shard" + std::to_string(k) +
                                    ".rpcs");
    }
    Merge(HistogramOf(diff, "cluster.fanout"), &fanout);
  }
};

/// Untraced samples behind the end-to-end metrics.
struct ProtocolSamples {
  std::array<PerCpuSamples, kOpCount> cold_ms_per_node;
  std::array<PerCpuSamples, kOpCount> warm_ms_per_node;
  std::array<PerCpuSamples, kOpCount> call_us;  // cold and warm
  std::vector<double> lookup_call_us;   // pooled, for the tail
  std::vector<double> closure_call_us;  // pooled, for the tail
  PerCpuSamples untraced_pass_ms;
  PerCpuSamples traced_pass_ms;
  int passes = 0;
  int traced_passes = 0;
};

struct CommitSamples {
  uint64_t commits = 0;
  double wall_s = 0;
  std::vector<double> rate;     // commits/s of each round
  std::vector<double> latency;  // every commit
  std::vector<double> tail;     // each round's p99 (or highest supported)
  double tail_q = 0.99;         // the lowest tail quantile a round used
  telemetry::Snapshot diff;
  std::vector<Span> spans;
};

size_t Index(OpId op) { return static_cast<size_t>(op); }

/// p99, or the highest quantile with ten of `samples` beyond it.
double TailOf(const std::vector<double>& samples) {
  return std::min(0.99, TailQuantile(samples.size()));
}

std::string_view SpanName(const Span& span) {
  switch (span.layer) {
    case Layer::kOp:
      return OpName(static_cast<OpId>(span.name));
    case Layer::kStore:
    case Layer::kServer:
      return MethodName(static_cast<Method>(span.name));
    case Layer::kCommit:
      return "transaction";
    case Layer::kProbe: {
      static constexpr std::string_view kProbes[] = {
          "page_read", "crc32", "pool_hit", "fsync", "wal_append"};
      return span.name < 5 ? kProbes[span.name] : "probe";
    }
  }
  return "?";
}

class Run {
 public:
  Run(const Args& args, const WorkloadConfig& config)
      : args_(args), config_(config) {}

  int Main();

 private:
  util::Status Setup();
  util::Status Verify();
  util::Status Protocol(double budget_s);
  util::Status Editor(double budget_s);
  util::Status ReadBack();
  void PrintResult();
  void PrintStamp(std::ostream& out);
  void AddMetric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void EndToEndMetrics();
  void LayerMetrics();
  void WriteTrace();

  const Args& args_;
  const WorkloadConfig& config_;
  GeneratorConfig generator_;
  Tracer tracer_;
  Accounting accounting_;

  std::unique_ptr<Stack> stack_;
  std::unique_ptr<HyperStore> timed_;  // client decorator, trace runs only
  TestDatabase db_;
  backends::MemStore oracle_;
  TestDatabase oracle_db_;

  double setup_s_ = 0;
  CreationTiming creation_;
  ProtocolSamples samples_;
  std::array<std::array<PhaseLayers, 2>, kOpCount> layers_;
  std::vector<Span> kept_spans_;
  CommitSamples commits_;
  /// Per text node: bit 0 = edited an odd number of times, bit 1 =
  /// edited at all (so it must read back).
  std::vector<uint8_t> edit_state_;
  std::vector<uint64_t> version_count_;  // "version1" words per text node
  std::map<std::string, double> probes_;
  std::vector<std::pair<const char*, double>> stage_s_;

  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

util::Status Run::Setup() {
  generator_.levels = kLevel;
  generator_.seed = Derive(args_.seed, 1);
  const int64_t start = Tracer::NowNs();
  HM_ASSIGN_OR_RETURN(stack_, Stack::Open(config_, args_.workdir + "/db",
                                          args_.trace ? &tracer_ : nullptr));
  {
    CpuRotation rotation(!config_.sharded);  // after Open: its threads
                                             // are not pinned
    rotation.Pin(0);
    HM_ASSIGN_OR_RETURN(db_, Generator(generator_).Build(stack_->store(),
                                                         &creation_));
  }
  setup_s_ = SecondsSince(start);
  HM_ASSIGN_OR_RETURN(oracle_db_, Generator(generator_).Build(&oracle_,
                                                              nullptr));
  if (db_.node_count() != oracle_db_.node_count() ||
      db_.text_nodes.size() != oracle_db_.text_nodes.size()) {
    return util::Status::Corruption("database and oracle differ in shape");
  }
  version_count_.resize(oracle_db_.text_nodes.size());
  for (size_t i = 0; i < version_count_.size(); ++i) {
    HM_ASSIGN_OR_RETURN(std::string text,
                        oracle_.GetText(oracle_db_.text_nodes[i]));
    std::string copy = text;
    version_count_[i] = util::ReplaceAll(&copy, "version1", "version-2");
  }
  edit_state_.assign(version_count_.size(), 0);
  if (args_.trace) {
    timed_ = MakeTimedStore(stack_->store(), &tracer_, Layer::kStore);
  }
  return util::Status::Ok();
}

/// The uid-translated comparison against the single-node oracle, once
/// per run (the bench_shard --verify-level check): all twenty ops, a
/// cold and a warm phase of a few calls each.
util::Status Run::Verify() {
  PhaseRunner store_runner(stack_->store(), &db_, nullptr);
  PhaseRunner oracle_runner(&oracle_, &oracle_db_, nullptr);
  KeyFn store_uids = UidKeys(stack_->store());
  KeyFn oracle_uids = UidKeys(&oracle_);
  const uint64_t seed = Derive(args_.seed, 2);
  for (OpId op : AllOps()) {
    PhaseInputs inputs = SelectInputs(db_, op, kVerifyIterations, seed);
    for (bool warm : {false, true}) {
      auto a = store_runner.Run(op, inputs, warm, seed);
      auto b = oracle_runner.Run(op, inputs, warm, seed);
      if (!a.ok() || !b.ok()) {
        return !a.ok() ? a.status() : b.status();
      }
      accounting_.Check(
          a->outputs.size(),
          CountMismatches(op, *a, store_uids, *b, oracle_uids),
          "uid verification of " + std::string(OpName(op)));
    }
  }
  return util::Status::Ok();
}

util::Status Run::Protocol(double budget_s) {
  PositionKeys store_keys(db_);
  PositionKeys oracle_keys(oracle_db_);
  telemetry::Registry& registry = telemetry::Registry::Global();
  backends::OodbStore* oodb = stack_->oodb();
  auto objects_read = [oodb]() -> uint64_t {
    return oodb == nullptr ? 0 : oodb->object_store()->stats().objects_read;
  };
  const int min_passes = args_.trace ? 2 : 3;
  CpuRotation rotation(!config_.sharded);
  int64_t start = Tracer::NowNs();
  for (int pass = 0;
       pass < min_passes || SecondsSince(start) < budget_s; ++pass) {
    // A traced run alternates untraced and traced passes, so the two
    // pass times give the tracing overhead; both visit every CPU.
    const bool traced = args_.trace && pass % 2 == 1;
    const size_t cpu =
        rotation.Pin(static_cast<size_t>(args_.trace ? pass / 2 : pass));
    tracer_.set_enabled(traced);
    HyperStore* store = traced ? timed_.get() : stack_->store();
    PhaseRunner runner(store, &db_, &tracer_);
    PhaseRunner oracle_runner(&oracle_, &oracle_db_, nullptr);
    const uint64_t seed = Derive(args_.seed, 100 + static_cast<uint64_t>(pass));
    double pass_ms = 0;
    for (OpId op : AllOps()) {
      PhaseInputs inputs = SelectInputs(db_, op, kIterations, seed);
      const uint64_t rect_seed = seed ^ 0xF0F0F0F0ULL;
      std::array<PhaseRun, 2> expected;
      for (int warm = 0; warm < 2; ++warm) {
        HM_ASSIGN_OR_RETURN(expected[warm], oracle_runner.Run(op, inputs, warm,
                                                              rect_seed));
      }

      HM_RETURN_IF_ERROR(store->CloseReopen());
      (void)tracer_.Take();
      for (int warm = 0; warm < 2; ++warm) {
        telemetry::Snapshot before;
        uint64_t objects_before = 0;
        if (traced) {
          before = registry.TakeSnapshot();
          objects_before = objects_read();
        }
        HM_ASSIGN_OR_RETURN(PhaseRun run,
                            runner.Run(op, inputs, warm, rect_seed));
        if (traced) {
          std::vector<Span> spans = tracer_.Take();
          AssignParents(&spans);
          PhaseLayers& layer = layers_[Index(op)][warm];
          layer.AddSpans(spans);
          layer.nodes += run.nodes;
          layer.AddCounters(registry.TakeSnapshot().DiffSince(before),
                            objects_read() - objects_before);
          if (samples_.traced_passes == 0) {
            // Keep a bounded prefix of the first traced pass's spans.
            size_t offset = kept_spans_.size();
            for (size_t i = 0;
                 i < std::min(spans.size(), kKeptSpansPerPhase); ++i) {
              Span span = spans[i];
              if (span.parent != kNoParent) span.parent += offset;
              kept_spans_.push_back(span);
            }
          }
        }
        accounting_.Check(run.outputs.size(),
                          CountMismatches(op, run, store_keys, expected[warm],
                                          oracle_keys),
                          "oracle check of " + std::string(OpName(op)));
        pass_ms += run.total_ms();
        if (traced) continue;
        (warm ? samples_.warm_ms_per_node : samples_.cold_ms_per_node)[Index(op)]
            .Add(cpu, run.ms_per_node());
        samples_.call_us[Index(op)].AddAll(cpu, run.call_us);
        OpGroup group = GroupOf(op);
        auto* calls = group == OpGroup::kLookup    ? &samples_.lookup_call_us
                      : group == OpGroup::kClosure ? &samples_.closure_call_us
                                                   : nullptr;
        if (calls != nullptr) {
          calls->insert(calls->end(), run.call_us.begin(), run.call_us.end());
        }
      }
      HM_RETURN_IF_ERROR(store->CloseReopen());
    }
    (traced ? samples_.traced_pass_ms : samples_.untraced_pass_ms)
        .Add(cpu, pass_ms);
    ++samples_.passes;
    if (traced) ++samples_.traced_passes;
  }
  tracer_.set_enabled(false);
  (void)tracer_.Take();
  return util::Status::Ok();
}

/// A closed-loop editor: textNodeEdit+commit transactions on random
/// text nodes, one after the other. It runs in short rounds; the rate
/// and the tail are taken per round, and their medians reported, so
/// one stall moves one round.
util::Status Run::Editor(double budget_s) {
  HyperStore* store = args_.trace ? timed_.get() : stack_->store();
  auto* pipelined = dynamic_cast<PipelinedCommitCapable*>(store);
  tracer_.set_enabled(args_.trace);
  telemetry::Registry& registry = telemetry::Registry::Global();
  telemetry::Snapshot before = registry.TakeSnapshot();
  util::Rng rng(Derive(args_.seed, 10));
  const size_t texts = db_.text_nodes.size();
  uint64_t wrong = 0;  // edits that replaced another count than the oracle's

  const int rounds = std::max(1, static_cast<int>(budget_s / kEditorRoundS));
  for (int round = 0; round < rounds; ++round) {
    const int64_t round_start = Tracer::NowNs();
    const int64_t deadline =
        round_start + static_cast<int64_t>(kEditorRoundS * 1e9);
    std::vector<double> latency;
    while (Tracer::NowNs() < deadline) {
      const size_t index = static_cast<size_t>(rng.NextBounded(texts));
      const bool back = (edit_state_[index] & 1) != 0;
      const int64_t start = Tracer::NowNs();
      util::Status status = store->Begin();
      util::Result<uint64_t> replaced = uint64_t{0};
      if (status.ok()) {
        replaced = ops::TextNodeEdit(store, db_.text_nodes[index],
                                     back ? "version-2" : "version1",
                                     back ? "version1" : "version-2");
        status = replaced.status();
      }
      if (!status.ok()) {
        (void)store->Abort();
        return status;
      }
      if (pipelined != nullptr) {
        HM_ASSIGN_OR_RETURN(uint64_t ticket, pipelined->CommitBegin());
        HM_RETURN_IF_ERROR(pipelined->CommitWait(ticket));
      } else {
        HM_RETURN_IF_ERROR(store->Commit());
      }
      const int64_t end = Tracer::NowNs();
      if (args_.trace) {
        tracer_.Record({start, end, 0, Layer::kCommit, kNoParent});
      }
      latency.push_back(static_cast<double>(end - start) / 1000.0);
      if (*replaced != version_count_[index]) ++wrong;
      if (*replaced > 0) edit_state_[index] = (edit_state_[index] ^ 1) | 2;
    }
    const double wall_s = SecondsSince(round_start);
    commits_.latency.insert(commits_.latency.end(), latency.begin(),
                            latency.end());
    commits_.tail.push_back(Percentile(latency, TailOf(latency)));
    commits_.tail_q = std::min(commits_.tail_q, TailOf(latency));
    commits_.rate.push_back(static_cast<double>(latency.size()) / wall_s);
    commits_.commits += latency.size();
    commits_.wall_s += wall_s;
  }
  commits_.diff = registry.TakeSnapshot().DiffSince(before);
  tracer_.set_enabled(false);
  commits_.spans = tracer_.Take();
  accounting_.Check(commits_.commits, wrong, "editor transactions");
  return util::Status::Ok();
}

/// Every acknowledged edit must read back after the stack is reopened
/// (oodb: recovered from its files), and an oodb database must pass
/// fsck.
util::Status Run::ReadBack() {
  timed_.reset();
  HM_RETURN_IF_ERROR(stack_->Reopen());
  uint64_t checked = 0;
  uint64_t wrong = 0;
  for (size_t i = 0; i < edit_state_.size(); ++i) {
    if ((edit_state_[i] & 2) == 0) continue;
    HM_ASSIGN_OR_RETURN(std::string expected,
                        oracle_.GetText(oracle_db_.text_nodes[i]));
    if (edit_state_[i] & 1) util::ReplaceAll(&expected, "version1", "version-2");
    auto text = stack_->store()->GetText(db_.text_nodes[i]);
    ++checked;
    if (!text.ok() || *text != expected) ++wrong;
  }
  accounting_.Check(checked, wrong, "read-back of acknowledged edits");
  if (stack_->oodb() != nullptr) {
    analysis::FsckOptions options;
    options.config = generator_;
    HM_ASSIGN_OR_RETURN(analysis::FsckReport report,
                        analysis::RunFsck(stack_->store(), options));
    if (!report.ok()) report.PrintTo(std::cerr);
    accounting_.Check(1, report.ok() ? 0 : 1, "fsck");
  }
  if (args_.trace) {
    timed_ = MakeTimedStore(stack_->store(), &tracer_, Layer::kStore);
  }
  return util::Status::Ok();
}

void Run::EndToEndMetrics() {
  auto per_op = [&](OpGroup group, bool warm) {
    std::vector<double> values;
    for (OpId op : AllOps()) {
      if (GroupOf(op) != group) continue;
      values.push_back((warm ? samples_.warm_ms_per_node
                             : samples_.cold_ms_per_node)[Index(op)]
                           .Summary(kPassQuantile));
    }
    return values;
  };
  auto both = [&](OpGroup group) {
    std::vector<double> all = per_op(group, false);
    std::vector<double> warm = per_op(group, true);
    all.insert(all.end(), warm.begin(), warm.end());
    return GeoMean(all);
  };
  auto tail = [](const std::vector<double>& samples) {
    return Percentile(samples, TailOf(samples));
  };
  // The typical call: the geometric mean over the group's ops of each
  // op's median call. (A median of the pooled calls would sit between
  // two ops' modes and jump with the mix of closure sizes a seed draws.)
  auto typical = [&](OpGroup group) {
    std::vector<double> medians;
    for (OpId op : AllOps()) {
      if (GroupOf(op) == group) {
        medians.push_back(samples_.call_us[Index(op)].Summary(0.5));
      }
    }
    return GeoMean(medians);
  };
  AddMetric("setup_s", setup_s_, "s");
  AddMetric("lookup_cold_ms_per_node",
            GeoMean(per_op(OpGroup::kLookup, false)), "ms");
  AddMetric("lookup_warm_ms_per_node",
            GeoMean(per_op(OpGroup::kLookup, true)), "ms");
  AddMetric("closure_cold_ms_per_node",
            GeoMean(per_op(OpGroup::kClosure, false)), "ms");
  AddMetric("closure_warm_ms_per_node",
            GeoMean(per_op(OpGroup::kClosure, true)), "ms");
  AddMetric("scan_ms_per_node", both(OpGroup::kScan), "ms");
  AddMetric("edit_ms_per_op", both(OpGroup::kEdit), "ms");
  AddMetric("lookup_p50_us", typical(OpGroup::kLookup), "us");
  AddMetric("lookup_p99_us", tail(samples_.lookup_call_us), "us");
  AddMetric("closure_p50_us", typical(OpGroup::kClosure), "us");
  AddMetric("closure_p99_us", tail(samples_.closure_call_us), "us");
  AddMetric("commits_per_s", Median(commits_.rate), "1/s");
  AddMetric("commit_p50_us", Percentile(commits_.latency, 0.5), "us");
  AddMetric("commit_p99_us", Median(commits_.tail), "us");
}

void Run::LayerMetrics() {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto sum_over = [&](auto&& pick, auto&& field) {
    double total = 0;
    for (OpId op : AllOps()) {
      for (int warm = 0; warm < 2; ++warm) {
        if (pick(op, warm)) total += field(layers_[Index(op)][warm]);
      }
    }
    return total;
  };
  auto closure_phase = [](bool warm) {
    return [warm](OpId op, int w) {
      return GroupOf(op) == OpGroup::kClosure && w == warm;
    };
  };
  auto closures = [](OpId op, int) { return GroupOf(op) == OpGroup::kClosure; };
  auto reads = [](OpId op, int) {
    return GroupOf(op) == OpGroup::kClosure || GroupOf(op) == OpGroup::kScan;
  };
  auto phase = [](bool warm) { return [warm](OpId, int w) { return w == warm; }; };
  auto nodes = [](const PhaseLayers& l) { return static_cast<double>(l.nodes); };

  for (bool warm : {false, true}) {
    double self = sum_over(closure_phase(warm), [](const PhaseLayers& l) {
      return l.op_us - l.child_store_us();
    });
    AddMetric(warm ? "hypermodel.self_us_per_node.warm"
                   : "hypermodel.self_us_per_node.cold",
              ratio(self, sum_over(closure_phase(warm), nodes)), "us");
  }
  AddMetric("hypermodel.store_calls_per_node",
            ratio(sum_over(closures,
                           [](const PhaseLayers& l) {
                             return static_cast<double>(l.child_store_calls());
                           }),
                  sum_over(closures, nodes)),
            "count");
  AddMetric("setup.internal_nodes_ms", creation_.internal_nodes_ms, "ms");
  AddMetric("setup.leaf_nodes_ms", creation_.leaf_nodes_ms, "ms");
  AddMetric("setup.rel_1n_ms", creation_.rel_1n_ms, "ms");
  AddMetric("setup.rel_mn_ms", creation_.rel_mn_ms, "ms");
  AddMetric("setup.rel_mnatt_ms", creation_.rel_mnatt_ms, "ms");

  auto per_call = [&](MethodClass cls, auto&& pick) {
    size_t c = static_cast<size_t>(cls);
    return ratio(sum_over(pick, [c](const PhaseLayers& l) { return l.store_us[c]; }),
                 sum_over(pick, [c](const PhaseLayers& l) {
                   return static_cast<double>(l.store_calls[c]);
                 }));
  };
  const std::pair<MethodClass, const char*> split[] = {
      {MethodClass::kIndex, "store.index_us_per_call"},
      {MethodClass::kNav, "store.nav_us_per_call"},
      {MethodClass::kAttr, "store.attr_us_per_call"}};
  for (const auto& [cls, name] : split) {
    AddMetric(std::string(name) + ".cold", per_call(cls, phase(false)), "us");
    AddMetric(std::string(name) + ".warm", per_call(cls, phase(true)), "us");
  }
  // The editor's spans: contents reads/writes and the commit phases.
  std::map<Method, std::pair<double, uint64_t>> editor_calls;
  for (const Span& span : commits_.spans) {
    if (span.layer != Layer::kStore) continue;
    auto& [us, count] = editor_calls[static_cast<Method>(span.name)];
    us += static_cast<double>(span.duration_ns()) / 1000.0;
    ++count;
  }
  auto editor_mean = [&](std::initializer_list<Method> methods) {
    double us = 0;
    uint64_t count = 0;
    for (Method m : methods) {
      us += editor_calls[m].first;
      count += editor_calls[m].second;
    }
    return ratio(us, static_cast<double>(count));
  };
  AddMetric("store.contents_us_per_call",
            editor_mean({Method::kGetText, Method::kSetText}), "us");
  AddMetric("store.traversal_us_per_call",
            per_call(MethodClass::kTraversal, [](OpId, int) { return true; }),
            "us");
  AddMetric("store.commit_begin_us",
            editor_mean({Method::kCommitBegin, Method::kCommit}), "us");
  AddMetric("store.commit_wait_us", editor_mean({Method::kCommitWait}), "us");

  for (bool warm : {false, true}) {
    AddMetric(warm ? "objstore.objects_read_per_node.warm"
                   : "objstore.objects_read_per_node.cold",
              ratio(sum_over(phase(warm),
                             [](const PhaseLayers& l) {
                               return static_cast<double>(l.objects_read);
                             }),
                    sum_over(phase(warm), nodes)),
              "count");
  }
  AddMetric("storage.pool.misses_per_node.cold",
            ratio(sum_over(phase(false),
                           [](const PhaseLayers& l) {
                             return static_cast<double>(l.misses);
                           }),
                  sum_over(phase(false), nodes)),
            "count");
  double warm_hits = sum_over(phase(true), [](const PhaseLayers& l) {
    return static_cast<double>(l.hits);
  });
  double warm_misses = sum_over(phase(true), [](const PhaseLayers& l) {
    return static_cast<double>(l.misses);
  });
  AddMetric("storage.pool.hit_ratio.warm",
            ratio(warm_hits, warm_hits + warm_misses), "ratio");

  const telemetry::Snapshot& diff = commits_.diff;
  const double commits = static_cast<double>(commits_.commits);
  AddMetric("storage.pool.misses_per_commit",
            ratio(static_cast<double>(
                      diff.counter("storage.buffer_pool.misses")),
                  commits),
            "count");
  AddMetric("storage.wal.appends_per_commit",
            ratio(static_cast<double>(diff.counter("storage.wal.appends")),
                  commits),
            "count");
  AddMetric("storage.wal.syncs_per_commit",
            ratio(static_cast<double>(diff.counter("storage.wal.syncs")),
                  commits),
            "count");
  const std::pair<const char*, const char*> probe_units[] = {
      {"storage.page_read_us", "us"},
      {"storage.crc32_mb_per_s", "MB/s"},
      {"storage.pool_hit_ns", "ns"},
      {"storage.wal_append_us", "us"},
      {"storage.fsync_us", "us"}};
  for (const auto& [name, unit] : probe_units) {
    AddMetric(name, probes_[name], unit);
  }

  // Wire and server, over the closures and the scan.
  double roundtrips = sum_over(reads, [](const PhaseLayers& l) {
    return static_cast<double>(l.roundtrips);
  });
  double read_nodes = sum_over(reads, nodes);
  AddMetric("wire.roundtrips_per_node", ratio(roundtrips, read_nodes), "count");
  AddMetric("wire.bytes_per_node",
            ratio(sum_over(reads,
                           [](const PhaseLayers& l) {
                             return static_cast<double>(l.wire_bytes);
                           }),
                  read_nodes),
            "bytes");
  double server_us =
      sum_over(reads, [](const PhaseLayers& l) { return l.server_us; });
  double client_us =
      sum_over(reads, [](const PhaseLayers& l) { return l.child_store_us(); });
  AddMetric("wire.us_per_roundtrip", ratio(client_us - server_us, roundtrips),
            "us");
  AddMetric("server.backend_us_per_node",
            ratio(sum_over(closures,
                           [](const PhaseLayers& l) { return l.server_us; }),
                  sum_over(closures, nodes)),
            "us");

  telemetry::HistogramData fanout;
  std::vector<double> shard_rpcs(2, 0);
  for (const auto& phases : layers_) {
    for (const PhaseLayers& l : phases) {
      Merge(l.fanout, &fanout);
      for (size_t k = 0; k < l.shard_rpcs.size(); ++k) {
        shard_rpcs[k] += static_cast<double>(l.shard_rpcs[k]);
      }
    }
  }
  AddMetric("cluster.fanout.p50", static_cast<double>(fanout.Quantile(0.5)),
            "count");
  AddMetric("cluster.fanout.p99", static_cast<double>(fanout.Quantile(0.99)),
            "count");
  AddMetric("cluster.rpcs_per_closure",
            ratio(sum_over(closures,
                           [](const PhaseLayers& l) {
                             double rpcs = 0;
                             for (uint64_t n : l.shard_rpcs) {
                               rpcs += static_cast<double>(n);
                             }
                             return rpcs;
                           }),
                  sum_over(closures,
                           [](const PhaseLayers& l) {
                             return static_cast<double>(l.calls);
                           })),
            "count");
  double rpc_total = shard_rpcs[0] + shard_rpcs[1];
  AddMetric("cluster.shard_balance",
            ratio(std::max(shard_rpcs[0], shard_rpcs[1]), rpc_total / 2),
            "ratio");

  // Attribution check: closure1N's cold-minus-warm store time per node
  // against its cold pool misses per node times one page read.
  const auto& c1n = layers_[Index(OpId::kClosure1N)];
  double gap = ratio(c1n[0].child_store_us(), static_cast<double>(c1n[0].nodes)) -
               ratio(c1n[1].child_store_us(), static_cast<double>(c1n[1].nodes));
  double miss_cost = ratio(static_cast<double>(c1n[0].misses),
                           static_cast<double>(c1n[0].nodes)) *
                     probes_["storage.page_read_us"];
  AddMetric("attribution.closure1n_store_gap_us_per_node", gap, "us");
  AddMetric("attribution.closure1n_miss_cost_us_per_node", miss_cost, "us");
  AddMetric("attribution.closure1n_ratio", ratio(gap, miss_cost), "ratio");

  double traced = samples_.traced_pass_ms.Summary(0.5);
  double untraced = samples_.untraced_pass_ms.Summary(0.5);
  AddMetric("trace.overhead_pct", untraced > 0 ? 100 * (traced / untraced - 1) : 0,
            "%");
}

void Run::PrintStamp(std::ostream& out) {
  const char* lock_rank =
#ifdef HM_LOCK_RANK_CHECKS
      "true";
#else
      "false";
#endif
  const char* failpoints =
#ifdef HM_FAILPOINT_SITES
      "true";
#else
      "false";
#endif
  out << "{\"workload\":\"" << config_.name << "\",\"seed\":" << args_.seed
      << ",\"seconds\":" << args_.seconds << ",\"trace\":" << args_.trace
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
      << "\",\"lock_rank_checks\":" << lock_rank
      << ",\"failpoint_sites\":" << failpoints
      << ",\"host_cores\":" << std::thread::hardware_concurrency()
      << ",\"commit\":\"" << args_.commit << "\",\"level\":" << kLevel
      << ",\"stack\":\"" << (config_.sharded ? "shard://2 x mem" : "oodb")
      << "\",\"pool_pages\":" << kPoolPages << ",\"group_commit_us\":"
      << backends::OodbOptions{}.group_commit_us << ",\"passes\":" << samples_.passes
      << ",\"lookup_calls\":" << samples_.lookup_call_us.size()
      << ",\"closure_calls\":" << samples_.closure_call_us.size()
      << ",\"commits\":" << commits_.commits
      << ",\"lookup_tail_q\":" << TailQuantile(samples_.lookup_call_us.size())
      << ",\"commit_tail_q\":" << commits_.tail_q;
  for (const auto& [name, seconds] : stage_s_) {
    out << ",\"stage_" << name << "_s\":" << seconds;
  }
  out << "}";
}

void Run::PrintResult() {
  // ms/node per op as reported, with the range across passes.
  std::cout << "op                        cold_ms/node (min..max)      "
               "warm_ms/node (min..max)\n";
  auto cell = [](const PerCpuSamples& per_cpu) {
    std::ostringstream out;
    out << std::setprecision(3) << per_cpu.Summary(kPassQuantile);
    std::vector<double> samples = per_cpu.Pooled();
    if (!samples.empty()) {
      out << " (" << *std::min_element(samples.begin(), samples.end())
          << ".." << *std::max_element(samples.begin(), samples.end())
          << ")";
    }
    return out.str();
  };
  for (OpId op : AllOps()) {
    std::cout << std::left << std::setw(26) << OpName(op) << std::setw(29)
              << cell(samples_.cold_ms_per_node[Index(op)])
              << cell(samples_.warm_ms_per_node[Index(op)]) << "\n";
  }
  std::cout << "stamp ";
  PrintStamp(std::cout);
  std::cout << "\n";
  std::ostringstream json;
  json << std::setprecision(12);
  json << "{\"correct\": " << (accounting_.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<uint64_t>(accounting_.attempted, 1)
       << ", \"failed\": " << accounting_.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
         << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

void Run::WriteTrace() {
  if (args_.trace_out.empty()) return;
  std::ofstream out(args_.trace_out);
  out << "{\"stamp\":";
  PrintStamp(out);
  out << "}\n";
  WriteSpans(kept_spans_, SpanName, out);
  std::vector<Span> commit_spans(
      commits_.spans.begin(),
      commits_.spans.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(commits_.spans.size(), kKeptSpansPerPhase)));
  WriteSpans(commit_spans, SpanName, out);
  std::vector<Span> probe_spans = tracer_.Take();
  WriteSpans(probe_spans, SpanName, out);
}

int Run::Main() {
  // Wall time of each stage, for the stamp.
  auto stage = [this](const char* name, auto&& body) {
    int64_t start = Tracer::NowNs();
    util::Status status = body();
    stage_s_.emplace_back(name, SecondsSince(start));
    return status;
  };
  util::Status status = stage("setup", [&] { return Setup(); });
  if (status.ok()) status = stage("verify", [&] { return Verify(); });
  // The protocol gets three quarters of --seconds (but at least its
  // minimum passes); the editor gets the rest, and at least a quarter.
  const int64_t measure_start = Tracer::NowNs();
  if (status.ok()) {
    status = stage("protocol",
                   [&] { return Protocol(0.75 * args_.seconds); });
  }
  if (status.ok()) {
    status = stage("editor", [&] {
      return Editor(std::max(args_.seconds - SecondsSince(measure_start),
                             0.25 * args_.seconds));
    });
  }
  if (status.ok()) status = stage("read_back", [&] { return ReadBack(); });
  if (status.ok() && args_.trace) {
    std::string data_file =
        stack_->oodb() != nullptr ? stack_->dir() + "/objects.db" : "";
    timed_.reset();
    stack_.reset();
    tracer_.set_enabled(true);
    auto probes = RunProbes(data_file, args_.workdir + "/probe", &tracer_);
    tracer_.set_enabled(false);
    status = probes.status();
    if (probes.ok()) probes_ = std::move(*probes);
  }
  if (!status.ok()) accounting_.Error(status, "run aborted");
  timed_.reset();
  stack_.reset();
  std::filesystem::remove_all(args_.workdir + "/db");

  if (args_.trace) {
    LayerMetrics();
    WriteTrace();
  } else {
    EndToEndMetrics();
  }
  PrintResult();
  return accounting_.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hm::perfbench

int main(int argc, char** argv) {
  hm::perfbench::Args args;
  if (!hm::perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: hm_perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --workdir=DIR [--commit=SHA] "
                 "[--trace-out=PATH]\n";
    return 2;
  }
  const hm::perfbench::WorkloadConfig* config =
      hm::perfbench::FindWorkload(args.workload);
  if (config == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "' (have:";
    for (std::string_view name : hm::perfbench::WorkloadNames()) {
      std::cerr << " " << name;
    }
    std::cerr << ")\n";
    return 2;
  }
  hm::perfbench::Run run(args, *config);
  return run.Main();
}
