#ifndef HM_PERFBENCH_TRACER_H_
#define HM_PERFBENCH_TRACER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string_view>
#include <vector>

namespace hm::perfbench {

/// The boundary a span was recorded at.
enum class Layer : uint8_t {
  kOp = 0,      // one §6 operation call (ops::*)
  kStore = 1,   // a client-side HyperStore method
  kServer = 2,  // a server-side backend method (under ShardLocalStore)
  kCommit = 3,  // a phase of an editor's transaction
  kProbe = 4,   // one unit-cost probe of a storage function
};

std::string_view LayerName(Layer layer);

inline constexpr uint32_t kNoParent = ~0u;

/// One timed interval. `name` is a Method (timed_store.h) for store and
/// server spans, an OpId for op spans, and a probe or commit-phase
/// index otherwise. `parent` is filled by AssignParents().
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint16_t name = 0;
  Layer layer = Layer::kOp;
  uint32_t parent = kNoParent;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span sink shared by every recording thread. Recording is
/// off until enabled; a disabled tracer costs one relaxed load per
/// decorated call.
class Tracer {
 public:
  static int64_t NowNs();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void Record(const Span& span);

  /// Moves out everything recorded so far.
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Sorts `spans` by start time (longer first on ties) and sets each
/// span's parent to the innermost earlier span whose interval contains
/// it. This attributes server spans, recorded on worker threads, to
/// the client store call that was waiting for them: the client is
/// single-threaded, so at most one client call is open at a time.
void AssignParents(std::vector<Span>* spans);

/// Writes spans as JSON lines {"layer","name","start_ns","dur_ns",
/// "parent"}, naming each span with `name_of`.
void WriteSpans(const std::vector<Span>& spans,
                std::string_view (*name_of)(const Span&), std::ostream& out);

}  // namespace hm::perfbench

#endif  // HM_PERFBENCH_TRACER_H_
