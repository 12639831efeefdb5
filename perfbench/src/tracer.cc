#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <ostream>

namespace hm::perfbench {

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp:
      return "op";
    case Layer::kStore:
      return "store";
    case Layer::kServer:
      return "server";
    case Layer::kCommit:
      return "commit";
    case Layer::kProbe:
      return "probe";
  }
  return "?";
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Record(const Span& span) {
  std::lock_guard lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Take() {
  std::lock_guard lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

void AssignParents(std::vector<Span>* spans) {
  std::sort(spans->begin(), spans->end(), [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<uint32_t> open;  // indices of spans that may still contain
  for (uint32_t i = 0; i < spans->size(); ++i) {
    Span& span = (*spans)[i];
    while (!open.empty() && (*spans)[open.back()].end_ns < span.end_ns) {
      open.pop_back();
    }
    span.parent = open.empty() ? kNoParent : open.back();
    open.push_back(i);
  }
}

void WriteSpans(const std::vector<Span>& spans,
                std::string_view (*name_of)(const Span&), std::ostream& out) {
  for (const Span& span : spans) {
    out << "{\"layer\":\"" << LayerName(span.layer) << "\",\"name\":\""
        << name_of(span) << "\",\"start_ns\":" << span.start_ns
        << ",\"dur_ns\":" << span.duration_ns() << ",\"parent\":";
    if (span.parent == kNoParent) {
      out << "null";
    } else {
      out << span.parent;
    }
    out << "}\n";
  }
}

}  // namespace hm::perfbench
