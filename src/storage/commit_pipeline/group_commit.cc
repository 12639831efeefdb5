#include "storage/commit_pipeline/group_commit.h"

#include <algorithm>
#include <chrono>

#include "telemetry/metrics.h"
#include "util/failpoint.h"

namespace hm::storage {

GroupCommitCoordinator::GroupCommitCoordinator(SyncFn sync,
                                               uint32_t window_us)
    : sync_(std::move(sync)), window_us_(window_us) {}

uint64_t GroupCommitCoordinator::Enroll() {
  util::MutexLock lock(mu_);
  uint64_t ticket = ++enrolled_;
  enrolled_cv_.notify_all();
  return ticket;
}

util::Status GroupCommitCoordinator::WaitDurable(uint64_t ticket) {
  using Clock = std::chrono::steady_clock;
  util::MutexLock lock(mu_);
  while (durable_ < ticket) {
    if (leader_active_) {
      durable_cv_.wait(lock);
      continue;
    }
    // Become leader for the next batch. A leader with company syncs
    // immediately: committers that arrive while the fsync is in
    // flight enroll into the *next* batch, so under steady load the
    // pipeline batches naturally with no added latency — lingering on
    // top of that only delays the group. The window therefore matters
    // only to a solo leader, which hangs back for up to `window_us`
    // hoping a companion turns the fsync into a shared one; it gives
    // up early once an entire slice passes with no new enrollment.
    leader_active_ = true;
    if (window_us_ > 0) {
      auto deadline = Clock::now() + std::chrono::microseconds(window_us_);
      auto slice = std::chrono::microseconds(
          std::clamp<uint32_t>(window_us_ / 4, 50, 250));
      while (Clock::now() < deadline && enrolled_ - durable_ < 2) {
        uint64_t seen = enrolled_;
        enrolled_cv_.wait_until(lock,
                                std::min(deadline, Clock::now() + slice));
        if (enrolled_ == seen) break;
      }
    }
    uint64_t batch_start = durable_;
    uint64_t batch_end = enrolled_;
    lock.unlock();
    HM_FAILPOINT_HIT("group_commit/leader/delay");
    util::Status status = sync_();
    lock.lock();
    durable_ = batch_end;
    ++batches_;
    if (!status.ok()) {
      error_from_ = batch_start;
      error_until_ = batch_end;
      error_ = status;
    }
    static telemetry::Histogram* group_size =
        telemetry::Registry::Global().GetHistogram("storage.wal.group_size");
    group_size->Record(batch_end - batch_start);
    leader_active_ = false;
    durable_cv_.notify_all();
  }
  if (ticket > error_from_ && ticket <= error_until_) return error_;
  return util::Status::Ok();
}

util::Status GroupCommitCoordinator::Drain() {
  uint64_t ticket;
  {
    util::MutexLock lock(mu_);
    ticket = enrolled_;
  }
  if (ticket == 0) return util::Status::Ok();
  return WaitDurable(ticket);
}

uint64_t GroupCommitCoordinator::batches() const {
  util::MutexLock lock(mu_);
  return batches_;
}

}  // namespace hm::storage
