#ifndef HM_STORAGE_COMMIT_PIPELINE_GROUP_COMMIT_H_
#define HM_STORAGE_COMMIT_PIPELINE_GROUP_COMMIT_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "util/lock_rank.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hm::storage {

/// Amortizes one log fsync over many concurrent committers. It is the
/// only way an oodb or rel commit becomes durable: a lone committer
/// goes through it too, and simply leads a batch of one.
///
/// A committer appends its records to the WAL (under its store's write
/// lock), Enroll()s for a ticket, then blocks in WaitDurable() until a
/// sync covering its ticket has completed. The first waiter whose
/// ticket is not yet durable elects itself leader; a leader that
/// already has company runs the sync function immediately, once for
/// the whole batch, publishes the new durable ticket, and wakes
/// everyone it covered. Committers that enroll while the fsync is in
/// flight form the next batch and elect the next leader, so under
/// steady load batches build up *during* the syncs — pipelined, with
/// no added latency. Only a solo leader lingers, up to `window_us`
/// (in short slices, leaving as soon as an entire slice passes with
/// no new enrollment), hoping to turn its private fsync into a shared
/// one. The sync function runs with no coordinator lock held.
class GroupCommitCoordinator {
 public:
  using SyncFn = std::function<util::Status()>;

  /// `window_us` is the most a solo leader waits for a companion
  /// before syncing; at 0 it syncs at once.
  GroupCommitCoordinator(SyncFn sync, uint32_t window_us);

  GroupCommitCoordinator(const GroupCommitCoordinator&) = delete;
  GroupCommitCoordinator& operator=(const GroupCommitCoordinator&) = delete;

  /// Registers one commit for the next sync batch and returns its
  /// ticket. Call after the commit record is appended (buffered) to
  /// the log, holding whatever lock serializes appends, so tickets
  /// order consistently with LSNs.
  uint64_t Enroll();

  /// Blocks until a sync covering `ticket` has run; returns that
  /// sync's status. Must not be called with the append lock held.
  util::Status WaitDurable(uint64_t ticket);

  /// Waits until everything enrolled so far is durable (shutdown).
  util::Status Drain();

  /// Completed sync batches (== number of sync calls issued).
  uint64_t batches() const;

 private:
  /// Guards everything below. Ranked above the WAL: WaitDurable
  /// releases it before calling sync_, which takes the WAL lock.
  mutable util::RankedMutex<util::LockRank::kGroupCommit> mu_;
  std::condition_variable_any enrolled_cv_;  // leader <- new enrollments
  std::condition_variable_any durable_cv_;   // followers <- batch done

  /// Immutable after construction (called with mu_ *released*).
  SyncFn sync_;
  uint32_t window_us_;
  uint64_t enrolled_ HM_GUARDED_BY(mu_) = 0;  // tickets handed out
  /// Highest ticket covered by a finished sync.
  uint64_t durable_ HM_GUARDED_BY(mu_) = 0;
  bool leader_active_ HM_GUARDED_BY(mu_) = false;
  uint64_t batches_ HM_GUARDED_BY(mu_) = 0;
  /// A failed sync poisons every ticket it covered: tickets in
  /// (durable_before, error_until_] observe error_.
  uint64_t error_until_ HM_GUARDED_BY(mu_) = 0;
  uint64_t error_from_ HM_GUARDED_BY(mu_) = 0;
  util::Status error_ HM_GUARDED_BY(mu_);
};

}  // namespace hm::storage

#endif  // HM_STORAGE_COMMIT_PIPELINE_GROUP_COMMIT_H_
