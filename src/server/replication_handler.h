#ifndef HM_SERVER_REPLICATION_HANDLER_H_
#define HM_SERVER_REPLICATION_HANDLER_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace hm::server {

/// kReplSubscribe result: where the primary's WAL chain stands.
struct ReplChain {
  uint64_t epoch = 0;       // primary's current epoch
  uint64_t next_lsn = 0;    // primary's next WAL LSN
  uint64_t oldest_seq = 0;  // oldest retained segment
};

/// kReplSegment result: one chunk of one WAL segment. An empty chunk at
/// the flushed size of an unsealed segment means "caught up, poll
/// again".
struct ReplChunk {
  bool sealed = false;        // the segment is closed
  uint64_t flushed_size = 0;  // its currently durable size
  std::string bytes;
};

/// kReplStatus result: one peer's replication standing.
struct ReplPeer {
  uint8_t role = 0;          // replication::Role byte
  uint64_t epoch = 0;
  uint64_t durable_lsn = 0;  // primary: next WAL LSN; replica:
                             // replayed LSN
};

/// Pluggable replication role for a Server (wire v6, DESIGN.md §16).
///
/// The server itself knows nothing about WAL shipping or epochs; it
/// only enforces two contracts when a handler is installed:
///
///   1. every mutating opcode is first gated through CheckMutation(),
///      so a replica answers writes with a typed kReadOnly and a
///      fenced old primary with kFencedOff instead of diverging, and
///   2. the five kRepl* opcodes are forwarded here as typed arguments
///      and results (the call table, server/wire_calls.h, owns their
///      bytes). Subscribe/Segment/Status never touch the backend (the
///      WAL, the shipper and the role word are all internally
///      synchronized), so the server dispatches them without taking
///      the dispatch lock at all — a commit blocking on the semi-sync
///      barrier can still receive the follower ack that releases it.
///      Promote/Fence take the exclusive side, so a promotion is
///      mutually exclusive with every in-flight request.
///
/// The concrete implementation lives in src/replication — above the
/// server in the link order — which keeps hm_server free of any
/// dependency on the storage engine.
class ReplicationHandler {
 public:
  virtual ~ReplicationHandler() = default;

  /// Gate for every mutating opcode (including kReset and
  /// transactions). Ok on a writable primary; ReadOnly on a replica;
  /// FencedOff on a primary that a newer epoch has fenced.
  virtual util::Status CheckMutation() = 0;

  /// Semi-synchronous commit barrier: called after a successful
  /// kCommit, while the exclusive dispatch lock is still held. The
  /// primary blocks (bounded) until at least one follower has acked a
  /// replayed LSN covering the commit — replay is a strict log
  /// prefix, so promoting the most-replayed follower then preserves
  /// every commit acknowledged through this barrier. The ack arrives
  /// as a kReplStatus, which the server dispatches WITHOUT taking the
  /// dispatch lock (see Server::Dispatch) — that bypass is what keeps
  /// this wait from deadlocking against itself.
  virtual util::Status WaitCommitReplicated() = 0;

  /// kReplSubscribe: follower handshake. `wire_version` is the
  /// follower's; `resume_seq` 0 means a fresh subscription.
  virtual util::Result<ReplChain> HandleSubscribe(uint64_t wire_version,
                                                  uint64_t follower_id,
                                                  uint64_t resume_seq) = 0;

  /// kReplSegment: up to `max_bytes` of segment `seq` from `offset`.
  virtual util::Result<ReplChunk> HandleSegment(uint64_t seq,
                                                uint64_t offset,
                                                uint64_t max_bytes) = 0;

  /// kReplStatus: follower progress report and/or liveness probe
  /// (both arguments 0 = pure query).
  virtual util::Result<ReplPeer> HandleStatus(uint64_t follower_id,
                                              uint64_t replayed_lsn) = 0;

  /// kReplPromote: replica-only; replay the received backlog, persist
  /// the new epoch and start taking writes. Returns the epoch now in
  /// force.
  virtual util::Result<uint64_t> HandlePromote(uint64_t proposed_epoch) = 0;

  /// kReplFence: demote this node if the caller's epoch is newer,
  /// persisting the fence so it survives restarts. Returns the epoch
  /// now in force.
  virtual util::Result<uint64_t> HandleFence(uint64_t fencing_epoch) = 0;
};

}  // namespace hm::server

#endif  // HM_SERVER_REPLICATION_HANDLER_H_
