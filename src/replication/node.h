#ifndef HM_REPLICATION_NODE_H_
#define HM_REPLICATION_NODE_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "hypermodel/backends/oodb_store.h"
#include "replication/coordinator.h"
#include "replication/replicator.h"
#include "server/server.h"
#include "util/status.h"

namespace hm::replication {

/// One node of a replicated oodb fleet (DESIGN.md §16): an OodbStore
/// served by a Server, with the Coordinator that gives it its role.
/// Every primary and replica in this repository — `hmbench serve`,
/// bench_replication and the tests — is assembled here, so the
/// ordering and role rules live in one place:
///
///  1. A primary starts shipping its WAL before the server accepts a
///     connection.
///  2. A replica starts pulling only after the server is up: the pull
///     thread applies through the server's exclusive dispatch hook.
///  3. Stop() and the destructor stop the coordinator (the pull
///     thread) before the server, whatever the caller did first.
///  4. A replica refuses a store that runs a background checkpointer:
///     a fuzzy checkpoint would move recovery past replicated applies
///     that exist in no local WAL.
///
/// Layout: `CoordinatorOptions::state_dir` holds the role/epoch state
/// and, on a replica, the WAL mirror in `<state_dir>/repl_mirror`; a
/// replica's follower id is its bound port.
class Node {
 public:
  /// Starts a node serving `store`. Without `replica_of` it is a
  /// primary whose chain replays from empty (or, when its state
  /// directory holds a fence, a fenced old primary that serves reads
  /// only); with it, a replica of `replica_of->primary`, whose
  /// `mirror_dir` and `follower_id` the node sets. The node sets
  /// `server_options.replication` and clears its `reset_factory`: a
  /// reset would fork the chain under the followers.
  static util::Result<std::unique_ptr<Node>> Start(
      std::unique_ptr<backends::OodbStore> store,
      server::ServerOptions server_options,
      const CoordinatorOptions& coordinator_options,
      std::optional<ReplicatorOptions> replica_of = std::nullopt);

  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Stops the replicator (a replica's pull thread), then the server,
  /// which drains its in-flight requests. Idempotent; the store stays
  /// open until the node is destroyed.
  void Stop();

  uint16_t port() const { return server_->port(); }
  server::Server* server() const { return server_.get(); }
  Coordinator* coordinator() const { return coordinator_.get(); }

 private:
  explicit Node(std::unique_ptr<Coordinator> coordinator)
      : coordinator_(std::move(coordinator)) {}

  // Declared first so it is destroyed last: the server holds a raw
  // pointer to it.
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<server::Server> server_;
};

}  // namespace hm::replication

#endif  // HM_REPLICATION_NODE_H_
