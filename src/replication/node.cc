#include "replication/node.h"

#include <functional>
#include <utility>

namespace hm::replication {

util::Result<std::unique_ptr<Node>> Node::Start(
    std::unique_ptr<backends::OodbStore> store,
    server::ServerOptions server_options,
    const CoordinatorOptions& coordinator_options,
    std::optional<ReplicatorOptions> replica_of) {
  const bool as_replica = replica_of.has_value();
  if (as_replica &&
      store->object_store()->options().checkpoint_interval_ms > 0) {
    return util::Status::InvalidArgument(
        "replication: a replica must not run a background checkpointer");
  }
  HM_ASSIGN_OR_RETURN(std::unique_ptr<Coordinator> coord,
                      Coordinator::Open(coordinator_options, as_replica));
  std::unique_ptr<Node> node(new Node(std::move(coord)));
  backends::OodbStore* oodb = store.get();
  if (!as_replica) {
    HM_RETURN_IF_ERROR(
        node->coordinator_->ServePrimary(oodb, /*chain_complete=*/true));
  }
  server_options.replication = node->coordinator_.get();
  server_options.reset_factory = nullptr;
  HM_ASSIGN_OR_RETURN(node->server_,
                      server::Server::Start(server_options, std::move(store)));
  if (as_replica) {
    replica_of->mirror_dir = coordinator_options.state_dir + "/repl_mirror";
    replica_of->follower_id = node->port();
    server::Server* raw_server = node->server_.get();
    HM_RETURN_IF_ERROR(node->coordinator_->ServeReplica(
        *replica_of, oodb, [raw_server](const std::function<void()>& fn) {
          raw_server->WithExclusiveBackend([&fn](HyperStore*) { fn(); });
        }));
  }
  return node;
}

Node::~Node() { Stop(); }

void Node::Stop() {
  coordinator_->Shutdown();
  if (server_ != nullptr) server_->Stop();
}

}  // namespace hm::replication
