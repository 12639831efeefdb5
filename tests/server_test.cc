// Server-level tests: the worker pool, per-connection sessions, reset,
// shutdown behaviour and protocol hygiene over real loopback sockets.
// These carry the `server` ctest label so they can be singled out for
// a TSAN run (cmake -DHM_SANITIZE=thread, then ctest -L server).

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <chrono>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/generator.h"
#include "hypermodel/operations.h"
#include "server/wire_calls.h"
#include "telemetry/metrics.h"
#include "util/coding.h"
#include "util/failpoint.h"

namespace hm {
namespace {

using backends::MemStore;
using backends::RemoteModeName;
using backends::RemoteStore;

std::unique_ptr<server::Server> StartMemServer(
    server::ServerOptions options = {}) {
  options.host = "127.0.0.1";
  options.port = 0;
  auto srv = server::Server::Start(options, std::make_unique<MemStore>());
  EXPECT_TRUE(srv.ok()) << srv.status().ToString();
  return srv.ok() ? std::move(*srv) : nullptr;
}

std::unique_ptr<RemoteStore> ConnectTo(
    const server::Server& srv,
    backends::RemoteMode mode = backends::RemoteMode::kPushdown) {
  backends::RemoteOptions options;
  options.host = srv.host();
  options.port = srv.port();
  options.mode = mode;
  auto store = RemoteStore::Connect(options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.ok() ? std::move(*store) : nullptr;
}

server::ServerOptions WithMemResetFactory(server::ServerOptions options = {}) {
  options.reset_factory = []() -> util::Result<std::unique_ptr<HyperStore>> {
    return std::unique_ptr<HyperStore>(std::make_unique<MemStore>());
  };
  return options;
}

NodeAttrs MakeAttrs(int64_t uid) {
  NodeAttrs attrs;
  attrs.unique_id = uid;
  attrs.ten = uid % 10 + 1;
  attrs.hundred = uid % 100 + 1;
  attrs.thousand = uid % 1000 + 1;
  attrs.million = uid % 1000000 + 1;
  return attrs;
}

TEST(ServerTest, StartsOnEphemeralPortAndStops) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  EXPECT_GT(srv->port(), 0);
  srv->Stop();
  srv->Stop();  // idempotent
}

TEST(ServerTest, HandshakeReportsBackendAndVersion) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->name(), "remote");
  EXPECT_EQ(client->server_backend(), "mem");
}

TEST(ServerTest, ServesBasicOperations) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->Begin().ok());
  auto node = client->CreateNode(MakeAttrs(7), kInvalidNode);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  ASSERT_TRUE(client->Commit().ok());

  EXPECT_EQ(*client->GetAttr(*node, Attr::kUniqueId), 7);
  EXPECT_EQ(*client->LookupUnique(7), *node);
  EXPECT_TRUE(client->LookupUnique(9999).status().IsNotFound());
  EXPECT_GE(srv->requests_served(), 6u);
}

TEST(ServerTest, ServesConcurrentClients) {
  server::ServerOptions options;
  options.workers = 4;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);

  // Each thread drives its own connection over a disjoint uid range;
  // the server serializes backend access, so all creates must land.
  constexpr int kClients = 4;
  constexpr int kNodesPerClient = 50;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ConnectTo(*srv);
      ASSERT_NE(client, nullptr);
      ASSERT_TRUE(client->Begin().ok());
      for (int i = 0; i < kNodesPerClient; ++i) {
        int64_t uid = c * kNodesPerClient + i + 1;
        auto node = client->CreateNode(MakeAttrs(uid), kInvalidNode);
        ASSERT_TRUE(node.ok()) << node.status().ToString();
      }
      ASSERT_TRUE(client->Commit().ok());
    });
  }
  for (std::thread& t : threads) t.join();

  auto checker = ConnectTo(*srv);
  ASSERT_NE(checker, nullptr);
  for (int64_t uid = 1; uid <= kClients * kNodesPerClient; ++uid) {
    EXPECT_TRUE(checker->LookupUnique(uid).ok()) << "uid " << uid;
  }
  EXPECT_EQ(srv->connections_accepted(), kClients + 1u);
}

TEST(ServerTest, MoreClientsThanWorkers) {
  // With a single worker, connections are served one after another;
  // clients queue at the door instead of failing.
  server::ServerOptions options;
  options.workers = 1;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);

  std::vector<std::thread> threads;
  for (int c = 0; c < 6; ++c) {
    threads.emplace_back([&, c] {
      auto client = ConnectTo(*srv);
      ASSERT_NE(client, nullptr);
      auto node = client->CreateNode(MakeAttrs(c + 1), kInvalidNode);
      EXPECT_TRUE(node.ok()) << node.status().ToString();
      // Client destructor closes the connection, freeing the worker.
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(srv->connections_rejected(), 0u);
}

TEST(ServerTest, ResetRecreatesBackend) {
  auto srv = StartMemServer(WithMemResetFactory());
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->CreateNode(MakeAttrs(1), kInvalidNode).ok());
  ASSERT_TRUE(client->Commit().ok());
  ASSERT_TRUE(client->LookupUnique(1).ok());

  ASSERT_TRUE(client->ResetServer().ok());
  EXPECT_TRUE(client->LookupUnique(1).status().IsNotFound());
  // The uid is free again — a second benchmark run can rebuild.
  ASSERT_TRUE(client->Begin().ok());
  EXPECT_TRUE(client->CreateNode(MakeAttrs(1), kInvalidNode).ok());
  ASSERT_TRUE(client->Commit().ok());
}

TEST(ServerTest, ResetWithoutFactoryIsNotSupportedOnceDirty) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  // While the database is untouched, Reset is an idempotent no-op
  // even without a factory — and can be repeated freely.
  EXPECT_TRUE(client->ResetServer().ok());
  EXPECT_TRUE(client->ResetServer().ok());
  // Once something mutated, an actual rebuild is needed, and there is
  // nothing to rebuild with.
  ASSERT_TRUE(client->CreateNode(MakeAttrs(1), kInvalidNode).ok());
  util::Status status = client->ResetServer();
  EXPECT_EQ(status.code(), util::StatusCode::kNotSupported);
}

TEST(ServerTest, ResetOnOpenIsIdempotentAcrossSessions) {
  // The benchmark harness resets on every open; two harness processes
  // opening a clean server back to back must not invalidate each
  // other's sessions (no epoch bump on a no-op reset).
  auto srv = StartMemServer(WithMemResetFactory());
  ASSERT_NE(srv, nullptr);
  auto first = ConnectTo(*srv);
  auto second = ConnectTo(*srv);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(first->ResetServer().ok());
  EXPECT_TRUE(second->ResetServer().ok());
  // Both sessions still work: the database was never rebuilt.
  EXPECT_TRUE(first->StorageBytes().ok());
  EXPECT_TRUE(second->StorageBytes().ok());
}

TEST(ServerTest, ResetByAnotherSessionYieldsCleanConflict) {
  // Regression: one client resets a dirty database while another holds
  // refs into it. The bystander must get a clean kConflict — its refs
  // point into a discarded store — not a crash or stale data.
  auto srv = StartMemServer(WithMemResetFactory());
  ASSERT_NE(srv, nullptr);
  auto builder = ConnectTo(*srv);
  auto bystander = ConnectTo(*srv);
  ASSERT_NE(builder, nullptr);
  ASSERT_NE(bystander, nullptr);

  ASSERT_TRUE(builder->Begin().ok());
  auto node = builder->CreateNode(MakeAttrs(1), kInvalidNode);
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE(builder->Commit().ok());
  // The bystander observes the dirty store before the reset.
  EXPECT_TRUE(bystander->LookupUnique(1).ok());

  ASSERT_TRUE(builder->ResetServer().ok());
  // The resetting session keeps working against the fresh store...
  EXPECT_TRUE(builder->LookupUnique(1).status().IsNotFound());
  // ...while the bystander's stale session gets kConflict on any op.
  util::Status status = bystander->GetAttr(*node, Attr::kUniqueId).status();
  EXPECT_EQ(status.code(), util::StatusCode::kConflict)
      << status.ToString();
  // A brand-new session adopts the fresh store cleanly.
  auto late = ConnectTo(*srv);
  ASSERT_NE(late, nullptr);
  EXPECT_TRUE(late->LookupUnique(1).status().IsNotFound());
}

/// Reads one frame from `fd` into `*payload`, buffering in `*rx`.
bool ReadFrame(int fd, std::string* rx, std::string* payload) {
  char buf[4096];
  for (;;) {
    std::string_view view;
    size_t frame_len = 0;
    server::FrameResult decoded = server::DecodeFrame(*rx, &view, &frame_len);
    if (decoded == server::FrameResult::kOk) {
      payload->assign(view);
      rx->erase(0, frame_len);
      return true;
    }
    if (decoded != server::FrameResult::kIncomplete) return false;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    rx->append(buf, static_cast<size_t>(n));
  }
}

int DialLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServerTest, HelloRequiresExactWireVersion) {
  // One wire version: a Hello naming any other version — including
  // the empty body of the oldest clients — is refused with a typed
  // kVersionMismatch, and the connection keeps serving.
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  int fd = DialLoopback(srv->port());
  ASSERT_GE(fd, 0);
  std::string rx;
  auto roundtrip = [&](std::string_view payload) {
    std::string frame;
    server::AppendFrame(&frame, payload);
    EXPECT_TRUE(server::WriteAll(fd, frame));
    std::string response;
    EXPECT_TRUE(ReadFrame(fd, &rx, &response));
    return response;
  };
  auto hello = [&](const std::string& body) {
    return roundtrip(
        std::string(1, static_cast<char>(server::OpCode::kHello)) + body);
  };

  const auto mismatch = static_cast<char>(util::StatusCode::kVersionMismatch);
  for (uint64_t version :
       {uint64_t{1}, uint64_t{server::kWireVersion - 1},
        uint64_t{server::kWireVersion + 1}}) {
    std::string body;
    util::PutVarint64(&body, version);
    std::string response = hello(body);
    ASSERT_FALSE(response.empty());
    EXPECT_EQ(response[0], mismatch) << "version " << version;
  }
  std::string empty = hello("");
  ASSERT_FALSE(empty.empty());
  EXPECT_EQ(empty[0], mismatch);

  std::string body;
  util::PutVarint64(&body, server::kWireVersion);
  std::string ok = hello(body);
  ASSERT_GE(ok.size(), 2u);
  EXPECT_EQ(ok[0], static_cast<char>(util::StatusCode::kOk));
  EXPECT_EQ(static_cast<uint8_t>(ok[1]), server::kWireVersion);
  ::close(fd);
}

TEST(ServerTest, ClientRefusesServerOfAnotherWireVersion) {
  // A fake server that answers Hello with a different version: the
  // client fails the handshake with kVersionMismatch instead of
  // talking past it.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::thread fake([listener] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string rx, request;
    if (ReadFrame(fd, &rx, &request)) {
      std::string response;
      server::PutStatus(&response, util::Status::Ok());
      response.push_back(static_cast<char>(server::kWireVersion + 1));
      util::PutLengthPrefixed(&response, "mem");
      std::string frame;
      server::AppendFrame(&frame, response);
      (void)server::WriteAll(fd, frame);
    }
    ::close(fd);
  });

  backends::RemoteOptions options;
  options.port = ntohs(addr.sin_port);
  options.max_retries = 0;
  auto store = RemoteStore::Connect(options);
  fake.join();
  ::close(listener);
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsVersionMismatch()) << store.status().ToString();
}

TEST(ServerTest, ClientRefusesChildrenAttrsReplyWithoutOneValuePerList) {
  // A fake server answers three kChildrenAttrsMulti requests for two
  // nodes: two lists with one value, two lists with three values, then
  // two of each. Only the last decodes; the others are MalformedReply.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::thread fake([listener] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    auto reply = [](size_t values) {
      server::ListsAndValues lists;
      lists.lists.Append(std::vector<NodeRef>{2, 3});
      lists.lists.Append(std::vector<NodeRef>{});
      lists.values.assign(values, 7);
      std::string body;
      server::PutStatus(&body, util::Status::Ok());
      server::calls::ChildrenAttrsMulti::EncodeReply(&body, lists);
      return body;
    };
    std::string hello;
    server::PutStatus(&hello, util::Status::Ok());
    server::calls::Hello::EncodeReply(&hello, {server::kWireVersion, "mem"});
    std::string rx, request;
    for (const std::string& response : {hello, reply(1), reply(3), reply(2)}) {
      if (!ReadFrame(fd, &rx, &request)) break;
      std::string frame;
      server::AppendFrame(&frame, response);
      if (!server::WriteAll(fd, frame)) break;
    }
    ::close(fd);
  });

  backends::RemoteOptions options;
  options.port = ntohs(addr.sin_port);
  options.max_retries = 0;
  options.mode = backends::RemoteMode::kBatched;
  auto store = RemoteStore::Connect(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const std::vector<NodeRef> nodes{1, 4};
  RefLists lists;
  std::vector<int64_t> values;
  for (int i = 0; i < 2; ++i) {
    util::Status status =
        (*store)->ChildrenAttrsMulti(nodes, Attr::kTen, &lists, &values);
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    EXPECT_NE(status.message().find("children_attrs_multi"),
              std::string::npos)
        << status.ToString();
  }
  ASSERT_TRUE(
      (*store)->ChildrenAttrsMulti(nodes, Attr::kTen, &lists, &values).ok());
  EXPECT_EQ(lists.size(), 2u);
  EXPECT_EQ(values, (std::vector<int64_t>{7, 7}));
  store->reset();
  fake.join();
  ::close(listener);
}

/// A replication role that accepts everything, so the kRepl* opcodes
/// reach their decoders instead of answering NotSupported.
class AcceptingRole : public server::ReplicationHandler {
 public:
  util::Status CheckMutation() override { return util::Status::Ok(); }
  util::Status WaitCommitReplicated() override { return util::Status::Ok(); }
  util::Result<server::ReplChain> HandleSubscribe(uint64_t, uint64_t,
                                                  uint64_t) override {
    return server::ReplChain{};
  }
  util::Result<server::ReplChunk> HandleSegment(uint64_t, uint64_t,
                                                uint64_t) override {
    return server::ReplChunk{};
  }
  util::Result<server::ReplPeer> HandleStatus(uint64_t, uint64_t) override {
    return server::ReplPeer{};
  }
  util::Result<uint64_t> HandlePromote(uint64_t epoch) override {
    return epoch;
  }
  util::Result<uint64_t> HandleFence(uint64_t epoch) override {
    return epoch;
  }
};

TEST(ServerTest, MalformedBodiesAnswerInvalidArgument) {
  // Every strict prefix of a valid body, every out-of-range value and
  // every valid body plus a trailing byte is answered InvalidArgument,
  // and the connection keeps serving: a Ping right after succeeds.
  namespace calls = server::calls;
  AcceptingRole role;
  server::ServerOptions options = WithMemResetFactory();
  options.replication = &role;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);
  int fd = DialLoopback(srv->port());
  ASSERT_GE(fd, 0);
  std::string rx;
  auto roundtrip = [&](std::string_view payload) {
    std::string frame;
    server::AppendFrame(&frame, payload);
    EXPECT_TRUE(server::WriteAll(fd, frame));
    std::string response;
    EXPECT_TRUE(ReadFrame(fd, &rx, &response));
    return response;
  };
  const std::string ok(1, static_cast<char>(util::StatusCode::kOk));
  const auto invalid = static_cast<char>(util::StatusCode::kInvalidArgument);
  auto expect_invalid = [&](const std::string& payload,
                            const std::string& what) {
    std::string response = roundtrip(payload);
    ASSERT_FALSE(response.empty()) << what;
    EXPECT_EQ(response[0], invalid)
        << what << ": " << server::OpCodeName(
                               static_cast<server::OpCode>(payload[0]));
    EXPECT_EQ(roundtrip(calls::Ping::Request()), ok) << "after " << what;
  };

  util::Bitmap form(8, 8);
  const std::vector<NodeRef> nodes{1, 2, 3};
  const std::vector<std::string> valid = {
      calls::Hello::Request(uint64_t{server::kWireVersion}),
      calls::Reset::Request(),
      calls::Begin::Request(),
      calls::Commit::Request(),
      calls::Abort::Request(),
      calls::CloseReopen::Request(),
      calls::SetText::Request(NodeRef{1}, std::string_view("text")),
      calls::SetForm::Request(NodeRef{1}, form),
      calls::GetAttr::Request(NodeRef{1}, Attr::kMillion),
      calls::SetAttr::Request(NodeRef{1}, Attr::kTen, int64_t{300}),
      calls::GetKind::Request(NodeRef{1}),
      calls::GetText::Request(NodeRef{1}),
      calls::GetForm::Request(NodeRef{1}),
      calls::SetContents::Request(NodeRef{1}, std::string_view("data")),
      calls::GetContents::Request(NodeRef{1}),
      calls::LookupUnique::Request(int64_t{300}),
      calls::RangeHundred::Request(int64_t{1}, int64_t{200}),
      calls::RangeMillion::Request(int64_t{1}, int64_t{20000}),
      calls::Children::Request(NodeRef{1}),
      calls::Parent::Request(NodeRef{1}),
      calls::Parts::Request(NodeRef{1}),
      calls::PartOf::Request(NodeRef{1}),
      calls::RefsTo::Request(NodeRef{1}),
      calls::RefsFrom::Request(NodeRef{1}),
      calls::StorageBytes::Request(),
      calls::ChildrenMulti::Request(std::span<const NodeRef>(nodes)),
      calls::GetAttrsMulti::Request(Attr::kTen,
                                    std::span<const NodeRef>(nodes)),
      calls::Closure1N::Request(NodeRef{1}),
      calls::ClosureMN::Request(NodeRef{1}),
      calls::ClosureMNAtt::Request(NodeRef{1}, 4),
      calls::Closure1NAttSum::Request(NodeRef{1}),
      calls::Closure1NAttSet::Request(NodeRef{1}),
      calls::Closure1NPred::Request(NodeRef{1}, int64_t{1000},
                                    int64_t{300000}),
      calls::ClosureMNAttLinkSum::Request(NodeRef{1}, 4),
      calls::Stats::Request(),
      calls::Ping::Request(),
      calls::ShardInfo::Request(),
      calls::ReplSubscribe::Request(uint64_t{server::kWireVersion},
                                    uint64_t{9}, uint64_t{300}),
      calls::ReplSegment::Request(uint64_t{300}, uint64_t{300},
                                  uint64_t{300}),
      calls::ReplStatus::Request(uint64_t{9}, uint64_t{300}),
      calls::ReplPromote::Request(uint64_t{300}),
      calls::ReplFence::Request(uint64_t{300}),
      calls::PartsMulti::Request(std::span<const NodeRef>(nodes)),
      calls::RefsToMulti::Request(std::span<const NodeRef>(nodes)),
      calls::SetAttrsMulti::Request(Attr::kTen,
                                    std::span<const NodeRef>(nodes),
                                    std::vector<int64_t>{7, 8, 9}),
      calls::ChildrenAttrsMulti::Request(Attr::kMillion,
                                         std::span<const NodeRef>(nodes)),
      calls::CreateNodesMulti::Request(
          std::vector<NodeAttrs>{MakeAttrs(1), MakeAttrs(2)},
          std::vector<NodeRef>{0, 1},
          std::vector<std::string_view>{"", "text"}),
      calls::AddChildrenMulti::Request(std::span<const NodeRef>(nodes),
                                       std::span<const NodeRef>(nodes)),
      calls::AddPartsMulti::Request(std::span<const NodeRef>(nodes),
                                    std::span<const NodeRef>(nodes)),
      calls::AddRefsMulti::Request(std::span<const NodeRef>(nodes),
                                   std::span<const NodeRef>(nodes),
                                   std::vector<int64_t>{1, 2, 3},
                                   std::vector<int64_t>{4, 5, 6}),
  };
  for (const std::string& payload : valid) {
    const std::string name(
        server::OpCodeName(static_cast<server::OpCode>(payload[0])));
    // Strict prefixes. Hello's empty body is the oldest clients' Hello,
    // refused as a version mismatch (HelloRequiresExactWireVersion).
    const size_t shortest =
        payload[0] == static_cast<char>(server::OpCode::kHello) ? 2 : 1;
    for (size_t len = shortest; len < payload.size(); ++len) {
      expect_invalid(payload.substr(0, len),
                     name + " prefix of " + std::to_string(len - 1));
    }
    expect_invalid(payload + '\x00', name + " plus a trailing byte");
  }

  // Out-of-range values: an attribute above kMillion, a kind above
  // kDraw, a depth above kMaxTraversalDepth, a multi-node count above
  // kMaxBatchEntries.
  auto with_op = [](server::OpCode op,
                    std::initializer_list<uint64_t> varints) {
    std::string payload(1, static_cast<char>(op));
    for (uint64_t v : varints) util::PutVarint64(&payload, v);
    return payload;
  };
  using server::OpCode;
  const uint64_t deep = server::kMaxTraversalDepth + 1;
  const uint64_t many = server::kMaxBatchEntries + 1;
  expect_invalid(with_op(OpCode::kGetAttr, {1, 5}), "attr 5");
  expect_invalid(with_op(OpCode::kSetAttr, {1, 5, 0}), "attr 5");
  expect_invalid(with_op(OpCode::kGetAttrsMulti, {5, 1, 1}), "attr 5");
  expect_invalid(with_op(OpCode::kClosureMNAtt, {1, deep}), "deep");
  expect_invalid(with_op(OpCode::kClosureMNAttLinkSum, {1, deep}), "deep");
  expect_invalid(with_op(OpCode::kChildrenMulti, {many}), "many nodes");
  expect_invalid(with_op(OpCode::kGetAttrsMulti, {1, many}), "many nodes");
  expect_invalid(with_op(OpCode::kPartsMulti, {many}), "many nodes");
  expect_invalid(with_op(OpCode::kRefsToMulti, {many}), "many nodes");
  expect_invalid(with_op(OpCode::kSetAttrsMulti, {5, 1, 1, 1, 0}), "attr 5");
  expect_invalid(with_op(OpCode::kSetAttrsMulti, {1, many}), "many nodes");
  expect_invalid(with_op(OpCode::kSetAttrsMulti, {1, 1, 1, many}),
                 "many values");
  expect_invalid(with_op(OpCode::kChildrenAttrsMulti, {5, 1, 1}), "attr 5");
  expect_invalid(with_op(OpCode::kChildrenAttrsMulti, {1, many}),
                 "many nodes");
  expect_invalid(with_op(OpCode::kCreateNodesMulti, {1, 0, 0, 0, 0, 0, 4}),
                 "kind 4");
  expect_invalid(with_op(OpCode::kCreateNodesMulti, {many}), "many attrs");
  expect_invalid(with_op(OpCode::kCreateNodesMulti, {0, many}),
                 "many near");
  expect_invalid(with_op(OpCode::kCreateNodesMulti, {0, 0, many}),
                 "many contents");
  for (OpCode op : {OpCode::kAddChildrenMulti, OpCode::kAddPartsMulti,
                    OpCode::kAddRefsMulti}) {
    expect_invalid(with_op(op, {many}), "many first endpoints");
    expect_invalid(with_op(op, {0, many}), "many second endpoints");
  }
  expect_invalid(with_op(OpCode::kAddRefsMulti, {0, 0, many}),
                 "many offsets_from");
  expect_invalid(with_op(OpCode::kAddRefsMulti, {0, 0, 0, many}),
                 "many offsets_to");
  ::close(fd);
}

TEST(ServerTest, RetiredBatchOpcodeAnswersInvalidArgument) {
  // kBatch (30) was retired in wire v8, and the per-item writes
  // kCreateNode (7), kAddChild (10), kAddPart (11) and kAddRef (12) in
  // v11; their numbers stay reserved. Whatever the body — empty, or
  // one the opcode took before it was retired — the server answers
  // InvalidArgument and keeps serving the connection.
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  int fd = DialLoopback(srv->port());
  ASSERT_GE(fd, 0);
  std::string rx;
  auto roundtrip = [&](std::string_view payload) {
    std::string frame;
    server::AppendFrame(&frame, payload);
    EXPECT_TRUE(server::WriteAll(fd, frame));
    std::string response;
    EXPECT_TRUE(ReadFrame(fd, &rx, &response));
    return response;
  };
  auto old_request = [](server::OpCode op,
                        std::initializer_list<uint64_t> varints) {
    std::string payload(1, static_cast<char>(op));
    for (uint64_t v : varints) util::PutVarint64(&payload, v);
    return payload;
  };
  std::string old_batch(1, static_cast<char>(server::OpCode::kBatch));
  util::PutVarint64(&old_batch, 1);
  util::PutLengthPrefixed(&old_batch, server::calls::Ping::Request());
  using server::OpCode;
  for (const std::string& request :
       {old_request(OpCode::kBatch, {}), old_batch,
        old_request(OpCode::kCreateNode, {}),
        old_request(OpCode::kCreateNode, {2, 2, 20, 200, 2000, 0, 0}),
        old_request(OpCode::kAddChild, {}),
        old_request(OpCode::kAddChild, {1, 2}),
        old_request(OpCode::kAddPart, {}),
        old_request(OpCode::kAddPart, {1, 2}),
        old_request(OpCode::kAddRef, {}),
        old_request(OpCode::kAddRef, {1, 2, 6, 7})}) {
    const std::string response = roundtrip(request);
    ASSERT_FALSE(response.empty());
    EXPECT_EQ(response[0],
              static_cast<char>(util::StatusCode::kInvalidArgument));
    EXPECT_EQ(roundtrip(server::calls::Ping::Request()),
              std::string(1, static_cast<char>(util::StatusCode::kOk)));
  }
  ::close(fd);
}

/// AcceptingRole that turns into a replica on demand: every gated
/// request is then refused with kReadOnly.
class SwitchableRole : public AcceptingRole {
 public:
  util::Status CheckMutation() override {
    return replica ? util::Status::ReadOnly("replica") : util::Status::Ok();
  }
  std::atomic<bool> replica{false};
};

TEST(ServerTest, ReplicaRefusesFusedWritesAndServesFusedReads) {
  // The fused multi-node opcodes take their class from the call table
  // like any other: a replica serves kPartsMulti, kRefsToMulti and
  // kChildrenAttrsMulti and refuses kSetAttrsMulti and the four load
  // writes before anything is written.
  SwitchableRole role;
  server::ServerOptions options;
  options.replication = &role;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv, backends::RemoteMode::kBatched);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Begin().ok());
  const NodeRef a = client->CreateNode(MakeAttrs(1), kInvalidNode).ValueOr(0);
  const NodeRef b = client->CreateNode(MakeAttrs(2), kInvalidNode).ValueOr(0);
  ASSERT_TRUE(client->AddPart(a, b).ok());
  ASSERT_TRUE(client->AddRef(a, b, 3, 4).ok());
  ASSERT_TRUE(client->Commit().ok());
  role.replica = true;

  telemetry::Snapshot before;
  ASSERT_TRUE(client->ServerStats(&before).ok());
  const std::vector<NodeRef> nodes{a, b};
  RefLists parts;
  ASSERT_TRUE(client->PartsMulti(nodes, &parts).ok());
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(std::vector<NodeRef>(parts[0].begin(), parts[0].end()),
            std::vector<NodeRef>{b});
  EXPECT_TRUE(parts[1].empty());
  EdgeLists refs;
  ASSERT_TRUE(client->RefsToMulti(nodes, &refs).ok());
  ASSERT_EQ(refs.size(), 2u);
  ASSERT_EQ(refs[0].size(), 1u);
  EXPECT_EQ(refs[0][0].node, b);
  RefLists children;
  std::vector<int64_t> tens;
  ASSERT_TRUE(
      client->ChildrenAttrsMulti(nodes, Attr::kTen, &children, &tens).ok());
  EXPECT_EQ(children.size(), 2u);
  EXPECT_EQ(tens, (std::vector<int64_t>{MakeAttrs(1).ten, MakeAttrs(2).ten}));
  const std::vector<int64_t> values{70, 80};
  EXPECT_EQ(client->SetAttrsMulti(nodes, Attr::kTen, values).code(),
            util::StatusCode::kReadOnly);
  EXPECT_EQ(client->GetAttr(a, Attr::kTen).ValueOr(0), MakeAttrs(1).ten);
  const NodeAttrs more[] = {MakeAttrs(3)};
  const std::string_view no_contents[] = {""};
  std::vector<NodeRef> created;
  EXPECT_EQ(client->CreateNodesMulti(more, std::vector<NodeRef>{a},
                                     no_contents, &created)
                .code(),
            util::StatusCode::kReadOnly);
  EXPECT_TRUE(client->LookupUnique(3).status().IsNotFound());
  EXPECT_EQ(client->AddChildrenMulti(std::vector<NodeRef>{a},
                                     std::vector<NodeRef>{b})
                .code(),
            util::StatusCode::kReadOnly);
  EXPECT_EQ(client->AddPartsMulti(std::vector<NodeRef>{b},
                                  std::vector<NodeRef>{a})
                .code(),
            util::StatusCode::kReadOnly);
  EXPECT_EQ(client->AddRefsMulti(std::vector<NodeRef>{b},
                                 std::vector<NodeRef>{a},
                                 std::vector<int64_t>{1},
                                 std::vector<int64_t>{2})
                .code(),
            util::StatusCode::kReadOnly);
  EXPECT_EQ(client->Parent(b).ValueOr(a), kInvalidNode);
  std::vector<NodeRef> b_parts;
  ASSERT_TRUE(client->Parts(b, &b_parts).ok());
  EXPECT_TRUE(b_parts.empty());
  std::vector<RefEdge> b_refs;
  ASSERT_TRUE(client->RefsTo(b, &b_refs).ok());
  EXPECT_TRUE(b_refs.empty());

  telemetry::Snapshot after;
  ASSERT_TRUE(client->ServerStats(&after).ok());
  telemetry::Snapshot diff = after.DiffSince(before);
  EXPECT_EQ(diff.counter("server.op.parts_multi.count"), 1u);
  EXPECT_EQ(diff.counter("server.op.refs_to_multi.count"), 1u);
  EXPECT_EQ(diff.counter("server.op.children_attrs_multi.count"), 1u);
  EXPECT_EQ(diff.counter("server.op.set_attrs_multi.errors"), 1u);
  for (const char* op : {"create_nodes_multi", "add_children_multi",
                         "add_parts_multi", "add_refs_multi"}) {
    EXPECT_EQ(diff.counter("server.op." + std::string(op) + ".errors"), 1u)
        << op;
  }
}

TEST(ServerTest, BatchedAttSetMarksStoreDirty) {
  // Batched closure1NAttSet writes through kSetAttrsMulti. That write
  // must mark the store dirty, so the next Reset rebuilds (here: fails,
  // there is no factory) instead of answering a clean-database no-op.
  auto backend = std::make_unique<MemStore>();
  const NodeRef root = backend->CreateNode(MakeAttrs(1), kInvalidNode)
                           .ValueOr(kInvalidNode);
  const NodeRef leaf = backend->CreateNode(MakeAttrs(2), kInvalidNode)
                           .ValueOr(kInvalidNode);
  ASSERT_TRUE(backend->AddChild(root, leaf).ok());
  server::ServerOptions options;
  options.port = 0;
  auto srv = server::Server::Start(options, std::move(backend));
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  auto client = ConnectTo(**srv, backends::RemoteMode::kBatched);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->ResetServer().ok());  // untouched: a no-op

  telemetry::Snapshot before;
  ASSERT_TRUE(client->ServerStats(&before).ok());
  EXPECT_EQ(client->TravClosure1NAttSet(root).ValueOr(0), 2u);
  EXPECT_EQ(client->GetAttr(leaf, Attr::kHundred).ValueOr(0),
            99 - MakeAttrs(2).hundred);
  telemetry::Snapshot after;
  ASSERT_TRUE(client->ServerStats(&after).ok());
  EXPECT_EQ(after.DiffSince(before).counter("server.op.set_attrs_multi.count"),
            1u);
  EXPECT_EQ(client->ResetServer().code(), util::StatusCode::kNotSupported);
}

TEST(ServerTest, BatchedClosureRoundTripsArePinned) {
  // Batched mode runs the 1-N kernels through the engine on the client:
  // one round trip per frontier fetch. A level-3 tree has four tiers.
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv, backends::RemoteMode::kBatched);
  ASSERT_NE(client, nullptr);
  GeneratorConfig config;
  config.levels = 3;
  config.generate_contents = false;
  auto db = Generator(config).Build(client.get(), nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  telemetry::Counter* roundtrips =
      telemetry::Registry::Global().GetCounter("remote.batched.roundtrips");
  auto roundtrips_during = [roundtrips](const auto& op) {
    const uint64_t before = roundtrips->value();
    op();
    return roundtrips->value() - before;
  };

  // One fetch per tier.
  std::vector<NodeRef> out;
  EXPECT_EQ(roundtrips_during([&] {
              ASSERT_TRUE(ops::Closure1N(client.get(), db->root, &out).ok());
            }),
            4u);
  // One fetch per tier, lists and hundreds together.
  EXPECT_EQ(roundtrips_during([&] {
              ASSERT_TRUE(
                  ops::Closure1NAttSum(client.get(), db->root, nullptr).ok());
            }),
            4u);
  // As above, then one write.
  EXPECT_EQ(roundtrips_during([&] {
              ASSERT_TRUE(ops::Closure1NAttSet(client.get(), db->root).ok());
            }),
            5u);
  // One fetch per tier, lists and millions together.
  EXPECT_EQ(roundtrips_during([&] {
              ASSERT_TRUE(
                  ops::Closure1NPred(client.get(), db->root, 0, &out).ok());
            }),
            4u);
  EXPECT_EQ(out.size(), 155u);
}

TEST(ServerTest, ConcurrentReadersRunUnderSharedLock) {
  // >= 4 reader clients traversing simultaneously: the mem backend
  // declares concurrent-read support, so read-only dispatches take the
  // shared side of the backend lock. (Under TSAN this is the test that
  // proves the shared-lock dispatch is race-free.)
  server::ServerOptions options;
  options.workers = 4;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);

  // Build a small tree: root with 3 children, each with 3 children.
  auto builder = ConnectTo(*srv);
  ASSERT_NE(builder, nullptr);
  ASSERT_TRUE(builder->Begin().ok());
  auto root = builder->CreateNode(MakeAttrs(1), kInvalidNode);
  ASSERT_TRUE(root.ok());
  int64_t uid = 2;
  std::vector<NodeRef> mid;
  for (int i = 0; i < 3; ++i) {
    auto node = builder->CreateNode(MakeAttrs(uid++), kInvalidNode);
    ASSERT_TRUE(node.ok());
    ASSERT_TRUE(builder->AddChild(*root, *node).ok());
    mid.push_back(*node);
  }
  for (NodeRef parent : mid) {
    for (int i = 0; i < 3; ++i) {
      auto node = builder->CreateNode(MakeAttrs(uid++), kInvalidNode);
      ASSERT_TRUE(node.ok());
      ASSERT_TRUE(builder->AddChild(parent, *node).ok());
    }
  }
  ASSERT_TRUE(builder->Commit().ok());

  constexpr int kReaders = 4;
  constexpr int kOpsPerReader = 50;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Alternate modes so pushdown, fused and batched reads all
      // travel the shared-lock path.
      auto reader = ConnectTo(*srv, r % 2 == 0
                                        ? backends::RemoteMode::kPushdown
                                        : backends::RemoteMode::kBatched);
      ASSERT_NE(reader, nullptr);
      for (int i = 0; i < kOpsPerReader; ++i) {
        std::vector<NodeRef> out;
        ASSERT_TRUE(reader->TravClosure1N(*root, &out).ok());
        ASSERT_EQ(out.size(), 13u);
        uint64_t visited = 0;
        auto sum = reader->TravClosure1NAttSum(*root, &visited);
        ASSERT_TRUE(sum.ok());
        ASSERT_EQ(visited, 13u);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(srv->shared_reads_served(), 0u);
}

TEST(ServerTest, AllRemoteModesAgreeOnTraversals) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);

  auto builder = ConnectTo(*srv);
  ASSERT_NE(builder, nullptr);
  ASSERT_TRUE(builder->Begin().ok());
  auto root = builder->CreateNode(MakeAttrs(1), kInvalidNode);
  ASSERT_TRUE(root.ok());
  std::vector<NodeRef> nodes{*root};
  for (int64_t uid = 2; uid <= 10; ++uid) {
    auto node = builder->CreateNode(MakeAttrs(uid), kInvalidNode);
    ASSERT_TRUE(node.ok());
    // Attach to a deterministic parent to get a bushy tree, plus a
    // parts edge and a weighted ref edge for the M-N walks.
    ASSERT_TRUE(
        builder->AddChild(nodes[static_cast<size_t>(uid / 3)], *node).ok());
    ASSERT_TRUE(builder->AddPart(nodes.back(), *node).ok());
    ASSERT_TRUE(builder->AddRef(nodes.back(), *node, uid, uid * 2).ok());
    nodes.push_back(*node);
  }
  ASSERT_TRUE(builder->Commit().ok());

  auto percall = ConnectTo(*srv, backends::RemoteMode::kPerCall);
  auto batched = ConnectTo(*srv, backends::RemoteMode::kBatched);
  auto pushdown = ConnectTo(*srv, backends::RemoteMode::kPushdown);
  ASSERT_NE(percall, nullptr);
  ASSERT_NE(batched, nullptr);
  ASSERT_NE(pushdown, nullptr);
  std::vector<RemoteStore*> clients{percall.get(), batched.get(),
                                    pushdown.get()};

  std::vector<NodeRef> expected_1n;
  ASSERT_TRUE(percall->TravClosure1N(*root, &expected_1n).ok());
  std::vector<NodeRef> expected_mn;
  ASSERT_TRUE(percall->TravClosureMN(*root, &expected_mn).ok());
  std::vector<NodeRef> expected_mnatt;
  ASSERT_TRUE(percall->TravClosureMNAtt(*root, 5, &expected_mnatt).ok());
  std::vector<NodeDistance> expected_link;
  ASSERT_TRUE(
      percall->TravClosureMNAttLinkSum(*root, 5, &expected_link).ok());
  std::vector<NodeRef> expected_pred;
  ASSERT_TRUE(
      percall->TravClosure1NPred(*root, 0, 1000000, &expected_pred).ok());

  for (RemoteStore* client : clients) {
    std::vector<NodeRef> refs;
    ASSERT_TRUE(client->TravClosure1N(*root, &refs).ok());
    EXPECT_EQ(refs, expected_1n) << RemoteModeName(client->mode());
    ASSERT_TRUE(client->TravClosureMN(*root, &refs).ok());
    EXPECT_EQ(refs, expected_mn) << RemoteModeName(client->mode());
    ASSERT_TRUE(client->TravClosureMNAtt(*root, 5, &refs).ok());
    EXPECT_EQ(refs, expected_mnatt) << RemoteModeName(client->mode());
    ASSERT_TRUE(client->TravClosure1NPred(*root, 0, 1000000, &refs).ok());
    EXPECT_EQ(refs, expected_pred) << RemoteModeName(client->mode());
    std::vector<NodeDistance> dists;
    ASSERT_TRUE(client->TravClosureMNAttLinkSum(*root, 5, &dists).ok());
    ASSERT_EQ(dists.size(), expected_link.size())
        << RemoteModeName(client->mode());
    for (size_t i = 0; i < dists.size(); ++i) {
      EXPECT_EQ(dists[i].node, expected_link[i].node);
      EXPECT_EQ(dists[i].distance, expected_link[i].distance);
    }
    uint64_t visited = 0;
    auto sum = client->TravClosure1NAttSum(*root, &visited);
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(visited, expected_1n.size());
  }

  // The mutating kernel: run it twice per client; two applications of
  // hundred := 99 - hundred are the identity, so each client leaves
  // the store as it found it and all agree on the count.
  for (RemoteStore* client : clients) {
    auto first = client->TravClosure1NAttSet(*root);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(*first, expected_1n.size());
    auto second = client->TravClosure1NAttSet(*root);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*second, expected_1n.size());
  }

  // Every frontier fetch agrees with per-call too.
  RefLists expected_children, expected_parts;
  ASSERT_TRUE(percall->ChildrenMulti(nodes, &expected_children).ok());
  ASSERT_TRUE(percall->PartsMulti(nodes, &expected_parts).ok());
  ASSERT_EQ(expected_children.size(), nodes.size());
  EdgeLists expected_refs;
  ASSERT_TRUE(percall->RefsToMulti(nodes, &expected_refs).ok());
  std::vector<int64_t> expected_values;
  ASSERT_TRUE(
      percall->GetAttrsMulti(nodes, Attr::kHundred, &expected_values).ok());
  for (RemoteStore* client : clients) {
    RefLists lists;
    ASSERT_TRUE(client->ChildrenMulti(nodes, &lists).ok());
    EXPECT_EQ(lists, expected_children) << RemoteModeName(client->mode());
    ASSERT_TRUE(client->PartsMulti(nodes, &lists).ok());
    EXPECT_EQ(lists, expected_parts) << RemoteModeName(client->mode());
    EdgeLists refs;
    ASSERT_TRUE(client->RefsToMulti(nodes, &refs).ok());
    EXPECT_EQ(refs.ends, expected_refs.ends);
    for (size_t i = 0; i < refs.items.size(); ++i) {
      EXPECT_EQ(refs.items[i].node, expected_refs.items[i].node);
      EXPECT_EQ(refs.items[i].offset_to, expected_refs.items[i].offset_to);
    }
    std::vector<int64_t> values;
    ASSERT_TRUE(
        client->GetAttrsMulti(nodes, Attr::kHundred, &values).ok());
    EXPECT_EQ(values, expected_values) << RemoteModeName(client->mode());
  }
}

TEST(ServerTest, StopUnblocksConnectedIdleClient) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  // Stop while the worker is blocked in recv() on this connection;
  // Stop() must not hang, and the client must see a clean error
  // rather than a wedged socket. Begin is not retry-safe, so the
  // fault-tolerant client surfaces the dead transport as a typed
  // kUnavailable instead of blindly re-sending it.
  srv->Stop();
  util::Status status = client->Begin();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable)
      << status.ToString();
}

TEST(ServerTest, StopWithIdleSessionReturnsWithinDrainBound) {
  // The worker serving an idle session is spinning or blocked in its
  // receive; Stop's SHUT_RD must end that wait at once, well inside the
  // drain bound, rather than the bound expiring and severing it.
  server::ServerOptions options;
  options.drain_ms = 2000;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Ping().ok());
  auto start = std::chrono::steady_clock::now();
  srv->Stop();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), options.drain_ms);
  EXPECT_FALSE(client->Ping().ok());
}

TEST(ServerTest, LoopbackPingsEndWaitsInTheSpin) {
  // A loopback round trip answers well inside kRecvSpinBudget, so the
  // client's waits for replies and the worker's waits for the next
  // request end in the spin rather than a sleep.
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  auto counter = [](const char* name) {
    return telemetry::Registry::Global().GetCounter(name)->value();
  };
  const uint64_t client_spun = counter("remote.recv.spun");
  const uint64_t client_blocked = counter("remote.recv.blocked");
  const uint64_t server_spun = counter("server.recv.spun");
  constexpr uint64_t kPings = 1000;
  for (uint64_t i = 0; i < kPings; ++i) ASSERT_TRUE(client->Ping().ok());
  EXPECT_GT(counter("remote.recv.spun"), client_spun);
  EXPECT_GT(counter("server.recv.spun"), server_spun);
  // Every reply takes at least one wait, and each wait counts once.
  EXPECT_GE(counter("remote.recv.spun") - client_spun +
                counter("remote.recv.blocked") - client_blocked,
            kPings);
}

TEST(ServerTest, GarbageFrameDropsConnectionOnly) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);

  // Hand-roll a client that sends a CRC-corrupted frame.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string frame;
  server::AppendFrame(&frame, "\x01");  // a Hello request...
  frame.back() ^= 0x40;                 // ...with a flipped payload bit
  ASSERT_TRUE(server::WriteAll(fd, frame));

  // The server hangs up on us without replying.
  char buf[16];
  ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_EQ(n, 0);
  ::close(fd);

  // And keeps serving well-formed clients.
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Begin().ok());
}

TEST(ServerTest, FormContentsThatAreNoBitmapAnswerAnError) {
  // Read as a bitmap header, the text claims rows no body holds; the
  // server refuses it instead of trying to allocate them.
  auto store = RemoteStore::Loopback(std::make_unique<MemStore>());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  RemoteStore* client = store->get();
  ASSERT_TRUE(client->Begin().ok());
  NodeAttrs attrs = MakeAttrs(3);
  attrs.kind = NodeKind::kForm;
  auto form = client->CreateNode(attrs, kInvalidNode);
  ASSERT_TRUE(form.ok()) << form.status().ToString();
  util::Status status = client->SetContents(*form, "not a bitmap");
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  ASSERT_TRUE(client->Commit().ok());
  EXPECT_TRUE(client->Ping().ok());
}

TEST(ServerTest, LoopbackStoreOwnsItsServer) {
  auto store = RemoteStore::Loopback(std::make_unique<MemStore>());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->Begin().ok());
  auto node = (*store)->CreateNode(MakeAttrs(11), kInvalidNode);
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE((*store)->Commit().ok());
  EXPECT_EQ(*(*store)->GetAttr(*node, Attr::kUniqueId), 11);
  // Destruction tears down client then server without deadlock.
}

TEST(ServerTest, StatsOpcodeCountsScriptedSequence) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  // The registry is process-global and other tests in this binary have
  // already bumped it, so every assertion is over a snapshot *diff*
  // bracketing a known request sequence.
  telemetry::Snapshot before;
  ASSERT_TRUE(client->ServerStats(&before).ok());

  ASSERT_TRUE(client->Begin().ok());
  std::vector<NodeRef> nodes;
  for (int64_t uid = 1; uid <= 3; ++uid) {
    auto node = client->CreateNode(MakeAttrs(uid), kInvalidNode);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    nodes.push_back(*node);
  }
  ASSERT_TRUE(client->Commit().ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(client->GetAttr(nodes[0], Attr::kUniqueId).ok());
  }
  EXPECT_FALSE(client->GetAttr(NodeRef{999999}, Attr::kUniqueId).ok());
  EXPECT_TRUE(client->LookupUnique(2).ok());

  telemetry::Snapshot after;
  ASSERT_TRUE(client->ServerStats(&after).ok());
  telemetry::Snapshot diff = after.DiffSince(before);

  EXPECT_EQ(diff.counter("server.op.begin.count"), 1u);
  EXPECT_EQ(diff.counter("server.op.create_nodes_multi.count"), 3u);
  EXPECT_EQ(diff.counter("server.op.commit.count"), 1u);
  EXPECT_EQ(diff.counter("server.op.get_attr.count"), 6u);
  EXPECT_EQ(diff.counter("server.op.get_attr.errors"), 1u);
  EXPECT_EQ(diff.counter("server.op.lookup_unique.count"), 1u);
  EXPECT_EQ(diff.counter("server.op.create_nodes_multi.errors"), 0u);
  // The first kStats call's own bookkeeping lands after its snapshot
  // is taken, so exactly one stats request falls inside the bracket.
  EXPECT_EQ(diff.counter("server.op.stats.count"), 1u);

  // Latency histograms see one sample per request, and the socket
  // byte counters moved.
  ASSERT_TRUE(diff.histograms.contains("server.op.get_attr.latency_us"));
  EXPECT_EQ(diff.histograms.at("server.op.get_attr.latency_us").count, 6u);
  EXPECT_GT(diff.counter("server.net.bytes_in"), 0u);
  EXPECT_GT(diff.counter("server.net.bytes_out"), 0u);
}

// ---- Fault tolerance: deadlines, retries, shedding, draining ---------

class FaultToleranceTest : public ::testing::Test {
 protected:
  void TearDown() override { util::Failpoint::DisableAll(); }

  /// Tests that depend on an injected fault call this first; in builds
  /// without failpoint sites they skip instead of timing out.
  void RequireFailpoints() {
    if (!util::kFailpointsCompiled) {
      GTEST_SKIP() << "failpoints compiled out of this build";
    }
  }

  static std::unique_ptr<RemoteStore> ConnectWith(
      const server::Server& srv, backends::RemoteOptions options) {
    options.host = srv.host();
    options.port = srv.port();
    auto store = RemoteStore::Connect(options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? std::move(*store) : nullptr;
  }

  static int RawConnect(uint16_t port) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  static uint64_t Counter(const char* name) {
    return telemetry::Registry::Global().GetCounter(name)->value();
  }
};

// The regression the PR exists for: a server that dies (or wedges)
// mid-call must produce a typed error within the deadline, never a
// hang. The "server" here is a bare listening socket whose backlog
// completes our TCP connect but which never reads or replies.
TEST_F(FaultToleranceTest, CallAgainstDeadServerTimesOutTyped) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);

  backends::RemoteOptions options;
  options.host = "127.0.0.1";
  options.port = ntohs(addr.sin_port);
  options.deadline_ms = 250;
  options.max_retries = 0;  // surface the typed status, don't retry

  auto start = std::chrono::steady_clock::now();
  uint64_t deadline_counter_before = Counter("remote.deadline_exceeded");
  auto store = RemoteStore::Connect(options);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsDeadlineExceeded())
      << store.status().ToString();
  EXPECT_LT(elapsed.count(), 3000) << "deadline did not bound the call";
  EXPECT_GT(Counter("remote.deadline_exceeded"), deadline_counter_before);
  ::close(listener);
}

TEST_F(FaultToleranceTest, SlowDispatchHitsCallDeadline) {
  RequireFailpoints();
  if (IsSkipped()) return;
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  backends::RemoteOptions options;
  options.deadline_ms = 250;
  options.max_retries = 0;
  auto client = ConnectWith(*srv, options);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(
      util::Failpoint::Enable("server/dispatch/delay", "delay=1500,times=1")
          .ok());
  auto start = std::chrono::steady_clock::now();
  util::Status status = client->StorageBytes().status();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_LT(elapsed.count(), 1300);
}

TEST_F(FaultToleranceTest, DispatchDelayPastTheSpinBlocksThenAnswers) {
  RequireFailpoints();
  if (IsSkipped()) return;
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  auto expected = client->StorageBytes();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // A reply 20 ms away outlasts the spin budget many times over: the
  // client gives up spinning, blocks, and still gets the right answer.
  const uint64_t blocked_before = Counter("remote.recv.blocked");
  ASSERT_TRUE(
      util::Failpoint::Enable("server/dispatch/delay", "delay=20,times=1")
          .ok());
  auto delayed = client->StorageBytes();
  ASSERT_TRUE(delayed.ok()) << delayed.status().ToString();
  EXPECT_EQ(*delayed, *expected);
  EXPECT_GT(Counter("remote.recv.blocked"), blocked_before);
}

TEST_F(FaultToleranceTest, ReadRetriesTransparentlyAfterTransportError) {
  RequireFailpoints();
  if (IsSkipped()) return;
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Begin().ok());
  auto node = client->CreateNode(MakeAttrs(5), kInvalidNode);
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE(client->Commit().ok());

  uint64_t retries_before = Counter("remote.retries");
  uint64_t reconnects_before = Counter("remote.reconnects");
  ASSERT_TRUE(
      util::Failpoint::Enable("remote/recv/error", "error,times=1").ok());
  // The first receive fails and poisons the connection; GetAttr is
  // read-only, so the client reconnects and re-sends invisibly.
  auto attr = client->GetAttr(*node, Attr::kUniqueId);
  ASSERT_TRUE(attr.ok()) << attr.status().ToString();
  EXPECT_EQ(*attr, 5);
  EXPECT_GT(Counter("remote.retries"), retries_before);
  EXPECT_GT(Counter("remote.reconnects"), reconnects_before);
}

TEST_F(FaultToleranceTest, WriteOpSurfacesUnavailableThenReconnects) {
  RequireFailpoints();
  if (IsSkipped()) return;
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(
      util::Failpoint::Enable("remote/send/error", "error,times=1").ok());
  // Begin is not idempotent, so the transport failure must surface as
  // a typed kUnavailable instead of a blind re-send.
  util::Status status = client->Begin();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();

  // The next call finds the poisoned connection and re-establishes it.
  EXPECT_TRUE(client->Begin().ok());
  auto node = client->CreateNode(MakeAttrs(6), kInvalidNode);
  ASSERT_TRUE(node.ok());
  EXPECT_TRUE(client->Commit().ok());
}

TEST_F(FaultToleranceTest, PingRoundTrips) {
  auto srv = StartMemServer();
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(FaultToleranceTest, InflightCeilingShedsExcessRequests) {
  RequireFailpoints();
  if (IsSkipped()) return;
  server::ServerOptions options;
  options.workers = 2;
  options.max_inflight = 1;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);
  // Connect both clients before arming the failpoint so their Hello
  // dispatches are not the ones delayed or shed.
  auto slow = ConnectTo(*srv);
  auto shed = ConnectTo(*srv);
  ASSERT_NE(slow, nullptr);
  ASSERT_NE(shed, nullptr);

  uint64_t shed_before = Counter("server.shed_requests");
  ASSERT_TRUE(
      util::Failpoint::Enable("server/dispatch/delay", "delay=600,times=1")
          .ok());
  std::thread holder([&] {
    // Occupies the single in-flight slot for ~600ms; the request
    // itself still succeeds.
    EXPECT_TRUE(slow->StorageBytes().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  util::Status status = shed->StorageBytes().status();
  holder.join();

  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsOverloaded()) << status.ToString();
  EXPECT_GE(srv->requests_shed(), 1u);
  EXPECT_GT(Counter("server.shed_requests"), shed_before);
}

TEST_F(FaultToleranceTest, ListenerQueueFullRepliesOverloaded) {
  server::ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);

  // The only worker serves this connection for the rest of the test.
  auto busy = ConnectTo(*srv);
  ASSERT_NE(busy, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Fills the one queue slot.
  int queued = RawConnect(srv->port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Over capacity: the listener answers with a framed kOverloaded
  // before hanging up, instead of a silent close.
  int refused = RawConnect(srv->port());
  std::string rx;
  char buf[256];
  std::string_view payload;
  size_t frame_len = 0;
  for (;;) {
    server::FrameResult decoded =
        server::DecodeFrame(rx, &payload, &frame_len);
    if (decoded == server::FrameResult::kOk) break;
    ASSERT_EQ(decoded, server::FrameResult::kIncomplete);
    ssize_t n = ::recv(refused, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection closed without an overload response";
    rx.append(buf, static_cast<size_t>(n));
  }
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(static_cast<util::StatusCode>(payload[0]),
            util::StatusCode::kOverloaded);
  // ...and then the connection is closed.
  EXPECT_EQ(::recv(refused, buf, sizeof(buf), 0), 0);
  ::close(refused);
  ::close(queued);
}

TEST_F(FaultToleranceTest, StopDrainsInflightRequests) {
  RequireFailpoints();
  if (IsSkipped()) return;
  server::ServerOptions options;
  options.drain_ms = 2000;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);
  auto client = ConnectTo(*srv);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(
      util::Failpoint::Enable("server/dispatch/delay", "delay=400,times=1")
          .ok());
  util::Status result = util::Status::Internal("never ran");
  std::thread in_flight(
      [&] { result = client->StorageBytes().status(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Stop() while the request sleeps inside dispatch: the drain must
  // let it finish and its response reach the client.
  srv->Stop();
  in_flight.join();
  EXPECT_TRUE(result.ok()) << result.ToString();
}

TEST(ServerTest, ManySequentialConnections) {
  // Connection churn: sockets are returned promptly and fd tracking
  // never shuts down a recycled descriptor.
  server::ServerOptions options;
  options.workers = 2;
  auto srv = StartMemServer(options);
  ASSERT_NE(srv, nullptr);
  for (int i = 0; i < 50; ++i) {
    auto client = ConnectTo(*srv);
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->StorageBytes().ok());
  }
  EXPECT_EQ(srv->connections_accepted(), 50u);
}

}  // namespace
}  // namespace hm
