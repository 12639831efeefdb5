#include "hypermodel/generator.h"

#include <string>
#include <string_view>

#include "hypermodel/traversal.h"
#include "util/random.h"
#include "util/text.h"
#include "util/timer.h"

namespace hm {

uint64_t Generator::ExpectedNodeCount(const GeneratorConfig& config) {
  uint64_t total = 0;
  uint64_t level_size = 1;
  for (int l = 0; l <= config.levels; ++l) {
    total += level_size;
    level_size *= static_cast<uint64_t>(config.fanout);
  }
  return total;
}

util::Result<TestDatabase> Generator::Build(HyperStore* store,
                                            CreationTiming* timing) const {
  if (config_.levels < 1 || config_.fanout < 1) {
    return util::Status::InvalidArgument("levels and fanout must be >= 1");
  }
  // Set-at-a-time load: one write per internal level, one for the leaf
  // level with its contents, one per edge phase. A store with a
  // set-at-a-time surface of its own takes each whole: remote and
  // shard:// as a few frames, oodb with one update per record an edge
  // phase touches. Every other store gets the per-item calls of a
  // serial build, in the same order, through StoreFetch.
  FetchFor fetch_for(store);
  FrontierFetch* fetch = fetch_for.get();

  CreationTiming unused;
  CreationTiming* t = timing != nullptr ? timing : &unused;
  util::Rng rng(config_.seed);
  TestDatabase db;
  db.nodes_by_level.resize(static_cast<size_t>(config_.levels) + 1);
  int64_t next_unique = 1;
  util::Timer timer;

  // One committed phase, timed into `*ms`. A failure inside it aborts
  // the open transaction — best effort: mem's Abort answers
  // NotSupported, and a failed Commit may already have ended it — and
  // returns the original error, so a failed build never leaves a
  // transaction pinning an oodb store's checkpoints.
  auto phase = [&](double* ms, auto body) -> util::Status {
    timer.Restart();
    HM_RETURN_IF_ERROR(store->Begin());
    util::Status status = body();
    if (status.ok()) status = store->Commit();
    if (!status.ok()) {
      (void)store->Abort();
      return status;
    }
    *ms = timer.ElapsedMillis();
    return status;
  };

  // The node batch of one level: attributes, clustering hint, and node
  // i's contents at bytes [ends[i - 1], ends[i]) of one buffer. One
  // buffer, released after the write, rather than a string per node:
  // a level's worth of live small strings slowed the oodb reads that
  // follow the build by ~4 % (perfbench paper-oodb lookup_p50_us).
  std::vector<NodeAttrs> attrs;
  std::vector<NodeRef> near;
  std::string contents;
  std::vector<size_t> ends;
  auto add_node = [&](NodeKind kind, NodeRef parent) {
    NodeAttrs a;
    a.unique_id = next_unique++;
    a.ten = rng.UniformInt(1, 10);
    a.hundred = rng.UniformInt(1, 100);
    a.thousand = rng.UniformInt(1, 1000);
    a.million = rng.UniformInt(1, 1000000);
    a.kind = kind;
    attrs.push_back(a);
    near.push_back(parent);
    ends.push_back(contents.size());
  };
  auto add_contents = [&](std::string_view bytes) {
    contents.append(bytes);
    ends.back() = contents.size();
  };
  auto create = [&](std::vector<NodeRef>* refs) {
    const std::string_view all(contents);
    std::vector<std::string_view> views;
    views.reserve(ends.size());
    for (size_t i = 0, begin = 0; i < ends.size(); begin = ends[i++]) {
      views.push_back(all.substr(begin, ends[i] - begin));
    }
    util::Status status = fetch->CreateNodesMulti(attrs, near, views, refs);
    attrs.clear();
    near.clear();
    ends.clear();
    std::string().swap(contents);
    return status;
  };

  // ---- (a) internal nodes: levels 0 .. levels-1, level order, with
  // the parent as clustering hint -----------------------------------
  HM_RETURN_IF_ERROR(phase(&t->internal_nodes_ms, [&]() -> util::Status {
    for (size_t level = 0; level < static_cast<size_t>(config_.levels);
         ++level) {
      if (level == 0) {
        add_node(NodeKind::kInternal, kInvalidNode);
      } else {
        for (NodeRef parent : db.nodes_by_level[level - 1]) {
          for (int c = 0; c < config_.fanout; ++c) {
            add_node(NodeKind::kInternal, parent);
          }
        }
      }
      auto& nodes = db.nodes_by_level[level];
      HM_RETURN_IF_ERROR(create(&nodes));
      db.internal_nodes.insert(db.internal_nodes.end(), nodes.begin(),
                               nodes.end());
    }
    db.root = db.nodes_by_level[0][0];
    return util::Status::Ok();
  }));
  t->internal_nodes = db.internal_nodes.size();

  // ---- (b) leaf nodes: text nodes, every leaves_per_form-th a form
  // node, contents per §5.1 ------------------------------------------
  auto& leaves = db.nodes_by_level[static_cast<size_t>(config_.levels)];
  auto is_form = [&](size_t leaf) {
    const auto every = static_cast<size_t>(config_.leaves_per_form);
    return leaf % every == every - 1;
  };
  HM_RETURN_IF_ERROR(phase(&t->leaf_nodes_ms, [&]() -> util::Status {
    for (NodeRef parent :
         db.nodes_by_level[static_cast<size_t>(config_.levels) - 1]) {
      for (int c = 0; c < config_.fanout; ++c) {
        const bool form = is_form(attrs.size());
        add_node(form ? NodeKind::kForm : NodeKind::kText, parent);
        if (!config_.generate_contents) continue;
        if (form) {
          uint32_t w = static_cast<uint32_t>(rng.UniformInt(
              config_.form_min_dim, config_.form_max_dim));
          uint32_t h = static_cast<uint32_t>(rng.UniformInt(
              config_.form_min_dim, config_.form_max_dim));
          // Initially all white (all 0's).
          add_contents(util::Bitmap(w, h).Serialize());
        } else {
          add_contents(util::GenerateTextContents(&rng));
        }
      }
    }
    HM_RETURN_IF_ERROR(create(&leaves));
    for (size_t i = 0; i < leaves.size(); ++i) {
      (is_form(i) ? db.form_nodes : db.text_nodes).push_back(leaves[i]);
    }
    return util::Status::Ok();
  }));
  t->leaf_nodes = leaves.size();

  // Assemble the creation-order node list.
  for (const auto& level : db.nodes_by_level) {
    db.all_nodes.insert(db.all_nodes.end(), level.begin(), level.end());
  }

  // ---- (c) 1-N parent/children relationships (ordered) --------------
  std::vector<NodeRef> from;
  std::vector<NodeRef> to;
  HM_RETURN_IF_ERROR(phase(&t->rel_1n_ms, [&]() -> util::Status {
    for (int level = 0; level < config_.levels; ++level) {
      const auto& parents = db.nodes_by_level[static_cast<size_t>(level)];
      const auto& children =
          db.nodes_by_level[static_cast<size_t>(level) + 1];
      for (size_t p = 0; p < parents.size(); ++p) {
        for (int c = 0; c < config_.fanout; ++c) {
          from.push_back(parents[p]);
          to.push_back(children[p * static_cast<size_t>(config_.fanout) +
                                static_cast<size_t>(c)]);
        }
      }
    }
    return fetch->AddChildrenMulti(from, to);
  }));
  t->rel_1n = from.size();

  // ---- (d) M-N parts: each non-leaf node related to parts_per_node
  // random nodes from the next level ----------------------------------
  from.clear();
  to.clear();
  HM_RETURN_IF_ERROR(phase(&t->rel_mn_ms, [&]() -> util::Status {
    for (int level = 0; level < config_.levels; ++level) {
      const auto& owners = db.nodes_by_level[static_cast<size_t>(level)];
      const auto& pool = db.nodes_by_level[static_cast<size_t>(level) + 1];
      for (NodeRef owner : owners) {
        for (int p = 0; p < config_.parts_per_node; ++p) {
          from.push_back(owner);
          to.push_back(pool[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
        }
      }
    }
    return fetch->AddPartsMulti(from, to);
  }));
  t->rel_mn = from.size();

  // ---- (e) M-N attributed refs: one per node to a random node,
  // offsets uniform in 0..9 --------------------------------------------
  from.clear();
  to.clear();
  std::vector<int64_t> offset_from;
  std::vector<int64_t> offset_to;
  HM_RETURN_IF_ERROR(phase(&t->rel_mnatt_ms, [&]() -> util::Status {
    for (NodeRef node : db.all_nodes) {
      from.push_back(node);
      to.push_back(db.all_nodes[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(db.all_nodes.size()) - 1))]);
      // offset_to is drawn before offset_from: GCC evaluated the two
      // draws right to left when they were AddRef's arguments, and
      // every seed's database depends on that order.
      offset_to.push_back(rng.UniformInt(0, 9));
      offset_from.push_back(rng.UniformInt(0, 9));
    }
    return fetch->AddRefsMulti(from, to, offset_from, offset_to);
  }));
  t->rel_mnatt = from.size();

  return db;
}

}  // namespace hm
