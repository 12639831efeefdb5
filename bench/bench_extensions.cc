// E12 (§6.8): the extension operation set — schema modification (R4),
// version handling (R5) and access control (R11) — timed over a
// level-4 database on each backend.

#include <iomanip>
#include <iostream>

#include "bench/bench_common.h"
#include "hypermodel/ext/access_control.h"
#include "hypermodel/ext/schema_evolution.h"
#include "hypermodel/ext/version.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using hm::bench::CheckOk;

struct Row {
  std::string name;
  std::string backend;
  double ms_per_op;
  uint64_t ops;
};

void Print(const std::vector<Row>& rows) {
  std::cout << std::left << std::setw(44) << "extension operation"
            << std::setw(8) << "backend" << std::right << std::setw(10)
            << "ops" << std::setw(14) << "ms/op" << "\n";
  for (const Row& row : rows) {
    std::cout << std::left << std::setw(44) << row.name << std::setw(8)
              << row.backend << std::right << std::setw(10) << row.ops
              << std::fixed << std::setprecision(4) << std::setw(14)
              << row.ms_per_op << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  hm::bench::BenchEnv env;
  env.levels = {4};
  hm::bench::Flags flags("bench_extensions");
  flags.Add("levels", &env.levels)
      .Add("backends", &env.backends)
      .Add("iters", &env.iterations)
      .Add("cache-pages", &env.backend.cache_pages)
      .Add("remote", &env.backend.remote)
      .Add("remote-mode", &env.backend.remote_mode)
      .Parse(argc, argv);
  if (env.levels.size() != 1 || env.backends.empty() || env.iterations <= 0) {
    flags.Fail("needs one level, backends and iters > 0");
  }
  env.workdir = hm::bench::ScratchDir();
  std::cout << "### E12: Extension operations (§6.8 — R4 schema "
               "modification, R5 versions, R11 access control)\n\n";

  std::vector<Row> rows;
  for (const std::string& backend : env.backends) {
    std::string dir = env.workdir + "/" + backend + "_ext";
    std::unique_ptr<hm::HyperStore> store =
        hm::bench::Must(hm::bench::OpenBackend(env.backend, backend, dir));
    hm::TestDatabase db =
        hm::bench::BuildDatabase(store.get(), env.levels[0], nullptr);
    hm::util::Rng rng(11);
    const int n = env.iterations;

    // --- R4: add type + create DrawNodes -------------------------------
    {
      CheckOk(store->Begin());
      hm::ext::SchemaEvolution schema(store.get());
      hm::util::Timer timer;
      CheckOk(schema.AddNodeType("DrawNode").status());
      for (int i = 0; i < n; ++i) {
        hm::ext::DrawContents drawing;
        drawing.Add({hm::ext::Shape::Kind::kCircle, i, i, 10, 0});
        drawing.Add({hm::ext::Shape::Kind::kRectangle, 0, 0, i + 1, i + 1});
        hm::NodeAttrs attrs;
        attrs.unique_id = 1000000 + i;
        CheckOk(
            schema.CreateDrawNode(attrs, drawing, hm::kInvalidNode).status());
      }
      CheckOk(store->Commit());
      rows.push_back({"R4 addType + create DrawNode", backend,
                      timer.ElapsedMillis() / n, static_cast<uint64_t>(n)});

      CheckOk(store->Begin());
      timer.Restart();
      CheckOk(schema.AddAttribute("priority", 1));
      for (int i = 0; i < n; ++i) {
        hm::NodeRef node = db.all_nodes[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(db.node_count()) - 1))];
        CheckOk(schema.SetDynamicAttr(node, "priority",
                                      rng.UniformInt(0, 9)));
      }
      CheckOk(store->Commit());
      rows.push_back({"R4 addAttribute + set dynamic attr", backend,
                      timer.ElapsedMillis() / n, static_cast<uint64_t>(n)});
    }

    // --- R5: create version / retrieve previous ------------------------
    {
      hm::ext::VersionManager versions(store.get());
      CheckOk(store->Begin());
      hm::util::Timer timer;
      for (int i = 0; i < n; ++i) {
        hm::NodeRef node =
            db.text_nodes[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(db.text_nodes.size()) - 1))];
        CheckOk(
            versions.CreateVersion(node, static_cast<uint64_t>(i)).status());
      }
      CheckOk(store->Commit());
      rows.push_back({"R5 createVersion (text node)", backend,
                      timer.ElapsedMillis() / n, static_cast<uint64_t>(n)});

      timer.Restart();
      uint64_t found = 0;
      for (int i = 0; i < n; ++i) {
        hm::NodeRef node =
            db.text_nodes[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(db.text_nodes.size()) - 1))];
        if (versions.GetPrevious(node).ok()) ++found;
      }
      rows.push_back({"R5 getPreviousVersion", backend,
                      timer.ElapsedMillis() / n, found});
    }

    // --- R11: set ACL on a structure + guarded reads --------------------
    {
      hm::ext::AccessControl acl(store.get(), hm::ext::AccessMode::kNone);
      hm::util::Timer timer;
      CheckOk(acl.SetPublicAccess(db.level(1)[0], hm::ext::AccessMode::kRead));
      CheckOk(
          acl.SetPublicAccess(db.level(1)[1], hm::ext::AccessMode::kWrite));
      rows.push_back(
          {"R11 setPublicAccess (2 structures)", backend,
           timer.ElapsedMillis() / 2, 2});

      timer.Restart();
      uint64_t allowed = 0;
      for (int i = 0; i < n; ++i) {
        hm::NodeRef node = db.all_nodes[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(db.node_count()) - 1))];
        if (acl.ReadAttr(node, 7, hm::Attr::kHundred).ok()) ++allowed;
      }
      rows.push_back({"R11 guarded attribute read (ACL walk)", backend,
                      timer.ElapsedMillis() / n, allowed});
    }
  }
  Print(rows);
  return 0;
}
