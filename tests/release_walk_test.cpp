// The bar-* release walk visits, per node, only the change records of
// pages whose copyset holds the node. That is sound only if, once every
// node has entered the time-step loop, each non-home node holding a page
// readable is in that page's copyset: a replica outside it would keep
// stale bytes through a release that never looks at it. This suite checks
// the invariant after every barrier of the loop, through the protocol's
// own introspection and each node's page table, across the update-family
// protocols, four apps, two cluster sizes, aggregation on and off, with
// home migration on and a lossy, duplicating network.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "forwarding_protocol.hpp"
#include "updsm/apps/registry.hpp"
#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/dsm/runtime.hpp"
#include "updsm/mem/shared_heap.hpp"
#include "updsm/protocols/bar.hpp"
#include "updsm/protocols/factory.hpp"

namespace updsm {
namespace {

using protocols::ProtocolKind;

/// Asserts the copyset invariant after every barrier_finish that follows
/// every node's iteration_begin(..., 1).
class CopysetInvariantProbe final : public testing_support::ForwardingProtocol {
 public:
  using ForwardingProtocol::ForwardingProtocol;

  void init(dsm::Runtime& rt) override {
    rt_ = &rt;
    entered_.assign(static_cast<std::size_t>(rt.num_nodes()), 0);
    ForwardingProtocol::init(rt);
  }

  void iteration_begin(NodeId n, std::uint64_t iteration) override {
    ForwardingProtocol::iteration_begin(n, iteration);
    // Each node writes only its own slot; the controller reads them with
    // every node parked.
    if (iteration == 1) entered_[n.index()] = 1;
  }

  void barrier_finish() override {
    ForwardingProtocol::barrier_finish();
    if (std::count(entered_.begin(), entered_.end(), 0) != 0) return;
    ++checked_barriers_;
    const auto& bar = dynamic_cast<const protocols::BarProtocol&>(inner());
    for (std::uint32_t p = 0; p < rt_->num_pages(); ++p) {
      const PageId page{p};
      const NodeId home = bar.home(page);
      const dsm::Copyset copyset = bar.copyset(page);
      for (int i = 0; i < rt_->num_nodes(); ++i) {
        const NodeId n{static_cast<std::uint32_t>(i)};
        if (n == home || rt_->table(n).prot(page) == mem::Protect::None) {
          continue;
        }
        if (!copyset.contains(n) && ++violations_ <= 5) {
          ADD_FAILURE() << "epoch " << rt_->epoch() << ": node " << n
                        << " holds page " << page << " (home " << home
                        << ") readable outside its copyset";
        }
      }
    }
  }

  [[nodiscard]] int checked_barriers() const { return checked_barriers_; }
  [[nodiscard]] int violations() const { return violations_; }

 private:
  dsm::Runtime* rt_ = nullptr;
  std::vector<char> entered_;
  int checked_barriers_ = 0;
  int violations_ = 0;
};

struct WalkCase {
  const char* app;
  ProtocolKind kind;
  int nodes;
  bool aggregate;
};

std::string case_name(const ::testing::TestParamInfo<WalkCase>& info) {
  std::string name = info.param.app;
  name += '_';
  for (const char c : std::string(protocols::to_string(info.param.kind))) {
    if (c != '-') name += c;
  }
  name += "_n";
  name += std::to_string(info.param.nodes);
  name += info.param.aggregate ? "_agg" : "_perpage";
  return name;
}

std::vector<WalkCase> walk_cases() {
  std::vector<WalkCase> cases;
  for (const char* app : {"jacobi", "fft", "swm", "barnes"}) {
    for (const ProtocolKind kind :
         {ProtocolKind::BarI, ProtocolKind::BarU, ProtocolKind::BarS,
          ProtocolKind::BarM, ProtocolKind::Adaptive}) {
      for (const int nodes : {8, 64}) {
        for (const bool aggregate : {true, false}) {
          cases.push_back(WalkCase{app, kind, nodes, aggregate});
        }
      }
    }
  }
  return cases;
}

class ReleaseWalkTest : public ::testing::TestWithParam<WalkCase> {};

TEST_P(ReleaseWalkTest, ReadableNonHomeReplicasAreCopysetMembers) {
  const WalkCase& c = GetParam();
  apps::AppParams params;
  params.scale = 0.5;
  params.warmup_iterations = 5;  // past bar-s / bar-m learning
  params.measured_iterations = 2;
  auto app = apps::make_app(c.app, params);
  mem::SharedHeap heap(8192);
  app->allocate(heap);

  dsm::ClusterConfig cfg;
  cfg.num_nodes = c.nodes;
  cfg.workers = 2;
  cfg.aggregate_flushes = c.aggregate;
  cfg.home_migration = true;
  // barnes' write set shifts every step: bar-s / bar-m mispredict and fall
  // back to trapping, which the invariant must survive too.
  cfg.overdrive_fallback = dsm::OverdriveFallback::Revert;
  cfg.faults = sim::FaultSpec::parse("drop=0.1,dup=0.05");
  cfg.fault_seed = 7;
  auto probe = std::make_unique<CopysetInvariantProbe>(
      protocols::make_protocol(c.kind));
  const CopysetInvariantProbe& watch = *probe;
  dsm::Cluster cluster(cfg, heap, std::move(probe));
  cluster.run([&](dsm::NodeContext& ctx) { app->run(ctx); });

  EXPECT_GT(watch.checked_barriers(), 0) << "the loop was never entered";
  EXPECT_EQ(watch.violations(), 0);
}

INSTANTIATE_TEST_SUITE_P(UpdateFamily, ReleaseWalkTest,
                         ::testing::ValuesIn(walk_cases()), case_name);

}  // namespace
}  // namespace updsm
