// Topology conformance: tree barriers and relayed flush dissemination are
// transport-level optimizations, so every observable *result* must be
// bit-identical with them on or off -- across the six paper protocols,
// both gang modes, and a battery of fault plans -- while the *traffic*
// shape changes exactly as designed (the same 2(n-1) sync messages per
// barrier re-routed along the tree; relayed batches noted once in the
// record census however many hops they ride).
//
// Plan count defaults to 6; UPDSM_TOPO_PLANS=<n> shrinks (or grows) the
// battery, which CI uses to keep the sanitizer job inside its time budget.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "updsm/apps/registry.hpp"
#include "updsm/common/rng.hpp"
#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/harness/experiment.hpp"
#include "updsm/protocols/factory.hpp"
#include "test_support.hpp"

namespace updsm {
namespace {

using protocols::ProtocolKind;
using sim::GangMode;
using sim::MsgKind;

struct Scenario {
  const char* app;
  std::vector<ProtocolKind> kinds;
};

// Same roster as the aggregation suite: tomcat's shifting write set
// excludes the overdrive predictors (bar-s / bar-m).
const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> s{
      {"jacobi",
       {ProtocolKind::LmwI, ProtocolKind::LmwU, ProtocolKind::BarI,
        ProtocolKind::BarU, ProtocolKind::BarS, ProtocolKind::BarM}},
      {"tomcat",
       {ProtocolKind::LmwI, ProtocolKind::LmwU, ProtocolKind::BarI,
        ProtocolKind::BarU}},
  };
  return s;
}

int plan_count() {
  if (const char* env = std::getenv("UPDSM_TOPO_PLANS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 6;
}

/// Same deterministic plan construction as the fault / aggregation
/// batteries, offset so this suite exercises different draws -- and with
/// one arm that hammers the relay hops directly.
std::string make_plan(int i) {
  std::uint64_t x = 0x1998'0330u + 31337u + static_cast<std::uint64_t>(i);
  auto draw = [&x] {
    x = splitmix64(x);
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  auto pct = [&](double lo, double hi) {
    const double p = lo + draw() * (hi - lo);
    return std::to_string(p).substr(0, 6);
  };
  switch (i % 4) {
    case 0:
      return "drop=" + pct(0.02, 0.15);
    case 1:
      return "drop=" + pct(0.01, 0.1) + ",dup=" + pct(0.01, 0.1) +
             ",delay=" + pct(0.01, 0.1) + ",delay_us=" +
             std::to_string(50 + static_cast<int>(draw() * 400));
    case 2:  // hammer the dissemination tree directly: a lost hop loses
             // every segment aboard, the whole destination subtree heals
      return std::string("kind=flush-relay,drop=") + pct(0.1, 0.3) +
             ";drop=" + pct(0.0, 0.05);
    default:
      return "from=0,to=1,drop=" + pct(0.1, 0.3) + ";drop=" + pct(0.01, 0.08) +
             ";node=1,stall=" + pct(0.1, 0.4) + ",stall_us=" +
             std::to_string(100 + static_cast<int>(draw() * 800));
  }
}

struct Topology {
  int barrier_fanout = 0;   // 0 = flat master barrier
  int relay_threshold = 0;  // 0 = unicast flush batches
};

harness::RunResult run_one(const char* app, ProtocolKind kind, GangMode gang,
                           Topology topo, int nodes, double scale,
                           const std::string& plan, std::uint64_t fault_seed) {
  apps::AppParams params;
  params.scale = scale;
  params.warmup_iterations = 4;
  params.measured_iterations = 2;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.gang = gang;
  cfg.barrier_fanout = topo.barrier_fanout;
  cfg.relay_threshold = topo.relay_threshold;
  if (!plan.empty()) {
    cfg.faults = sim::FaultSpec::parse(plan);
    cfg.fault_seed = fault_seed;
  }
  return harness::run_app(app, kind, cfg, params);
}

// Fault-free tree barriers: the k-ary reduction/broadcast tree must
// preserve the computation and every protocol observable exactly -- same
// checksums, same counters, same flush traffic -- and re-route, not
// multiply, the sync traffic: still one arrival and one release message
// per non-root node per barrier, whatever the fanout.
TEST(TopologyConformanceTest, TreeBarrierMatchesFlat) {
  for (const Scenario& sc : scenarios()) {
    for (const ProtocolKind kind : sc.kinds) {
      for (const GangMode gang : {GangMode::Baton, GangMode::Parallel}) {
        const harness::RunResult flat =
            run_one(sc.app, kind, gang, {0, 0}, 8, 0.1, "", 0);
        for (const int fanout : {2, 8}) {
          const harness::RunResult tree =
              run_one(sc.app, kind, gang, {fanout, 0}, 8, 0.1, "", 0);
          const std::string ctx =
              std::string(sc.app) + " under " + protocols::to_string(kind) +
              (gang == GangMode::Baton ? " baton" : " par") + " fanout " +
              std::to_string(fanout);
          ASSERT_NE(flat.checksum, 0.0) << ctx;
          EXPECT_EQ(tree.checksum, flat.checksum) << ctx;
          EXPECT_EQ(tree.barriers, flat.barriers) << ctx;
          EXPECT_EQ(tree.counters.diffs_created.load(),
                    flat.counters.diffs_created.load())
              << ctx;
          EXPECT_EQ(tree.counters.updates_sent.load(),
                    flat.counters.updates_sent.load())
              << ctx;
          EXPECT_EQ(tree.counters.pages_fetched.load(),
                    flat.counters.pages_fetched.load())
              << ctx;
          EXPECT_EQ(tree.counters.migrations.load(),
                    flat.counters.migrations.load())
              << ctx;
          // Sync census: same message count, re-routed along tree edges.
          EXPECT_EQ(tree.net.of(MsgKind::SyncArrive).count,
                    flat.net.of(MsgKind::SyncArrive).count)
              << ctx;
          EXPECT_EQ(tree.net.of(MsgKind::SyncRelease).count,
                    flat.net.of(MsgKind::SyncRelease).count)
              << ctx;
          // Flush traffic is untouched by the barrier topology.
          EXPECT_EQ(tree.net.flush_class_messages(),
                    flat.net.flush_class_messages())
              << ctx;
          EXPECT_EQ(tree.net.flush_class_records(),
                    flat.net.flush_class_records())
              << ctx;
          EXPECT_EQ(tree.counters.relay_batches.load(), 0u) << ctx;
        }
      }
    }
  }
}

// Fault-free relayed dissemination: routing batches through the tree must
// not change results or the record census -- records are noted once per
// batch (under FlushRelay for relayed ones), never per hop -- and the
// relay bookkeeping must reconcile with the network's message table.
TEST(TopologyConformanceTest, RelayMatchesUnicast) {
  for (const char* app : {"jacobi", "fft"}) {
    for (const ProtocolKind kind :
         {ProtocolKind::LmwU, ProtocolKind::BarU, ProtocolKind::BarI}) {
      const harness::RunResult uni =
          run_one(app, kind, GangMode::Parallel, {0, 0}, 8, 0.25, "", 0);
      const harness::RunResult rel =
          run_one(app, kind, GangMode::Parallel, {0, 2}, 8, 0.25, "", 0);
      const std::string ctx =
          std::string(app) + " under " + protocols::to_string(kind);
      ASSERT_NE(uni.checksum, 0.0) << ctx;
      EXPECT_EQ(rel.checksum, uni.checksum) << ctx;
      EXPECT_EQ(rel.barriers, uni.barriers) << ctx;
      EXPECT_EQ(rel.counters.updates_received.load(),
                uni.counters.updates_received.load())
          << ctx;
      EXPECT_EQ(rel.counters.updates_applied.load(),
                uni.counters.updates_applied.load())
          << ctx;
      // The record census is invariant under routing; the batch count too.
      EXPECT_EQ(rel.net.flush_class_records(), uni.net.flush_class_records())
          << ctx;
      EXPECT_EQ(rel.counters.flush_batches.load(),
                uni.counters.flush_batches.load())
          << ctx;
      // Bookkeeping reconciles: every sealed batch is either a unicast
      // FlushBatch message or a relayed segment; every relay hop is a
      // FlushRelay message; nothing is lost without faults.
      EXPECT_EQ(rel.counters.flush_batches.load(),
                rel.net.of(MsgKind::FlushBatch).count +
                    rel.counters.relay_batches.load())
          << ctx;
      EXPECT_EQ(rel.counters.relay_messages.load(),
                rel.net.of(MsgKind::FlushRelay).count)
          << ctx;
      EXPECT_EQ(rel.counters.relay_subtree_losses.load(), 0u) << ctx;
      EXPECT_EQ(rel.counters.recovery_faults.load(),
                uni.counters.recovery_faults.load())
          << ctx;
    }
  }
  // The headline claim for the all-to-all app: relaying actually shrinks
  // the flush-class message total (that is its whole point).
  const harness::RunResult uni =
      run_one("fft", ProtocolKind::BarU, GangMode::Parallel, {0, 0}, 8, 0.25,
              "", 0);
  const harness::RunResult rel =
      run_one("fft", ProtocolKind::BarU, GangMode::Parallel, {0, 2}, 8, 0.25,
              "", 0);
  ASSERT_GT(rel.counters.relay_batches.load(), 0u);
  EXPECT_LT(rel.net.flush_class_messages(), uni.net.flush_class_messages());
}

/// One traced run, keeping everything it exposes: the trace, the per-node
/// breakdown, and the measured counters and network statistics.
struct TracedRun {
  double checksum = 0.0;
  sim::SimTime elapsed = 0;
  std::uint64_t barriers = 0;
  dsm::BreakdownReport breakdown;
  dsm::ProtocolCounters counters;
  sim::NetworkStats net;
  std::vector<std::string> trace;
};

TracedRun run_traced(const char* app_name, ProtocolKind kind, GangMode gang,
                     Topology topo, const std::string& plan) {
  apps::AppParams params;
  params.scale = 0.1;
  params.warmup_iterations = 2;
  params.measured_iterations = 2;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.gang = gang;
  cfg.barrier_fanout = topo.barrier_fanout;
  cfg.relay_threshold = topo.relay_threshold;
  cfg.trace = true;
  if (!plan.empty()) {
    cfg.faults = sim::FaultSpec::parse(plan);
    cfg.fault_seed = 4242;
  }
  auto app = apps::make_app(app_name, params);
  mem::SharedHeap heap(cfg.page_size);
  app->allocate(heap);
  dsm::Cluster cluster(cfg, heap, protocols::make_protocol(kind));
  cluster.run([&](dsm::NodeContext& ctx) { app->run(ctx); });
  TracedRun run;
  run.checksum = app->result_checksum();
  run.elapsed = cluster.elapsed();
  run.barriers = cluster.barriers();
  run.breakdown = cluster.breakdown();
  run.counters = cluster.runtime().measured_counters();
  run.net = cluster.runtime().measured_net_stats();
  run.trace = cluster.runtime().trace()->lines();
  return run;
}

// Degenerate topologies are the flat, unicast paths, so each must be
// indistinguishable from them -- same result, same virtual time, every
// node's breakdown, every counter, every network statistic and the trace
// line for line -- fault-free, under a seeded plan, and under one that
// drops and duplicates sync messages:
//  - one seal path: a relay threshold no sender can exceed (n - 1 is the
//    most destinations a sender has; n is above every count) is relaying
//    switched off, for barrier seals and the async per-publish seals;
//  - one barrier path: the flat master barrier (fanout 0) is the star
//    tree, so a fanout that makes every slave a child of the master (n - 1
//    is the smallest such fanout, n is above it) is the flat barrier.
TEST(TopologyConformanceTest, DegenerateTopologiesMatchFlatUnicast) {
  struct Case {
    const char* app;
    ProtocolKind kind;
    GangMode gang;
  };
  const std::vector<Case> cases{
      {"fft", ProtocolKind::BarU, GangMode::Parallel},
      {"fft", ProtocolKind::LmwU, GangMode::Parallel},
      {"jacobi", ProtocolKind::BarI, GangMode::Parallel},
      {"jacobi", ProtocolKind::BarU, GangMode::Parallel},
      {"jacobi", ProtocolKind::LmwU, GangMode::Parallel},
      {"jacobi-async", ProtocolKind::AsyncU, GangMode::Async},
  };
  const std::vector<std::string> plans{
      "", "drop=0.08,dup=0.05,delay=0.05",
      "kind=sync-arrive,drop=0.15,dup=0.1;kind=sync-release,drop=0.15,"
      "dup=0.1;drop=0.03"};
  const std::vector<Topology> degenerate{{0, 7}, {0, 8}, {7, 0}, {8, 0}};
  for (const Case& c : cases) {
    for (const std::string& plan : plans) {
      const TracedRun flat = run_traced(c.app, c.kind, c.gang, {0, 0}, plan);
      ASSERT_NE(flat.checksum, 0.0) << c.app;
      ASSERT_GT(flat.counters.flush_batches.load(), 0u) << c.app;
      if (&plan == &plans.back()) {
        ASSERT_GT(flat.net.of(MsgKind::SyncArrive).dropped +
                      flat.net.of(MsgKind::SyncRelease).dropped,
                  0u)
            << c.app;
      }
      for (const Topology topo : degenerate) {
        const TracedRun run = run_traced(c.app, c.kind, c.gang, topo, plan);
        const std::string ctx =
            std::string(c.app) + " under " + protocols::to_string(c.kind) +
            " fanout " + std::to_string(topo.barrier_fanout) + " relay " +
            std::to_string(topo.relay_threshold) + " plan [" + plan + "]";
        EXPECT_EQ(run.checksum, flat.checksum) << ctx;
        EXPECT_EQ(run.elapsed, flat.elapsed) << ctx;
        EXPECT_EQ(run.barriers, flat.barriers) << ctx;
        ASSERT_EQ(run.breakdown.nodes.size(), flat.breakdown.nodes.size())
            << ctx;
        for (std::size_t i = 0; i < flat.breakdown.nodes.size(); ++i) {
          const auto& a = run.breakdown.nodes[i];
          const auto& b = flat.breakdown.nodes[i];
          const std::string at = ctx + " node " + std::to_string(i);
          EXPECT_EQ(a.app, b.app) << at;
          EXPECT_EQ(a.dsm, b.dsm) << at;
          EXPECT_EQ(a.os, b.os) << at;
          EXPECT_EQ(a.wait, b.wait) << at;
          EXPECT_EQ(a.sigio, b.sigio) << at;
        }
        testing_support::expect_same_counters(run.counters, flat.counters,
                                              ctx);
        testing_support::expect_same_net(run.net, flat.net, ctx);
        EXPECT_EQ(run.trace, flat.trace) << ctx;
      }
    }
  }
}

// Under faults the packet pattern differs by topology (a dropped relay hop
// loses a whole subtree's segments; a dropped tree sync retries on a
// different edge), but the *result* must still match the fault-free
// baseline bit-for-bit in every topology, and both gang modes must agree
// on every observable.
TEST(TopologyConformanceTest, TopologiesBitExactUnderFaults) {
  const int plans = plan_count();
  const std::vector<Topology> topologies{{0, 0}, {4, 0}, {0, 2}, {4, 2}};
  for (const Scenario& sc : scenarios()) {
    for (const ProtocolKind kind : sc.kinds) {
      const harness::RunResult base =
          run_one(sc.app, kind, GangMode::Parallel, {0, 0}, 8, 0.1, "", 0);
      for (int i = 0; i < plans; ++i) {
        const std::string plan = make_plan(i);
        const std::uint64_t seed = 6000u + static_cast<std::uint64_t>(i);
        for (const Topology topo : topologies) {
          const harness::RunResult faulty = run_one(
              sc.app, kind, GangMode::Parallel, topo, 8, 0.1, plan, seed);
          const std::string ctx =
              std::string(sc.app) + " under " + protocols::to_string(kind) +
              " plan " + std::to_string(i) + " [" + plan + "] fanout " +
              std::to_string(topo.barrier_fanout) + " relay " +
              std::to_string(topo.relay_threshold);
          EXPECT_EQ(faulty.checksum, base.checksum) << ctx;
          EXPECT_EQ(faulty.barriers, base.barriers) << ctx;

          const harness::RunResult baton = run_one(
              sc.app, kind, GangMode::Baton, topo, 8, 0.1, plan, seed);
          EXPECT_EQ(baton.checksum, faulty.checksum) << ctx;
          EXPECT_EQ(baton.elapsed, faulty.elapsed) << ctx;
          EXPECT_EQ(baton.net.total_bytes(), faulty.net.total_bytes()) << ctx;
          EXPECT_EQ(baton.net.total_dropped(), faulty.net.total_dropped())
              << ctx;
          EXPECT_EQ(baton.counters.relay_messages.load(),
                    faulty.counters.relay_messages.load())
              << ctx;
          EXPECT_EQ(baton.counters.relay_subtree_losses.load(),
                    faulty.counters.relay_subtree_losses.load())
              << ctx;
        }
      }
    }
  }
}

// The scaling smoke at a post-64 cluster size the flat protocol stack was
// never allowed to reach before: 64 nodes, every topology combination,
// bit-identical results -- and the tree barrier strictly cheaper in
// simulated time for the barrier-dominated update protocol.
TEST(TopologyConformanceTest, SixtyFourNodesBitExactAcrossTopologies) {
  for (const char* app : {"jacobi", "fft"}) {
    for (const ProtocolKind kind : {ProtocolKind::LmwU, ProtocolKind::BarU}) {
      const std::string ctx = std::string(app) + " at 64 nodes under " +
                              protocols::to_string(kind);
      const harness::RunResult flat =
          run_one(app, kind, GangMode::Parallel, {0, 0}, 64, 0.1, "", 0);
      const harness::RunResult tree =
          run_one(app, kind, GangMode::Parallel, {4, 0}, 64, 0.1, "", 0);
      const harness::RunResult both =
          run_one(app, kind, GangMode::Parallel, {4, 4}, 64, 0.1, "", 0);
      ASSERT_NE(flat.checksum, 0.0) << ctx;
      EXPECT_EQ(tree.checksum, flat.checksum) << ctx;
      EXPECT_EQ(both.checksum, flat.checksum) << ctx;
      EXPECT_EQ(tree.barriers, flat.barriers) << ctx;
      // At 64 nodes the O(n) master barrier dominates; the tree must win.
      EXPECT_LT(tree.elapsed, flat.elapsed) << ctx;
      // Release metadata is a broadcast and each tree edge ships it once:
      // bar-u hands every node the same change list, so the tree's release
      // bytes equal the flat barrier's exactly.
      if (kind == ProtocolKind::BarU) {
        EXPECT_EQ(tree.net.of(MsgKind::SyncRelease).bytes,
                  flat.net.of(MsgKind::SyncRelease).bytes)
            << ctx;
      }
      // ...and stay bit-exact under a fault plan in the full topology.
      const std::string plan = "drop=0.08,dup=0.03";
      const harness::RunResult faulty = run_one(
          app, kind, GangMode::Parallel, {4, 4}, 64, 0.1, plan, 7);
      EXPECT_EQ(faulty.checksum, flat.checksum) << ctx;
      EXPECT_EQ(faulty.barriers, flat.barriers) << ctx;
    }
  }
}

}  // namespace
}  // namespace updsm
