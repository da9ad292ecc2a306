// Golden protocol-trace tests.
//
// With ClusterConfig::trace on, a run records every externally visible
// protocol event in order (see dsm/trace.hpp). Runs are bit-deterministic,
// so these traces are complete behavioural fingerprints: the scenarios
// below pin the exact event sequences of lmw-i and bar-i on a two-node
// producer/consumer program. If a protocol change alters the sequence the
// diff is human-readable -- update the golden only for *intended* changes.
//
// The scenario (3 iterations, 2 pages):
//   epoch A: node 0 writes both pages; barrier;
//   epoch B: node 1 reads one element of each page; barrier.
//
// What to look for in the pinned traces:
//   * bar-i: the loop-entry invalidation of cold replicas, whole-page
//     fetches (1056-byte replies), the migration of page 1 from its
//     initial home (node 1) to its writer at barrier 2, and the home
//     effect (no diffs for node 0's writes after migration).
//   * lmw-i: the twin/diff write-trap cycle, notices invalidating node 1,
//     and diff fetches (24-byte requests, full-page diff replies after
//     squashing) with the apply-time protection dance.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/protocols/factory.hpp"
#include "test_support.hpp"

namespace updsm {
namespace {

std::vector<std::string> run_traced(protocols::ProtocolKind kind,
                                    bool aggregate = false) {
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.page_size = 1024;
  cfg.trace = true;
  // The pinned goldens below predate barrier-time aggregation; they keep
  // exercising the per-page path (and prove it unchanged). The aggregated
  // variant has its own golden.
  cfg.aggregate_flushes = aggregate;
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(256 * 8, "x");  // 2 pages
  dsm::Cluster cluster(cfg, heap, protocols::make_protocol(kind));
  cluster.run([&](dsm::NodeContext& ctx) {
    auto x = ctx.array<double>(a, 256);
    for (int iter = 1; iter <= 3; ++iter) {
      ctx.iteration_begin();
      if (ctx.node() == 0) {
        auto w = x.write_view(0, 256);
        for (std::size_t i = 0; i < 256; ++i) w[i] = iter * 100.0 + i;
      }
      ctx.barrier();
      if (ctx.node() == 1) {
        (void)x.get(0);
        (void)x.get(200);
      }
      ctx.barrier();
    }
  });
  return cluster.runtime().trace()->lines();
}

TEST(TraceGoldenTest, BarIProducerConsumer) {
  const std::vector<std::string> expected{
      // Loop-entry cold-replica invalidation is distributed: each node
      // drops its OWN non-home replicas on its own thread, so node 0's
      // whole-phase lines come first and node 1's single invalidation
      // line follows (node-ordered buffers), instead of one node emitting
      // both lines up front.
      "mprot n0 p1 none",
      "fault w n0 p0",
      "mprot n0 p0 rw",
      "fault w n0 p1",
      "req n0>n1 16B 1056B",
      "mprot n0 p1 r",
      "mprot n0 p1 rw",
      "mprot n1 p0 none",
      "mprot n0 p1 r",
      "flush n0>n1 1032B",
      "mprot n1 p1 rw",
      "mprot n1 p1 r",
      "barrier 0",
      "fault r n1 p0",
      "req n1>n0 16B 1056B",
      "mprot n1 p0 r",
      "mprot n0 p0 r",
      "mprot n1 p0 none",
      "barrier 1",
      "fault w n0 p0",
      "mprot n0 p0 rw",
      "fault w n0 p1",
      "mprot n0 p1 rw",
      "mprot n0 p0 r",
      "mprot n0 p1 r",
      "flush n0>n1 1032B",
      "mprot n1 p1 rw",
      "mprot n1 p1 r",
      "req n0>n1 16B 1056B",
      "mprot n0 p1 r",
      "mprot n1 p1 none",
      "barrier 2",
      "fault r n1 p0",
      "req n1>n0 16B 1056B",
      "mprot n1 p0 r",
      "fault r n1 p1",
      "req n1>n0 16B 1056B",
      "mprot n1 p1 r",
      "barrier 3",
      "fault w n0 p0",
      "mprot n0 p0 rw",
      "fault w n0 p1",
      "mprot n0 p1 rw",
      "mprot n0 p0 r",
      "mprot n0 p1 r",
      "mprot n1 p0 none",
      "mprot n1 p1 none",
      "barrier 4",
      "fault r n1 p0",
      "req n1>n0 16B 1056B",
      "mprot n1 p0 r",
      "fault r n1 p1",
      "req n1>n0 16B 1056B",
      "mprot n1 p1 r",
      "barrier 5",
  };
  EXPECT_EQ(run_traced(protocols::ProtocolKind::BarI), expected);
}

// The same scenario with barrier-time aggregation on (the default): the
// event sequence is identical except that each per-page "flush" becomes a
// sealed "flushbatch" -- here 1 record of 1072 B (16 B batch header + 24 B
// record header + one 8 B run + 1024 B payload), where the per-page line
// carried 1032 B (run + payload). Everything else -- faults, fetches,
// protections, migration -- is untouched, which is the bit-exactness
// argument in trace form.
TEST(TraceGoldenTest, BarIProducerConsumerAggregated) {
  const std::vector<std::string> expected{
      "mprot n0 p1 none",
      "fault w n0 p0",
      "mprot n0 p0 rw",
      "fault w n0 p1",
      "req n0>n1 16B 1056B",
      "mprot n0 p1 r",
      "mprot n0 p1 rw",
      "mprot n1 p0 none",
      "mprot n0 p1 r",
      "flushbatch n0>n1 1r 1072B",
      "mprot n1 p1 rw",
      "mprot n1 p1 r",
      "barrier 0",
      "fault r n1 p0",
      "req n1>n0 16B 1056B",
      "mprot n1 p0 r",
      "mprot n0 p0 r",
      "mprot n1 p0 none",
      "barrier 1",
      "fault w n0 p0",
      "mprot n0 p0 rw",
      "fault w n0 p1",
      "mprot n0 p1 rw",
      "mprot n0 p0 r",
      "mprot n0 p1 r",
      "flushbatch n0>n1 1r 1072B",
      "mprot n1 p1 rw",
      "mprot n1 p1 r",
      "req n0>n1 16B 1056B",
      "mprot n0 p1 r",
      "mprot n1 p1 none",
      "barrier 2",
      "fault r n1 p0",
      "req n1>n0 16B 1056B",
      "mprot n1 p0 r",
      "fault r n1 p1",
      "req n1>n0 16B 1056B",
      "mprot n1 p1 r",
      "barrier 3",
      "fault w n0 p0",
      "mprot n0 p0 rw",
      "fault w n0 p1",
      "mprot n0 p1 rw",
      "mprot n0 p0 r",
      "mprot n0 p1 r",
      "mprot n1 p0 none",
      "mprot n1 p1 none",
      "barrier 4",
      "fault r n1 p0",
      "req n1>n0 16B 1056B",
      "mprot n1 p0 r",
      "fault r n1 p1",
      "req n1>n0 16B 1056B",
      "mprot n1 p1 r",
      "barrier 5",
  };
  EXPECT_EQ(run_traced(protocols::ProtocolKind::BarI, /*aggregate=*/true),
            expected);
}

TEST(TraceGoldenTest, LmwIProducerConsumer) {
  const std::vector<std::string> expected{
      "fault w n0 p0",
      "mprot n0 p0 rw",
      "fault w n0 p1",
      "mprot n0 p1 rw",
      "mprot n0 p0 r",
      "mprot n0 p1 r",
      "mprot n0 p0 rw",
      "mprot n0 p1 rw",
      "mprot n1 p0 none",
      "mprot n1 p1 none",
      "barrier 0",
      "fault r n1 p0",
      "req n1>n0 16B 1056B",
      "mprot n1 p0 r",
      "fault r n1 p1",
      "req n1>n0 16B 1056B",
      "mprot n1 p1 r",
      "mprot n0 p0 r",
      "mprot n0 p1 r",
      "barrier 1",
      "fault w n0 p0",
      "mprot n0 p0 rw",
      "fault w n0 p1",
      "mprot n0 p1 rw",
      "mprot n0 p0 r",
      "mprot n0 p1 r",
      "mprot n1 p0 none",
      "mprot n1 p1 none",
      "barrier 2",
      "fault r n1 p0",
      "req n1>n0 24B 1040B",
      "mprot n1 p0 rw",
      "mprot n1 p0 r",
      "fault r n1 p1",
      "req n1>n0 24B 1040B",
      "mprot n1 p1 rw",
      "mprot n1 p1 r",
      "barrier 3",
      "fault w n0 p0",
      "mprot n0 p0 rw",
      "fault w n0 p1",
      "mprot n0 p1 rw",
      "mprot n0 p0 r",
      "mprot n0 p1 r",
      "mprot n1 p0 none",
      "mprot n1 p1 none",
      "barrier 4",
      "fault r n1 p0",
      "req n1>n0 24B 1040B",
      "mprot n1 p0 rw",
      "mprot n1 p0 r",
      "fault r n1 p1",
      "req n1>n0 24B 1040B",
      "mprot n1 p1 rw",
      "mprot n1 p1 r",
      "barrier 5",
  };
  EXPECT_EQ(run_traced(protocols::ProtocolKind::LmwI), expected);
}

// Satellite contract: flush-class trace lines carry enough to be diffed
// against NetworkStats. Summing the per-line bytes (plus one wire header
// per line) and record counts must reproduce the Flush/FlushBatch counters
// exactly, on both paths, including drops.
TEST(TraceTest, FlushLinesReconcileWithNetworkStats) {
  for (const bool aggregate : {false, true}) {
    dsm::ClusterConfig cfg;
    cfg.num_nodes = 2;
    cfg.page_size = 1024;
    cfg.trace = true;
    cfg.aggregate_flushes = aggregate;
    // Exercise the drop suffix too: this seed drops one of the three
    // pushes on each path. Node 0 homes both pages, so every flush it
    // sends is an unreliable push: no retransmission adds traffic that has
    // no line of its own.
    cfg.static_homes = {0, 0};
    cfg.faults = testing_support::flush_loss(0.3);
    cfg.fault_seed = 3;
    mem::SharedHeap heap(cfg.page_size);
    const GlobalAddr a = heap.alloc_page_aligned(256 * 8, "x");
    dsm::Cluster cluster(
        cfg, heap, protocols::make_protocol(protocols::ProtocolKind::BarU));
    cluster.run([&](dsm::NodeContext& ctx) {
      auto x = ctx.array<double>(a, 256);
      for (int iter = 1; iter <= 4; ++iter) {
        ctx.iteration_begin();
        if (ctx.node() == 0) {
          auto w = x.write_view(0, 256);
          for (std::size_t i = 0; i < 256; ++i) w[i] = iter * 100.0 + i;
        }
        ctx.barrier();
        (void)x.get(0);
        ctx.barrier();
      }
    });
    std::uint64_t lines = 0, bytes = 0, records = 0, drops = 0;
    const std::string prefix = aggregate ? "flushbatch n" : "flush n";
    for (const std::string& line : cluster.runtime().trace()->lines()) {
      if (line.compare(0, prefix.size(), prefix) != 0) continue;
      ++lines;
      std::istringstream is(line);
      std::string tok;
      is >> tok >> tok;  // mnemonic, "nF>nT"
      if (aggregate) {
        is >> tok;
        ASSERT_EQ(tok.back(), 'r') << line;
        records += std::stoull(tok);
      } else {
        records += 1;
      }
      is >> tok;
      ASSERT_EQ(tok.back(), 'B') << line;
      bytes += std::stoull(tok);
      if (is >> tok) {
        ASSERT_EQ(tok, "drop") << line;
        ++drops;
      }
    }
    const auto kind = aggregate ? sim::MsgKind::FlushBatch : sim::MsgKind::Flush;
    const sim::NetworkStats& net = cluster.runtime().net().stats();
    ASSERT_GT(lines, 0u);
    EXPECT_EQ(lines, net.of(kind).count);
    EXPECT_GT(drops, 0u);
    EXPECT_EQ(drops, net.of(kind).dropped);
    EXPECT_EQ(bytes + lines * cfg.costs.net.header_bytes, net.of(kind).bytes);
    if (aggregate) {
      EXPECT_EQ(records, net.of(kind).records);
      EXPECT_EQ(records, cluster.runtime().counters().flush_batch_records);
      EXPECT_EQ(lines, cluster.runtime().counters().flush_batches);
    }
  }
}

TEST(TraceTest, DisabledByDefault) {
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 1;
  mem::SharedHeap heap(cfg.page_size);
  heap.alloc_page_aligned(64, "x");
  dsm::Cluster cluster(cfg, heap,
                       protocols::make_protocol(protocols::ProtocolKind::Null));
  EXPECT_EQ(cluster.runtime().trace(), nullptr);
}

TEST(TraceTest, StrJoinsLines) {
  dsm::TraceLog log;
  log.emit("a");
  log.emit("b c");
  EXPECT_EQ(log.str(), "a\nb c\n");
  EXPECT_EQ(log.size(), 2u);
  log.clear();
  EXPECT_TRUE(log.lines().empty());
}

}  // namespace
}  // namespace updsm
