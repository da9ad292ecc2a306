// X3: node-count scaling to 1024. The paper reports 8-processor numbers
// only; this ablation sweeps a parametrized node list (default 8, 64, 256,
// 1024) for the four base protocols on a stencil (jacobi) and a
// communication-heavy app (fft), running every point twice -- flat master
// barrier with unicast flushes, then tree barrier (fanout 4) with relayed
// flush dissemination -- and verifying bit-exactness against the
// sequential baseline at every point. Emits BENCH_nodes.json (recording
// host_cores like BENCH_gang.json) with per-node-count barrier wait time,
// flush message counts, and the flat-vs-tree speedup.
//
// Deterministic by construction: virtual-time results depend only on
// (workload, config), never on --jobs or wall clock; the
// bench_nodes_determinism ctest pins byte-identical output.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace updsm;

constexpr const char* kApps[] = {"jacobi", "fft"};

struct Cell {
  std::string app;
  protocols::ProtocolKind kind;
  int nodes;
};

}  // namespace

int main(int argc, char** argv) {
  using protocols::ProtocolKind;

  std::vector<int> node_list = {8, 64, 256, 1024};
  // 2 apps x |nodes| x 4 protocols x {flat, tree}; keep the sweep snappy
  // (the interesting signal is message/time scaling, not problem size).
  const auto opt = bench::BenchOptions::parse(
      argc, argv, 0.5,
      {{"--nodes-list", true,
        [&](const char* v) {
          node_list = harness::parse_int_list(
              "--nodes-list", v, 1, static_cast<int>(dsm::kMaxNodes));
        }}},
      "--nodes-list=N,N,... (default 8,64,256,1024)");
  const int tree_fanout = opt.fanout >= 2 ? opt.fanout : 4;
  const int relay_threshold =
      opt.relay_threshold > 0 ? opt.relay_threshold : 4;

  // Each cell contributes two runs: flat topology then tree + relay. One
  // sequential baseline per app (the baseline is a single process; its
  // checksum and time do not depend on the cluster size).
  std::vector<Cell> cells;
  std::vector<bench::GridCell> grid;
  for (const char* app : kApps) {
    for (const ProtocolKind kind : protocols::base_protocols()) {
      for (const int nodes : node_list) {
        cells.push_back(Cell{app, kind, nodes});
        for (const bool tree : {false, true}) {
          dsm::ClusterConfig cfg = opt.cluster_config();
          cfg.num_nodes = nodes;
          cfg.barrier_fanout = tree ? tree_fanout : 0;
          cfg.relay_threshold = tree ? relay_threshold : 0;
          grid.push_back({app, kind,
                          std::to_string(nodes) + " nodes, " +
                              (tree ? "tree" : "flat"),
                          cfg});
        }
      }
    }
  }
  bench::RunCache cache(opt);
  const auto runs = cache.warm(grid);

  std::printf("Ablation X3: scaling to 1024 nodes, flat vs tree(%d)+relay(%d) "
              "(scale %.2f)\n\n",
              tree_fanout, relay_threshold, opt.scale);

  bench::JsonWriter json("BENCH_nodes.json", "node_scaling");
  json.field("scale", "%.3f", opt.scale);
  json.field("tree_fanout", "%d", tree_fanout);
  json.field("relay_threshold", "%d", relay_threshold);
  // The sweep varies node counts, so the per-run resolved worker count can
  // be lower (clamped to the cell's nodes); the header records the
  // requested setting resolved against the default cluster size.
  json.host_env(opt);
  json.begin_array("runs");

  std::string cur_header;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const harness::RunResult& flat = *runs[2 * i];
    const harness::RunResult& tree = *runs[2 * i + 1];

    const std::string header =
        cell.app + " under " + protocols::to_string(cell.kind);
    if (header != cur_header) {
      if (!cur_header.empty()) std::printf("\n");
      cur_header = header;
      std::printf("%s:\n  %6s %10s %10s %8s %11s %11s %11s %8s\n",
                  header.c_str(), "nodes", "flat", "tree", "speedup",
                  "wait-flat", "wait-tree", "msgs-flat", "reduce");
    }
    const double speedup =
        tree.elapsed > 0 ? static_cast<double>(flat.elapsed) /
                               static_cast<double>(tree.elapsed)
                         : 0.0;
    const sim::SimTime wait_flat = flat.breakdown.summed().wait;
    const sim::SimTime wait_tree = tree.breakdown.summed().wait;
    const std::uint64_t msgs_flat = flat.net.flush_class_messages();
    const std::uint64_t msgs_tree = tree.net.flush_class_messages();
    const double reduction =
        msgs_tree == 0 ? 1.0
                       : static_cast<double>(msgs_flat) /
                             static_cast<double>(msgs_tree);
    std::printf("  %6d %8.2fms %8.2fms %7.3fx %9.2fms %9.2fms %11llu %7.2fx\n",
                cell.nodes, sim::to_msec(flat.elapsed),
                sim::to_msec(tree.elapsed), speedup, sim::to_msec(wait_flat),
                sim::to_msec(wait_tree),
                static_cast<unsigned long long>(msgs_flat), reduction);

    json.row(
        "{\"app\": \"%s\", \"protocol\": \"%s\", \"nodes\": %d, "
        "\"elapsed_flat_ms\": %.3f, \"elapsed_tree_ms\": %.3f, "
        "\"speedup_flat_vs_tree\": %.4f, "
        "\"barrier_wait_flat_ms\": %.3f, \"barrier_wait_tree_ms\": %.3f, "
        "\"flush_messages_flat\": %llu, \"flush_messages_tree\": %llu, "
        "\"flush_message_reduction\": %.4f, \"relay_batches\": %llu, "
        "\"relay_messages\": %llu, \"total_messages_flat\": %llu, "
        "\"total_messages_tree\": %llu, \"barriers\": %llu, "
        "\"correct\": true}",
        cell.app.c_str(),
        protocols::to_string(cell.kind), cell.nodes,
        sim::to_msec(flat.elapsed), sim::to_msec(tree.elapsed), speedup,
        sim::to_msec(wait_flat), sim::to_msec(wait_tree),
        static_cast<unsigned long long>(msgs_flat),
        static_cast<unsigned long long>(msgs_tree), reduction,
        static_cast<unsigned long long>(tree.counters.relay_batches.load()),
        static_cast<unsigned long long>(tree.counters.relay_messages.load()),
        static_cast<unsigned long long>(flat.net.table_messages()),
        static_cast<unsigned long long>(tree.net.table_messages()),
        static_cast<unsigned long long>(tree.barriers));
  }
  json.end_array();
  json.close();
  std::printf("\nwrote BENCH_nodes.json (%zu cells x {flat, tree}, "
              "all bit-exact vs sequential)\n",
              cells.size());
  return 0;
}
