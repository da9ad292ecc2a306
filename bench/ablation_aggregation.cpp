// X7: what barrier-time flush aggregation buys, and when. Sweeps the fixed
// per-message network cost over {15, 45, 100, 200} us for all six paper
// protocols on jacobi (stencil), tomcat (irregular mesh) and fft
// (all-to-all transpose), running every point both with and without
// aggregation, verifying bit-exactness against the sequential baseline at
// every point, and reporting the message reduction and runtime speedup the
// batching layer delivers. Emits BENCH_aggregation.json.
//
// Deterministic by construction: virtual-time results depend only on
// (workload, config), never on --jobs or wall clock; the
// bench_aggregation_determinism ctest pins byte-identical output.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace updsm;

constexpr int kPerMessageUs[] = {15, 45, 100, 200};
constexpr const char* kApps[] = {"jacobi", "tomcat", "fft"};

struct Cell {
  std::string app;
  protocols::ProtocolKind kind;
  int per_message_us;
};

}  // namespace

int main(int argc, char** argv) {
  using protocols::ProtocolKind;

  // 144 runs; keep the sweep snappy. 0.5 (not the usual 0.4) because fft's
  // power-of-two sizing needs >= half scale before a transpose row spans
  // several pages -- the regime where batching has records to coalesce.
  const auto opt = bench::BenchOptions::parse(argc, argv, 0.5);

  // Each cell contributes two runs: aggregated then per-page.
  std::vector<Cell> cells;
  std::vector<bench::GridCell> grid;
  for (const char* app : kApps) {
    for (const ProtocolKind kind : bench::paper_protocols_for(app)) {
      for (const int us : kPerMessageUs) {
        cells.push_back(Cell{app, kind, us});
        for (const bool aggregate : {true, false}) {
          dsm::ClusterConfig cfg = opt.cluster_config();
          cfg.costs.net.per_message = sim::usec(us);
          cfg.aggregate_flushes = aggregate;
          grid.push_back({app, kind,
                          std::to_string(us) + "us/" +
                              (aggregate ? "aggregated" : "per-page"),
                          cfg});
        }
      }
    }
  }
  bench::RunCache cache(opt);
  const auto runs = cache.warm(grid);

  std::printf("Ablation X7: flush aggregation vs per-message cost "
              "(scale %.2f, %d nodes)\n\n",
              opt.scale, opt.nodes);

  bench::JsonWriter json("BENCH_aggregation.json", "flush_aggregation");
  json.field("scale", "%.3f", opt.scale);
  json.field("nodes", "%d", opt.nodes);
  json.host_env(opt);
  json.field("per_message_us", "[15, 45, 100, 200]");
  json.begin_array("runs");

  std::string cur_header;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const harness::RunResult& agg = *runs[2 * i];
    const harness::RunResult& page = *runs[2 * i + 1];

    const std::string header =
        cell.app + " under " + protocols::to_string(cell.kind);
    if (header != cur_header) {
      cur_header = header;
      std::printf("%s:\n  %-8s %10s %10s %8s %10s %10s %8s %9s\n",
                  header.c_str(), "per-msg", "per-page", "aggregated",
                  "speedup", "msgs-page", "msgs-agg", "reduce", "recs/bat");
    }
    const double speedup =
        static_cast<double>(page.elapsed) / static_cast<double>(agg.elapsed);
    const std::uint64_t page_msgs = page.net.flush_class_messages();
    const std::uint64_t agg_msgs = agg.net.flush_class_messages();
    const double reduction =
        agg_msgs == 0 ? 1.0
                      : static_cast<double>(page_msgs) /
                            static_cast<double>(agg_msgs);
    const std::uint64_t batches = agg.counters.flush_batches.load();
    const double recs_per_batch =
        batches == 0
            ? 0.0
            : static_cast<double>(agg.counters.flush_batch_records.load()) /
                  static_cast<double>(batches);
    std::printf("  %-5dus %8.2fms %8.2fms %7.3fx %10llu %10llu %7.2fx %9.2f\n",
                cell.per_message_us, sim::to_msec(page.elapsed),
                sim::to_msec(agg.elapsed), speedup,
                static_cast<unsigned long long>(page_msgs),
                static_cast<unsigned long long>(agg_msgs), reduction,
                recs_per_batch);
    if (cell.per_message_us ==
        kPerMessageUs[sizeof(kPerMessageUs) / sizeof(kPerMessageUs[0]) - 1]) {
      std::printf("\n");
    }

    json.row(
        "{\"app\": \"%s\", \"protocol\": \"%s\", "
        "\"per_message_us\": %d, \"elapsed_ms\": %.3f, "
        "\"elapsed_no_agg_ms\": %.3f, \"speedup_vs_no_agg\": %.4f, "
        "\"flush_messages\": %llu, \"flush_messages_no_agg\": %llu, "
        "\"message_reduction\": %.4f, \"total_messages\": %llu, "
        "\"total_messages_no_agg\": %llu, \"records_per_batch\": %.3f, "
        "\"header_bytes_saved\": %llu, \"correct\": true}",
        cell.app.c_str(),
        protocols::to_string(cell.kind), cell.per_message_us,
        sim::to_msec(agg.elapsed), sim::to_msec(page.elapsed), speedup,
        static_cast<unsigned long long>(agg_msgs),
        static_cast<unsigned long long>(page_msgs), reduction,
        static_cast<unsigned long long>(agg.net.table_messages()),
        static_cast<unsigned long long>(page.net.table_messages()),
        recs_per_batch,
        static_cast<unsigned long long>(
            agg.counters.flush_batch_header_bytes_saved.load()));
  }
  json.end_array();
  json.close();
  std::printf("wrote BENCH_aggregation.json (%zu cells x {agg, per-page}, "
              "all bit-exact vs sequential)\n",
              cells.size());
  return 0;
}
