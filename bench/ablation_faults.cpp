// X6: protocol degradation under an adversarial transport. Sweeps the
// fault plan's reliable-channel drop rate over {0, 1, 5, 10}% for all six
// paper protocols on jacobi (stencil), tomcat (irregular mesh) and fft
// (all-to-all), verifying bit-exactness against the fault-free sequential
// baseline at every point and reporting runtime + message overhead curves.
// Emits BENCH_faults.json for perf-trajectory tracking.
//
// Deterministic by construction: virtual-time results depend only on
// (workload, config, --fault-seed), never on --jobs or wall clock; the
// bench_faults_determinism ctest pins byte-identical output.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace updsm;

constexpr double kDropRates[] = {0.0, 0.01, 0.05, 0.1};
constexpr const char* kApps[] = {"jacobi", "tomcat", "fft"};

struct Cell {
  std::string app;
  protocols::ProtocolKind kind;
  double drop_rate;
};

}  // namespace

int main(int argc, char** argv) {
  using protocols::ProtocolKind;

  std::uint64_t fault_seed = 42;
  // The curves need 72 runs; keep them snappy.
  const auto opt = bench::BenchOptions::parse(
      argc, argv, 0.4,
      {harness::seed_flag("--fault-seed", fault_seed)},
      "--fault-seed=N (default 42)");

  std::vector<Cell> cells;
  std::vector<bench::GridCell> grid;
  for (const char* app : kApps) {
    for (const ProtocolKind kind : bench::paper_protocols_for(app)) {
      for (const double rate : kDropRates) {
        cells.push_back(Cell{app, kind, rate});
        char spec[32];
        std::snprintf(spec, sizeof(spec), "drop=%g", rate);
        dsm::ClusterConfig cfg = opt.cluster_config();
        if (rate > 0) {
          cfg.faults = sim::FaultSpec::parse(spec);
          cfg.fault_seed = fault_seed;
        }
        grid.push_back({app, kind, spec, cfg});
      }
    }
  }
  bench::RunCache cache(opt);
  const auto runs = cache.warm(grid);

  std::printf("Ablation X6: degradation vs reliable-channel drop rate "
              "(fault seed %llu, scale %.2f)\n\n",
              static_cast<unsigned long long>(fault_seed), opt.scale);

  bench::JsonWriter json("BENCH_faults.json", "fault_injection");
  json.field("fault_seed", "%llu",
             static_cast<unsigned long long>(fault_seed));
  json.field("scale", "%.3f", opt.scale);
  json.field("nodes", "%d", opt.nodes);
  json.host_env(opt);
  json.field("drop_rates", "[0, 0.01, 0.05, 0.1]");
  json.begin_array("runs");

  std::string cur_header;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const harness::RunResult& run = *runs[i];
    const std::string header =
        cell.app + " under " + protocols::to_string(cell.kind);
    if (header != cur_header) {
      cur_header = header;
      std::printf("%s:\n  %-6s %10s %9s %9s %8s %8s %8s %9s\n",
                  header.c_str(), "drop", "elapsed", "overhead", "messages",
                  "dropped", "retries", "dups", "recovery");
    }
    // Overhead: runtime vs this protocol's own fault-free point (printed
    // right above, always rate 0.0 of the same (app, kind) group).
    const harness::RunResult& base =
        *runs[i - (i % (sizeof(kDropRates) / sizeof(kDropRates[0])))];
    const double overhead = static_cast<double>(run.elapsed) /
                            static_cast<double>(base.elapsed);
    std::printf("  %-6g %8.2fms %8.3fx %9llu %8llu %8llu %8llu %9llu\n",
                cell.drop_rate, sim::to_msec(run.elapsed), overhead,
                static_cast<unsigned long long>(run.net.table_messages()),
                static_cast<unsigned long long>(run.net.total_dropped()),
                static_cast<unsigned long long>(
                    run.counters.reliable_retries),
                static_cast<unsigned long long>(run.counters.dup_suppressed),
                static_cast<unsigned long long>(
                    run.counters.recovery_faults));
    if (cell.drop_rate == kDropRates[sizeof(kDropRates) /
                                     sizeof(kDropRates[0]) - 1]) {
      std::printf("\n");
    }

    json.row("{\"app\": \"%s\", \"protocol\": \"%s\", "
             "\"drop_rate\": %g, \"elapsed_ms\": %.3f, "
             "\"runtime_overhead\": %.4f, \"messages\": %llu, "
             "\"data_kb\": %llu, \"dropped\": %llu, \"retries\": %llu, "
             "\"dups_suppressed\": %llu, \"recovery_faults\": %llu, "
             "\"correct\": true}",
             cell.app.c_str(),
             protocols::to_string(cell.kind), cell.drop_rate,
             sim::to_msec(run.elapsed), overhead,
             static_cast<unsigned long long>(run.net.table_messages()),
             static_cast<unsigned long long>(run.net.total_bytes() /
                                             1024),
             static_cast<unsigned long long>(run.net.total_dropped()),
             static_cast<unsigned long long>(
                 run.counters.reliable_retries),
             static_cast<unsigned long long>(run.counters.dup_suppressed),
             static_cast<unsigned long long>(
                 run.counters.recovery_faults));
  }
  json.end_array();
  json.close();
  std::printf("wrote BENCH_faults.json (%zu runs, all bit-exact vs "
              "sequential)\n",
              cells.size());
  return 0;
}
