// Shared plumbing for the table/figure bench binaries: command-line
// parsing, the canonical experiment grid (8 apps x protocols at paper
// scale), and result caching so one binary can build several views of the
// same runs.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "updsm/harness/experiment.hpp"
#include "updsm/harness/parallel_grid.hpp"
#include "updsm/harness/report.hpp"
#include "updsm/sim/gang.hpp"

namespace updsm::bench {

struct BenchOptions {
  int nodes = 8;            // the paper's 8-node SP-2
  double scale = 1.0;       // linear problem-size factor
  int warmup = 5;           // covers migration + overdrive learning
  int iterations = 10;      // measured steady-state time-steps
  std::uint64_t seed = 0x1998'0330;
  /// Experiment-grid worker count; 1 reproduces the serial behavior.
  /// Output is byte-identical for every value (results are collected by
  /// grid index, and each cell is an independent deterministic simulation).
  int jobs = harness::default_jobs();
  /// Intra-run node scheduling (--gang=parallel|baton|async). Output is
  /// byte-identical across parallel/baton (and across worker counts in
  /// every mode); async changes the iteration structure itself, so its
  /// numbers form their own column. A ctest pins both properties.
  sim::GangMode gang = sim::GangMode::Parallel;
  /// OS threads the gang multiplexes the simulated nodes over
  /// (--workers=M; 0 = auto). Output is byte-identical for every value;
  /// a ctest pins it.
  int workers = 0;
  /// Barrier-time flush aggregation (--no-aggregate disables). Checksums
  /// are bit-identical either way; messages and times differ by design.
  bool aggregate = true;
  /// Barrier-tree fanout (--fanout=K; 0 = the flat master barrier, the
  /// star K = nodes).
  /// Checksums are bit-identical either way; barrier times differ.
  int fanout = 0;
  /// Relayed flush dissemination (--relay-threshold=N; 0 = off).
  /// Checksums are bit-identical.
  int relay_threshold = 0;
  /// Interconnect cost profile (--net-profile=sp2|rdma) plus free-form
  /// key=value overrides (--cost=K=V, repeatable). Stamped into every
  /// BENCH_*.json so numbers from different platforms never get compared
  /// silently.
  std::string net_profile = "sp2";
  std::vector<std::string> cost_overrides;
  /// Sliding-window length for the adaptive protocol (--adaptive-window=W).
  int adaptive_window = 4;

  static BenchOptions parse(int argc, char** argv) {
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&](const char* prefix) -> const char* {
        const std::size_t len = std::strlen(prefix);
        return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
      };
      if (const char* v = value("--nodes=")) {
        opt.nodes = std::atoi(v);
      } else if (const char* v = value("--scale=")) {
        opt.scale = std::atof(v);
      } else if (const char* v = value("--iters=")) {
        opt.iterations = std::atoi(v);
      } else if (const char* v = value("--warmup=")) {
        opt.warmup = std::atoi(v);
      } else if (const char* v = value("--jobs=")) {
        opt.jobs = std::max(1, std::atoi(v));
      } else if (const char* v = value("--gang=")) {
        const std::string mode = v;
        if (mode == "parallel") {
          opt.gang = sim::GangMode::Parallel;
        } else if (mode == "baton") {
          opt.gang = sim::GangMode::Baton;
        } else if (mode == "async") {
          opt.gang = sim::GangMode::Async;
        } else {
          std::fprintf(stderr, "unknown gang mode: %s\n", v);
          std::exit(2);
        }
      } else if (const char* v = value("--workers=")) {
        opt.workers = std::atoi(v);
        if (opt.workers < 1) {
          std::fprintf(stderr, "--workers must be >= 1, got %s\n", v);
          std::exit(2);
        }
      } else if (arg == "--no-aggregate") {
        opt.aggregate = false;
      } else if (const char* v = value("--fanout=")) {
        opt.fanout = std::atoi(v);
      } else if (const char* v = value("--relay-threshold=")) {
        opt.relay_threshold = std::atoi(v);
      } else if (const char* v = value("--net-profile=")) {
        opt.net_profile = v;
      } else if (const char* v = value("--cost=")) {
        opt.cost_overrides.emplace_back(v);
      } else if (const char* v = value("--adaptive-window=")) {
        opt.adaptive_window = std::atoi(v);
      } else if (arg == "--quick") {
        opt.scale = 0.25;
        opt.iterations = 4;
      } else if (arg == "--help") {
        std::printf(
            "options: --nodes=N --scale=F --iters=N --warmup=N --jobs=N "
            "--gang=parallel|baton|async --workers=M --no-aggregate --fanout=K "
            "--relay-threshold=N --net-profile=sp2|rdma "
            "--cost=K=V --adaptive-window=W --quick\n");
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    return opt;
  }

  [[nodiscard]] apps::AppParams app_params() const {
    apps::AppParams p;
    p.scale = scale;
    p.warmup_iterations = warmup;
    p.measured_iterations = iterations;
    p.seed = seed;
    return p;
  }

  [[nodiscard]] dsm::ClusterConfig cluster_config() const {
    dsm::ClusterConfig cfg;
    cfg.num_nodes = nodes;
    cfg.seed = seed;
    cfg.gang = gang;
    cfg.workers = workers;
    cfg.aggregate_flushes = aggregate;
    cfg.barrier_fanout = fanout;
    cfg.relay_threshold = relay_threshold;
    cfg.net_profile = net_profile;
    cfg.costs = sim::CostModel::from_profile(net_profile);
    sim::apply_cost_overrides(cfg.costs, cost_overrides);
    cfg.adaptive_window = adaptive_window;
    // Friendly parse-time rejection of out-of-range sizes / fanouts.
    dsm::validate_cluster_config(cfg);
    return cfg;
  }
};

/// The host-dependent stamps -- physical core count and the gang's
/// *resolved* worker count (the default follows the core count) -- as one
/// single-line `"host"` object, so a determinism gate can drop exactly this
/// line and byte-compare every other field. Emits `"host": {...},` (caller
/// is mid-object).
inline void write_host_json(std::FILE* json, int resolved_workers) {
  std::fprintf(json, "  \"host\": {\"host_cores\": %u, \"workers\": %d},\n",
               std::thread::hardware_concurrency(), resolved_workers);
}

/// Host-execution provenance recorded uniformly in every BENCH_*.json so
/// perf trajectories across machines, worker counts and cost profiles stay
/// comparable: the "host" object above, the gang mode, the interconnect
/// profile, and any per-key cost overrides. Emits `"key": value,` lines
/// (caller is mid-object).
inline void write_host_env_json(std::FILE* json, int resolved_workers,
                                sim::GangMode mode,
                                const std::string& net_profile = "sp2",
                                const std::vector<std::string>& overrides = {}) {
  write_host_json(json, resolved_workers);
  std::fprintf(json, "  \"gang\": \"%s\",\n  \"net_profile\": \"%s\",\n",
               sim::to_string(mode), net_profile.c_str());
  std::fprintf(json, "  \"cost_overrides\": [");
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    std::fprintf(json, "%s\"%s\"", i == 0 ? "" : ", ", overrides[i].c_str());
  }
  std::fprintf(json, "],\n");
}

inline void write_host_env_json(std::FILE* json, const BenchOptions& opt) {
  write_host_env_json(json, sim::Gang::resolve_workers(opt.workers, opt.nodes),
                      opt.gang, opt.net_profile, opt.cost_overrides);
}

/// One cell of the experiment grid: an application under a protocol.
struct GridCell {
  std::string app;
  protocols::ProtocolKind kind;
};

/// Runs (and caches) the experiment grid used by several benches.
///
/// Benches declare their whole grid up front with warm(), which executes
/// the missing cells on a worker pool (BenchOptions::jobs wide) and fills
/// the cache; the subsequent per-cell accessors then never run anything,
/// so the printed output is byte-identical no matter how many workers ran.
/// Accessors also work without warm() -- they fall back to running the
/// cell inline, exactly the pre-parallel behavior.
class RunCache {
 public:
  explicit RunCache(const BenchOptions& opt) : opt_(opt) {}

  /// Runs every not-yet-cached cell, plus the sequential baseline of every
  /// app named by `cells` (computed once per app and shared across all of
  /// its cells), on `opt.jobs` workers.
  void warm(const std::vector<GridCell>& cells) {
    std::vector<std::string> keys;
    std::vector<std::function<harness::RunResult()>> tasks;
    auto plan = [&](const std::string& key,
                    std::function<harness::RunResult()> task) {
      if (cache_.count(key) != 0) return;
      // Dedup within this warm() call: the same app appears in many cells.
      if (std::find(keys.begin(), keys.end(), key) != keys.end()) return;
      keys.push_back(key);
      tasks.push_back(std::move(task));
    };
    for (const GridCell& cell : cells) {
      const BenchOptions opt = opt_;
      plan(cell.app + "/seq", [opt, app = cell.app] {
        return harness::run_sequential(app, opt.cluster_config(),
                                       opt.app_params());
      });
      plan(cell.app + "/" + protocols::to_string(cell.kind),
           [opt, app = cell.app, kind = cell.kind] {
             return harness::run_app(app, kind, opt.cluster_config(),
                                     opt.app_params());
           });
    }
    std::vector<harness::RunResult> results =
        harness::run_grid(tasks, opt_.jobs);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      cache_.emplace(keys[i], std::move(results[i]));
    }
  }

  const harness::RunResult& parallel(std::string_view app,
                                     protocols::ProtocolKind kind) {
    const std::string key =
        std::string(app) + "/" + protocols::to_string(kind);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_
               .emplace(key, harness::run_app(app, kind,
                                              opt_.cluster_config(),
                                              opt_.app_params()))
               .first;
    }
    return it->second;
  }

  const harness::RunResult& sequential(std::string_view app) {
    const std::string key = std::string(app) + "/seq";
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_
               .emplace(key, harness::run_sequential(app,
                                                     opt_.cluster_config(),
                                                     opt_.app_params()))
               .first;
    }
    return it->second;
  }

  double speedup(std::string_view app, protocols::ProtocolKind kind) {
    return harness::speedup(parallel(app, kind), sequential(app));
  }

  /// Checks that the run reproduced the sequential checksum; aborts loudly
  /// otherwise (a bench must never report numbers from a wrong answer).
  void verify(std::string_view app, protocols::ProtocolKind kind) {
    const auto& par = parallel(app, kind);
    const auto& seq = sequential(app);
    if (par.checksum != seq.checksum) {
      std::fprintf(stderr,
                   "FATAL: %s under %s diverged from sequential result\n",
                   std::string(app).c_str(), protocols::to_string(kind));
      std::exit(1);
    }
  }

 private:
  BenchOptions opt_;
  std::map<std::string, harness::RunResult> cache_;
};

/// Apps excluded from overdrive (dynamic sharing), per paper §5.1.
[[nodiscard]] inline bool overdrive_safe(std::string_view app) {
  apps::AppParams probe;
  return apps::make_app(app, probe)->overdrive_safe();
}

/// All apps under every paper protocol, with the overdrive protocols
/// filtered to overdrive-safe apps -- the grid of sweep_matrix and
/// claims_summary.
[[nodiscard]] inline std::vector<GridCell> full_grid() {
  using protocols::ProtocolKind;
  std::vector<GridCell> cells;
  for (const auto app : apps::app_names()) {
    for (const auto kind : protocols::all_paper_protocols()) {
      if (!overdrive_safe(app) &&
          (kind == ProtocolKind::BarS || kind == ProtocolKind::BarM)) {
        continue;
      }
      cells.push_back(GridCell{std::string(app), kind});
    }
  }
  return cells;
}

/// All apps under the four base protocols (table1, fig2).
[[nodiscard]] inline std::vector<GridCell> base_grid() {
  std::vector<GridCell> cells;
  for (const auto app : apps::app_names()) {
    for (const auto kind : protocols::base_protocols()) {
      cells.push_back(GridCell{std::string(app), kind});
    }
  }
  return cells;
}

/// All apps under one protocol (fig3's bar-u column).
[[nodiscard]] inline std::vector<GridCell> single_protocol_grid(
    protocols::ProtocolKind kind) {
  std::vector<GridCell> cells;
  for (const auto app : apps::app_names()) {
    cells.push_back(GridCell{std::string(app), kind});
  }
  return cells;
}

}  // namespace updsm::bench
