// Shared plumbing for the table/figure bench binaries: the bench flags on
// top of the shared harness::RunOptions, the grid runner that checks every
// cell against its app's sequential run, the canonical experiment grids
// (8 apps x protocols at paper scale), and the BENCH_*.json writer.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "updsm/harness/experiment.hpp"
#include "updsm/harness/options.hpp"
#include "updsm/harness/parallel_grid.hpp"
#include "updsm/harness/report.hpp"
#include "updsm/sim/gang.hpp"

namespace updsm::bench {

struct BenchOptions : harness::RunOptions {
  /// Experiment-grid worker count (--jobs=N); 1 reproduces the serial
  /// behavior. Output is byte-identical for every value (results are
  /// collected by grid index, and each cell is an independent deterministic
  /// simulation).
  int jobs = harness::default_jobs();
  /// --quick: scale 0.25 and 4 measured iterations (a later --scale or
  /// --iters still wins).
  bool quick = false;

  /// Parses the shared flags, --jobs, --quick and the bench's own `extra`
  /// flags (`extra_help` is their --help line); exits 2 on a bad flag or
  /// cluster value and 0 after --help. `default_scale` is the bench's problem scale when
  /// neither --scale nor --quick is given.
  static BenchOptions parse(int argc, char** argv, double default_scale = 1.0,
                            const std::vector<harness::Flag>& extra = {},
                            const char* extra_help = nullptr) {
    BenchOptions opt;
    opt.scale = default_scale;
    std::vector<harness::Flag> flags = opt.flags();
    flags.push_back({"--jobs", true, [&opt](const char* v) {
                       opt.jobs = std::max(1, std::atoi(v));
                     }});
    flags.push_back({"--quick", false, [&opt](const char*) {
                       opt.quick = true;
                       opt.scale = 0.25;
                       opt.iterations = 4;
                     }});
    flags.insert(flags.end(), extra.begin(), extra.end());
    harness::parse_flags(argc, argv, flags, [extra_help](int code) {
      if (code == 0) {
        if (extra_help != nullptr) {
          std::printf("extra option: %s\n", extra_help);
        }
        std::printf(
            "options: --nodes=N --scale=F --iters=N --warmup=N --jobs=N "
            "--gang=parallel|baton|async --workers=M --no-aggregate --fanout=K "
            "--relay-threshold=N --net-profile=sp2|rdma "
            "--cost=K=V --adaptive-window=W --quick\n");
      }
      std::exit(code);
    });
    // A bad cluster value (node count, cost key, ...) fails here with a
    // message, not later as an exception escaping the grid.
    try {
      (void)opt.cluster_config();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(2);
    }
    return opt;
  }
};

/// Writes one BENCH_*.json: a top-level object holding the bench name,
/// `"key": value` members and arrays of one-line rows, completed by
/// close(). A writer destroyed unclosed (a bench that stopped early) leaves
/// the object unterminated, so the file does not parse.
class JsonWriter {
 public:
  /// Opens `path` and writes the `"bench"` member; exits 1 if `path`
  /// cannot be written.
  JsonWriter(std::string path, const char* bench)
      : path_(std::move(path)), file_(std::fopen(path_.c_str(), "w")) {
    if (file_ == nullptr) fail();
    std::fprintf(file_, "{\n  \"bench\": \"%s\"", bench);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;
  ~JsonWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }

  /// Terminates the object and closes the file; exits 1 if any write
  /// failed.
  void close() {
    std::fprintf(file_, "\n}\n");
    const bool failed = std::ferror(file_) != 0;
    if (std::fclose(file_) != 0 || failed) fail();
    file_ = nullptr;
  }

  /// One member; `fmt` formats its value.
  __attribute__((format(printf, 3, 4))) void field(const char* key,
                                                   const char* fmt, ...) {
    std::fprintf(file_, ",\n  \"%s\": ", key);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(file_, fmt, args);
    va_end(args);
  }

  /// The host provenance every BENCH_*.json carries, so numbers from
  /// different machines, worker counts and cost profiles are never compared
  /// silently. The host-dependent stamps -- physical core count and the
  /// gang's *resolved* worker count (the default follows the core count)
  /// -- form one single-line `"host"` object, so a determinism gate can
  /// drop exactly that line and byte-compare every other field.
  void host_env(int resolved_workers, const char* gang,
                const std::string& net_profile,
                const std::vector<std::string>& overrides) {
    field("host", "{\"host_cores\": %u, \"workers\": %d}",
          std::thread::hardware_concurrency(), resolved_workers);
    field("gang", "\"%s\"", gang);
    field("net_profile", "\"%s\"", net_profile.c_str());
    std::string list;
    for (const std::string& o : overrides) {
      list += (list.empty() ? "\"" : ", \"") + o + "\"";
    }
    field("cost_overrides", "[%s]", list.c_str());
  }
  void host_env(const BenchOptions& opt) {
    host_env(sim::Gang::resolve_workers(opt.workers, opt.nodes),
             sim::to_string(opt.gang), opt.net_profile, opt.cost_overrides);
  }

  /// Opens an array member; row() appends to it until end_array().
  void begin_array(const char* key) {
    std::fprintf(file_, ",\n  \"%s\": [", key);
    first_row_ = true;
  }
  __attribute__((format(printf, 2, 3))) void row(const char* fmt, ...) {
    std::fprintf(file_, "%s\n    ", first_row_ ? "" : ",");
    first_row_ = false;
    va_list args;
    va_start(args, fmt);
    std::vfprintf(file_, fmt, args);
    va_end(args);
  }
  void end_array() { std::fprintf(file_, "\n  ]"); }

 private:
  [[noreturn]] void fail() const {
    std::fprintf(stderr, "cannot write %s\n", path_.c_str());
    std::exit(1);
  }

  std::string path_;
  std::FILE* file_;
  bool first_row_ = true;
};

/// One cell of an experiment grid: an application under a protocol, on the
/// bench's base cluster or, when `variant` names one, on `config`.
struct GridCell {
  std::string app;
  protocols::ProtocolKind kind;
  /// Names the cell's own cluster ("" = the base options); it tells the
  /// cell apart in the cache and in a divergence report.
  std::string variant = {};
  dsm::ClusterConfig config = {};

  [[nodiscard]] std::string key() const {
    return app + "/" + protocols::to_string(kind) +
           (variant.empty() ? "" : "/" + variant);
  }
};

/// Runs (and caches) an experiment grid and its sequential baselines.
///
/// Benches declare their grid up front with warm(), which executes the
/// missing cells on a worker pool (BenchOptions::jobs wide); results are
/// collected by grid index, so the printed output is byte-identical no
/// matter how many workers ran.
class RunCache {
 public:
  explicit RunCache(const BenchOptions& opt) : opt_(opt) {}

  /// Runs every not-yet-cached cell, plus one sequential baseline per app
  /// named by `cells` (on the base options, shared by all of its cells),
  /// on `opt.jobs` workers. Then checks every cell against its baseline and
  /// exits 1 on a divergence: a bench must never report numbers from a
  /// wrong answer. Returns the cells' results in cell order.
  std::vector<const harness::RunResult*> warm(
      const std::vector<GridCell>& cells) {
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
      plan(cell.app + "/seq", [this, app = cell.app] {
        return harness::run_sequential(app, opt_.cluster_config(),
                                       opt_.app_params());
      });
      plan(cell.key(), [this, cell] {
        return harness::run_app(
            cell.app, cell.kind,
            cell.variant.empty() ? opt_.cluster_config() : cell.config,
            opt_.app_params());
      });
    }
    std::vector<harness::RunResult> results =
        harness::run_grid(tasks, opt_.jobs);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      cache_.emplace(keys[i], std::move(results[i]));
    }

    std::vector<const harness::RunResult*> runs;
    for (const GridCell& cell : cells) {
      const harness::RunResult& run = cache_.at(cell.key());
      if (run.checksum != sequential(cell.app).checksum) {
        std::fprintf(stderr, "FATAL: %s diverged from sequential result\n",
                     cell.key().c_str());
        std::exit(1);
      }
      runs.push_back(&run);
    }
    return runs;
  }

  /// The cell (app, kind) on the base options, run now if not yet warmed.
  const harness::RunResult& parallel(std::string_view app,
                                     protocols::ProtocolKind kind) {
    return *warm({GridCell{std::string(app), kind}})[0];
  }

  /// The baseline of an app that a warmed cell names.
  const harness::RunResult& sequential(std::string_view app) const {
    return cache_.at(std::string(app) + "/seq");
  }

  double speedup(std::string_view app, protocols::ProtocolKind kind) {
    return harness::speedup(parallel(app, kind), sequential(app));
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

/// The paper protocols that can run `app`: the overdrive protocols (bar-s,
/// bar-m) only on overdrive-safe apps.
[[nodiscard]] inline std::vector<protocols::ProtocolKind> paper_protocols_for(
    std::string_view app) {
  using protocols::ProtocolKind;
  std::vector<ProtocolKind> kinds = protocols::all_paper_protocols();
  if (!overdrive_safe(app)) {
    std::erase_if(kinds, [](ProtocolKind kind) {
      return kind == ProtocolKind::BarS || kind == ProtocolKind::BarM;
    });
  }
  return kinds;
}

/// All apps under every paper protocol that can run them -- the grid of
/// sweep_matrix and claims_summary.
[[nodiscard]] inline std::vector<GridCell> full_grid() {
  std::vector<GridCell> cells;
  for (const auto app : apps::app_names()) {
    for (const auto kind : paper_protocols_for(app)) {
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
