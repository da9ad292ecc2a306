// Command-line front end shared by the experiment binaries (updsm_run and
// every bench): one flag table for the cluster and workload knobs they all
// take, one parser that also serves each binary's own flags, and one
// builder from those knobs to the ClusterConfig / AppParams of a run.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "updsm/apps/registry.hpp"
#include "updsm/dsm/config.hpp"
#include "updsm/sim/gang.hpp"

namespace updsm::harness {

/// A rejected flag value; the message says which flag and why.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One command-line flag. A value flag (`takes_value`) matches
/// `NAME=VALUE` and hands VALUE to `apply`; a switch matches `NAME` alone
/// and hands it "". `apply` throws FlagError on a bad value.
struct Flag {
  std::string name;
  bool takes_value = true;
  std::function<void(const char* value)> apply;
};

/// The common flag shapes: `NAME=INT` (read with atoi), `NAME=SEED` (an
/// unsigned 64-bit value in any C base), `NAME=TEXT`, and a switch that
/// stores `value` into `field`.
[[nodiscard]] Flag int_flag(std::string name, int& field);
[[nodiscard]] Flag seed_flag(std::string name, std::uint64_t& field);
[[nodiscard]] Flag text_flag(std::string name, std::string& field);
[[nodiscard]] Flag switch_flag(std::string name, bool& field, bool value);

/// Applies argv[1..] to `flags` in order, so the last occurrence of a flag
/// wins. `--help` calls usage(0). An unknown argument or a FlagError prints
/// its message to stderr and calls usage(2); `usage` must not return.
void parse_flags(int argc, char** argv, const std::vector<Flag>& flags,
                 const std::function<void(int code)>& usage);

/// Reads `spec` as comma-separated decimal integers (empty entries are
/// skipped). Throws FlagError, naming `flag`, on any other character, on an
/// entry outside [min, max], or when no entry is left.
[[nodiscard]] std::vector<int> parse_int_list(const std::string& flag,
                                              const char* spec, int min,
                                              int max);

/// The cluster and workload knobs every experiment binary shares. The
/// defaults are the paper's setup: 8 nodes, full scale, 5 warm-up and 10
/// measured time-steps, the SP-2 cost profile.
struct RunOptions {
  int nodes = 8;          // --nodes=N
  double scale = 1.0;     // --scale=F, linear problem-size factor
  int warmup = 5;         // --warmup=N, covers migration + overdrive learning
  int iterations = 10;    // --iters=N, measured steady-state time-steps
  /// RNG seed of both the workload and the cluster. No shared flag sets
  /// it; updsm_run exposes it as --seed.
  std::uint64_t seed = 0x1998'0330;
  sim::GangMode gang = sim::GangMode::Parallel;  // --gang=MODE
  int workers = 0;        // --workers=M (>= 1); 0 = auto
  bool aggregate = true;  // --no-aggregate clears it
  int fanout = 0;         // --fanout=K; 0 = the flat master barrier
  int relay_threshold = 0;  // --relay-threshold=N; 0 = relay off
  /// --net-profile=P, then each --cost=K=V on top of it.
  std::string net_profile = "sp2";
  std::vector<std::string> cost_overrides;
  int adaptive_window = 4;  // --adaptive-window=W

  /// The shared flags, each writing into this object.
  [[nodiscard]] std::vector<Flag> flags();

  [[nodiscard]] apps::AppParams app_params() const;

  /// `cfg` (holding a binary's own cluster fields) with the shared knobs
  /// written over it: the cost profile first, then its overrides. The
  /// result has passed validate_cluster_config, which throws on a bad value.
  [[nodiscard]] dsm::ClusterConfig cluster_config(
      dsm::ClusterConfig cfg = {}) const;
};

}  // namespace updsm::harness
