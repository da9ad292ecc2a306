// The benchmark's workloads and one timed pass over a workload's cells.
//
// A pass runs every DSM cell of a workload the way harness::run_app does
// (make_app, allocate, Cluster constructor, Cluster::run), with a timed
// span around each call, plus the harness::run_sequential reference each
// cell's checksum is compared against bit for bit. A traced pass also
// wraps each cell's protocol in a TracingProtocol.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tracing_protocol.hpp"
#include "updsm/apps/application.hpp"
#include "updsm/dsm/config.hpp"
#include "updsm/protocols/factory.hpp"

namespace perfbench {

struct CellSpec {
  std::string app;
  updsm::protocols::ProtocolKind kind;
};

struct WorkloadSpec {
  std::string name;
  std::vector<CellSpec> cells;
  /// Fixed-iteration workloads compare each cell with the app's
  /// run_sequential checksum; run-to-convergence (async) cells must
  /// instead report global convergence.
  bool sequential_reference = true;
  updsm::dsm::ClusterConfig config;
  updsm::apps::AppParams params;
};

/// Builds a named workload ("paper8", "wide256" or "async_straggler"). `seed` seeds the app datasets and the cluster;
/// `fault_seed` drives the fault plan of workloads that have one. Throws
/// updsm::UsageError on an unknown name.
[[nodiscard]] WorkloadSpec make_workload(std::string_view name,
                                         std::uint64_t seed,
                                         std::uint64_t fault_seed);

/// Exact model work counts, summed over a pass's DSM cells (whole run,
/// warm-up and checksum phases included, so they are the base of the
/// per-hook time ratios).
struct ModelCounts {
  static constexpr std::size_t kCount = 11;
  static constexpr std::array<const char*, kCount> kNames = {
      "dsm.diffs_created",    "dsm.twins_created",   "dsm.read_faults",
      "dsm.write_faults",     "dsm.updates_applied", "dsm.pages_fetched",
      "dsm.flush_batches",    "sim.network.messages",
      "sim.network.bytes",    "sim.gang.barriers",   "apps.async_steps"};
  std::array<std::uint64_t, kCount> values{};

  ModelCounts& operator+=(const ModelCounts& o);
  bool operator==(const ModelCounts&) const = default;
};

/// The deterministic outputs of one DSM cell; equal in every pass of a
/// workload, traced or not.
struct CellResult {
  bool ok = false;
  std::string error;  // why the cell failed (empty when ok)
  std::uint64_t checksum_bits = 0;
  std::int64_t virtual_ns = 0;
  ModelCounts counts;

  [[nodiscard]] bool same_outputs(const CellResult& o) const {
    return checksum_bits == o.checksum_bits && virtual_ns == o.virtual_ns &&
           counts == o.counts;
  }
};

struct PassResult {
  bool traced = false;
  double apps_setup_s = 0;    // make_app + allocate, DSM cells
  double cluster_ctor_s = 0;  // Cluster constructor, DSM cells
  double run_s = 0;           // Cluster::run, DSM cells
  double sequential_s = 0;    // harness::run_sequential references
  std::vector<CellResult> cells;
  ModelCounts counts;
  std::int64_t virtual_ns = 0;
  /// Traced passes only: hook totals over the pass, and the part of the
  /// hook-span union that fell inside Cluster::run spans.
  HookTotals hooks;
  double hooks_union_in_run_s = 0;

  [[nodiscard]] double setup_s() const { return apps_setup_s + cluster_ctor_s; }
  [[nodiscard]] int failed() const;
};

[[nodiscard]] PassResult run_pass(const WorkloadSpec& workload, bool traced);

}  // namespace perfbench
