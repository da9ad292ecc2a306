#include "workloads.hpp"

#include <bit>
#include <chrono>
#include <exception>
#include <memory>

#include "updsm/apps/registry.hpp"
#include "updsm/common/error.hpp"
#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/harness/experiment.hpp"
#include "updsm/mem/shared_heap.hpp"
#include "updsm/sim/fault_plan.hpp"

namespace perfbench {

namespace {

using updsm::protocols::ProtocolKind;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

ModelCounts counts_of(updsm::dsm::Cluster& cluster) {
  const auto& c = cluster.runtime().counters();
  const auto& net = cluster.runtime().net().stats();
  ModelCounts m;
  m.values = {c.diffs_created.load(),   c.twins_created.load(),
              c.read_faults.load(),     c.write_faults.load(),
              c.updates_applied.load(), c.pages_fetched.load(),
              c.flush_batches.load(),   net.table_messages(),
              net.total_bytes(),        cluster.barriers(),
              c.async_steps.load()};
  return m;
}

}  // namespace

ModelCounts& ModelCounts::operator+=(const ModelCounts& o) {
  for (std::size_t i = 0; i < kCount; ++i) values[i] += o.values[i];
  return *this;
}

int PassResult::failed() const {
  int n = 0;
  for (const CellResult& c : cells) n += c.ok ? 0 : 1;
  return n;
}

WorkloadSpec make_workload(std::string_view name, std::uint64_t seed,
                           std::uint64_t fault_seed) {
  WorkloadSpec w;
  w.name = std::string(name);
  w.config.seed = seed;
  w.params.seed = seed;
  // jobs = 1 throughout (cells run one after another in this process) and
  // workers is always explicit: worker threads beyond the host's cores,
  // and auto worker counts that differ across hosts, were the noise
  // sources this benchmark is built to avoid.
  if (name == "paper8") {
    // The paper's suite: 8 apps x the six paper protocols on 8 nodes,
    // barnes excluded from the overdrive protocols (paper section 5.1).
    for (const auto app : updsm::apps::app_names()) {
      const bool overdrive_ok =
          updsm::apps::make_app(app, w.params)->overdrive_safe();
      for (const ProtocolKind kind :
           updsm::protocols::all_paper_protocols()) {
        if (!overdrive_ok &&
            (kind == ProtocolKind::BarS || kind == ProtocolKind::BarM)) {
          continue;
        }
        w.cells.push_back({std::string(app), kind});
      }
    }
    w.config.num_nodes = 8;
    w.config.workers = 2;
  } else if (name == "wide256") {
    // Dense per-node memory and the tree barrier at 256 nodes.
    w.cells = {{"jacobi", ProtocolKind::BarU}, {"fft", ProtocolKind::BarU}};
    w.config.num_nodes = 256;
    w.config.barrier_fanout = 4;
    w.config.workers = 2;
    w.params.warmup_iterations = 2;
    w.params.measured_iterations = 20;
  } else if (name == "async_straggler") {
    // Barrier-free iteration with a stalling node and 10 % message loss.
    for (const char* app : {"jacobi-async", "sor-async"}) {
      for (const ProtocolKind kind :
           {ProtocolKind::AsyncU, ProtocolKind::AsyncI}) {
        w.cells.push_back({app, kind});
      }
    }
    w.sequential_reference = false;
    w.config.num_nodes = 32;
    w.config.gang = updsm::sim::GangMode::Async;
    w.config.workers = 1;
    w.config.faults = updsm::sim::FaultSpec::parse(
        "node=1,stall=0.5,stall_us=3000;drop=0.1");
    w.config.fault_seed = fault_seed;
    w.params.scale = 4.0;
  } else {
    throw updsm::UsageError("unknown workload '" + std::string(name) +
                            "' (valid: paper8, wide256, async_straggler)");
  }
  updsm::dsm::validate_cluster_config(w.config);
  return w;
}

PassResult run_pass(const WorkloadSpec& w, bool traced) {
  PassResult pass;
  pass.traced = traced;
  std::unique_ptr<HookRecorder> recorder;
  if (traced) recorder = std::make_unique<HookRecorder>();

  // Sequential checksum per app, computed before the app's first cell.
  updsm::dsm::ClusterConfig ref_config = w.config;
  ref_config.workers = 1;  // one simulated node
  std::string ref_app;
  bool ref_ok = false;
  double ref_checksum = 0.0;

  for (const CellSpec& cell : w.cells) {
    if (w.sequential_reference && cell.app != ref_app) {
      ref_app = cell.app;
      const Clock::time_point t0 = Clock::now();
      try {
        ref_checksum =
            updsm::harness::run_sequential(cell.app, ref_config, w.params)
                .checksum;
        ref_ok = true;
      } catch (const std::exception&) {
        ref_ok = false;
      }
      pass.sequential_s += seconds_between(t0, Clock::now());
    }

    CellResult result;
    try {
      const Clock::time_point t0 = Clock::now();
      auto app = updsm::apps::make_app(cell.app, w.params);
      updsm::mem::SharedHeap heap(w.config.page_size);
      app->allocate(heap);
      const Clock::time_point t1 = Clock::now();

      std::unique_ptr<updsm::dsm::CoherenceProtocol> protocol =
          updsm::protocols::make_protocol(cell.kind);
      if (recorder) {
        protocol =
            std::make_unique<TracingProtocol>(std::move(protocol), *recorder);
      }
      updsm::dsm::Cluster cluster(w.config, heap, std::move(protocol));
      const Clock::time_point t2 = Clock::now();
      const std::uint64_t union_before =
          recorder ? recorder->totals().union_ns : 0;

      cluster.run([&](updsm::dsm::NodeContext& ctx) { app->run(ctx); });
      const Clock::time_point t3 = Clock::now();
      if (recorder) {
        pass.hooks_union_in_run_s +=
            static_cast<double>(recorder->totals().union_ns - union_before) *
            1e-9;
      }
      pass.apps_setup_s += seconds_between(t0, t1);
      pass.cluster_ctor_s += seconds_between(t1, t2);
      pass.run_s += seconds_between(t2, t3);

      const double checksum = app->result_checksum();
      result.checksum_bits = std::bit_cast<std::uint64_t>(checksum);
      result.virtual_ns = cluster.elapsed();
      result.counts = counts_of(cluster);
      if (w.sequential_reference) {
        if (!ref_ok) {
          result.error = "sequential reference failed";
        } else if (std::bit_cast<std::uint64_t>(ref_checksum) !=
                   result.checksum_bits) {
          result.error = "checksum differs from the sequential reference";
        }
      } else if (checksum != 1.0 || !cluster.protocol().async_converged()) {
        result.error = "did not converge";
      }
      result.ok = result.error.empty();
    } catch (const std::exception& e) {
      result.ok = false;
      result.error = e.what();
    }
    pass.counts += result.counts;
    pass.virtual_ns += result.virtual_ns;
    pass.cells.push_back(std::move(result));
  }

  if (recorder) pass.hooks = recorder->totals();
  return pass;
}

}  // namespace perfbench
