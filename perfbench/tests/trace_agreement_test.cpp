// Traced and untraced passes of the same small cells must agree exactly:
// same checksums, virtual times and model counts. Also checks that the
// tracing decorator keeps the cluster's gang mode (it must forward
// parallel_safe()) and that it records the hooks each cell exercises.
#include <cstdio>
#include <memory>

#include "tracing_protocol.hpp"
#include "updsm/apps/registry.hpp"
#include "updsm/dsm/cluster.hpp"
#include "updsm/mem/shared_heap.hpp"
#include "updsm/sim/fault_plan.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::size_t hook(perfbench::Hook h) { return static_cast<std::size_t>(h); }

void check_both_ways(const perfbench::WorkloadSpec& w) {
  const perfbench::PassResult plain = perfbench::run_pass(w, false);
  const perfbench::PassResult traced = perfbench::run_pass(w, true);
  expect(plain.cells.size() == w.cells.size(), "every cell ran");
  expect(plain.failed() == 0, "untraced cells pass their checks");
  expect(traced.failed() == 0, "traced cells pass their checks");
  for (std::size_t c = 0; c < plain.cells.size(); ++c) {
    expect(plain.cells[c].same_outputs(traced.cells[c]),
           "traced cell reproduces the untraced outputs");
  }
  expect(plain.virtual_ns == traced.virtual_ns, "same virtual time");
  expect(plain.counts == traced.counts, "same model counts");
  expect(traced.hooks.calls[hook(perfbench::Hook::Init)] == w.cells.size(),
         "init traced once per cell");
  expect(traced.hooks_union_in_run_s > 0 &&
             traced.hooks_union_in_run_s <= traced.run_s,
         "hook union lies inside the run spans");
}

}  // namespace

int main() {
  using updsm::protocols::ProtocolKind;

  perfbench::WorkloadSpec sync;
  sync.name = "small_sync";
  sync.cells = {{"jacobi", ProtocolKind::BarU}, {"jacobi", ProtocolKind::LmwI}};
  sync.config.num_nodes = 4;
  sync.config.workers = 2;
  sync.params.scale = 0.25;
  sync.params.warmup_iterations = 5;
  sync.params.measured_iterations = 3;
  check_both_ways(sync);

  perfbench::WorkloadSpec async = sync;
  async.name = "small_async";
  async.cells = {{"jacobi-async", ProtocolKind::AsyncU}};
  async.sequential_reference = false;
  async.config.num_nodes = 8;
  async.config.workers = 1;
  async.config.gang = updsm::sim::GangMode::Async;
  async.config.faults = updsm::sim::FaultSpec::parse("node=1,stall=0.5,stall_us=3000");
  async.config.fault_seed = 42;
  check_both_ways(async);

  // The decorator must not change the gang the cluster runs: bar-u is
  // parallel-safe, so the Parallel gang must survive wrapping.
  perfbench::HookRecorder recorder;
  auto app = updsm::apps::make_app("jacobi", sync.params);
  updsm::mem::SharedHeap heap(sync.config.page_size);
  app->allocate(heap);
  updsm::dsm::Cluster cluster(
      sync.config, heap,
      std::make_unique<perfbench::TracingProtocol>(
          updsm::protocols::make_protocol(ProtocolKind::BarU), recorder));
  expect(cluster.gang_mode() == updsm::sim::GangMode::Parallel,
         "wrapped bar-u keeps the Parallel gang");

  if (failures == 0) std::printf("trace agreement: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
