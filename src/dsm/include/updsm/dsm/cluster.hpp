// Cluster: owns the simulated machine and drives one application run.
//
// Construction wires together the Runtime (page tables, clocks, OS models,
// network), a coherence protocol, and the gang scheduler; run() executes the
// application function once per node and performs the global barrier
// protocol (sync messages, reductions, measurement windows) around the
// protocol's barrier hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "updsm/common/types.hpp"
#include "updsm/dsm/config.hpp"
#include "updsm/dsm/protocol.hpp"
#include "updsm/dsm/race_detector.hpp"
#include "updsm/dsm/runtime.hpp"
#include "updsm/mem/shared_heap.hpp"
#include "updsm/sim/gang.hpp"

namespace updsm::dsm {

class NodeContext;

enum class ReduceOp { Max, Min, Sum };

/// Per-node execution-time breakdown over the measurement window.
struct BreakdownReport {
  struct PerNode {
    sim::SimTime app = 0;
    sim::SimTime dsm = 0;
    sim::SimTime os = 0;
    sim::SimTime wait = 0;
    sim::SimTime sigio = 0;
    [[nodiscard]] sim::SimTime total() const {
      return app + dsm + os + wait + sigio;
    }
  };
  std::vector<PerNode> nodes;

  [[nodiscard]] PerNode summed() const {
    PerNode s;
    for (const PerNode& n : nodes) {
      s.app += n.app;
      s.dsm += n.dsm;
      s.os += n.os;
      s.wait += n.wait;
      s.sigio += n.sigio;
    }
    return s;
  }
};

class Cluster {
 public:
  using AppFn = std::function<void(NodeContext&)>;

  /// The heap fixes the shared-segment layout (one page table per node is
  /// sized from it). The protocol is installed and init()ed immediately.
  Cluster(const ClusterConfig& config, const mem::SharedHeap& heap,
          std::unique_ptr<CoherenceProtocol> protocol);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Executes `app` on every node to completion. May be called once.
  void run(const AppFn& app);

  [[nodiscard]] Runtime& runtime() { return rt_; }
  [[nodiscard]] const Runtime& runtime() const { return rt_; }
  [[nodiscard]] CoherenceProtocol& protocol() { return *protocol_; }

  /// Longest per-node virtual time over the measurement window (or the
  /// whole run when no window was set): the run's parallel execution time.
  [[nodiscard]] sim::SimTime elapsed() const;

  /// Per-node time breakdown over the measurement window.
  [[nodiscard]] BreakdownReport breakdown() const;

  /// Barriers executed.
  [[nodiscard]] std::uint64_t barriers() const { return gang_.barriers_completed(); }

  /// The scheduling mode actually in effect (after any protocol-driven
  /// downgrade); apps use it to pick the barrier vs async iteration loop.
  [[nodiscard]] sim::GangMode gang_mode() const { return gang_.mode(); }

  /// Conflicts found so far by the race detector (RaceCheck::Warn mode).
  [[nodiscard]] const std::vector<RaceReport>& race_reports() const {
    return race_reports_;
  }

  // ---- entry points used by NodeContext (not application code) ----------
  void node_barrier(NodeId n);
  void node_reduce_prepare(NodeId n, ReduceOp op, double value);
  [[nodiscard]] double node_reduce_result(NodeId n) const;
  void node_iteration_begin(NodeId n);
  void node_request_measurement(NodeId n);
  void node_request_measurement_end(NodeId n);
  void node_compute(NodeId n, sim::SimTime t);
  [[nodiscard]] std::byte* node_touch(NodeId n, GlobalAddr addr,
                                      std::size_t len, AccessMode mode);
  /// One barrier-free iteration boundary (gang=Async only): publishes node
  /// n's writes and `residual` through the protocol, applies any FaultPlan
  /// stall keyed by (node, per-node step index), yields the scheduler turn,
  /// and refreshes stale cached pages on resume. Returns true once global
  /// convergence has been detected.
  [[nodiscard]] bool node_async_step(NodeId n, double residual);

 private:
  void do_barrier(std::uint64_t index);

  Runtime rt_;
  std::unique_ptr<CoherenceProtocol> protocol_;
  sim::Gang gang_;
  bool ran_ = false;

  // Reduction rendezvous state for the current barrier.
  struct PendingReduce {
    bool armed = false;
    ReduceOp op = ReduceOp::Max;
    double value = 0.0;
  };
  std::vector<PendingReduce> pending_reduce_;
  double reduce_result_ = 0.0;
  bool reduce_result_valid_ = false;

  // One byte per node, not vector<bool>: nodes set their own flag from
  // their own thread mid-phase under the parallel gang, and vector<bool>'s
  // packed bits would make that a shared-byte data race.
  std::vector<std::uint8_t> measurement_requested_;
  std::vector<std::uint8_t> measurement_end_requested_;
  std::vector<std::uint64_t> iteration_count_;
  std::vector<std::uint64_t> async_step_count_;
  /// 1 while the node is inside its async iteration loop (between its first
  /// async_step and its next barrier); the bounded-asynchrony throttle only
  /// waits on active nodes, so drained nodes can never stall the others.
  std::vector<std::uint8_t> async_active_;

  // Barrier-tree scratch, sized once: the virtual time each node's arrival
  // reaches its parent, and the metadata bytes its subtree ships (arrival
  // phase, then reused by the release phase).
  std::vector<sim::SimTime> arrive_done_;
  std::vector<std::uint64_t> subtree_payload_;

  std::unique_ptr<RaceDetector> race_detector_;  // null when Off
  std::vector<RaceReport> race_reports_;
};

}  // namespace updsm::dsm
