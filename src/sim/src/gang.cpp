#include "updsm/sim/gang.hpp"

#include <algorithm>
#include <cstdio>

#include "updsm/sim/exec_context.hpp"

namespace updsm::sim {

const char* to_string(GangMode mode) {
  switch (mode) {
    case GangMode::Baton:
      return "baton";
    case GangMode::Parallel:
      return "parallel";
    case GangMode::Async:
      return "async";
  }
  return "?";
}

int Gang::resolve_workers(int workers, int num_nodes) {
  UPDSM_REQUIRE(workers >= 0,
                "workers must be >= 1 (or 0 for auto), got " << workers);
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::clamp(workers, 1, num_nodes);
}

int Gang::owner_worker(int node, int num_nodes, int workers) {
  const int base = num_nodes / workers;
  const int rem = num_nodes % workers;
  // The first `rem` workers own base+1 nodes each, covering [0, big).
  const int big = rem * (base + 1);
  if (node < big) return node / (base + 1);
  return rem + (node - big) / base;
}

Gang::Gang(int num_nodes, GangMode mode, int workers)
    : mode_(mode), num_nodes_(num_nodes) {
  UPDSM_REQUIRE(num_nodes >= 1,
                "gang needs at least one node, got " << num_nodes);
  if (workers > num_nodes) {
    std::fprintf(stderr,
                 "updsm: workers=%d exceeds %d simulated nodes; clamping to "
                 "%d\n",
                 workers, num_nodes, num_nodes);
  }
  num_workers_ = resolve_workers(workers, num_nodes);

  slots_.reserve(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    slots_.push_back(std::make_unique<NodeSlot>());
  }
  span_.resize(static_cast<std::size_t>(num_workers_) + 1);
  const int base = num_nodes / num_workers_;
  const int rem = num_nodes % num_workers_;
  span_[0] = 0;
  for (int w = 0; w < num_workers_; ++w) {
    span_[static_cast<std::size_t>(w) + 1] =
        span_[w] + base + (w < rem ? 1 : 0);
  }
  parkers_.reserve(static_cast<std::size_t>(num_workers_));
  live_workers_.reserve(static_cast<std::size_t>(num_workers_));
  threads_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    parkers_.push_back(std::make_unique<Parker>());
  }
  for (int w = 0; w < num_workers_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

Gang::~Gang() {
  destroy_.store(true, std::memory_order_release);
  for (auto& p : parkers_) p->wake();
  for (std::thread& t : threads_) t.join();
}

void Gang::record_failure(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(err_mu_);
    if (!first_error_) first_error_ = std::move(error);
  }
  shutdown_.store(true, std::memory_order_release);
}

bool Gang::run_node_fiber(int node) {
  NodeSlot& slot = *slots_[static_cast<std::size_t>(node)];
  if (!slot.started) {
    slot.started = true;
    slot.fiber.arm([this, node] {
      // Runs on the fiber's own stack; must not let anything escape (a
      // throwing fiber function would std::terminate inside ucontext).
      NodeSlot& s = *slots_[static_cast<std::size_t>(node)];
      try {
        (*node_fn_)(node);
        s.exit = NodeExit::Returned;
      } catch (const Shutdown&) {
        s.exit = NodeExit::Torn;  // torn down by another node's failure
      } catch (...) {
        s.exit = NodeExit::Errored;
        s.error = std::current_exception();
      }
    });
  }
  detail::set_exec_node(node);
  const bool finished = slot.fiber.resume();
  detail::set_exec_node(kControllerContext);
  return finished;
}

void Gang::unwind_owned(int worker) {
  for (int n = span_first(worker); n < span_last(worker); ++n) {
    NodeSlot& slot = *slots_[static_cast<std::size_t>(n)];
    while (slot.status != NodeStatus::Done) {
      if (!slot.started) {
        // Historical semantics: a node that had not started when the gang
        // failed never runs at all.
        slot.status = NodeStatus::Done;
        break;
      }
      // Resume the suspended fiber so barrier_wait rethrows Shutdown and
      // the node's stack unwinds through the application frames. Repeat in
      // case the application swallows it and parks again.
      if (run_node_fiber(n)) slot.status = NodeStatus::Done;
    }
  }
}

void Gang::detach_worker() {
  if (active_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    controller_.wake();
  }
}

void Gang::advance_baton_locked(int after) {
  if (mode_ == GangMode::Async) {
    // Async turns are clock-ordered, not round-ordered; the round position
    // of the yielding node is irrelevant.
    advance_async_locked();
    return;
  }
  for (int j = after + 1; j < num_nodes_; ++j) {
    if (slots_[static_cast<std::size_t>(j)]->status == NodeStatus::Ready) {
      turn_ = j;
      const int ow = owner_worker(j, num_nodes_, num_workers_);
      // Targeted hand-off: wake only the next node's owning worker -- and
      // not even that when the next node lives on the worker already
      // running (its scheduler loop re-checks turn_ before parking).
      if (ow != current_exec_worker()) parkers_[ow]->wake();
      return;
    }
  }
  turn_ = kController;
  controller_.wake();
}

void Gang::advance_async_locked() {
  // Grant the turn to the Ready node with the minimum (clock, id) pair --
  // the ascending scan plus strict < makes the lowest id win ties, so the
  // event order is a pure function of the virtual clocks.
  int best = kController;
  std::uint64_t best_clock = 0;
  for (int j = 0; j < num_nodes_; ++j) {
    if (slots_[static_cast<std::size_t>(j)]->status != NodeStatus::Ready) {
      continue;
    }
    const std::uint64_t c = clock_source_ ? clock_source_(j) : 0;
    if (best == kController || c < best_clock) {
      best = j;
      best_clock = c;
    }
  }
  if (best == kController) {
    turn_ = kController;
    controller_.wake();
    return;
  }
  turn_ = best;
  const int ow = owner_worker(best, num_nodes_, num_workers_);
  if (ow != current_exec_worker()) parkers_[static_cast<std::size_t>(ow)]->wake();
}

void Gang::fail_baton_locked(std::exception_ptr error) {
  record_failure(std::move(error));
  for (auto& p : parkers_) p->wake();
  controller_.wake();
}

void Gang::async_step(int node) {
  UPDSM_CHECK_MSG(mode_ == GangMode::Async,
                  "async_step requires GangMode::Async");
  NodeSlot& slot = *slots_[static_cast<std::size_t>(node)];
  {
    std::lock_guard<std::mutex> lock(baton_mu_);
    UPDSM_CHECK_MSG(turn_ == node,
                    "async_step(" << node << ") called out of turn (turn="
                                  << turn_ << ")");
    // The node stays Ready -- it is yielding its turn, not parking at a
    // barrier -- so advance_async_locked may grant the turn right back.
    advance_async_locked();
    if (turn_ == node) return;  // still the minimum: keep running in place
  }
  slot.fiber.yield();
  if (shutdown_.load(std::memory_order_acquire)) throw Shutdown{};
}

void Gang::barrier_wait(int node) {
  NodeSlot& slot = *slots_[static_cast<std::size_t>(node)];
  if (mode_ != GangMode::Parallel) {
    std::lock_guard<std::mutex> lock(baton_mu_);
    UPDSM_CHECK_MSG(turn_ == node,
                    "barrier_wait(" << node << ") called out of turn (turn="
                                    << turn_ << ")");
    slot.status = NodeStatus::AtBarrier;
    advance_baton_locked(node);
  } else {
    // Plain write: the owning worker's arrival decrement publishes it to
    // the controller.
    slot.status = NodeStatus::AtBarrier;
  }
  // Yield with no locks held: switches back to the owning worker's
  // scheduler loop until the barrier releases this node again.
  slot.fiber.yield();
  if (shutdown_.load(std::memory_order_acquire)) throw Shutdown{};
}

void Gang::worker_main(int worker) {
  detail::set_exec_worker(worker);
  std::uint64_t seen_job = 0;
  for (;;) {
    for (;;) {
      const std::uint64_t ticket = parkers_[static_cast<std::size_t>(worker)]
                                       ->prepare();
      if (destroy_.load(std::memory_order_acquire)) return;
      const std::uint64_t job = job_epoch_.load(std::memory_order_acquire);
      if (job != seen_job) {
        seen_job = job;
        break;
      }
      parkers_[static_cast<std::size_t>(worker)]->wait(ticket);
    }
    if (mode_ == GangMode::Parallel) {
      run_job_parallel(worker);
    } else {
      run_job_baton(worker);  // Baton and Async share the one-at-a-time loop
    }
  }
}

void Gang::run_job_baton(int worker) {
  Parker& parker = *parkers_[static_cast<std::size_t>(worker)];
  int live = span_last(worker) - span_first(worker);
  for (;;) {
    const std::uint64_t ticket = parker.prepare();
    int to_run = kController;
    bool unwind = false;
    {
      std::lock_guard<std::mutex> lock(baton_mu_);
      if (shutdown_.load(std::memory_order_relaxed)) {
        unwind = true;
      } else if (turn_ >= span_first(worker) && turn_ < span_last(worker) &&
                 slots_[static_cast<std::size_t>(turn_)]->status ==
                     NodeStatus::Ready) {
        to_run = turn_;
      }
    }
    if (unwind) {
      unwind_owned(worker);
      break;
    }
    if (to_run == kController) {
      if (live == 0) break;
      parker.wait(ticket);
      continue;
    }
    // Run the node until it parks at a barrier (barrier_wait advances the
    // baton itself) or finishes.
    if (run_node_fiber(to_run)) {
      --live;
      NodeSlot& slot = *slots_[static_cast<std::size_t>(to_run)];
      std::lock_guard<std::mutex> lock(baton_mu_);
      slot.status = NodeStatus::Done;
      if (slot.exit == NodeExit::Errored) {
        fail_baton_locked(slot.error);
      } else {
        advance_baton_locked(to_run);
      }
    }
  }
  detach_worker();
}

void Gang::run_job_parallel(int worker) {
  Parker& parker = *parkers_[static_cast<std::size_t>(worker)];
  for (;;) {
    // The release epoch is stable for the whole phase: the controller
    // cannot bump it again until this worker arrives below.
    const std::uint64_t phase = phase_epoch_.load(std::memory_order_acquire);
    if (shutdown_.load(std::memory_order_acquire)) {
      unwind_owned(worker);
    } else {
      for (int n = span_first(worker); n < span_last(worker); ++n) {
        NodeSlot& slot = *slots_[static_cast<std::size_t>(n)];
        if (slot.status != NodeStatus::Ready) continue;
        if (!slot.started && shutdown_.load(std::memory_order_acquire)) {
          // Another node failed before this one ever started.
          slot.status = NodeStatus::Done;
          continue;
        }
        if (run_node_fiber(n)) {
          slot.status = NodeStatus::Done;
          if (slot.exit == NodeExit::Errored) record_failure(slot.error);
        }
      }
    }
    bool live = false;
    for (int n = span_first(worker); n < span_last(worker); ++n) {
      if (slots_[static_cast<std::size_t>(n)]->status != NodeStatus::Done) {
        live = true;
        break;
      }
    }
    // Arrive at the phase barrier; the last arrival wakes the controller.
    if (phase_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      controller_.wake();
    }
    if (!live) break;
    for (;;) {
      const std::uint64_t ticket = parker.prepare();
      if (phase_epoch_.load(std::memory_order_acquire) != phase) break;
      parker.wait(ticket);
    }
  }
  detach_worker();
}

void Gang::controller_baton(const BarrierFn& barrier_cb) {
  for (;;) {
    for (;;) {
      const std::uint64_t ticket = controller_.prepare();
      bool quiescent;
      {
        std::lock_guard<std::mutex> lock(baton_mu_);
        quiescent = shutdown_.load(std::memory_order_relaxed) ||
                    turn_ == kController;
      }
      if (quiescent) break;
      controller_.wait(ticket);
    }
    {
      std::lock_guard<std::mutex> lock(baton_mu_);
      if (shutdown_.load(std::memory_order_relaxed)) return;
      bool all_done = true;
      bool any_done = false;
      for (const auto& s : slots_) {
        if (s->status == NodeStatus::Done) {
          any_done = true;
        } else {
          all_done = false;
        }
      }
      if (all_done) return;
      // Every non-done node must be at the barrier; a mix of Done and
      // AtBarrier means the application's barrier counts diverged.
      if (any_done) {
        fail_baton_locked(std::make_exception_ptr(UsageError(
            "a node exited while other nodes are still waiting at a "
            "barrier (mismatched barrier counts)")));
        return;
      }
    }
    try {
      barrier_cb(barriers_);
    } catch (...) {
      std::lock_guard<std::mutex> lock(baton_mu_);
      fail_baton_locked(std::current_exception());
      return;
    }
    {
      std::lock_guard<std::mutex> lock(baton_mu_);
      ++barriers_;
      for (auto& s : slots_) {
        if (s->status == NodeStatus::AtBarrier) s->status = NodeStatus::Ready;
      }
      advance_baton_locked(kController);
    }
  }
}

bool Gang::release_parallel_phase() {
  // Only called with every worker quiescent (arrived or detached), so the
  // status scan cannot race -- until the epoch bump below releases them: a
  // worker that had not parked yet runs at once and writes its statuses,
  // so the wake list is taken before the bump, never re-read after it.
  // Wakes exactly the workers that still own a live node: O(M) targeted
  // wakes, no herd.
  live_workers_.clear();
  for (int w = 0; w < num_workers_; ++w) {
    for (int n = span_first(w); n < span_last(w); ++n) {
      if (slots_[static_cast<std::size_t>(n)]->status != NodeStatus::Done) {
        live_workers_.push_back(w);
        break;
      }
    }
  }
  if (live_workers_.empty()) return false;
  phase_remaining_.store(static_cast<int>(live_workers_.size()),
                         std::memory_order_relaxed);
  phase_epoch_.fetch_add(1, std::memory_order_release);
  for (const int w : live_workers_) {
    parkers_[static_cast<std::size_t>(w)]->wake();
  }
  return true;
}

void Gang::controller_parallel(const BarrierFn& barrier_cb) {
  for (;;) {
    for (;;) {
      const std::uint64_t ticket = controller_.prepare();
      if (phase_remaining_.load(std::memory_order_acquire) == 0) break;
      controller_.wait(ticket);
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      // Unwind phase: release the surviving workers so they tear their
      // suspended fibers down; repeat until none is left.
      if (!release_parallel_phase()) return;
      continue;
    }
    bool all_done = true;
    bool any_done = false;
    for (const auto& s : slots_) {
      if (s->status == NodeStatus::Done) {
        any_done = true;
      } else {
        all_done = false;
      }
    }
    if (all_done) return;
    if (any_done) {
      record_failure(std::make_exception_ptr(UsageError(
          "a node exited while other nodes are still waiting at a "
          "barrier (mismatched barrier counts)")));
      if (!release_parallel_phase()) return;
      continue;
    }
    try {
      barrier_cb(barriers_);
    } catch (...) {
      record_failure(std::current_exception());
      if (!release_parallel_phase()) return;
      continue;
    }
    ++barriers_;
    for (auto& s : slots_) {
      if (s->status == NodeStatus::AtBarrier) s->status = NodeStatus::Ready;
    }
    if (!release_parallel_phase()) return;
  }
}

void Gang::run(const NodeFn& node_fn, const BarrierFn& barrier_cb) {
  UPDSM_CHECK_MSG(active_workers_.load(std::memory_order_acquire) == 0,
                  "Gang::run is not reentrant");
  node_fn_ = &node_fn;
  shutdown_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  for (auto& s : slots_) {
    s->status = NodeStatus::Ready;
    s->started = false;
    s->exit = NodeExit::None;
    s->error = nullptr;
  }
  turn_ = 0;
  phase_remaining_.store(num_workers_, std::memory_order_relaxed);
  active_workers_.store(num_workers_, std::memory_order_relaxed);
  job_epoch_.fetch_add(1, std::memory_order_release);
  for (auto& p : parkers_) p->wake();

  if (mode_ == GangMode::Parallel) {
    controller_parallel(barrier_cb);
  } else {
    controller_baton(barrier_cb);
  }

  // Wait for every worker to finish (or abandon) this job before
  // returning, so the pool is quiescent for the next run() and errors are
  // complete.
  for (;;) {
    const std::uint64_t ticket = controller_.prepare();
    if (active_workers_.load(std::memory_order_acquire) == 0) break;
    controller_.wait(ticket);
  }
  node_fn_ = nullptr;
  if (first_error_) {
    std::exception_ptr error;
    std::swap(error, first_error_);
    std::rethrow_exception(error);
  }
}

}  // namespace updsm::sim
