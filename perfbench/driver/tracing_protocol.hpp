// Forwarding CoherenceProtocol decorator that times every protocol hook.
//
// The benchmark's traced passes install TracingProtocol between the
// Cluster and the real protocol, so protocol time is measured from outside
// the program, at the layer boundary the Cluster calls through. Every
// virtual of dsm::CoherenceProtocol is forwarded -- parallel_safe() in
// particular: without it the Cluster would downgrade the Parallel gang to
// Baton and the traced pass would run a different program.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>

#include "updsm/dsm/protocol.hpp"

namespace perfbench {

enum class Hook : std::uint8_t {
  Init,
  ReadFault,
  WriteFault,
  IterationBegin,
  BarrierBegin,
  BarrierArrive,
  BarrierMaster,
  BarrierRelease,
  BarrierFinish,
  AsyncPublish,
  AsyncRefresh,
};
inline constexpr std::size_t kHookCount = 11;

/// Metric name of a hook ("barrier_arrive", ...).
[[nodiscard]] const char* hook_name(Hook hook);

/// Calls and busy time per hook, summed over every thread that ran one,
/// plus the wall time covered by the union of all hook spans (overlapping
/// spans on different worker threads count once).
struct HookTotals {
  std::array<std::uint64_t, kHookCount> calls{};
  std::array<std::uint64_t, kHookCount> busy_ns{};
  std::uint64_t union_ns = 0;
};

/// Shared sink for the spans of every TracingProtocol of one traced pass.
/// Fault hooks run concurrently on gang worker threads, so every span
/// opens and closes under one mutex; that also keeps the span union exact.
class HookRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// Scoped span around one hook call; closes on exception too.
  class Span {
   public:
    Span(HookRecorder& rec, Hook hook) : rec_(rec), hook_(hook),
                                         start_(rec.open()) {}
    ~Span() { rec_.close(hook_, start_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    HookRecorder& rec_;
    Hook hook_;
    Clock::time_point start_;
  };

  [[nodiscard]] HookTotals totals() const;

 private:
  Clock::time_point open();
  void close(Hook hook, Clock::time_point start);

  mutable std::mutex mu_;
  HookTotals totals_;                 // guarded by mu_
  int active_ = 0;                    // open spans; guarded by mu_
  Clock::time_point union_start_{};   // guarded by mu_
};

class TracingProtocol final : public updsm::dsm::CoherenceProtocol {
 public:
  TracingProtocol(std::unique_ptr<updsm::dsm::CoherenceProtocol> inner,
                  HookRecorder& recorder)
      : inner_(std::move(inner)), rec_(recorder) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void init(updsm::dsm::Runtime& rt) override;
  void read_fault(updsm::NodeId n, updsm::PageId page) override;
  void write_fault(updsm::NodeId n, updsm::PageId page) override;
  [[nodiscard]] bool parallel_safe() const override {
    return inner_->parallel_safe();
  }
  void barrier_begin() override;
  void barrier_arrive(updsm::NodeId n) override;
  void barrier_master() override;
  void barrier_release(updsm::NodeId n) override;
  void barrier_finish() override;
  void iteration_begin(updsm::NodeId n, std::uint64_t iteration) override;
  [[nodiscard]] bool async_publish(updsm::NodeId n, std::uint64_t step,
                                   double residual) override;
  void async_refresh(updsm::NodeId n) override;
  [[nodiscard]] bool async_converged() const override {
    return inner_->async_converged();
  }
  [[nodiscard]] std::uint64_t live_page_buffers() const override {
    return inner_->live_page_buffers();
  }

 private:
  std::unique_ptr<updsm::dsm::CoherenceProtocol> inner_;
  HookRecorder& rec_;
};

}  // namespace perfbench
