// Forwarding CoherenceProtocol decorator for tests: every hook goes to the
// wrapped protocol, and a test subclass overrides the hooks it wants to
// observe around. parallel_safe() is forwarded too, so the Cluster runs the
// wrapped protocol under the same gang mode it would run it bare.
#pragma once

#include <memory>
#include <utility>

#include "updsm/dsm/protocol.hpp"

namespace updsm::testing_support {

class ForwardingProtocol : public dsm::CoherenceProtocol {
 public:
  explicit ForwardingProtocol(std::unique_ptr<dsm::CoherenceProtocol> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] dsm::CoherenceProtocol& inner() { return *inner_; }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void init(dsm::Runtime& rt) override { inner_->init(rt); }
  void read_fault(NodeId n, PageId page) override {
    inner_->read_fault(n, page);
  }
  void write_fault(NodeId n, PageId page) override {
    inner_->write_fault(n, page);
  }
  [[nodiscard]] bool parallel_safe() const override {
    return inner_->parallel_safe();
  }
  void barrier_begin() override { inner_->barrier_begin(); }
  void barrier_arrive(NodeId n) override { inner_->barrier_arrive(n); }
  void barrier_master() override { inner_->barrier_master(); }
  void barrier_release(NodeId n) override { inner_->barrier_release(n); }
  void barrier_finish() override { inner_->barrier_finish(); }
  void iteration_begin(NodeId n, std::uint64_t iteration) override {
    inner_->iteration_begin(n, iteration);
  }
  [[nodiscard]] bool async_publish(NodeId n, std::uint64_t step,
                                   double residual) override {
    return inner_->async_publish(n, step, residual);
  }
  void async_refresh(NodeId n) override { inner_->async_refresh(n); }
  [[nodiscard]] bool async_converged() const override {
    return inner_->async_converged();
  }
  [[nodiscard]] std::uint64_t live_page_buffers() const override {
    return inner_->live_page_buffers();
  }

 private:
  std::unique_ptr<dsm::CoherenceProtocol> inner_;
};

}  // namespace updsm::testing_support
