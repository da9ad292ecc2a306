#include "tracing_protocol.hpp"

namespace perfbench {

static_assert(static_cast<std::size_t>(Hook::AsyncRefresh) + 1 == kHookCount);

const char* hook_name(Hook hook) {
  switch (hook) {
    case Hook::Init: return "init";
    case Hook::ReadFault: return "read_fault";
    case Hook::WriteFault: return "write_fault";
    case Hook::IterationBegin: return "iteration_begin";
    case Hook::BarrierBegin: return "barrier_begin";
    case Hook::BarrierArrive: return "barrier_arrive";
    case Hook::BarrierMaster: return "barrier_master";
    case Hook::BarrierRelease: return "barrier_release";
    case Hook::BarrierFinish: return "barrier_finish";
    case Hook::AsyncPublish: return "async_publish";
    case Hook::AsyncRefresh: return "async_refresh";
  }
  return "unknown";
}

HookRecorder::Clock::time_point HookRecorder::open() {
  std::lock_guard<std::mutex> lock(mu_);
  const Clock::time_point now = Clock::now();
  if (active_++ == 0) union_start_ = now;
  return now;
}

void HookRecorder::close(Hook hook, Clock::time_point start) {
  auto ns = [](Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  const auto h = static_cast<std::size_t>(hook);
  std::lock_guard<std::mutex> lock(mu_);
  const Clock::time_point now = Clock::now();
  ++totals_.calls[h];
  totals_.busy_ns[h] += ns(now - start);
  if (--active_ == 0) totals_.union_ns += ns(now - union_start_);
}

HookTotals HookRecorder::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

void TracingProtocol::init(updsm::dsm::Runtime& rt) {
  HookRecorder::Span span(rec_, Hook::Init);
  inner_->init(rt);
}

void TracingProtocol::read_fault(updsm::NodeId n, updsm::PageId page) {
  HookRecorder::Span span(rec_, Hook::ReadFault);
  inner_->read_fault(n, page);
}

void TracingProtocol::write_fault(updsm::NodeId n, updsm::PageId page) {
  HookRecorder::Span span(rec_, Hook::WriteFault);
  inner_->write_fault(n, page);
}

void TracingProtocol::barrier_begin() {
  HookRecorder::Span span(rec_, Hook::BarrierBegin);
  inner_->barrier_begin();
}

void TracingProtocol::barrier_arrive(updsm::NodeId n) {
  HookRecorder::Span span(rec_, Hook::BarrierArrive);
  inner_->barrier_arrive(n);
}

void TracingProtocol::barrier_master() {
  HookRecorder::Span span(rec_, Hook::BarrierMaster);
  inner_->barrier_master();
}

void TracingProtocol::barrier_release(updsm::NodeId n) {
  HookRecorder::Span span(rec_, Hook::BarrierRelease);
  inner_->barrier_release(n);
}

void TracingProtocol::barrier_finish() {
  HookRecorder::Span span(rec_, Hook::BarrierFinish);
  inner_->barrier_finish();
}

void TracingProtocol::iteration_begin(updsm::NodeId n,
                                      std::uint64_t iteration) {
  HookRecorder::Span span(rec_, Hook::IterationBegin);
  inner_->iteration_begin(n, iteration);
}

bool TracingProtocol::async_publish(updsm::NodeId n, std::uint64_t step,
                                    double residual) {
  HookRecorder::Span span(rec_, Hook::AsyncPublish);
  return inner_->async_publish(n, step, residual);
}

void TracingProtocol::async_refresh(updsm::NodeId n) {
  HookRecorder::Span span(rec_, Hook::AsyncRefresh);
  inner_->async_refresh(n);
}

}  // namespace perfbench
