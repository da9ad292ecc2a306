#include "updsm/sim/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>

#include "updsm/common/error.hpp"

#if defined(__SANITIZE_THREAD__)
#define UPDSM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define UPDSM_TSAN_FIBERS 1
#endif
#endif

#ifdef UPDSM_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define UPDSM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define UPDSM_ASAN_FIBERS 1
#endif
#endif

#ifdef UPDSM_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace updsm::sim {

struct Fiber::Impl {
  ucontext_t fiber_ctx;
  ucontext_t host_ctx;
#ifdef UPDSM_TSAN_FIBERS
  void* tsan_fiber = nullptr;
  void* tsan_host = nullptr;
#endif
#ifdef UPDSM_ASAN_FIBERS
  // The fiber's fake stack while it is switched out, and the stack of the
  // host it returns to (a fiber may be resumed from different threads, so
  // the host stack is re-learned on every switch in).
  void* asan_fake_stack = nullptr;
  const void* host_stack_bottom = nullptr;
  std::size_t host_stack_size = 0;
#endif
};

Fiber::Fiber(std::size_t stack_bytes) : stack_bytes_(stack_bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  stack_bytes_ = (stack_bytes_ + page - 1) / page * page;
  map_bytes_ = stack_bytes_ + page;
  void* base = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  UPDSM_CHECK_MSG(base != MAP_FAILED, "fiber stack mmap failed");
  ::mprotect(base, page, PROT_NONE);
  map_base_ = static_cast<std::byte*>(base);
  impl_ = new Impl;
}

Fiber::~Fiber() {
  // A live *suspended* fiber would leak whatever its frames own; the gang
  // unwinds every started fiber (via Shutdown) before destruction, so by
  // here the fiber either finished or never started.
#ifdef UPDSM_TSAN_FIBERS
  if (impl_->tsan_fiber != nullptr) __tsan_destroy_fiber(impl_->tsan_fiber);
#endif
  delete impl_;
  ::munmap(map_base_, map_bytes_);
}

void Fiber::arm(std::function<void()> fn) {
  UPDSM_CHECK_MSG(!live_, "arming a fiber whose function has not finished");
  fn_ = std::move(fn);
  UPDSM_CHECK(::getcontext(&impl_->fiber_ctx) == 0);
  impl_->fiber_ctx.uc_stack.ss_sp = map_base_ + (map_bytes_ - stack_bytes_);
  impl_->fiber_ctx.uc_stack.ss_size = stack_bytes_;
  // No uc_link: a finished fiber switches back explicitly in
  // run_trampoline so the TSan switch annotation runs on that path too.
  impl_->fiber_ctx.uc_link = nullptr;
  // makecontext only forwards int arguments; split the object pointer.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(&impl_->fiber_ctx,
                reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
#ifdef UPDSM_TSAN_FIBERS
  if (impl_->tsan_fiber != nullptr) __tsan_destroy_fiber(impl_->tsan_fiber);
  impl_->tsan_fiber = __tsan_create_fiber(0);
#endif
  live_ = true;
}

void Fiber::trampoline(unsigned self_hi, unsigned self_lo) {
  auto* self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(self_hi) << 32) |
      static_cast<std::uintptr_t>(self_lo));
  self->run_trampoline();
}

void Fiber::run_trampoline() {
#ifdef UPDSM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &impl_->host_stack_bottom,
                                  &impl_->host_stack_size);
#endif
  fn_();
  live_ = false;
  switch_out();
  std::abort();  // a finished fiber must never be resumed
}

bool Fiber::resume() {
  UPDSM_CHECK_MSG(live_, "resuming a fiber that is not armed");
#ifdef UPDSM_TSAN_FIBERS
  impl_->tsan_host = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(impl_->tsan_fiber, 0);
#endif
#ifdef UPDSM_ASAN_FIBERS
  void* host_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&host_fake_stack,
                                 map_base_ + (map_bytes_ - stack_bytes_),
                                 stack_bytes_);
#endif
  ::swapcontext(&impl_->host_ctx, &impl_->fiber_ctx);
#ifdef UPDSM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(host_fake_stack, nullptr, nullptr);
#endif
  return !live_;
}

void Fiber::yield() { switch_out(); }

void Fiber::switch_out() {
#ifdef UPDSM_TSAN_FIBERS
  __tsan_switch_to_fiber(impl_->tsan_host, 0);
#endif
#ifdef UPDSM_ASAN_FIBERS
  // A finished fiber never resumes: a null save slot lets ASan free its
  // fake stack.
  __sanitizer_start_switch_fiber(live_ ? &impl_->asan_fake_stack : nullptr,
                                 impl_->host_stack_bottom,
                                 impl_->host_stack_size);
#endif
  ::swapcontext(&impl_->fiber_ctx, &impl_->host_ctx);
#ifdef UPDSM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(impl_->asan_fake_stack,
                                  &impl_->host_stack_bottom,
                                  &impl_->host_stack_size);
#endif
}

}  // namespace updsm::sim
