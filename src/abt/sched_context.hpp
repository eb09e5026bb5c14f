// Internal: per-OS-thread scheduler state shared by ult.cpp and xstream.cpp.
#pragma once

#include <cstddef>
#include <memory>
#include <ucontext.h>

namespace hep::abt {

class Ult;

namespace detail {

// Set by the xstream scheduler loop; ULT code re-reads it after every context
// switch because a ULT may migrate between xstreams.
struct SchedContext {
    ucontext_t sched_ctx{};
    std::shared_ptr<Ult> current;
    enum class PostAction : int { kNone, kYield, kSuspend, kTerminate };
    PostAction post_action = PostAction::kNone;

    // Sanitizer fiber bookkeeping (see fiber_sanitizer.hpp; unused without
    // the sanitizers). TSan: tsan_sched_fiber is the xstream thread's own
    // context, the one every switch back to the scheduler names.
    // fake_stack parks the scheduler's fake stack while a ULT runs; the
    // sched_stack bounds are captured by the ULT's finish_switch on entry so
    // switches back to the scheduler can announce the target stack.
    void* asan_fake_stack = nullptr;
    const void* asan_sched_stack = nullptr;
    std::size_t asan_sched_stack_size = 0;
    void* tsan_sched_fiber = nullptr;
};

SchedContext*& sched_tls();

}  // namespace detail
}  // namespace hep::abt
