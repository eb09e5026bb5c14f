// Internal: sanitizer fiber annotations for the ucontext switches.
//
// AddressSanitizer cannot follow makecontext/swapcontext on its own: while a
// ULT runs on its heap-allocated stack, the runtime still believes the OS
// thread stack is current. That is mostly harmless until something calls
// __asan_handle_no_return (every `throw` does) — ASan then tries to unpoison
// "the rest of the current stack" using the wrong bounds, and later writes to
// perfectly valid ULT frames are reported as stack-buffer-overflow. The fix
// is the sanitizer fiber protocol: announce every switch with
// __sanitizer_start_switch_fiber (target stack bounds) and complete it with
// __sanitizer_finish_switch_fiber on the new stack.
//
// ThreadSanitizer keeps one shadow call stack and vector clock per thread; a
// ULT that suspends on one xstream and resumes on another would otherwise
// mix two threads' histories. Each ULT therefore gets its own TSan fiber
// context, and every switch names the fiber it lands on with
// __tsan_switch_to_fiber (which also orders the switch: what ran before it
// happens-before what runs after).
//
// Without the matching sanitizer these helpers compile to nothing.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define HEP_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HEP_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define HEP_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HEP_TSAN_FIBERS 1
#endif
#endif

#if defined(HEP_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(HEP_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace hep::abt::detail {

// Call immediately before swapcontext. `fake_stack_save` is a per-context
// slot ASan uses to park the departing context's fake stack; pass nullptr
// when the departing context will never run again (fiber exit).
inline void asan_start_switch(void** fake_stack_save, const void* target_bottom,
                              std::size_t target_size) {
#if defined(HEP_ASAN_FIBERS)
    __sanitizer_start_switch_fiber(fake_stack_save, target_bottom, target_size);
#else
    (void)fake_stack_save;
    (void)target_bottom;
    (void)target_size;
#endif
}

// Call as the first thing after swapcontext lands on the new stack.
// `fake_stack_save` is whatever asan_start_switch saved for THIS context when
// it last switched away (nullptr on first entry). The out-params receive the
// bounds of the stack we just came from.
inline void asan_finish_switch(void* fake_stack_save, const void** old_bottom,
                               std::size_t* old_size) {
#if defined(HEP_ASAN_FIBERS)
    __sanitizer_finish_switch_fiber(fake_stack_save, old_bottom, old_size);
#else
    (void)fake_stack_save;
    (void)old_bottom;
    (void)old_size;
#endif
}

// A fresh TSan context for a ULT (nullptr without TSan).
inline void* tsan_create_fiber() {
#if defined(HEP_TSAN_FIBERS)
    return __tsan_create_fiber(0);
#else
    return nullptr;
#endif
}

// Free a ULT's context; never the one currently running.
inline void tsan_destroy_fiber(void* fiber) {
#if defined(HEP_TSAN_FIBERS)
    if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
    (void)fiber;
#endif
}

// The calling OS thread's own context (an xstream's scheduler stack).
inline void* tsan_current_fiber() {
#if defined(HEP_TSAN_FIBERS)
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

// Call immediately before swapcontext into `fiber`'s stack.
inline void tsan_switch_to(void* fiber) {
#if defined(HEP_TSAN_FIBERS)
    __tsan_switch_to_fiber(fiber, 0);
#else
    (void)fiber;
#endif
}

}  // namespace hep::abt::detail
