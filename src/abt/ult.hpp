// User-level threads (ULTs).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ucontext.h>

#include "abt/wait_queue.hpp"

namespace hep::abt {

class Pool;
class Xstream;

namespace detail {
struct SchedContext;
void block_on(WaitQueue& queue, std::unique_lock<std::mutex>& lock);
SchedContext*& sched_tls();
}  // namespace detail

/// Lifecycle of a ULT.
enum class UltState : std::uint8_t {
    kReady,       // in a pool (or about to be), runnable
    kRunning,     // currently executing on some xstream
    kBlocking,    // asked to suspend; context not fully saved yet
    kBlocked,     // suspended; waiting for a wake()
    kTerminated,  // body returned
};

/// A user-level thread: a function with its own stack, cooperatively
/// scheduled. Create with Ult::create(); keep the returned shared_ptr to
/// join().
class Ult : public std::enable_shared_from_this<Ult> {
  public:
    static constexpr std::size_t kDefaultStackSize = 256 * 1024;

    /// Create a ULT running `fn` and push it into `pool`. `sched_class` is
    /// the ULT's scheduling class for PriorityPool (ignored by plain pools);
    /// it rides on the ULT so requeues after yield/suspend keep priority.
    static std::shared_ptr<Ult> create(const std::shared_ptr<Pool>& pool, std::function<void()> fn,
                                       std::size_t stack_size = kDefaultStackSize,
                                       std::uint8_t sched_class = 0);

    ~Ult();
    Ult(const Ult&) = delete;
    Ult& operator=(const Ult&) = delete;

    /// Block until the ULT's body has returned. Callable from a ULT (the ULT
    /// suspends) or from a plain OS thread (condvar wait).
    void join();

    [[nodiscard]] UltState state() const noexcept {
        return state_.load(std::memory_order_acquire);
    }
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] std::uint8_t sched_class() const noexcept { return sched_class_; }

    /// Make a kBlocked (or mid-suspend kBlocking) ULT runnable again by
    /// pushing it back to its pool. Used by the sync primitives.
    void wake();

  private:
    friend class Xstream;
    friend void yield();
    friend void suspend();
    friend void detail::block_on(detail::WaitQueue&, std::unique_lock<std::mutex>&);

    Ult(std::shared_ptr<Pool> pool, std::function<void()> fn, std::size_t stack_size);

    static void trampoline();
    void run_body();

    std::shared_ptr<Pool> home_pool_;
    std::function<void()> fn_;
    std::unique_ptr<char[]> stack_;
    std::size_t stack_size_;
    ucontext_t context_{};
    // Sanitizer fiber bookkeeping (see fiber_sanitizer.hpp): ASan parks this
    // ULT's fake stack across switches; TSan keeps the ULT's own context.
    void* asan_fake_stack_ = nullptr;
    void* tsan_fiber_ = nullptr;

    std::atomic<UltState> state_{UltState::kReady};
    // Guards the Blocking->Blocked transition against a concurrent wake().
    std::mutex state_mutex_;
    bool wake_pending_ = false;

    // join() support.
    std::mutex join_mutex_;
    detail::WaitQueue joiners_;

    std::uint64_t id_;
    std::uint8_t sched_class_ = 0;
};

/// True when the calling code runs inside a ULT (as opposed to a plain OS
/// thread or an xstream running a tasklet). Sync primitives use this to pick
/// their blocking strategy.
bool in_ult();

/// Yield the current ULT back to its scheduler; it is immediately requeued.
/// Maps to std::this_thread::yield() on a plain OS thread.
void yield();

/// Suspend the current ULT until some other party calls wake() on it.
/// Must only be called from inside a ULT, after registering with a waker.
void suspend();

/// The currently running ULT, or nullptr on a plain OS thread.
std::shared_ptr<Ult> self();

}  // namespace hep::abt
