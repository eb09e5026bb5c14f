#include "abt/ult.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "abt/fiber_sanitizer.hpp"
#include "abt/pool.hpp"
#include "abt/sched_context.hpp"
#include "abt/wait_queue.hpp"
#include "abt/xstream.hpp"
#include "common/logging.hpp"

namespace hep::abt {

namespace detail {

thread_local SchedContext* tls_sched = nullptr;

SchedContext*& sched_tls() { return tls_sched; }

}  // namespace detail

namespace {
std::atomic<std::uint64_t> g_ult_ids{1};
}

Ult::Ult(std::shared_ptr<Pool> pool, std::function<void()> fn, std::size_t stack_size)
    : home_pool_(std::move(pool)),
      fn_(std::move(fn)),
      stack_(new char[stack_size]),
      stack_size_(stack_size),
      tsan_fiber_(detail::tsan_create_fiber()),
      id_(g_ult_ids.fetch_add(1, std::memory_order_relaxed)) {
    getcontext(&context_);
    context_.uc_stack.ss_sp = stack_.get();
    context_.uc_stack.ss_size = stack_size_;
    context_.uc_link = nullptr;
    makecontext(&context_, reinterpret_cast<void (*)()>(&Ult::trampoline), 0);
}

Ult::~Ult() { detail::tsan_destroy_fiber(tsan_fiber_); }

std::shared_ptr<Ult> Ult::create(const std::shared_ptr<Pool>& pool, std::function<void()> fn,
                                 std::size_t stack_size, std::uint8_t sched_class) {
    auto ult = std::shared_ptr<Ult>(new Ult(pool, std::move(fn), stack_size));
    ult->sched_class_ = sched_class;
    pool->push(ult);
    return ult;
}

void Ult::trampoline() {
    // Runs on the ULT's own stack, right after the scheduler swapped us in.
    // Complete the fiber switch first: no fake stack saved yet (first entry),
    // and record the scheduler's stack bounds for the switch back.
    Ult* self = detail::tls_sched->current.get();
    detail::asan_finish_switch(nullptr, &detail::tls_sched->asan_sched_stack,
                               &detail::tls_sched->asan_sched_stack_size);
    self->run_body();
    // The body may have suspended and resumed on a different xstream:
    // re-read the thread-local scheduler context.
    auto* sc = detail::tls_sched;
    sc->post_action = detail::SchedContext::PostAction::kTerminate;
    // nullptr fake-stack slot: this ULT never runs again, drop its fake stack.
    detail::asan_start_switch(nullptr, sc->asan_sched_stack, sc->asan_sched_stack_size);
    detail::tsan_switch_to(sc->tsan_sched_fiber);
    swapcontext(&self->context_, &sc->sched_ctx);
    // never reached
}

void Ult::run_body() {
    try {
        fn_();
    } catch (const std::exception& e) {
        HEP_LOG_ERROR("ULT %llu terminated with exception: %s",
                      static_cast<unsigned long long>(id_), e.what());
    } catch (...) {
        HEP_LOG_ERROR("ULT %llu terminated with unknown exception",
                      static_cast<unsigned long long>(id_));
    }
}

void Ult::wake() {
    std::shared_ptr<Pool> pool_to_push;
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        const UltState st = state_.load(std::memory_order_acquire);
        if (st == UltState::kBlocked) {
            state_.store(UltState::kReady, std::memory_order_release);
            pool_to_push = home_pool_;
        } else if (st == UltState::kBlocking) {
            // The ULT is mid-suspend; its scheduler will see the pending wake
            // once the context is fully saved.
            wake_pending_ = true;
        }
        // kReady / kRunning / kTerminated: spurious wake, nothing to do.
    }
    if (pool_to_push) pool_to_push->push(shared_from_this());
}

void Ult::join() {
    std::unique_lock<std::mutex> lock(join_mutex_);
    while (state_.load(std::memory_order_acquire) != UltState::kTerminated) {
        detail::block_on(joiners_, lock);
        lock.lock();
    }
}

bool in_ult() {
    return detail::tls_sched != nullptr && detail::tls_sched->current != nullptr;
}

std::shared_ptr<Ult> self() {
    return detail::tls_sched ? detail::tls_sched->current : nullptr;
}

void yield() {
    if (!in_ult()) {
        std::this_thread::yield();
        return;
    }
    auto* sc = detail::tls_sched;
    Ult* cur = sc->current.get();
    sc->post_action = detail::SchedContext::PostAction::kYield;
    detail::asan_start_switch(&cur->asan_fake_stack_, sc->asan_sched_stack,
                              sc->asan_sched_stack_size);
    detail::tsan_switch_to(sc->tsan_sched_fiber);
    swapcontext(&cur->context_, &sc->sched_ctx);
    // Resumed, possibly on a different xstream: finish the switch there.
    auto* back = detail::tls_sched;
    detail::asan_finish_switch(cur->asan_fake_stack_, &back->asan_sched_stack,
                               &back->asan_sched_stack_size);
}

void suspend() {
    auto* sc = detail::tls_sched;
    Ult* cur = sc->current.get();
    cur->state_.store(UltState::kBlocking, std::memory_order_release);
    sc->post_action = detail::SchedContext::PostAction::kSuspend;
    detail::asan_start_switch(&cur->asan_fake_stack_, sc->asan_sched_stack,
                              sc->asan_sched_stack_size);
    detail::tsan_switch_to(sc->tsan_sched_fiber);
    swapcontext(&cur->context_, &sc->sched_ctx);
    auto* back = detail::tls_sched;
    detail::asan_finish_switch(cur->asan_fake_stack_, &back->asan_sched_stack,
                               &back->asan_sched_stack_size);
}

namespace detail {

void WaitQueue::add_ult(std::shared_ptr<Ult> ult) { ults_.push_back(std::move(ult)); }

void WaitQueue::add_os(const std::shared_ptr<OsWaiter>& w) { os_.push_back(w); }

bool WaitQueue::wake_one() {
    if (!ults_.empty()) {
        auto ult = std::move(ults_.front());
        ults_.pop_front();
        ult->wake();
        return true;
    }
    if (!os_.empty()) {
        auto w = std::move(os_.front());
        os_.pop_front();
        {
            std::lock_guard<std::mutex> lk(w->m);
            w->signaled = true;
        }
        w->cv.notify_one();
        return true;
    }
    return false;
}

void WaitQueue::wake_all() {
    while (wake_one()) {
    }
}

void block_on(WaitQueue& queue, std::unique_lock<std::mutex>& lock) {
    if (in_ult()) {
        auto cur = detail::tls_sched->current;
        cur->state_.store(UltState::kBlocking, std::memory_order_release);
        queue.add_ult(cur);
        lock.unlock();
        auto* sc = detail::tls_sched;
        sc->post_action = SchedContext::PostAction::kSuspend;
        asan_start_switch(&cur->asan_fake_stack_, sc->asan_sched_stack,
                          sc->asan_sched_stack_size);
        tsan_switch_to(sc->tsan_sched_fiber);
        swapcontext(&cur->context_, &sc->sched_ctx);
        auto* back = detail::tls_sched;
        asan_finish_switch(cur->asan_fake_stack_, &back->asan_sched_stack,
                           &back->asan_sched_stack_size);
    } else {
        auto w = std::make_shared<WaitQueue::OsWaiter>();
        queue.add_os(w);
        lock.unlock();
        std::unique_lock<std::mutex> wl(w->m);
        w->cv.wait(wl, [&] { return w->signaled; });
    }
}

}  // namespace detail

}  // namespace hep::abt
