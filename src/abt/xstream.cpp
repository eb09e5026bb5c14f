#include "abt/xstream.hpp"

#include <cassert>

#include "abt/fiber_sanitizer.hpp"
#include "abt/sched_context.hpp"
#include "abt/ult.hpp"
#include "abt/wait_queue.hpp"
#include "common/logging.hpp"

namespace hep::abt {

Xstream::Xstream(std::vector<std::shared_ptr<Pool>> pools, std::string name)
    : pools_(std::move(pools)), name_(std::move(name)) {
    assert(!pools_.empty() && "xstream needs at least one pool");
    thread_ = std::thread([this] { scheduler_loop(); });
}

std::unique_ptr<Xstream> Xstream::create(std::vector<std::shared_ptr<Pool>> pools,
                                         std::string name) {
    return std::unique_ptr<Xstream>(new Xstream(std::move(pools), std::move(name)));
}

Xstream::~Xstream() { join(); }

void Xstream::join() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
}

void Xstream::scheduler_loop() {
    detail::SchedContext sc;
    sc.tsan_sched_fiber = detail::tsan_current_fiber();
    detail::sched_tls() = &sc;

    auto run_item = [&](WorkItem&& item) {
        executed_.fetch_add(1, std::memory_order_relaxed);
        if (std::holds_alternative<std::function<void()>>(item)) {
            // Tasklet: run to completion on the scheduler stack.
            std::get<std::function<void()>>(item)();
            return;
        }
        auto ult = std::get<std::shared_ptr<Ult>>(std::move(item));
        sc.current = ult;
        sc.post_action = detail::SchedContext::PostAction::kNone;
        ult->state_.store(UltState::kRunning, std::memory_order_release);
        detail::asan_start_switch(&sc.asan_fake_stack, ult->stack_.get(), ult->stack_size_);
        detail::tsan_switch_to(ult->tsan_fiber_);
        swapcontext(&sc.sched_ctx, &ult->context_);
        detail::asan_finish_switch(sc.asan_fake_stack, nullptr, nullptr);
        // Back on the scheduler stack: act on how the ULT left.
        sc.current.reset();
        switch (sc.post_action) {
            case detail::SchedContext::PostAction::kYield: {
                ult->state_.store(UltState::kReady, std::memory_order_release);
                ult->home_pool_->push(ult);
                break;
            }
            case detail::SchedContext::PostAction::kSuspend: {
                std::shared_ptr<Pool> requeue;
                {
                    std::lock_guard<std::mutex> lock(ult->state_mutex_);
                    if (ult->wake_pending_) {
                        ult->wake_pending_ = false;
                        ult->state_.store(UltState::kReady, std::memory_order_release);
                        requeue = ult->home_pool_;
                    } else {
                        ult->state_.store(UltState::kBlocked, std::memory_order_release);
                    }
                }
                if (requeue) requeue->push(ult);
                break;
            }
            case detail::SchedContext::PostAction::kTerminate: {
                detail::WaitQueue joiners;
                {
                    std::lock_guard<std::mutex> lock(ult->join_mutex_);
                    ult->state_.store(UltState::kTerminated, std::memory_order_release);
                    joiners = std::move(ult->joiners_);
                    ult->joiners_ = {};
                }
                joiners.wake_all();
                break;
            }
            case detail::SchedContext::PostAction::kNone: {
                HEP_LOG_ERROR("xstream %s: ULT returned to scheduler without a post action",
                              name_.c_str());
                break;
            }
        }
    };

    while (!stop_.load(std::memory_order_acquire)) {
        bool did_work = false;
        for (auto& pool : pools_) {
            if (auto item = pool->try_pop()) {
                run_item(std::move(*item));
                did_work = true;
                break;  // restart from the highest-priority pool
            }
        }
        if (!did_work) {
            // Sleep briefly on the primary pool; other pools are polled on
            // the next iteration.
            if (auto item = pools_[0]->pop_wait(std::chrono::microseconds(200))) {
                run_item(std::move(*item));
            }
        }
    }

    detail::sched_tls() = nullptr;
}

}  // namespace hep::abt
