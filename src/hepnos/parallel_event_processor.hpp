// ParallelEventProcessor (paper §II-D):
//
// "a high-level interface for a group of processes to iterate over the events
//  in a given dataset in parallel and in a load-balanced manner. [...] It does
//  so by designating a subset of processes as readers (typically as many
//  readers as databases to read from). Readers load batches of events from
//  HEPnOS in the background and place them in a distributed queue from which
//  all processes pull. The ParallelEventProcessor also takes care of
//  prefetching products associated with an event if requested."
//
// The paper's production tuning: events loaded in batches of 16384 (few RPCs,
// large payloads) and shared among workers in batches of 64 (fine-grained
// load balancing) — those are the two options below.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "hepnos/containers.hpp"
#include "hepnos/datastore.hpp"
#include "mpisim/comm.hpp"

namespace hep::hepnos {

struct ParallelEventProcessorOptions {
    /// Events fetched from HEPnOS per reader RPC (paper: 16384).
    std::size_t input_batch_size = 16384;
    /// Events handed to a worker at a time (paper: 64).
    std::size_t share_batch_size = 64;
    /// Reader ranks; 0 = min(#event databases, communicator size), the
    /// paper's "typically as many readers as databases".
    std::size_t num_readers = 0;
};

struct ParallelEventProcessorStatistics {
    std::uint64_t local_events = 0;   // events this rank processed
    std::uint64_t total_events = 0;   // all ranks (valid at root)
    double processing_time = 0.0;     // seconds inside the user callback
    double waiting_time = 0.0;        // seconds blocked on the queue
    double total_time = 0.0;          // local wall time inside process()
};

/// Products prefetched for a batch of events, keyed by full product key.
/// Entries are refcounted views into the get_multi receive buffer — one
/// allocation per prefetch page, no per-product copies.
class ProductCache {
  public:
    void put(std::string key, hep::BufferView bytes) {
        items_.emplace(std::move(key), std::move(bytes));
    }

    /// Load a prefetched product; false if it was not prefetched (the caller
    /// may still fall back to Event::load, which does an RPC).
    template <typename T>
    bool load(const Event& event, std::string_view label, T& value) const {
        auto it = items_.find(product_key(event.container_key(), label,
                                          product_type_name<T>()));
        if (it == items_.end()) return false;
        serial::from_string(it->second.sv(), value);
        return true;
    }

    [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

  private:
    std::map<std::string, hep::BufferView, std::less<>> items_;
};

/// The prefetch step of the ParallelEventProcessor and the Prefetcher: put
/// the (label, type) products of every event in `event_keys` into `cache`,
/// with one batch-class DataStoreImpl::load_products_bulk per products
/// database. A non-null `snap` pins every load at that snapshot (bypassing
/// the client lease cache). Returns the number of products found.
std::size_t prefetch_products(DataStoreImpl& impl, const std::vector<std::string>& event_keys,
                              const std::vector<std::pair<std::string, std::string>>& labels,
                              const Snapshot* snap, ProductCache& cache);

class ParallelEventProcessor {
  public:
    using EventCallback = std::function<void(const Event&, const ProductCache&)>;

    ParallelEventProcessor(DataStore datastore, mpisim::Comm& comm,
                           ParallelEventProcessorOptions options = {});

    /// Request prefetching of the product (label, T) for every event batch.
    template <typename T>
    void prefetch(std::string_view label = "") {
        prefetch_.emplace_back(std::string(label), std::string(product_type_name<T>()));
    }

    /// Collective: every rank of the communicator must call process() with
    /// the same dataset. Each event of the dataset is delivered to exactly
    /// one rank's callback. Returns per-rank statistics (total_events is
    /// aggregated at rank 0).
    ParallelEventProcessorStatistics process(const DataSet& dataset, const EventCallback& fn);

  private:
    struct Batch {
        std::vector<std::string> event_keys;  // full event container keys
        std::shared_ptr<ProductCache> cache;
    };

    /// The paper's "distributed queue" (in-process here: ranks are threads).
    struct SharedQueue {
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<Batch> batches;
        std::size_t producers_active = 0;
        std::uint64_t epoch = 0;

        void reset(std::size_t producers) {
            std::lock_guard<std::mutex> lock(mutex);
            batches.clear();
            producers_active = producers;
            ++epoch;
        }
        void push(Batch batch) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                batches.push_back(std::move(batch));
            }
            cv.notify_one();
        }
        void producer_done() {
            {
                std::lock_guard<std::mutex> lock(mutex);
                --producers_active;
            }
            cv.notify_all();
        }
        /// Blocks until a batch is available or production finished.
        bool pop(Batch& out) {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return !batches.empty() || producers_active == 0; });
            if (batches.empty()) return false;
            out = std::move(batches.front());
            batches.pop_front();
            return true;
        }
    };

    void reader_loop(const DataSet& dataset, std::size_t reader_index, std::size_t num_readers,
                     SharedQueue& queue);

    DataStore datastore_;
    mpisim::Comm& comm_;
    ParallelEventProcessorOptions options_;
    std::vector<std::pair<std::string, std::string>> prefetch_;  // (label, type)
};

}  // namespace hep::hepnos
