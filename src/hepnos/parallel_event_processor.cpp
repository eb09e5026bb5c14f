#include "hepnos/parallel_event_processor.hpp"

#include "common/logging.hpp"

namespace hep::hepnos {

ParallelEventProcessor::ParallelEventProcessor(DataStore datastore, mpisim::Comm& comm,
                                               ParallelEventProcessorOptions options)
    : datastore_(std::move(datastore)), comm_(comm), options_(options) {
    if (!datastore_.valid()) throw Exception("ParallelEventProcessor needs a DataStore");
    if (options_.input_batch_size == 0 || options_.share_batch_size == 0) {
        throw Exception(Status::InvalidArgument("batch sizes must be >= 1"));
    }
}

std::size_t prefetch_products(DataStoreImpl& impl, const std::vector<std::string>& event_keys,
                              const std::vector<std::pair<std::string, std::string>>& labels,
                              const Snapshot* snap, ProductCache& cache) {
    if (labels.empty()) return 0;
    // Group product keys by the product database that owns them (placement
    // hashes the event's container key), then one get_multi per database.
    std::map<std::size_t, std::vector<std::string>> by_db;
    for (const auto& event_key : event_keys) {
        const std::size_t db_index = impl.locate_index(Role::kProducts, event_key);
        for (const auto& [label, type] : labels) {
            by_db[db_index].push_back(product_key(event_key, label, type));
        }
    }
    std::size_t found = 0;
    for (auto& [db_index, keys] : by_db) {
        // Unpinned loads read through the client lease cache: hot products
        // skip the wire. Pinned ones skip the cache (it holds latest values).
        auto values = impl.load_products_bulk(
            db_index, keys, snap ? &snap->pin(Role::kProducts, db_index) : nullptr);
        if (!values.ok()) throw Exception(values.status());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if ((*values)[i].has_value()) {
                cache.put(std::move(keys[i]), std::move(*(*values)[i]));
                ++found;
            }
        }
    }
    return found;
}

void ParallelEventProcessor::reader_loop(const DataSet& dataset, std::size_t reader_index,
                                         std::size_t num_readers, SharedQueue& queue) {
    auto& impl = *datastore_.impl();
    const std::string prefix(dataset.uuid().bytes());
    const std::size_t num_dbs = impl.database_count(Role::kEvents);

    // Reader r drains event databases r, r+R, r+2R, ...
    for (std::size_t db_index = reader_index; db_index < num_dbs; db_index += num_readers) {
        // Reader threads stream whole databases: batch class, so a saturating
        // PEP run cannot starve interactive users of the same service.
        const auto handle =
            impl.databases(Role::kEvents)[db_index].with_class(qos::kClassBatch);
        std::string after = prefix;
        while (true) {
            auto page = handle.list_keys(after, prefix, options_.input_batch_size);
            if (!page.ok()) throw Exception(page.status());
            if (page->empty()) break;
            after = page->back();

            auto cache = std::make_shared<ProductCache>();
            prefetch_products(impl, *page, prefetch_, nullptr, *cache);

            // Split the input batch into share batches for fine-grained
            // load balancing across pulling workers.
            for (std::size_t start = 0; start < page->size();
                 start += options_.share_batch_size) {
                const std::size_t end =
                    std::min(start + options_.share_batch_size, page->size());
                Batch batch;
                batch.event_keys.assign(page->begin() + static_cast<std::ptrdiff_t>(start),
                                        page->begin() + static_cast<std::ptrdiff_t>(end));
                batch.cache = cache;
                queue.push(std::move(batch));
            }
            if (page->size() < options_.input_batch_size) break;
        }
    }
    queue.producer_done();
}

ParallelEventProcessorStatistics ParallelEventProcessor::process(const DataSet& dataset,
                                                                 const EventCallback& fn) {
    ParallelEventProcessorStatistics stats;
    auto& impl = *datastore_.impl();
    const std::size_t num_dbs = impl.database_count(Role::kEvents);
    std::size_t num_readers = options_.num_readers == 0
                                  ? std::min<std::size_t>(num_dbs,
                                                          static_cast<std::size_t>(comm_.size()))
                                  : std::min<std::size_t>(options_.num_readers,
                                                          static_cast<std::size_t>(comm_.size()));
    if (num_readers == 0) num_readers = 1;

    auto queue = comm_.shared_object<SharedQueue>("hepnos-pep-queue");
    comm_.barrier();
    if (comm_.rank() == 0) queue->reset(num_readers);
    comm_.barrier();

    const double t_start = mpisim::Comm::wtime();

    // Reader ranks load event batches in the background while also working.
    std::thread loader;
    if (static_cast<std::size_t>(comm_.rank()) < num_readers) {
        const auto reader_index = static_cast<std::size_t>(comm_.rank());
        loader = std::thread([this, &dataset, reader_index, num_readers, &queue] {
            try {
                reader_loop(dataset, reader_index, num_readers, *queue);
            } catch (const std::exception& e) {
                HEP_LOG_ERROR("PEP reader %zu failed: %s", reader_index, e.what());
                queue->producer_done();
            }
        });
    }

    // Every rank (readers included) pulls share batches and processes them.
    const Uuid ds_uuid = dataset.uuid();
    Batch batch;
    while (true) {
        const double w0 = mpisim::Comm::wtime();
        const bool got = queue->pop(batch);
        stats.waiting_time += mpisim::Comm::wtime() - w0;
        if (!got) break;
        const double p0 = mpisim::Comm::wtime();
        for (const auto& key : batch.event_keys) {
            // Event key layout: <uuid:16><run:8><subrun:8><event:8>.
            const RunNumber run = decode_be64(std::string_view(key).substr(16));
            const SubRunNumber subrun = decode_be64(std::string_view(key).substr(24));
            const EventNumber event = decode_be64(std::string_view(key).substr(32));
            Event ev(datastore_.impl(), ds_uuid, run, subrun, event);
            fn(ev, *batch.cache);
            ++stats.local_events;
        }
        stats.processing_time += mpisim::Comm::wtime() - p0;
    }

    if (loader.joinable()) loader.join();
    stats.total_time = mpisim::Comm::wtime() - t_start;
    stats.total_events = comm_.reduce_sum(stats.local_events, 0);
    comm_.barrier();
    return stats;
}

}  // namespace hep::hepnos
