#include "hepnos/prefetcher.hpp"

namespace hep::hepnos {

void Prefetcher::visit_container(const Uuid& dataset, std::string_view parent_key,
                                 const Visitor& fn) const {
    auto& impl = *datastore_.impl();
    // The prefetcher reads ahead of the analysis loop: demote its scans and
    // bulk loads to batch class so they never starve interactive requests.
    auto events_db = impl.locate(Role::kEvents, parent_key).with_class(qos::kClassBatch);
    if (snap_) {
        // Pinned iteration: the event-key pages resolve at the snapshot too,
        // so an event ingested after the capture is neither listed nor read.
        events_db = events_db.with_snapshot(
            snap_->pin(Role::kEvents, impl.locate_index(Role::kEvents, parent_key)));
    }

    std::string after(parent_key);
    while (true) {
        auto page = events_db.list_keys(after, parent_key, page_size_);
        if (!page.ok()) throw Exception(page.status());
        if (page->empty()) break;
        after = page->back();

        // One batch-class get_multi per product database for everything
        // this page needs.
        ProductCache cache;
        prefetched_ += prefetch_products(impl, *page, labels_, snap_ ? &*snap_ : nullptr, cache);

        for (const auto& key : *page) {
            const RunNumber run = decode_be64(std::string_view(key).substr(16));
            const SubRunNumber subrun = decode_be64(std::string_view(key).substr(24));
            const EventNumber event = decode_be64(std::string_view(key).substr(32));
            Event ev(datastore_.impl(), dataset, run, subrun, event);
            fn(ev, cache);
            ++visited_;
        }
        if (page->size() < page_size_) break;
    }
}

void Prefetcher::for_each_event(const SubRun& subrun, const Visitor& fn) const {
    visit_container(Uuid::from_bytes(std::string_view(subrun.container_key()).substr(0, 16)),
                    subrun.container_key(), fn);
}

void Prefetcher::for_each_event(const Run& run, const Visitor& fn) const {
    for (const auto& subrun : run) {
        for_each_event(subrun, fn);
    }
}

void Prefetcher::for_each_event(const DataSet& dataset, const Visitor& fn) const {
    for (const auto& run : dataset) {
        for_each_event(run, fn);
    }
}

}  // namespace hep::hepnos
