// In-memory backend over std::map (paper's "std::map backend", §IV-D).
//
// Values are stored as owned hep::BufferViews: put_stamped() adopts the
// caller's refcounted bytes without copying (borrowed bytes are copied once),
// and get_stamped() hands the stored buffer back by bumping a refcount. Since buffers are immutable after publish, an
// overwrite simply swaps the view — readers holding the old view keep valid
// bytes.
//
// Every slot carries its MVCC Stamp (commit seq + ingest epoch); only the
// newest version of a key is retained, so a snapshot read of an overwritten
// or erased key is conservatively NotFound (exact for HEPnOS's write-once
// product/event keys, which is what snapshot readers scan).
#pragma once

#include <atomic>
#include <map>
#include <shared_mutex>

#include "yokan/backend.hpp"

namespace hep::yokan {

class MapBackend final : public Database {
  public:
    MapBackend() = default;

    Status put_stamped(std::string_view key, hep::BufferView value, bool overwrite,
                       std::uint32_t epoch) override;
    Result<std::pair<hep::BufferView, Stamp>> get_stamped(std::string_view key) override;
    Status scan_stamped(std::string_view after, std::string_view prefix, bool with_values,
                        const StampedScanFn& fn) override;
    Status erase(std::string_view key) override;
    std::uint64_t size() const override;
    Status flush() override { return Status::OK(); }
    std::string_view type() const noexcept override { return "map"; }
    BackendStats stats() const override;

  private:
    struct Slot {
        hep::BufferView value;
        Stamp stamp;
    };

    mutable std::shared_mutex mutex_;
    std::map<std::string, Slot, std::less<>> map_;
    // Relaxed atomics: readers count under a shared lock, concurrently.
    std::atomic<std::uint64_t> puts_{0}, gets_{0}, scans_{0}, erases_{0};
};

}  // namespace hep::yokan
