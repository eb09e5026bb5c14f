// The benchmark's correctness reference: the NOvA cuts applied directly to
// the generator's events, as the paper cross-checks the HEPnOS selection
// against the file-based one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "helpers.hpp"
#include "nova/generator.hpp"
#include "nova/selection.hpp"

namespace perfbench {

struct Reference {
    std::uint64_t events = 0;
    std::uint64_t slices = 0;
    std::uint64_t accepted = 0;
    std::uint64_t fnv = 0;  // fnv1a64 of the sorted accepted slice IDs
};

inline Reference reference_selection(const hep::nova::Generator& gen,
                                     const hep::nova::SelectionCuts& cuts = {}) {
    Reference ref;
    hep::nova::Selector selector(cuts);
    std::vector<std::uint64_t> ids;
    for (std::uint64_t f = 0; f < gen.config().num_files; ++f) {
        for (const auto& rec : gen.make_file_events(f)) {
            ++ref.events;
            ref.slices += rec.slices.size();
            auto acc = selector.selected_ids(rec);
            ids.insert(ids.end(), acc.begin(), acc.end());
        }
    }
    std::sort(ids.begin(), ids.end());
    ref.accepted = ids.size();
    ref.fnv = fnv1a64(ids);
    return ref;
}

}  // namespace perfbench
