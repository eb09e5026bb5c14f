// The HEPnOS-based candidate-selection application (paper §IV-B).
//
// "Each rank uses a ParallelEventProcessor to manage the work of fetching
//  events from the HEPnOS service, and to pass the data to an event
//  processing routine encapsulated by a C++ lambda expression. In this
//  routine, the data are deserialized to recover the NOvA classes [...] The
//  lambda expression then returns the IDs of the selected slices. An MPI
//  reduction is then used to send those slice IDs to rank 0."
#pragma once

#include <string>

#include "hepnos/hepnos.hpp"
#include "mpisim/comm.hpp"
#include "nova/selection.hpp"
#include "workflow/traditional.hpp"  // WorkflowResult

namespace hep::workflow {

struct HepnosAppOptions {
    std::size_t num_ranks = 4;
    nova::SelectionCuts cuts{};
    hepnos::ParallelEventProcessorOptions pep{};
    bool prefetch_products = true;  // use the PEP product-prefetch path
    /// Write the selection outcome back as a per-event product (paper §II-A:
    /// applications "load products from HEPnOS ..., performing some analysis,
    /// and writing new products back into HEPnOS"). Label: "selected".
    /// Type: std::vector<std::uint32_t> of accepted slice indices; only
    /// events with at least one accepted slice get the product.
    bool store_results = false;

    /// Server-side selection pushdown (src/query): instead of the PEP
    /// pulling every slices product to the client, each rank compiles the
    /// cuts into a FilterProgram, ships it to the servers, and receives only
    /// the accepted slice IDs. Produces bit-identical accepted-ID sets to
    /// the PEP path; store_results is honored via server-side write-back.
    /// Requires a service deployed with the Bedrock "query" knob.
    bool pushdown = false;
    std::uint64_t pushdown_page_entries = 512;  // accepted entries per page
    std::uint64_t pushdown_scan_chunk = 2048;   // keys per backend scan chunk

    /// Ask for the columnar (vectorized, column-pruned) scan explicitly.
    /// run_query already turns this on when the connection advertises the
    /// "columnar" knob; against older services the client falls back to the
    /// blob scan, so results are identical either way.
    bool columnar = false;
};

/// The label the write-back path stores accepted slice indices under.
inline constexpr const char* kSelectedLabel = "selected";

/// Run the selection over an already-ingested dataset. Collective over a
/// fresh communicator of options.num_ranks ranks; the aggregated result
/// (with IDs reduced to rank 0, then sorted) is returned.
WorkflowResult run_hepnos_selection(hepnos::DataStore store, const std::string& dataset_path,
                                    const HepnosAppOptions& options);

}  // namespace hep::workflow
