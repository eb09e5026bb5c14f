#include "yokan/client.hpp"

namespace hep::yokan {

using namespace proto;

Status DatabaseHandle::put(std::string_view key, hep::Buffer value, bool overwrite,
                           std::uint32_t epoch) const {
    auto r = with_failover<Ack>(false, [&](const std::string& server, rpc::ProviderId provider,
                                           const std::string& db) -> Result<Ack> {
        return engine_->forward<PutViewReq, Ack>(
            server, "yokan_put_owned", provider,
            PutViewReq{db, std::string(key), value, overwrite, epoch}, deadline(), point_tag());
    });
    return r.status();
}

Result<std::string> DatabaseHandle::get(std::string_view key) const {
    auto r = get_view(key);
    if (!r.ok()) return r.status();
    hep::count_buffer_copy(r->size());
    return std::string(r->sv());
}

Result<hep::BufferView> DatabaseHandle::get_view(std::string_view key) const {
    auto r = with_failover<GetResp>(true, [&](const std::string& server, rpc::ProviderId provider,
                                              const std::string& db) -> Result<GetResp> {
        return engine_->forward<KeyReq, GetResp>(server, "yokan_get", provider,
                                                 KeyReq{db, std::string(key), pin_}, deadline(),
                                                 point_tag());
    });
    if (!r.ok()) return r.status();
    return std::move(r->value);
}

Result<proto::GetSeqResp> DatabaseHandle::get_view_vs(std::string_view key) const {
    return with_failover<GetSeqResp>(
        true, [&](const std::string& server, rpc::ProviderId provider,
                  const std::string& db) -> Result<GetSeqResp> {
            return engine_->forward<KeyReq, GetSeqResp>(server, "yokan_get_vs", provider,
                                                        KeyReq{db, std::string(key), pin_}, deadline(),
                                                        point_tag());
        });
}

Result<std::uint64_t> DatabaseHandle::mutation_seq() const {
    auto r = with_failover<SeqResp>(
        true, [&](const std::string& server, rpc::ProviderId provider,
                  const std::string& db) -> Result<SeqResp> {
            return engine_->forward<CountReq, SeqResp>(server, "yokan_seq", provider,
                                                       CountReq{db}, deadline(), point_tag());
        });
    if (!r.ok()) return r.status();
    return r->seq;
}

Result<bool> DatabaseHandle::exists(std::string_view key) const {
    auto r = with_failover<ExistsResp>(
        true, [&](const std::string& server, rpc::ProviderId provider,
                  const std::string& db) -> Result<ExistsResp> {
            return engine_->forward<KeyReq, ExistsResp>(server, "yokan_exists", provider,
                                                        KeyReq{db, std::string(key), pin_}, deadline(),
                                                        point_tag());
        });
    if (!r.ok()) return r.status();
    return r->exists;
}

Result<std::uint64_t> DatabaseHandle::length(std::string_view key) const {
    auto r = with_failover<LengthResp>(
        true, [&](const std::string& server, rpc::ProviderId provider,
                  const std::string& db) -> Result<LengthResp> {
            return engine_->forward<KeyReq, LengthResp>(server, "yokan_length", provider,
                                                        KeyReq{db, std::string(key), pin_}, deadline(),
                                                        point_tag());
        });
    if (!r.ok()) return r.status();
    return r->length;
}

Status DatabaseHandle::erase(std::string_view key) const {
    auto r = with_failover<Ack>(false, [&](const std::string& server, rpc::ProviderId provider,
                                           const std::string& db) -> Result<Ack> {
        return engine_->forward<KeyReq, Ack>(server, "yokan_erase", provider,
                                             KeyReq{db, std::string(key)}, deadline(),
                                             point_tag());  // erase ignores the pin
    });
    return r.status();
}

Result<std::vector<std::string>> DatabaseHandle::list_keys(std::string_view after,
                                                           std::string_view prefix,
                                                           std::size_t max) const {
    auto r = with_failover<ListKeysResp>(
        true, [&](const std::string& server, rpc::ProviderId provider,
                  const std::string& db) -> Result<ListKeysResp> {
            ListReq req{db, std::string(after), std::string(prefix), max, false, pin_};
            return engine_->forward<ListReq, ListKeysResp>(server, "yokan_list_keys", provider,
                                                           req, deadline(), scan_tag());
        });
    if (!r.ok()) return r.status();
    return std::move(r->keys);
}

Result<std::vector<KeyValue>> DatabaseHandle::list_keyvals(std::string_view after,
                                                           std::string_view prefix,
                                                           std::size_t max) const {
    auto r = with_failover<ListKeyValsResp>(
        true, [&](const std::string& server, rpc::ProviderId provider,
                  const std::string& db) -> Result<ListKeyValsResp> {
            ListReq req{db, std::string(after), std::string(prefix), max, true, pin_};
            return engine_->forward<ListReq, ListKeyValsResp>(server, "yokan_list_keyvals",
                                                              provider, req, deadline(),
                                                              scan_tag());
        });
    if (!r.ok()) return r.status();
    return std::move(r->items);
}

Result<proto::ScanResp> DatabaseHandle::scan_page(std::string_view after,
                                                  std::string_view prefix, std::size_t max,
                                                  bool with_values) const {
    return with_failover<ScanResp>(
        true, [&](const std::string& server, rpc::ProviderId provider,
                  const std::string& db) -> Result<ScanResp> {
            ListReq req{db, std::string(after), std::string(prefix), max, with_values, pin_};
            return engine_->forward<ListReq, ScanResp>(server, "yokan_scan", provider, req,
                                                       deadline(), scan_tag());
        });
}

Result<std::uint64_t> DatabaseHandle::count() const {
    auto r = with_failover<CountResp>(
        true, [&](const std::string& server, rpc::ProviderId provider,
                  const std::string& db) -> Result<CountResp> {
            return engine_->forward<CountReq, CountResp>(server, "yokan_count", provider,
                                                         CountReq{db}, deadline(), scan_tag());
        });
    if (!r.ok()) return r.status();
    return r->count;
}

Result<std::uint64_t> DatabaseHandle::erase_multi(const std::vector<std::string>& keys) const {
    auto r = with_failover<EraseMultiResp>(
        false, [&](const std::string& server, rpc::ProviderId provider,
                   const std::string& db) -> Result<EraseMultiResp> {
            return engine_->forward<EraseMultiReq, EraseMultiResp>(server, "yokan_erase_multi",
                                                                   provider, {db, keys},
                                                                   deadline(), bulk_tag());
        });
    if (!r.ok()) return r.status();
    return r->erased;
}

Result<std::uint64_t> DatabaseHandle::put_multi(const std::vector<BatchItem>& items,
                                                bool overwrite, std::uint32_t epoch) const {
    hep::BufferChain entries = pack_items(items);
    auto r = with_failover<PutMultiResp>(
        false, [&](const std::string& server, rpc::ProviderId provider,
                   const std::string& db) -> Result<PutMultiResp> {
            return engine_->forward<PutPackedReq, PutMultiResp>(
                server, "yokan_put_packed", provider,
                PutPackedReq{db, items.size(), overwrite, epoch, entries}, deadline(),
                bulk_tag());
        });
    if (!r.ok()) return r.status();
    return r->stored;
}

Result<std::vector<std::optional<hep::BufferView>>> DatabaseHandle::get_multi_views(
    const std::vector<std::string>& keys, std::size_t buffer_hint,
    std::uint64_t* seq_out) const {
    // A value overwritten with a larger one between two attempts makes the
    // reply outgrow even the size the last attempt reported: retries carry
    // 1/8 headroom over it, and a few are allowed.
    constexpr int kMaxAttempts = 4;
    hep::Buffer buffer = hep::Buffer::allocate(buffer_hint);
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
        rpc::BulkRef bulk = engine_->endpoint().expose(buffer.mutable_data(), buffer.size());
        auto r = with_failover<GetMultiResp>(
            true, [&](const std::string& server, rpc::ProviderId provider,
                      const std::string& db) -> Result<GetMultiResp> {
                return engine_->forward<GetMultiReq, GetMultiResp>(
                    server, "yokan_get_multi", provider, GetMultiReq{db, keys, bulk, pin_},
                    deadline(), bulk_tag());
            });
        engine_->endpoint().unexpose(bulk);
        if (!r.ok()) return r.status();
        const GetMultiResp& resp = *r;
        if (resp.sizes.size() != keys.size()) {
            return Status::Internal("get_multi size vector mismatch");
        }
        if (!resp.written) {
            // Buffer was too small; retry with the reported size.
            hep::buffer_counters().undersized_receives.fetch_add(1, std::memory_order_relaxed);
            buffer = hep::Buffer::allocate(resp.needed + resp.needed / 8);
            continue;
        }
        if (seq_out) *seq_out = resp.seq;
        // Carve refcounted views out of the single receive buffer.
        std::vector<std::optional<hep::BufferView>> out;
        out.reserve(keys.size());
        std::size_t offset = 0;
        for (std::uint32_t size : resp.sizes) {
            if (size == kMissing) {
                out.emplace_back(std::nullopt);
            } else {
                out.emplace_back(buffer.view(offset, size));
                offset += size;
            }
        }
        return out;
    }
    return Status::Internal("get_multi reply outgrew every receive buffer");
}

}  // namespace hep::yokan
