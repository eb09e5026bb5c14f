#include "cache/provider.hpp"

#include <chrono>

#include "qos/context.hpp"
#include "yokan/protocol.hpp"

namespace hep::cache {

namespace {
/// Owner-qualified table key. The owner identity is printable (addresses,
/// provider ids, db names), so a 0x1f separator cannot collide; the product
/// key that follows may be arbitrary binary.
std::string qualified_key(const std::string& db_id, std::string_view key) {
    std::string out = db_id;
    out += '\x1f';
    out += key;
    return out;
}
}  // namespace

Provider::Provider(margo::Engine& engine, rpc::ProviderId provider_id,
                   const json::Value& config, std::shared_ptr<abt::Pool> pool)
    : margo::Provider(engine, provider_id, std::move(pool)),
      table_(std::make_unique<LeaseCache>(CacheOptions::from_json(config))) {
    register_rpcs();
}

Result<proto::GetResp> Provider::handle_get(const proto::GetReq& req) {
    if (req.owner_server.empty() || req.db.empty()) {
        return Status::InvalidArgument("cache_get needs owner_server and db");
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::string db_id = db_epoch_key(req.owner_server, req.owner_provider, req.db);
    const std::string qual = qualified_key(db_id, req.key);

    auto found = table_->lookup(qual);
    if (found.state == LeaseCache::LookupState::kHit) {
        table_->hit_latency().record(LeaseCache::ns_since(t0));
        return proto::GetResp{found.value, found.seq, /*hit=*/true};
    }
    // Fills and revalidations self-classify as batch under the "cache"
    // tenant: the owner's admission control may slow or shed them, never the
    // other way around.
    const qos::QosTag fill_tag{std::string(kCacheTenant), qos::kClassBatch};
    if (found.state == LeaseCache::LookupState::kExpired) {
        // Lease ran out: one cheap seq probe renews the lease when the owner
        // has not mutated since the fill — no value transfer. The ticket is
        // captured BEFORE the probe: if a failover promotion lands in
        // between, the answer may have come from the demoted primary and the
        // epoch-checked renew refuses it.
        auto renew_ticket = table_->ticket(db_id, "");
        auto seq = engine_.forward<yokan::proto::CountReq, yokan::proto::SeqResp>(
            req.owner_server, "yokan_seq", req.owner_provider, {req.db},
            std::chrono::milliseconds{0}, fill_tag);
        if (seq.ok() && seq->seq == found.seq && table_->renew(qual, found.seq, renew_ticket)) {
            table_->hit_latency().record(LeaseCache::ns_since(t0));
            return proto::GetResp{found.value, found.seq, /*hit=*/true};
        }
    }
    // Miss (or the owner moved on): fill from the owning provider. The
    // ticket is taken before the read so a concurrent invalidation arriving
    // mid-fill still kills the entry.
    auto ticket = table_->ticket(db_id, "");
    auto got = engine_.forward<yokan::proto::KeyReq, yokan::proto::GetSeqResp>(
        req.owner_server, "yokan_get_vs", req.owner_provider, {req.db, req.key},
        std::chrono::milliseconds{0}, fill_tag);
    if (!got.ok()) return got.status();  // NotFound is not cached (no negative entries)
    table_->fill(qual, got->value, got->seq, ticket, got->vseq, got->vepoch);
    table_->miss_latency().record(LeaseCache::ns_since(t0));
    return proto::GetResp{got->value, got->seq, /*hit=*/false};
}

Result<proto::Ack> Provider::handle_invalidate(const proto::InvalidateReq& req) {
    if (req.owner_server.empty() || req.db.empty()) {
        return Status::InvalidArgument("cache_invalidate needs owner_server and db");
    }
    const std::string db_id = db_epoch_key(req.owner_server, req.owner_provider, req.db);
    proto::Ack ack;
    if (req.keys.empty()) {
        table_->bump_db(db_id);
        ack.dropped = 1;
        return ack;
    }
    for (const auto& key : req.keys) {
        table_->erase(qualified_key(db_id, key));
        ++ack.dropped;
    }
    return ack;
}

void Provider::register_rpcs() {
    engine_.define<proto::GetReq, proto::GetResp>(
        "cache_get", id_,
        [this](const proto::GetReq& req) { return handle_get(req); }, pool_);
    engine_.define<proto::InvalidateReq, proto::Ack>(
        "cache_invalidate", id_,
        [this](const proto::InvalidateReq& req) { return handle_invalidate(req); }, pool_);
}

}  // namespace hep::cache
