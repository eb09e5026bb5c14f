#include "yokan/lsm/bloom.hpp"

#include <cstring>

namespace hep::yokan::lsm {

void BloomFilter::append_to(std::string& out) const {
    const std::size_t at = out.size();
    out.resize(at + encoded_size());
    const std::uint64_t n = bits_.size();
    std::memcpy(out.data() + at, &n, 8);
    std::memcpy(out.data() + at + 8, bits_.data(), bits_.size() * 8);
}

BloomFilter BloomFilter::decode(std::string_view bytes) {
    BloomFilter f(0);
    if (bytes.size() < 8) return f;
    std::uint64_t n = 0;
    std::memcpy(&n, bytes.data(), 8);
    if (bytes.size() < 8 + n * 8) return f;
    f.bits_.resize(n);
    std::memcpy(f.bits_.data(), bytes.data() + 8, n * 8);
    f.set_divisor();
    return f;
}

}  // namespace hep::yokan::lsm
