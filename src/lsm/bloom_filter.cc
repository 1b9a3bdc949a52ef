#include "src/lsm/bloom_filter.h"

#include <cstring>

#include "src/common/crc32.h"
#include "src/net/wire.h"

namespace tebis {
namespace {

constexpr uint32_t kMaxFilterProbes = 30;

uint32_t ProbesForBitsPerKey(uint32_t bits_per_key) {
  // k = ln(2) * bits/key minimizes the false-positive rate.
  uint32_t k = static_cast<uint32_t>(static_cast<double>(bits_per_key) * 0.69);
  if (k < 1) {
    k = 1;
  }
  if (k > kMaxFilterProbes) {
    k = kMaxFilterProbes;
  }
  return k;
}

}  // namespace

uint64_t FilterHash(Slice data, uint64_t seed) {
  // xmx-style mixer over 8-byte chunks; not cryptographic, just well-spread
  // and byte-order independent across the platforms we target
  // (little-endian, per wire.h).
  uint64_t h = seed ^ (data.size() * 0x9e37'79b9'7f4a'7c15ull);
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t chunk;
    memcpy(&chunk, p, 8);
    h ^= chunk * 0xff51'afd7'ed55'8ccdull;
    h = (h << 31) | (h >> 33);
    h *= 0xc4ce'b9fe'1a85'ec53ull;
    p += 8;
    n -= 8;
  }
  uint64_t tail = 0;
  if (n > 0) {
    memcpy(&tail, p, n);
    h ^= tail * 0xff51'afd7'ed55'8ccdull;
  }
  h ^= h >> 33;
  h *= 0xff51'afd7'ed55'8ccdull;
  h ^= h >> 33;
  h *= 0xc4ce'b9fe'1a85'ec53ull;
  h ^= h >> 33;
  return h;
}

BloomFilterBuilder::BloomFilterBuilder(uint32_t bits_per_key)
    : bits_per_key_(bits_per_key < 1 ? 1 : bits_per_key) {}

void BloomFilterBuilder::AddKey(Slice key, uint64_t key_hash) {
  key_hashes_.push_back(key_hash);
  char prefix[kFilterPrefixSize];
  MakePrefix(key, prefix, kFilterPrefixSize);
  // Keys arrive in sorted order (the compaction merge), so equal prefixes are
  // consecutive and one fingerprint per run suffices.
  if (!has_last_prefix_ || memcmp(prefix, last_prefix_, kFilterPrefixSize) != 0) {
    prefix_hashes_.push_back(FilterHash(Slice(prefix, kFilterPrefixSize), kPrefixDomainSeed));
    memcpy(last_prefix_, prefix, kFilterPrefixSize);
    has_last_prefix_ = true;
  }
}

std::string BloomFilterBuilder::Finish() const {
  if (key_hashes_.empty()) {
    return std::string();
  }
  const uint64_t entries = key_hashes_.size() + prefix_hashes_.size();
  uint64_t num_bits = entries * bits_per_key_;
  if (num_bits < 64) {
    num_bits = 64;
  }
  // Cap so num_bits always fits the u32 header field (4 Gbit is far past any
  // realistic level anyway).
  if (num_bits > 0xffff'fff0ull) {
    num_bits = 0xffff'fff0ull;
  }
  std::string bits((num_bits + 7) / 8, '\0');
  const uint32_t num_probes = ProbesForBitsPerKey(bits_per_key_);
  auto set_bits = [&](uint64_t h) {
    const uint64_t delta = (h >> 33) | 1;  // odd => full-period double hashing
    for (uint32_t i = 0; i < num_probes; ++i) {
      const uint64_t bit = h % num_bits;
      bits[bit / 8] |= static_cast<char>(1u << (bit % 8));
      h += delta;
    }
  };
  for (uint64_t h : key_hashes_) {
    set_bits(h);
  }
  for (uint64_t h : prefix_hashes_) {
    set_bits(h);
  }

  WireWriter w;
  w.U32(kFilterMagic).U8(kFilterVersion).U8(static_cast<uint8_t>(num_probes)).U16(0);
  w.U32(static_cast<uint32_t>(key_hashes_.size()));
  w.U32(static_cast<uint32_t>(num_bits));
  w.Raw(bits.data(), bits.size());
  std::string body = w.str();
  WireWriter footer;
  footer.U32(Crc32c(body.data(), body.size()));
  return body + footer.str();
}

Status BloomFilterView::Parse(Slice block, BloomFilterView* out, bool verify_crc) {
  if (block.size() < kFilterHeaderSize + kFilterTrailerSize) {
    return Status::Corruption("filter block too small");
  }
  const size_t body_size = block.size() - kFilterTrailerSize;
  if (verify_crc) {
    WireReader crc_reader(Slice(block.data() + body_size, kFilterTrailerSize));
    uint32_t stored_crc;
    TEBIS_RETURN_IF_ERROR(crc_reader.U32(&stored_crc));
    if (Crc32c(block.data(), body_size) != stored_crc) {
      return Status::Corruption("filter block crc mismatch");
    }
  }
  WireReader r(Slice(block.data(), body_size));
  uint32_t magic;
  uint8_t version, num_probes;
  uint16_t reserved;
  uint32_t num_keys, num_bits;
  TEBIS_RETURN_IF_ERROR(r.U32(&magic));
  TEBIS_RETURN_IF_ERROR(r.U8(&version));
  TEBIS_RETURN_IF_ERROR(r.U8(&num_probes));
  TEBIS_RETURN_IF_ERROR(r.U16(&reserved));
  TEBIS_RETURN_IF_ERROR(r.U32(&num_keys));
  TEBIS_RETURN_IF_ERROR(r.U32(&num_bits));
  if (magic != kFilterMagic) {
    return Status::Corruption("bad filter magic");
  }
  if (version != kFilterVersion) {
    return Status::InvalidArgument("unsupported filter version " + std::to_string(version));
  }
  if (num_probes < 1 || num_probes > kMaxFilterProbes) {
    return Status::Corruption("filter probe count out of range");
  }
  if (num_bits == 0 || r.remaining() != (static_cast<size_t>(num_bits) + 7) / 8) {
    return Status::Corruption("filter bit-array size mismatch");
  }
  out->bits_ = reinterpret_cast<const uint8_t*>(block.data()) + (body_size - r.remaining());
  out->num_bits_ = num_bits;
  out->num_keys_ = num_keys;
  out->num_probes_ = num_probes;
  return Status::Ok();
}

bool BloomFilterView::MayContainHash(uint64_t h) const {
  const uint64_t delta = (h >> 33) | 1;
  for (uint32_t i = 0; i < num_probes_; ++i) {
    const uint64_t bit = h % num_bits_;
    if ((bits_[bit / 8] & (1u << (bit % 8))) == 0) {
      return false;
    }
    h += delta;
  }
  return true;
}

bool BloomFilterView::MayContainPrefix(Slice key_or_prefix) const {
  char prefix[kFilterPrefixSize];
  MakePrefix(key_or_prefix, prefix, kFilterPrefixSize);
  return MayContainHash(FilterHash(Slice(prefix, kFilterPrefixSize), kPrefixDomainSeed));
}

}  // namespace tebis
