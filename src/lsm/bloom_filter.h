// Per-level bloom filter blocks. A filter is built once, during the
// compaction that produces a level's B+ tree, and carries two fingerprint
// domains in one bit array:
//
//   * full-key fingerprints — consulted by point lookups before descending
//     the level's on-device tree;
//   * kFilterPrefixSize-prefix fingerprints — consulted by prefix scans, which
//     may skip a level entirely when no stored key shares the seek prefix.
//
// The serialized block is immutable and self-validating (magic, version,
// bounds, trailing CRC32C), so the primary's exact bytes can be shipped to
// Send-Index backups and installed verbatim: both replicas answer every
// membership probe identically.
//
// Wire format:
//   [u32 magic][u8 version][u8 num_probes][u16 reserved]
//   [u32 num_keys][u32 num_bits][bit bytes: ceil(num_bits/8)]
//   [u32 crc32c over everything preceding]
#ifndef TEBIS_LSM_BLOOM_FILTER_H_
#define TEBIS_LSM_BLOOM_FILTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/lsm/format.h"

namespace tebis {

inline constexpr uint32_t kFilterMagic = 0x5442'464c;  // "TBFL"
inline constexpr uint8_t kFilterVersion = 1;
inline constexpr uint32_t kDefaultFilterBitsPerKey = 10;
inline constexpr size_t kFilterHeaderSize = 4 + 1 + 1 + 2 + 4 + 4;
inline constexpr size_t kFilterTrailerSize = 4;  // crc32c

// Length of the prefix-scan fingerprints. It is independent of the leaf's
// kPrefixSize, which is sized to hold short keys whole: a 12-byte prefix of
// `user%010d` keys groups the hundred keys that differ only in their last two
// digits, so the prefix domain costs one fingerprint per hundred keys rather
// than one per key.
inline constexpr size_t kFilterPrefixSize = 12;

// Hash-domain seeds: the same bytes must never fingerprint identically as a
// full key and as a prefix.
inline constexpr uint64_t kKeyDomainSeed = 0x7465'6269'732d'6b65ull;     // "tebis-ke"
inline constexpr uint64_t kPrefixDomainSeed = 0x7465'6269'732d'7078ull;  // "tebis-px"

// 64-bit mixing hash over arbitrary bytes; `seed` separates the key and
// prefix fingerprint domains within one bit array.
uint64_t FilterHash(Slice data, uint64_t seed);

// The engine's one key hash: the full-key filter fingerprint, also the source
// of the leaf key tag (format.h KeyTag). Point lookups compute it once and
// reuse it for every level's filter probe and leaf search.
inline uint64_t KeyHash(Slice key) { return FilterHash(key, kKeyDomainSeed); }

// Accumulates fingerprints during a compaction merge (keys arrive in sorted
// order, so consecutive duplicate prefixes collapse) and serializes the block
// once the entry count is known.
class BloomFilterBuilder {
 public:
  explicit BloomFilterBuilder(uint32_t bits_per_key = kDefaultFilterBitsPerKey);

  // Adds the full-key fingerprint plus the padded kFilterPrefixSize-prefix
  // fingerprint of `key`. `key_hash` is KeyHash(key).
  void AddKey(Slice key, uint64_t key_hash);
  void AddKey(Slice key) { AddKey(key, KeyHash(key)); }

  size_t num_keys() const { return key_hashes_.size(); }

  // Serializes the filter block; empty string when no keys were added.
  std::string Finish() const;

 private:
  const uint32_t bits_per_key_;
  std::vector<uint64_t> key_hashes_;
  std::vector<uint64_t> prefix_hashes_;
  char last_prefix_[kFilterPrefixSize];
  bool has_last_prefix_ = false;
};

// Zero-copy probe view over a serialized filter block. Parse() validates the
// whole block (it is also the fuzzer's decode target); the view borrows the
// block's bytes, which must outlive it. `verify_crc` exists for hot read
// paths: a block is CRC-verified once when it enters the system (manifest
// decode, wire receive), so per-lookup parses skip the full-body checksum.
class BloomFilterView {
 public:
  static Status Parse(Slice block, BloomFilterView* out, bool verify_crc = true);

  // False means definitely absent; true means "maybe".
  bool MayContain(Slice key) const { return MayContainHash(KeyHash(key)); }

  // Probes one fingerprint: a KeyHash for a point lookup that already has it.
  bool MayContainHash(uint64_t h) const;

  // Probes the padded kFilterPrefixSize prefix of `key_or_prefix`. Only sound
  // when the caller's query fixes at least the first kFilterPrefixSize bytes
  // of every acceptable key (shorter prefixes cannot be checked — callers
  // must treat them as "maybe").
  bool MayContainPrefix(Slice key_or_prefix) const;

  uint32_t num_probes() const { return num_probes_; }
  uint32_t num_bits() const { return num_bits_; }
  uint32_t num_keys() const { return num_keys_; }

 private:
  const uint8_t* bits_ = nullptr;
  uint32_t num_bits_ = 0;
  uint32_t num_keys_ = 0;
  uint32_t num_probes_ = 0;
};

}  // namespace tebis

#endif  // TEBIS_LSM_BLOOM_FILTER_H_
