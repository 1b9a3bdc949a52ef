// Checkpoint manifest: everything needed to rebuild a KvStore from its device
// after a restart — the level trees, the flushed value-log segments, and the
// L0 replay boundary. Written into a dedicated segment by KvStore::Checkpoint
// and read back by KvStore::Recover. The in-memory tail and anything after
// the last flush are NOT covered: in Tebis's durability model that data lives
// in the replicas' RDMA buffers and comes back via promotion (§3.5), not
// local recovery.
#ifndef TEBIS_LSM_MANIFEST_H_
#define TEBIS_LSM_MANIFEST_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/btree_builder.h"

namespace tebis {

inline constexpr uint32_t kManifestMagic = 0x5442'4D46;  // "TBMF"
// Per level: the tree descriptor, the bloom filter block and one
// {crc, length} checksum per segment — the level's one integrity record,
// which recovery checks the level's bytes against. The version also names
// the leaf layout the levels were built with: leaves pack a 48-bit offset,
// the key size and a tombstone flag into one word and hold keys of up to 14
// bytes whole (format.h). An older leaf would read back with wrong offsets
// and sizes, and a v6 image still carries a per-level CRC word between the
// segment list and the filter, so Decode accepts v7 only.
inline constexpr uint32_t kManifestVersion = 7;
inline constexpr uint32_t kMinManifestVersion = 7;

struct Manifest {
  // levels[0] unused, mirroring KvStore.
  std::vector<BuiltTree> levels;
  std::vector<SegmentId> log_flushed_segments;
  // Index into log_flushed_segments: records from here on are not yet in the
  // levels and must be replayed into L0.
  uint64_t l0_replay_from = 0;

  std::string Encode() const;
  // kCorruption for a damaged image or a level whose checksum count is not
  // its segment count.
  static StatusOr<Manifest> Decode(Slice data);
};

}  // namespace tebis

#endif  // TEBIS_LSM_MANIFEST_H_
