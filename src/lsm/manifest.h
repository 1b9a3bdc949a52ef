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
// Per level: the tree descriptor, a content CRC (torn index-segment
// detection on recovery), the bloom filter block and per-segment
// {crc, length} checksums. The version also names the leaf layout the levels
// were built with: v6 leaves pack a 48-bit offset, the key size and a
// tombstone flag into one word and hold keys of up to 14 bytes whole
// (format.h). An older leaf would read back with wrong offsets and sizes, so
// Decode accepts v6 only.
inline constexpr uint32_t kManifestVersion = 6;
inline constexpr uint32_t kMinManifestVersion = 6;

struct Manifest {
  // levels[0] unused, mirroring KvStore.
  std::vector<BuiltTree> levels;
  // Chained CRC32C over each level's segments in order (0 for empty levels).
  // Recovery re-reads the segments and compares: a mismatch means a torn or
  // lost index write, and the level must be rebuilt from the value log.
  std::vector<uint32_t> level_crcs;
  std::vector<SegmentId> log_flushed_segments;
  // Index into log_flushed_segments: records from here on are not yet in the
  // levels and must be replayed into L0.
  uint64_t l0_replay_from = 0;

  std::string Encode() const;
  static StatusOr<Manifest> Decode(Slice data);
};

}  // namespace tebis

#endif  // TEBIS_LSM_MANIFEST_H_
