// Partitioning of the key space into non-overlapping ranges ("regions",
// paper §3.1) and their replica placement. Clients cache the map and route
// every operation to the region's primary; the map only changes on failures
// or load balancing, bumping its version.
#ifndef TEBIS_CLUSTER_REGION_MAP_H_
#define TEBIS_CLUSTER_REGION_MAP_H_

#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/net/wire.h"

namespace tebis {

struct RegionInfo {
  uint32_t region_id = 0;
  // [start_key, end_key); empty end_key means +infinity. region 0 starts at
  // the empty string.
  std::string start_key;
  std::string end_key;
  std::string primary;
  std::vector<std::string> backups;
  // Replication epoch (configuration generation, §3.5): bumped on every
  // promotion/attach/detach; stamped into replication traffic so stale
  // primaries are fenced.
  uint64_t epoch = 1;
  // Backups the master currently allows to serve reads. A lease is
  // revoked before a backup is detached or enters full-sync, and re-granted
  // only once the replica is caught up, so clients never pick a degraded
  // replica. Subset of `backups`.
  std::vector<std::string> read_leases;

  bool Contains(Slice key) const {
    if (Slice(start_key).Compare(key) > 0) {
      return false;
    }
    return end_key.empty() || key.Compare(Slice(end_key)) < 0;
  }

  bool HasReadLease(const std::string& server) const {
    for (const auto& lease : read_leases) {
      if (lease == server) {
        return true;
      }
    }
    return false;
  }
};

class RegionMap {
 public:
  RegionMap() = default;

  // Uniform split of a zero-padded decimal key space: keys look like
  // `<prefix><D digits>`, e.g. the YCSB "user0000001234". Region boundaries
  // are placed every key_space/num_regions. Replicas are placed round-robin:
  // region i has primary servers[i % N] and its backups on the following
  // servers — so every server is simultaneously a primary for some regions
  // and a backup for others, as in the paper's setup.
  static StatusOr<RegionMap> CreateUniform(uint32_t num_regions, const std::string& key_prefix,
                                           int digits, uint64_t key_space,
                                           const std::vector<std::string>& servers,
                                           int replication_factor);

  const RegionInfo* FindRegion(Slice key) const;
  const RegionInfo* FindById(uint32_t region_id) const;
  RegionInfo* MutableFindById(uint32_t region_id);

  uint64_t version() const { return version_; }
  void BumpVersion() { version_++; }
  const std::vector<RegionInfo>& regions() const { return regions_; }

  // Regions where `server` is primary / backup.
  std::vector<uint32_t> PrimariesOf(const std::string& server) const;
  std::vector<uint32_t> BackupsOf(const std::string& server) const;

  std::string Serialize() const;
  static StatusOr<RegionMap> Deserialize(Slice data);

 private:
  uint64_t version_ = 1;
  std::vector<RegionInfo> regions_;  // sorted by start_key
};

}  // namespace tebis

#endif  // TEBIS_CLUSTER_REGION_MAP_H_
