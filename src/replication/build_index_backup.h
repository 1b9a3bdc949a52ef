// The Build-Index baseline backup (paper §4, "Build-Index"): the value log is
// replicated exactly like Send-Index, but the backup maintains its own L0 and
// runs its own compactions — re-inserting every flushed record into a full
// Kreon engine. This is the CPU/read-I/O cost Send-Index eliminates.
#ifndef TEBIS_REPLICATION_BUILD_INDEX_BACKUP_H_
#define TEBIS_REPLICATION_BUILD_INDEX_BACKUP_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lsm/kv_store.h"
#include "src/net/fabric.h"
#include "src/replication/backup_region.h"
#include "src/replication/segment_map.h"
#include "src/storage/block_device.h"

namespace tebis {

class BuildIndexBackupRegion final : public BackupRegion {
 public:
  static StatusOr<std::unique_ptr<BuildIndexBackupRegion>> Create(
      BlockDevice* device, const KvStoreOptions& options,
      std::shared_ptr<RegisteredBuffer> rdma_buffer);

  // Graceful demotion: wraps a former primary's complete engine as a backup
  // of the promoted node. `log_map` maps the new primary's segments to this
  // node's; `primary_flush_order` lists them in flush order.
  static StatusOr<std::unique_ptr<BuildIndexBackupRegion>> CreateFromStore(
      BlockDevice* device, const KvStoreOptions& options,
      std::shared_ptr<RegisteredBuffer> rdma_buffer, std::unique_ptr<KvStore> store,
      SegmentMap log_map, std::vector<SegmentId> primary_flush_order);

  BuildIndexBackupRegion(const BuildIndexBackupRegion&) = delete;
  BuildIndexBackupRegion& operator=(const BuildIndexBackupRegion&) = delete;

  // The engine's own lookup: it already holds every flushed record.
  StatusOr<std::string> DebugGet(Slice key) override { return store_->Get(key); }

  KvStore* store() { return store_.get(); }
  ValueLog* value_log() override { return store_->value_log(); }
  uint64_t l0_memory_bytes() const override { return store_->l0_memory_bytes(); }

  // --- integrity: nothing shipped to scrub or repair (see BackupRegion) ---
  StatusOr<KvStore::ScrubReport> Scrub(const KvStore::ScrubOptions&) override {
    return Status::FailedPrecondition("Build-Index backup has no shipped index to scrub");
  }
  std::vector<int> QuarantinedLevels() const override { return {}; }
  Status RepairQuarantinedLevels(const KvStore::SegmentFetcher&) override {
    return Status::FailedPrecondition("Build-Index backup repairs by rebuilding, not fetching");
  }
  StatusOr<std::string> ServeRepairFetch(uint32_t, uint64_t, uint32_t*) override {
    return Status::FailedPrecondition("Build-Index backup holds no primary-space index segments");
  }

 private:
  BuildIndexBackupRegion(BlockDevice* device, const KvStoreOptions& options,
                         std::shared_ptr<RegisteredBuffer> rdma_buffer);

  // --- BackupRegion hooks ---

  // Replays every record of the persisted image into the local engine (L0
  // insert + any compactions it triggers).
  Status OnLogFlushedLocked(SegmentId local, Slice image) override;
  // The primary ran a full cascade before trimming; mirrors it locally so no
  // surviving leaf entry references the segments about to be dropped.
  Status PrepareTrimLocked(size_t segments) override;
  // This backup compacts on its own, so the compaction-plane messages and the
  // replay start are acknowledged no-ops.
  Status HandleIndexMessage(const ReplicationMessage&) override { return Status::Ok(); }
  StatusOr<std::string> GetBelowBufferLocked(Slice key) override { return store_->Get(key); }
  StatusOr<std::vector<KvPair>> ScanBelowBufferLocked(std::map<std::string, LogRecord> overlay,
                                                      Slice start, size_t limit) override;
  // Promotion is cheap for Build-Index: the engine is already complete.
  StatusOr<std::unique_ptr<KvStore>> ReleaseStore() override { return std::move(store_); }

  Counter* insert_cpu_ns_ = nullptr;
  Counter* records_inserted_ = nullptr;
  std::unique_ptr<KvStore> store_;
};

}  // namespace tebis

#endif  // TEBIS_REPLICATION_BUILD_INDEX_BACKUP_H_
