// The Build-Index baseline backup (paper §4, "Build-Index"): the value log is
// replicated exactly like Send-Index, but the backup maintains its own L0 and
// runs its own compactions — re-inserting every flushed record into a full
// Kreon engine. This is the CPU/read-I/O cost Send-Index eliminates.
#ifndef TEBIS_REPLICATION_BUILD_INDEX_BACKUP_H_
#define TEBIS_REPLICATION_BUILD_INDEX_BACKUP_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "src/lsm/kv_store.h"
#include "src/net/fabric.h"
#include "src/replication/backup_region.h"
#include "src/replication/replication_wire.h"
#include "src/replication/segment_map.h"
#include "src/storage/block_device.h"
#include "src/telemetry/telemetry.h"

namespace tebis {

struct BuildIndexBackupStats {
  uint64_t insert_cpu_ns = 0;  // re-inserting flushed records into L0
  uint64_t records_inserted = 0;
  uint64_t log_flushes = 0;
  uint64_t epoch_rejected = 0;  // control messages fenced as stale (§3.5)
  uint64_t replica_gets = 0;    // gets served from this replica
  uint64_t replica_scans = 0;   // scans served from this replica
  uint64_t read_rejects_epoch = 0;  // reads fenced: replica epoch too old
  uint64_t read_rejects_seq = 0;    // reads fenced: commit seq behind fence
};

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

  // Control plane: checks the message's epoch (CheckEpoch), then applies
  // log flushes and trims. This backup compacts on its own, so the
  // compaction-plane messages and the replay start are acknowledged no-ops.
  Status Handle(const ReplicationMessage& msg) override;

  // --- replica read path, mirrors SendIndexBackupRegion ---

  // Serves a get/scan fenced by {min_epoch, min_seq}; rejected reads return
  // FailedPrecondition. Newest wins: RDMA buffer first, then the engine
  // (which already holds every flushed record). On success `*visible_seq`
  // (when non-null) is the replica's visible commit sequence.
  StatusOr<std::string> Get(Slice key, uint64_t min_epoch, uint64_t min_seq,
                            uint64_t* visible_seq) override;
  StatusOr<std::vector<KvPair>> Scan(Slice start, size_t limit, uint64_t min_epoch,
                                     uint64_t min_seq, uint64_t* visible_seq) override;
  uint64_t visible_seq() const;
  // The engine's own lookup: it already holds every flushed record.
  StatusOr<std::string> DebugGet(Slice key) override { return store_->Get(key); }

  // Promotion is cheap for Build-Index: the engine is already complete; only
  // the unflushed RDMA buffer must be replayed (skipped when the caller
  // replays it through the wrapped PrimaryRegion instead).
  StatusOr<std::unique_ptr<KvStore>> Promote(bool replay_rdma_buffer = true) override;
  Status AdoptNewPrimaryLogMap(const SegmentMap& new_primary_log_map, uint64_t epoch) override;

  KvStore* store() { return store_.get(); }
  const SegmentMap& log_map() const override { return log_map_; }
  // By value: each field is an atomic registry instrument, so the snapshot is
  // safe to take while a flush handler is mutating the counters.
  BuildIndexBackupStats stats() const;
  Telemetry* telemetry() const { return telemetry_; }
  uint64_t l0_memory_bytes() const override { return store_->l0_memory_bytes(); }

  // --- epoch fencing (§3.5), mirrors SendIndexBackupRegion ---
  Status CheckEpoch(uint64_t msg_epoch);
  void set_region_epoch(uint64_t epoch) override;
  uint64_t region_epoch() const override { return region_epoch_.load(std::memory_order_acquire); }
  uint64_t epoch_rejected() const override { return counters_.epoch_rejected->Value(); }

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

  // Persists the RDMA buffer as a local log segment, then replays every
  // record into the local engine (L0 insert + any compactions it triggers).
  // `commit_seq` is the primary's commit sequence as of this flush. `family`
  // selects the buffer half: kMainLogFamily is [0, segment), kLargeLogFamily
  // is [segment, 2*segment) of a 2x-segment buffer. Exactly `tail_bytes` of
  // the half persist: the bytes the primary's seal wrote (SealBufferHalf).
  Status HandleLogFlush(SegmentId primary_segment, uint64_t commit_seq, uint32_t family,
                        uint64_t tail_bytes);
  Status HandleTrimLog(size_t segments);

  // Mirrors BuildIndexBackupStats as registry instruments.
  struct Instruments {
    Counter* insert_cpu_ns = nullptr;
    Counter* records_inserted = nullptr;
    Counter* log_flushes = nullptr;
    Counter* epoch_rejected = nullptr;
    Counter* replica_gets = nullptr;
    Counter* replica_scans = nullptr;
  };

  void InitTelemetry();

  BlockDevice* const device_;
  const KvStoreOptions options_;
  std::unique_ptr<KvStore> store_;
  // Serializes flush handling against replica reads: the visible
  // sequence must move in lock-step with record visibility in the engine, or
  // a reader could observe data newer than the sequence it reports. Control
  // handlers were single-threaded before reads existed, so this lock is new
  // contention only on the read path.
  // Reader-writer lock: shipping mutations exclusive, replica reads shared
  // (KvStore supports concurrent Get/Scan readers; the RDMA buffer carries
  // its own lock).
  mutable std::shared_mutex state_mutex_;
  SegmentMap log_map_;
  std::vector<SegmentId> primary_flush_order_;
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_ = nullptr;
  Instruments counters_;
  // Atomic: replica readers check it without the state lock's writer side.
  std::atomic<uint64_t> region_epoch_{0};
};

}  // namespace tebis

#endif  // TEBIS_REPLICATION_BUILD_INDEX_BACKUP_H_
