#include "src/replication/build_index_backup.h"

#include "src/common/clock.h"

namespace tebis {

StatusOr<std::unique_ptr<BuildIndexBackupRegion>> BuildIndexBackupRegion::Create(
    BlockDevice* device, const KvStoreOptions& options,
    std::shared_ptr<RegisteredBuffer> rdma_buffer) {
  TEBIS_RETURN_IF_ERROR(CheckRdmaBuffer(device, rdma_buffer.get()));
  std::unique_ptr<BuildIndexBackupRegion> backup(
      new BuildIndexBackupRegion(device, options, std::move(rdma_buffer)));
  TEBIS_ASSIGN_OR_RETURN(backup->store_, KvStore::Create(device, options));
  return backup;
}

StatusOr<std::unique_ptr<BuildIndexBackupRegion>> BuildIndexBackupRegion::CreateFromStore(
    BlockDevice* device, const KvStoreOptions& options,
    std::shared_ptr<RegisteredBuffer> rdma_buffer, std::unique_ptr<KvStore> store,
    SegmentMap log_map, std::vector<SegmentId> primary_flush_order) {
  TEBIS_RETURN_IF_ERROR(CheckRdmaBuffer(device, rdma_buffer.get()));
  std::unique_ptr<BuildIndexBackupRegion> backup(
      new BuildIndexBackupRegion(device, options, std::move(rdma_buffer)));
  backup->store_ = std::move(store);
  backup->log_map_ = std::move(log_map);
  backup->primary_flush_order_ = std::move(primary_flush_order);
  return backup;
}

BuildIndexBackupRegion::BuildIndexBackupRegion(BlockDevice* device, const KvStoreOptions& options,
                                               std::shared_ptr<RegisteredBuffer> rdma_buffer)
    : BackupRegion(device, options, std::move(rdma_buffer)) {
  MetricsRegistry* reg = telemetry()->metrics();
  insert_cpu_ns_ = reg->GetCounter("backup.insert_cpu_ns", options_.telemetry_labels);
  records_inserted_ = reg->GetCounter("backup.records_inserted", options_.telemetry_labels);
}

Status BuildIndexBackupRegion::OnLogFlushedLocked(SegmentId local, Slice image) {
  // The baseline's work: every record goes through the in-memory L0 index
  // ("in-memory sorting") and, when L0 fills, a full local compaction with
  // its read-merge-write I/O.
  uint64_t cpu_ns = 0;
  Status status = [&]() -> Status {
    ScopedCpuTimer timer(&cpu_ns);
    const uint64_t base = device_->geometry().BaseOffset(local);
    return ValueLog::ForEachRecord(
        image, /*segment_base=*/0, [&](const LogRecord& rec) -> Status {
          const uint64_t local_offset = base + rec.offset;  // same in-segment offset
          TEBIS_RETURN_IF_ERROR(store_->ReplayRecord(rec.key, local_offset, rec.tombstone));
          records_inserted_->Increment();
          return store_->MaybeCompact();
        });
  }();
  insert_cpu_ns_->Add(cpu_ns);
  return status;
}

Status BuildIndexBackupRegion::PrepareTrimLocked(size_t /*segments*/) {
  return store_->ForceFullCompaction();
}

namespace {

// An engine scan's result as a merge source: sorted, live pairs only.
class PairsMergeSource : public MergeSource {
 public:
  explicit PairsMergeSource(const std::vector<KvPair>* pairs) : pairs_(pairs) { Load(); }
  bool Valid() const override { return next_ < pairs_->size(); }
  const MergeEntry& entry() const override { return entry_; }
  Status Next() override {
    ++next_;
    Load();
    return Status::Ok();
  }
  const std::string& value() const { return (*pairs_)[next_].value; }

 private:
  void Load() {
    if (Valid()) {
      entry_.key = (*pairs_)[next_].key;
    }
  }
  const std::vector<KvPair>* const pairs_;
  size_t next_ = 0;
  MergeEntry entry_;
};

}  // namespace

StatusOr<std::vector<KvPair>> BuildIndexBackupRegion::ScanBelowBufferLocked(
    std::map<std::string, LogRecord> overlay, Slice start, size_t limit) {
  // Each overlay key shadows at most one engine pair, so fetching that many
  // more keeps `limit` live pairs.
  TEBIS_ASSIGN_OR_RETURN(std::vector<KvPair> engine,
                         store_->Scan(start, limit + overlay.size()));
  PairsMergeSource older(&engine);
  return ScanOverOverlay(overlay, start, limit, {&older},
                         [&older](const MergeEntry&) { return older.value(); });
}

}  // namespace tebis
