#include "src/replication/build_index_backup.h"

#include "src/common/clock.h"

namespace tebis {

StatusOr<std::unique_ptr<BuildIndexBackupRegion>> BuildIndexBackupRegion::Create(
    BlockDevice* device, const KvStoreOptions& options,
    std::shared_ptr<RegisteredBuffer> rdma_buffer) {
  if (rdma_buffer == nullptr || rdma_buffer->size() < device->segment_size()) {
    return Status::InvalidArgument("RDMA buffer must hold at least one segment");
  }
  std::unique_ptr<BuildIndexBackupRegion> backup(
      new BuildIndexBackupRegion(device, options, std::move(rdma_buffer)));
  TEBIS_ASSIGN_OR_RETURN(backup->store_, KvStore::Create(device, options));
  return backup;
}

StatusOr<std::unique_ptr<BuildIndexBackupRegion>> BuildIndexBackupRegion::CreateFromStore(
    BlockDevice* device, const KvStoreOptions& options,
    std::shared_ptr<RegisteredBuffer> rdma_buffer, std::unique_ptr<KvStore> store,
    SegmentMap log_map, std::vector<SegmentId> primary_flush_order) {
  if (rdma_buffer == nullptr || rdma_buffer->size() < device->segment_size()) {
    return Status::InvalidArgument("RDMA buffer must hold at least one segment");
  }
  std::unique_ptr<BuildIndexBackupRegion> backup(
      new BuildIndexBackupRegion(device, options, std::move(rdma_buffer)));
  backup->store_ = std::move(store);
  backup->log_map_ = std::move(log_map);
  backup->primary_flush_order_ = std::move(primary_flush_order);
  return backup;
}

BuildIndexBackupRegion::BuildIndexBackupRegion(BlockDevice* device, const KvStoreOptions& options,
                                               std::shared_ptr<RegisteredBuffer> rdma_buffer)
    : BackupRegion(std::move(rdma_buffer), device->segment_size()),
      device_(device),
      options_(options) {
  InitTelemetry();
}

void BuildIndexBackupRegion::InitTelemetry() {
  telemetry_ = options_.telemetry;
  if (telemetry_ == nullptr) {
    owned_telemetry_ = std::make_unique<Telemetry>();
    telemetry_ = owned_telemetry_.get();
  }
  MetricsRegistry* reg = telemetry_->metrics();
  const MetricLabels& l = options_.telemetry_labels;
  counters_.insert_cpu_ns = reg->GetCounter("backup.insert_cpu_ns", l);
  counters_.records_inserted = reg->GetCounter("backup.records_inserted", l);
  counters_.log_flushes = reg->GetCounter("backup.log_flushes", l);
  counters_.epoch_rejected = reg->GetCounter("backup.epoch_rejected", l);
  counters_.replica_gets = reg->GetCounter("backup.replica_gets", l);
  counters_.replica_scans = reg->GetCounter("backup.replica_scans", l);
  read_rejects_epoch_ = reg->GetCounter("backup.read_rejects_epoch", l);
  read_rejects_seq_ = reg->GetCounter("backup.read_rejects_seq", l);
}

BuildIndexBackupStats BuildIndexBackupRegion::stats() const {
  BuildIndexBackupStats s;
  s.insert_cpu_ns = counters_.insert_cpu_ns->Value();
  s.records_inserted = counters_.records_inserted->Value();
  s.log_flushes = counters_.log_flushes->Value();
  s.epoch_rejected = counters_.epoch_rejected->Value();
  s.replica_gets = counters_.replica_gets->Value();
  s.replica_scans = counters_.replica_scans->Value();
  s.read_rejects_epoch = read_rejects_epoch_->Value();
  s.read_rejects_seq = read_rejects_seq_->Value();
  return s;
}

Status BuildIndexBackupRegion::CheckEpoch(uint64_t msg_epoch) {
  const uint64_t cur = region_epoch_.load(std::memory_order_acquire);
  if (msg_epoch < cur) {
    counters_.epoch_rejected->Increment();
    return Status::FailedPrecondition("stale replication epoch " + std::to_string(msg_epoch) +
                                      " < " + std::to_string(cur));
  }
  if (msg_epoch > cur) {
    set_region_epoch(msg_epoch);
  }
  return Status::Ok();
}

void BuildIndexBackupRegion::set_region_epoch(uint64_t epoch) {
  uint64_t cur = region_epoch_.load(std::memory_order_acquire);
  while (epoch > cur) {
    if (region_epoch_.compare_exchange_weak(cur, epoch, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      rdma_buffer_->Fence(epoch);  // raise-to-at-least, thread-safe
      return;
    }
  }
}

Status BuildIndexBackupRegion::Handle(const ReplicationMessage& msg) {
  TEBIS_RETURN_IF_ERROR(CheckEpoch(ReplicationMessageEpoch(msg)));
  if (const auto* flush = std::get_if<FlushLogMsg>(&msg)) {
    return HandleLogFlush(flush->primary_segment, flush->commit_seq, flush->family,
                          flush->tail_bytes);
  }
  if (const auto* trim = std::get_if<TrimLogMsg>(&msg)) {
    return HandleTrimLog(trim->segments);
  }
  return Status::Ok();
}

Status BuildIndexBackupRegion::HandleLogFlush(SegmentId primary_segment, uint64_t commit_seq,
                                              uint32_t family, uint64_t tail_bytes) {
  std::lock_guard<std::shared_mutex> lock(state_mutex_);
  if (log_map_.Contains(primary_segment)) {
    // Duplicate delivery (the ack was lost, not the flush). No buffer change
    // here: the primary may already be appending the new tail into it.
    return Status::Ok();
  }
  TEBIS_ASSIGN_OR_RETURN(Slice image, SealBufferHalf(family, tail_bytes));
  TEBIS_ASSIGN_OR_RETURN(SegmentId local, store_->value_log()->AppendRawSegment(image));
  TEBIS_RETURN_IF_ERROR(log_map_.Insert(primary_segment, local));
  primary_flush_order_.push_back(primary_segment);
  counters_.log_flushes->Increment();

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
          counters_.records_inserted->Increment();
          return store_->MaybeCompact();
        });
  }();
  counters_.insert_cpu_ns->Add(cpu_ns);
  TEBIS_RETURN_IF_ERROR(status);
  AbsorbBufferHalf(family, commit_seq);
  return Status::Ok();
}

// --- replica read path ----------------------------------------------------

StatusOr<std::string> BuildIndexBackupRegion::Get(Slice key, uint64_t min_epoch,
                                                  uint64_t min_seq, uint64_t* visible_seq) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  counters_.replica_gets->Increment();
  std::vector<LogRecord> buffered;
  uint64_t visible = 0;
  TEBIS_RETURN_IF_ERROR(CheckReadFenceLocked(min_epoch, min_seq, &buffered, &visible));
  if (visible_seq != nullptr) {
    *visible_seq = visible;
  }
  // Newest wins: the buffer holds records flushed segments do not have yet.
  for (auto rit = buffered.rbegin(); rit != buffered.rend(); ++rit) {
    if (Slice(rit->key) == key) {
      if (rit->tombstone) {
        return Status::NotFound();
      }
      return rit->value;
    }
  }
  return store_->Get(key);
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

StatusOr<std::vector<KvPair>> BuildIndexBackupRegion::Scan(Slice start, size_t limit,
                                                           uint64_t min_epoch, uint64_t min_seq,
                                                           uint64_t* visible_seq) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  counters_.replica_scans->Increment();
  std::vector<LogRecord> buffered;
  uint64_t visible = 0;
  TEBIS_RETURN_IF_ERROR(CheckReadFenceLocked(min_epoch, min_seq, &buffered, &visible));
  if (visible_seq != nullptr) {
    *visible_seq = visible;
  }
  // The buffer records (later writes win) over the engine's scan. Each
  // overlay key shadows at most one engine pair, so fetching that many more
  // keeps `limit` live pairs.
  std::map<std::string, LogRecord> overlay;
  for (LogRecord& rec : buffered) {
    overlay[rec.key] = std::move(rec);
  }
  TEBIS_ASSIGN_OR_RETURN(std::vector<KvPair> engine,
                         store_->Scan(start, limit + overlay.size()));
  PairsMergeSource older(&engine);
  return ScanOverOverlay(overlay, start, limit, {&older},
                         [&older](const MergeEntry&) { return older.value(); });
}

uint64_t BuildIndexBackupRegion::visible_seq() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  std::vector<LogRecord> records;
  return ParseBufferLocked(&records);
}

Status BuildIndexBackupRegion::HandleTrimLog(size_t segments) {
  std::lock_guard<std::shared_mutex> lock(state_mutex_);
  if (segments > primary_flush_order_.size()) {
    return Status::InvalidArgument("trim beyond replicated log");
  }
  // The primary ran a full cascade before trimming; mirror it locally so no
  // surviving leaf entry references the segments about to be dropped.
  TEBIS_RETURN_IF_ERROR(store_->ForceFullCompaction());
  TEBIS_RETURN_IF_ERROR(store_->value_log()->TrimHead(segments));
  SegmentMap fresh;
  for (size_t i = segments; i < primary_flush_order_.size(); ++i) {
    TEBIS_ASSIGN_OR_RETURN(SegmentId local, log_map_.Lookup(primary_flush_order_[i]));
    TEBIS_RETURN_IF_ERROR(fresh.Insert(primary_flush_order_[i], local));
  }
  log_map_ = std::move(fresh);
  primary_flush_order_.erase(primary_flush_order_.begin(),
                             primary_flush_order_.begin() + static_cast<long>(segments));
  return Status::Ok();
}

Status BuildIndexBackupRegion::AdoptNewPrimaryLogMap(const SegmentMap& /*new_primary_log_map*/,
                                                     uint64_t epoch) {
  if (epoch != 0) {
    set_region_epoch(epoch);
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<KvStore>> BuildIndexBackupRegion::Promote(bool replay_rdma_buffer) {
  if (!replay_rdma_buffer) {
    return std::move(store_);
  }
  for (const LogRecord& rec : ValueLog::DecodeBufferImage(
           Slice(rdma_buffer_->data(), rdma_buffer_->size()), device_->segment_size())) {
    TEBIS_RETURN_IF_ERROR(rec.tombstone ? store_->Delete(rec.key)
                                        : store_->Put(rec.key, rec.value));
  }
  return std::move(store_);
}

}  // namespace tebis
