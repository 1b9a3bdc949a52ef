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
    : BackupRegion(std::move(rdma_buffer)), device_(device), options_(options) {
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
  counters_.read_rejects_epoch = reg->GetCounter("backup.read_rejects_epoch", l);
  counters_.read_rejects_seq = reg->GetCounter("backup.read_rejects_seq", l);
}

BuildIndexBackupStats BuildIndexBackupRegion::stats() const {
  BuildIndexBackupStats s;
  s.insert_cpu_ns = counters_.insert_cpu_ns->Value();
  s.records_inserted = counters_.records_inserted->Value();
  s.log_flushes = counters_.log_flushes->Value();
  s.epoch_rejected = counters_.epoch_rejected->Value();
  s.replica_gets = counters_.replica_gets->Value();
  s.replica_scans = counters_.replica_scans->Value();
  s.read_rejects_epoch = counters_.read_rejects_epoch->Value();
  s.read_rejects_seq = counters_.read_rejects_seq->Value();
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
    return HandleLogFlush(flush->primary_segment, flush->commit_seq, flush->family);
  }
  if (const auto* trim = std::get_if<TrimLogMsg>(&msg)) {
    return HandleTrimLog(trim->segments);
  }
  return Status::Ok();
}

Status BuildIndexBackupRegion::HandleLogFlush(SegmentId primary_segment, uint64_t commit_seq,
                                              uint32_t family) {
  std::lock_guard<std::shared_mutex> lock(state_mutex_);
  if (log_map_.Contains(primary_segment)) {
    // Duplicate delivery (the ack was lost, not the flush). No buffer scrub
    // here: the primary may already be appending the new tail into it.
    return Status::Ok();
  }
  const uint64_t seg_size = device_->segment_size();
  // The large-value tail mirrors into the second half of the buffer.
  const uint64_t half = family == kLargeLogFamily ? seg_size : 0;
  if (rdma_buffer_->size() < half + seg_size) {
    // Not FailedPrecondition: that code means "you are deposed" on this wire.
    return Status::InvalidArgument("large-family flush needs a 2x-segment replication buffer");
  }
  Slice image(rdma_buffer_->data() + half, seg_size);
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
  if (!status.ok()) {
    return status;
  }
  if (commit_seq > flushed_commit_seq_) {
    flushed_commit_seq_ = commit_seq;
  }
  // The absorbed tail image is in the engine now; scrub it so the replica
  // read path does not double-count it toward the visible sequence. Safe:
  // FlushLog is synchronous, the primary is blocked on this ack.
  rdma_buffer_->ZeroRange(half, sizeof(uint32_t));
  return status;
}

// --- replica read path ----------------------------------------------------

uint64_t BuildIndexBackupRegion::ParseBufferLocked(std::vector<LogRecord>* records) const {
  *records = ValueLog::DecodeBufferImage(Slice(rdma_buffer_->SnapshotBytes(rdma_buffer_->size())),
                                         device_->segment_size());
  return flushed_commit_seq_ + records->size();
}

StatusOr<std::string> BuildIndexBackupRegion::Get(Slice key, uint64_t min_epoch,
                                                  uint64_t min_seq, uint64_t* visible_seq) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  counters_.replica_gets->Increment();
  const uint64_t epoch = region_epoch_.load(std::memory_order_acquire);
  if (epoch < min_epoch) {
    counters_.read_rejects_epoch->Increment();
    return Status::FailedPrecondition("replica epoch " + std::to_string(epoch) +
                                      " behind read fence " + std::to_string(min_epoch));
  }
  std::vector<LogRecord> buffered;
  const uint64_t visible = ParseBufferLocked(&buffered);
  if (visible < min_seq) {
    counters_.read_rejects_seq->Increment();
    return Status::FailedPrecondition("replica commit seq " + std::to_string(visible) +
                                      " behind read fence " + std::to_string(min_seq));
  }
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

StatusOr<std::vector<KvPair>> BuildIndexBackupRegion::Scan(Slice start, size_t limit,
                                                           uint64_t min_epoch, uint64_t min_seq,
                                                           uint64_t* visible_seq) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  counters_.replica_scans->Increment();
  const uint64_t epoch = region_epoch_.load(std::memory_order_acquire);
  if (epoch < min_epoch) {
    counters_.read_rejects_epoch->Increment();
    return Status::FailedPrecondition("replica epoch " + std::to_string(epoch) +
                                      " behind read fence " + std::to_string(min_epoch));
  }
  std::vector<LogRecord> buffered;
  const uint64_t visible = ParseBufferLocked(&buffered);
  if (visible < min_seq) {
    counters_.read_rejects_seq->Increment();
    return Status::FailedPrecondition("replica commit seq " + std::to_string(visible) +
                                      " behind read fence " + std::to_string(min_seq));
  }
  if (visible_seq != nullptr) {
    *visible_seq = visible;
  }
  // Overlay (buffer records, newest wins) merged over the engine's scan.
  std::map<std::string, LogRecord> overlay;
  for (const LogRecord& rec : buffered) {
    if (start.empty() || Slice(rec.key).Compare(start) >= 0) {
      overlay[rec.key] = rec;
    }
  }
  TEBIS_ASSIGN_OR_RETURN(std::vector<KvPair> engine,
                         store_->Scan(start, limit + overlay.size()));
  std::vector<KvPair> out;
  auto oit = overlay.begin();
  size_t ei = 0;
  while (out.size() < limit && (oit != overlay.end() || ei < engine.size())) {
    const bool overlay_wins =
        oit != overlay.end() &&
        (ei >= engine.size() || Slice(oit->first).Compare(Slice(engine[ei].key)) <= 0);
    if (overlay_wins) {
      if (ei < engine.size() && Slice(engine[ei].key) == Slice(oit->first)) {
        ++ei;  // shadowed engine entry
      }
      if (!oit->second.tombstone) {
        out.push_back(KvPair{oit->first, oit->second.value});
      }
      ++oit;
    } else {
      out.push_back(engine[ei]);
      ++ei;
    }
  }
  return out;
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
