#include "src/replication/backup_region.h"

#include <cstring>
#include <mutex>

namespace tebis {

BackupRegion::BackupRegion(BlockDevice* device, const KvStoreOptions& options,
                           std::shared_ptr<RegisteredBuffer> rdma_buffer)
    : device_(device),
      options_(options),
      rdma_buffer_(std::move(rdma_buffer)),
      segment_size_(device->segment_size()),
      telemetry_(options.telemetry) {
  if (telemetry_ == nullptr) {
    owned_telemetry_ = std::make_unique<Telemetry>();
    telemetry_ = owned_telemetry_.get();
  }
  MetricsRegistry* reg = telemetry_->metrics();
  const MetricLabels& l = options_.telemetry_labels;
  frame_.log_flushes = reg->GetCounter("backup.log_flushes", l);
  frame_.epoch_rejected = reg->GetCounter("backup.epoch_rejected", l);
  frame_.replica_gets = reg->GetCounter("backup.replica_gets", l);
  frame_.replica_scans = reg->GetCounter("backup.replica_scans", l);
  frame_.read_rejects_epoch = reg->GetCounter("backup.read_rejects_epoch", l);
  frame_.read_rejects_seq = reg->GetCounter("backup.read_rejects_seq", l);
}

Status BackupRegion::CheckRdmaBuffer(const BlockDevice* device,
                                     const RegisteredBuffer* rdma_buffer) {
  if (rdma_buffer == nullptr || rdma_buffer->size() < device->segment_size()) {
    return Status::InvalidArgument("RDMA buffer must hold at least one segment");
  }
  return Status::Ok();
}

// --- control plane ------------------------------------------------------------

Status BackupRegion::Handle(const ReplicationMessage& msg) {
  TEBIS_RETURN_IF_ERROR(CheckEpoch(ReplicationMessageEpoch(msg)));
  if (const auto* flush = std::get_if<FlushLogMsg>(&msg)) {
    return HandleLogFlush(*flush);
  }
  if (const auto* trim = std::get_if<TrimLogMsg>(&msg)) {
    return HandleTrimLog(trim->segments);
  }
  return HandleIndexMessage(msg);
}

Status BackupRegion::CheckEpoch(uint64_t msg_epoch) {
  const uint64_t cur = region_epoch_.load(std::memory_order_acquire);
  if (msg_epoch < cur) {
    frame_.epoch_rejected->Increment();
    return Status::FailedPrecondition("stale replication epoch " + std::to_string(msg_epoch) +
                                      " < " + std::to_string(cur));
  }
  if (msg_epoch > cur) {
    set_region_epoch(msg_epoch);
  }
  return Status::Ok();
}

void BackupRegion::set_region_epoch(uint64_t epoch) {
  uint64_t cur = region_epoch_.load(std::memory_order_acquire);
  while (epoch > cur) {
    if (region_epoch_.compare_exchange_weak(cur, epoch, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      rdma_buffer_->Fence(epoch);  // raise-to-at-least, thread-safe
      return;
    }
  }
}

Status BackupRegion::HandleLogFlush(const FlushLogMsg& msg) {
  std::lock_guard<std::shared_mutex> lock(state_mutex_);
  if (log_map_.Contains(msg.primary_segment)) {
    // Duplicate delivery (the ack was lost, not the flush). Do NOT touch the
    // buffer here: the primary has already resumed appending the new tail
    // into it, and those records are live.
    return Status::Ok();
  }
  TEBIS_ASSIGN_OR_RETURN(Slice sealed, SealBuffer(msg.tail_bytes));
  // Persist the replicated tail (one write, like the primary's seal).
  TEBIS_ASSIGN_OR_RETURN(SegmentId local, value_log()->AppendRawSegment(sealed));
  TEBIS_RETURN_IF_ERROR(log_map_.Insert(msg.primary_segment, local));
  primary_flush_order_.push_back(msg.primary_segment);
  frame_.log_flushes->Increment();
  TEBIS_RETURN_IF_ERROR(OnLogFlushedLocked(local, sealed));
  AbsorbBuffer(msg.commit_seq);
  return Status::Ok();
}

Status BackupRegion::HandleTrimLog(size_t segments) {
  std::lock_guard<std::shared_mutex> lock(state_mutex_);
  if (segments > primary_flush_order_.size()) {
    return Status::InvalidArgument("trim beyond replicated log");
  }
  TEBIS_RETURN_IF_ERROR(PrepareTrimLocked(segments));
  TEBIS_RETURN_IF_ERROR(value_log()->TrimHead(segments));
  // Rebuild the log map without the trimmed prefix.
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

// --- promotion ------------------------------------------------------------------

Status BackupRegion::AdoptNewPrimaryLogMap(const SegmentMap& new_primary_log_map,
                                           uint64_t epoch) {
  std::lock_guard<std::shared_mutex> lock(state_mutex_);
  if (epoch != 0) {
    if (epoch <= log_map_epoch_) {
      return Status::Ok();  // retry of an adoption this node already performed
    }
    set_region_epoch(epoch);
    log_map_epoch_ = epoch;
  }
  TEBIS_ASSIGN_OR_RETURN(SegmentMap rekeyed, log_map_.RekeyForNewPrimary(new_primary_log_map));
  log_map_ = std::move(rekeyed);
  std::vector<SegmentId> fresh_order;
  for (SegmentId old_primary : primary_flush_order_) {
    auto new_primary = new_primary_log_map.Lookup(old_primary);
    if (new_primary.ok()) {
      fresh_order.push_back(*new_primary);
    }
  }
  primary_flush_order_ = std::move(fresh_order);
  return Status::Ok();
}

StatusOr<std::unique_ptr<KvStore>> BackupRegion::Promote(bool replay_rdma_buffer) {
  TEBIS_ASSIGN_OR_RETURN(std::unique_ptr<KvStore> store, ReleaseStore());
  if (!replay_rdma_buffer) {
    return store;
  }
  // Re-appended through the new primary's own log.
  for (const LogRecord& rec :
       ValueLog::DecodeBufferImage(Slice(rdma_buffer_->data(), rdma_buffer_->size()))) {
    TEBIS_RETURN_IF_ERROR(rec.tombstone ? store->Delete(rec.key) : store->Put(rec.key, rec.value));
  }
  return store;
}

// --- log buffer -------------------------------------------------------------------

StatusOr<Slice> BackupRegion::SealBuffer(uint64_t tail_bytes) {
  if (tail_bytes < sizeof(kPadMarker) || tail_bytes > segment_size_) {
    return Status::InvalidArgument("log flush of " + std::to_string(tail_bytes) +
                                   " bytes outside [4, segment size]");
  }
  char marker[sizeof(kPadMarker)];
  memcpy(marker, &kPadMarker, sizeof(marker));
  rdma_buffer_->StoreRange(tail_bytes - sizeof(marker), Slice(marker, sizeof(marker)));
  return Slice(rdma_buffer_->data(), tail_bytes);
}

void BackupRegion::AbsorbBuffer(uint64_t commit_seq) {
  if (commit_seq > flushed_commit_seq_) {
    flushed_commit_seq_ = commit_seq;
  }
  const char empty_header[sizeof(uint32_t)] = {};
  rdma_buffer_->StoreRange(0, Slice(empty_header, sizeof(empty_header)));
}

uint64_t BackupRegion::ForEachBufferedLocked(const BufferVisitor& visit) const {
  uint64_t records = 0;
  rdma_buffer_->ReadView([&](Slice image) {
    ValueLog::ForEachBufferRecord(image, [&](const LogRecordView& record) {
      ++records;
      if (visit) {
        visit(record);
      }
    });
  });
  return flushed_commit_seq_ + records;
}

Status BackupRegion::CheckReadFenceLocked(uint64_t min_epoch, uint64_t min_seq,
                                          const BufferVisitor& visit,
                                          uint64_t* visible_seq) const {
  const uint64_t epoch = region_epoch();
  if (epoch < min_epoch) {
    frame_.read_rejects_epoch->Increment();
    return Status::FailedPrecondition("replica epoch " + std::to_string(epoch) +
                                      " behind read fence " + std::to_string(min_epoch));
  }
  const uint64_t visible = ForEachBufferedLocked(visit);
  if (visible < min_seq) {
    frame_.read_rejects_seq->Increment();
    return Status::FailedPrecondition("replica commit seq " + std::to_string(visible) +
                                      " behind read fence " + std::to_string(min_seq));
  }
  if (visible_seq != nullptr) {
    *visible_seq = visible;
  }
  return Status::Ok();
}

// --- replica reads ------------------------------------------------------------------

StatusOr<std::string> BackupRegion::Get(Slice key, uint64_t min_epoch, uint64_t min_seq,
                                        uint64_t* visible_seq) {
  // The whole read runs under the state lock (shared side): an index install
  // frees the segments of what it replaces, so a lock-free snapshot is not
  // safe against live shipping traffic.
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  frame_.replica_gets->Increment();
  // Newest wins: the RDMA buffer (append order, so its last match)...
  bool buffered = false;
  bool tombstone = false;
  std::string value;
  TEBIS_RETURN_IF_ERROR(CheckReadFenceLocked(
      min_epoch, min_seq,
      [&](const LogRecordView& record) {
        if (record.key == key) {
          buffered = true;
          tombstone = record.tombstone;
          value.assign(record.value.data(), record.value.size());
        }
      },
      visible_seq));
  if (buffered) {
    if (tombstone) {
      return Status::NotFound();
    }
    return value;
  }
  // ...then what the engine holds.
  return GetBelowBufferLocked(key);
}

StatusOr<std::vector<KvPair>> BackupRegion::Scan(Slice start, size_t limit, uint64_t min_epoch,
                                                 uint64_t min_seq, uint64_t* visible_seq) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  frame_.replica_scans->Increment();
  std::map<std::string, LogRecord> overlay;
  TEBIS_RETURN_IF_ERROR(CheckReadFenceLocked(
      min_epoch, min_seq,
      [&overlay](const LogRecordView& record) {
        overlay[record.key.ToString()] = record.ToRecord();  // append order: later writes win
      },
      visible_seq));
  return ScanBelowBufferLocked(std::move(overlay), start, limit);
}

uint64_t BackupRegion::visible_seq() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return ForEachBufferedLocked(nullptr);
}

namespace {

// The overlay as a merge source; a scan puts it first, so it wins every tie.
class OverlayMergeSource : public MergeSource {
 public:
  OverlayMergeSource(const std::map<std::string, LogRecord>& overlay, Slice start)
      : it_(overlay.lower_bound(start.ToString())), end_(overlay.end()) {
    Load();
  }
  bool Valid() const override { return it_ != end_; }
  const MergeEntry& entry() const override { return entry_; }
  Status Next() override {
    ++it_;
    Load();
    return Status::Ok();
  }
  // The current record's value: overlay records are read already.
  const std::string& value() const { return it_->second.value; }

 private:
  void Load() {
    if (Valid()) {
      entry_.key = it_->first;
      entry_.tombstone = it_->second.tombstone;
    }
  }
  std::map<std::string, LogRecord>::const_iterator it_;
  const std::map<std::string, LogRecord>::const_iterator end_;
  MergeEntry entry_;
};

}  // namespace

StatusOr<std::vector<KvPair>> ScanOverOverlay(const std::map<std::string, LogRecord>& overlay,
                                              Slice start, size_t limit,
                                              const std::vector<MergeSource*>& older,
                                              const MergeValueReader& older_value) {
  OverlayMergeSource newest(overlay, start);
  std::vector<MergeSource*> sources{&newest};
  sources.insert(sources.end(), older.begin(), older.end());
  MergeIterator merged(std::move(sources));
  std::vector<KvPair> out;
  while (merged.Valid() && out.size() < limit) {
    const MergeEntry& winner = merged.entry();
    if (!winner.tombstone) {
      if (merged.source() == 0) {
        out.push_back(KvPair{winner.key, newest.value()});
      } else {
        TEBIS_ASSIGN_OR_RETURN(std::string value, older_value(winner));
        out.push_back(KvPair{winner.key, std::move(value)});
      }
    }
    TEBIS_RETURN_IF_ERROR(merged.Next());
  }
  return out;
}

}  // namespace tebis
