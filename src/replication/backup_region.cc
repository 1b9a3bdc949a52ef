#include "src/replication/backup_region.h"

#include <cstring>

namespace tebis {

StatusOr<Slice> BackupRegion::SealBufferHalf(uint32_t family, uint64_t tail_bytes) {
  if (tail_bytes < sizeof(kPadMarker) || tail_bytes > segment_size_) {
    return Status::InvalidArgument("log flush of " + std::to_string(tail_bytes) +
                                   " bytes outside [4, segment size]");
  }
  const uint64_t half = family == kLargeLogFamily ? segment_size_ : 0;
  if (rdma_buffer_->size() < half + segment_size_) {
    return Status::InvalidArgument("large-family flush needs a 2x-segment replication buffer");
  }
  char marker[sizeof(kPadMarker)];
  memcpy(marker, &kPadMarker, sizeof(marker));
  rdma_buffer_->StoreRange(half + tail_bytes - sizeof(marker), Slice(marker, sizeof(marker)));
  return Slice(rdma_buffer_->data() + half, tail_bytes);
}

void BackupRegion::AbsorbBufferHalf(uint32_t family, uint64_t commit_seq) {
  if (commit_seq > flushed_commit_seq_) {
    flushed_commit_seq_ = commit_seq;
  }
  rdma_buffer_->ZeroRange(family == kLargeLogFamily ? segment_size_ : 0, sizeof(uint32_t));
}

uint64_t BackupRegion::ParseBufferLocked(std::vector<LogRecord>* records) const {
  // SnapshotBytes serializes with the primary's tagged one-sided writes, so
  // the image never contains a half-landed record.
  *records = ValueLog::DecodeBufferImage(Slice(rdma_buffer_->SnapshotBytes(rdma_buffer_->size())),
                                         segment_size_);
  return flushed_commit_seq_ + records->size();
}

Status BackupRegion::CheckReadFenceLocked(uint64_t min_epoch, uint64_t min_seq,
                                          std::vector<LogRecord>* records,
                                          uint64_t* visible) const {
  const uint64_t epoch = region_epoch();
  if (epoch < min_epoch) {
    read_rejects_epoch_->Increment();
    return Status::FailedPrecondition("replica epoch " + std::to_string(epoch) +
                                      " behind read fence " + std::to_string(min_epoch));
  }
  *visible = ParseBufferLocked(records);
  if (*visible < min_seq) {
    read_rejects_seq_->Increment();
    return Status::FailedPrecondition("replica commit seq " + std::to_string(*visible) +
                                      " behind read fence " + std::to_string(min_seq));
  }
  return Status::Ok();
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
