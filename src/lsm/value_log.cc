#include "src/lsm/value_log.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc32.h"
#include "src/lsm/page_cache.h"

namespace tebis {
namespace {

void EncodeU32(char* p, uint32_t v) { memcpy(p, &v, sizeof(v)); }
uint32_t DecodeU32(const char* p) {
  uint32_t v;
  memcpy(&v, p, sizeof(v));
  return v;
}

// The walk ValueLog::SealedPrefixLength documents, over a segment image of
// `size` bytes: `view(n)` returns the image with at least its first n <= size
// bytes resident, so a reader can fetch the image as the walk goes.
template <typename View>
StatusOr<size_t> SealedLength(size_t size, const View& view) {
  size_t pos = 0;
  while (pos + kLogRecordHeaderSize <= size) {
    TEBIS_ASSIGN_OR_RETURN(const char* image, view(pos + kLogRecordHeaderSize));
    const char* p = image + pos;
    const uint32_t key_size = DecodeU32(p);
    if (key_size == kPadMarker || key_size == 0) {
      break;
    }
    const size_t need = LogRecordSize(key_size, DecodeU32(p + 4));
    if (key_size > kMaxKeySize || need + sizeof(kPadMarker) > size - pos) {
      return size;  // a damaged header: the whole image
    }
    pos += need;
  }
  return std::min(pos + sizeof(kPadMarker), size);
}

}  // namespace

StatusOr<std::unique_ptr<ValueLog>> ValueLog::Create(BlockDevice* device) {
  std::unique_ptr<ValueLog> log(new ValueLog(device));
  TEBIS_RETURN_IF_ERROR(log->OpenNewTail());
  return log;
}

StatusOr<std::unique_ptr<ValueLog>> ValueLog::Recover(BlockDevice* device,
                                                      std::vector<SegmentId> flushed_segments) {
  std::unique_ptr<ValueLog> log(new ValueLog(device));
  log->flushed_segments_ = std::move(flushed_segments);
  TEBIS_RETURN_IF_ERROR(log->OpenNewTail());
  return log;
}

ValueLog::ValueLog(BlockDevice* device) : device_(device) {}

Status ValueLog::OpenNewTail() {
  TEBIS_ASSIGN_OR_RETURN(SegmentId fresh, device_->AllocateSegment());
  if (tail_buffer_ == nullptr) {
    tail_buffer_ = std::make_unique<char[]>(device_->segment_size());
  }
  // The buffer reset and the tail identity swap must be atomic with respect to
  // tail-path readers: once tail_segment_ changes, in-flight reads of the old
  // segment fall through to the device (the seal already persisted it).
  std::lock_guard<std::mutex> lock(tail_mutex_);
  // Only the sealed prefix and its pad marker were ever written: zeroing
  // them restores an all-zero buffer.
  memset(tail_buffer_.get(), 0, tail_used_ + sizeof(kPadMarker));
  tail_segment_ = fresh;
  tail_used_ = 0;
  return Status::Ok();
}

Status ValueLog::SealTail() {
  // Appends always leave 4 bytes free after the last record, so the pad
  // marker fits. It sits past the published used mark, which no reader
  // touches. Only the used prefix and the marker reach the device: every
  // reader of a flushed segment stops at the marker, never looking past it.
  EncodeU32(tail_buffer_.get() + tail_used_, kPadMarker);
  const Slice sealed(tail_buffer_.get(), tail_used_ + sizeof(kPadMarker));
  TEBIS_RETURN_IF_ERROR(
      device_->Write(device_->geometry().BaseOffset(tail_segment_), sealed, IoClass::kLogFlush));
  if (observer_ != nullptr) {
    observer_->OnTailFlush(tail_segment_, sealed);
  }
  std::lock_guard<std::mutex> lock(tail_mutex_);
  flushed_segments_.push_back(tail_segment_);
  return Status::Ok();
}

StatusOr<size_t> ValueLog::CheckedRecordSize(size_t key_size, size_t value_size) const {
  if (key_size == 0 || key_size > kMaxKeySize) {
    return Status::InvalidArgument("key size must be in [1, " + std::to_string(kMaxKeySize) + "]");
  }
  const size_t need = LogRecordSize(key_size, value_size);
  // Room for a pad marker always stays after the record.
  if (need + sizeof(kPadMarker) > device_->segment_size()) {
    return Status::InvalidArgument("record larger than a segment");
  }
  return need;
}

StatusOr<ValueLog::AppendResult> ValueLog::Append(Slice key, Slice value, bool tombstone) {
  TEBIS_ASSIGN_OR_RETURN(const size_t need, CheckedRecordSize(key.size(), value.size()));

  AppendResult result{};
  if (tail_used_ + need + 4 > device_->segment_size()) {
    // A mid-group seal publishes the open run first: backups must hold the
    // run's bytes before the flush message asks them to persist the segment.
    EmitRun();
    TEBIS_RETURN_IF_ERROR(SealTail());
    TEBIS_RETURN_IF_ERROR(OpenNewTail());
    result.flushed_segment = true;
  }

  const uint64_t offset_in_segment = tail_used_;
  char* p = tail_buffer_.get() + offset_in_segment;
  EncodeU32(p, static_cast<uint32_t>(key.size()));
  EncodeU32(p + 4, static_cast<uint32_t>(value.size()));
  p[8] = tombstone ? static_cast<char>(kRecordFlagTombstone) : 0;
  memcpy(p + kLogRecordHeaderSize, key.data(), key.size());
  memcpy(p + kLogRecordHeaderSize + key.size(), value.data(), value.size());
  const uint32_t crc = Crc32c(p, kLogRecordHeaderSize + key.size() + value.size());
  EncodeU32(p + need - kLogRecordTrailerSize, crc);

  result.offset = device_->geometry().BaseOffset(tail_segment_) | offset_in_segment;
  result.encoded_size = need;
  {
    // Publish the record: readers acquire tail_mutex_ before reading up to
    // the used mark, so the byte writes above happen-before any reader's copy.
    std::lock_guard<std::mutex> lock(tail_mutex_);
    tail_used_ += need;
  }
  total_appended_bytes_.fetch_add(need, std::memory_order_relaxed);

  if (group_active_) {
    ExtendRun(offset_in_segment, need);
  } else if (observer_ != nullptr) {
    // The +4 covers the zero terminator the append path always reserves.
    observer_->OnAppend(tail_segment_, offset_in_segment, Slice(p, need + 4), 1);
  }
  return result;
}

Status ValueLog::BeginGroup(size_t bytes, bool* flushed) {
  if (flushed != nullptr) {
    *flushed = false;
  }
  run_ = GroupRun{};
  const uint64_t seg_size = device_->segment_size();
  // Reserve one contiguous extent: when the whole group fits a fresh segment
  // but not the current remainder, pre-seal so the group's run lands
  // adjacent and replicates as a single one-sided write.
  if (bytes > 0 && bytes + 4 <= seg_size && tail_used_ > 0 && tail_used_ + bytes + 4 > seg_size) {
    TEBIS_RETURN_IF_ERROR(FlushTail());
    if (flushed != nullptr) {
      *flushed = true;
    }
  }
  group_active_ = true;
  return Status::Ok();
}

void ValueLog::EndGroup() {
  if (!group_active_) {
    return;
  }
  EmitRun();
  group_active_ = false;
}

void ValueLog::ExtendRun(uint64_t offset, size_t bytes) {
  if (run_.count == 0) {
    run_.start = offset;
  }
  run_.bytes += bytes;
  run_.count++;
}

void ValueLog::EmitRun() {
  if (run_.count != 0 && observer_ != nullptr) {
    // The +4 covers the zero terminator after the run — the append path always
    // reserves it, and no later record has been written there yet.
    observer_->OnAppend(tail_segment_, run_.start,
                        Slice(tail_buffer_.get() + run_.start, run_.bytes + 4), run_.count);
  }
  run_ = GroupRun{};
}

Status ValueLog::FlushTail() {
  if (tail_used_ != 0) {
    TEBIS_RETURN_IF_ERROR(SealTail());
    TEBIS_RETURN_IF_ERROR(OpenNewTail());
  }
  return Status::Ok();
}

StatusOr<LogRecordView> ValueLog::DecodeView(const char* buf, size_t available,
                                             uint64_t offset) {
  if (available < kLogRecordHeaderSize) {
    return Status::Corruption("record header truncated");
  }
  const uint32_t key_size = DecodeU32(buf);
  if (key_size == kPadMarker) {
    return Status::OutOfRange("pad marker");
  }
  const uint32_t value_size = DecodeU32(buf + 4);
  if (key_size == 0 || key_size > kMaxKeySize) {
    return Status::Corruption("bad key size " + std::to_string(key_size));
  }
  const size_t need = LogRecordSize(key_size, value_size);
  if (available < need) {
    return Status::Corruption("record body truncated");
  }
  const uint32_t stored_crc = DecodeU32(buf + need - kLogRecordTrailerSize);
  const uint32_t crc = Crc32c(buf, kLogRecordHeaderSize + key_size + value_size);
  if (stored_crc != crc) {
    return Status::Corruption("record crc mismatch at offset " + std::to_string(offset));
  }
  LogRecordView rec;
  rec.key = Slice(buf + kLogRecordHeaderSize, key_size);
  rec.value = Slice(buf + kLogRecordHeaderSize + key_size, value_size);
  rec.tombstone = (buf[8] & kRecordFlagTombstone) != 0;
  rec.offset = offset;
  rec.encoded_size = need;
  return rec;
}

LogRecord LogRecordView::ToRecord() const {
  LogRecord rec;
  rec.key = key.ToString();
  rec.value = value.ToString();
  rec.tombstone = tombstone;
  rec.offset = offset;
  rec.encoded_size = encoded_size;
  return rec;
}

StatusOr<LogRecord> ValueLog::Decode(const char* buf, size_t available, uint64_t offset) {
  TEBIS_ASSIGN_OR_RETURN(LogRecordView view, DecodeView(buf, available, offset));
  return view.ToRecord();
}

Status ValueLog::ReadRecord(uint64_t offset, LogRecord* out, PageCache* cache,
                            IoClass io_class) const {
  const SegmentGeometry& geometry = device_->geometry();
  const SegmentId segment = geometry.SegmentOf(offset);
  const uint64_t in_segment = geometry.OffsetInSegment(offset);

  {
    std::lock_guard<std::mutex> lock(tail_mutex_);
    if (segment == tail_segment_) {
      if (in_segment >= tail_used_) {
        return Status::OutOfRange("offset past log tail");
      }
      TEBIS_ASSIGN_OR_RETURN(
          *out, Decode(tail_buffer_.get() + in_segment, tail_used_ - in_segment, offset));
      return Status::Ok();
    }
  }

  // Flushed segment: read header first, then the body.
  char header[kLogRecordHeaderSize];
  auto read = [&](uint64_t off, size_t n, char* dst) -> Status {
    if (cache != nullptr) {
      return cache->Read(off, n, dst, io_class);
    }
    return device_->Read(off, n, dst, io_class);
  };
  TEBIS_RETURN_IF_ERROR(read(offset, kLogRecordHeaderSize, header));
  const uint32_t key_size = DecodeU32(header);
  if (key_size == kPadMarker) {
    return Status::OutOfRange("pad marker");
  }
  const uint32_t value_size = DecodeU32(header + 4);
  if (key_size == 0 || key_size > kMaxKeySize) {
    return Status::Corruption("bad key size in log record");
  }
  const size_t need = LogRecordSize(key_size, value_size);
  // A record never crosses a segment boundary, so a size that would is a
  // corrupt header — report it as such, not as a device-geometry error.
  if (need > geometry.segment_size() - in_segment) {
    return Status::Corruption("record size overruns segment at offset " +
                              std::to_string(offset));
  }
  std::string buf;
  buf.resize(need);
  memcpy(buf.data(), header, kLogRecordHeaderSize);
  TEBIS_RETURN_IF_ERROR(read(offset + kLogRecordHeaderSize, need - kLogRecordHeaderSize,
                             buf.data() + kLogRecordHeaderSize));
  TEBIS_ASSIGN_OR_RETURN(*out, Decode(buf.data(), need, offset));
  return Status::Ok();
}

Status ValueLog::ReadIndexedRecord(uint64_t offset, Slice key, LogRecord* out, PageCache* cache,
                                   IoClass io_class) const {
  Status read = ReadRecord(offset, out, cache, io_class);
  if (read.ok() && (Slice(out->key) != key || out->tombstone)) {
    read = Status::Corruption((out->tombstone ? "tombstone of key " : "key ") + out->key +
                              " where the index expects live key " + key.ToString());
  }
  if (read.IsCorruption()) {
    return Status::Corruption("value-log record on device " + device_->name() + " @" +
                              std::to_string(offset) + ": " + read.ToString());
  }
  return read;
}

Status ValueLog::ReadKey(uint64_t offset, size_t key_size, std::string* key, bool* tombstone,
                         PageCache* cache, IoClass io_class) const {
  const SegmentGeometry& geometry = device_->geometry();
  const SegmentId segment = geometry.SegmentOf(offset);
  const uint64_t in_segment = geometry.OffsetInSegment(offset);
  auto where = [&] { return " on device " + device_->name() + " @" + std::to_string(offset); };
  if (key_size == 0 || key_size > kMaxKeySize) {
    return Status::Corruption("bad index key size " + std::to_string(key_size) + where());
  }
  // Header + key, sized by the index entry: one read, never two.
  const size_t n = kLogRecordHeaderSize + key_size;
  char buf[kLogRecordHeaderSize + kMaxKeySize];
  bool from_tail = false;
  {
    std::lock_guard<std::mutex> lock(tail_mutex_);
    if (segment == tail_segment_) {
      if (in_segment >= tail_used_) {
        return Status::OutOfRange("offset past log tail");
      }
      if (n > tail_used_ - in_segment) {
        return Status::Corruption("record key overruns log tail" + where());
      }
      memcpy(buf, tail_buffer_.get() + in_segment, n);
      from_tail = true;
    }
  }
  if (!from_tail) {
    if (n > geometry.segment_size() - in_segment) {
      return Status::Corruption("record key overruns segment" + where());
    }
    TEBIS_RETURN_IF_ERROR(cache != nullptr ? cache->Read(offset, n, buf, io_class)
                                           : device_->Read(offset, n, buf, io_class));
  }
  const uint32_t stored_size = DecodeU32(buf);
  if (stored_size != key_size) {
    return Status::Corruption("log record key size " + std::to_string(stored_size) +
                              " disagrees with index entry's " + std::to_string(key_size) +
                              where());
  }
  key->assign(buf + kLogRecordHeaderSize, key_size);
  if (tombstone != nullptr) {
    *tombstone = (buf[8] & kRecordFlagTombstone) != 0;
  }
  return Status::Ok();
}

Status ValueLog::TrimHead(size_t n) {
  std::lock_guard<std::mutex> lock(tail_mutex_);
  if (n > flushed_segments_.size()) {
    return Status::InvalidArgument("trim beyond flushed log");
  }
  for (size_t i = 0; i < n; ++i) {
    TEBIS_RETURN_IF_ERROR(device_->FreeSegment(flushed_segments_[i]));
  }
  flushed_segments_.erase(flushed_segments_.begin(), flushed_segments_.begin() + n);
  return Status::Ok();
}

StatusOr<SegmentId> ValueLog::AppendRawSegment(Slice sealed_bytes) {
  if (sealed_bytes.size() > device_->segment_size()) {
    return Status::InvalidArgument("raw segment larger than device segment");
  }
  TEBIS_ASSIGN_OR_RETURN(SegmentId seg, device_->AllocateSegment());
  const uint64_t base = device_->geometry().BaseOffset(seg);
  TEBIS_RETURN_IF_ERROR(device_->Write(base, sealed_bytes, IoClass::kLogFlush));
  std::lock_guard<std::mutex> lock(tail_mutex_);
  flushed_segments_.push_back(seg);
  return seg;
}

Status ValueLog::WalkRecords(Slice segment_bytes, uint64_t segment_base,
                             const std::function<Status(const LogRecordView&)>& fn) {
  size_t pos = 0;
  while (pos + kLogRecordHeaderSize <= segment_bytes.size()) {
    const char* p = segment_bytes.data() + pos;
    const uint32_t key_size = DecodeU32(p);
    if (key_size == kPadMarker || key_size == 0) {
      break;  // pad marker or zeroed remainder
    }
    auto rec = DecodeView(p, segment_bytes.size() - pos, segment_base + pos);
    if (!rec.ok()) {
      return rec.status();
    }
    TEBIS_RETURN_IF_ERROR(fn(*rec));
    pos += rec->encoded_size;
  }
  return Status::Ok();
}

Status ValueLog::ForEachRecord(Slice segment_bytes, uint64_t segment_base,
                               const std::function<Status(const LogRecord&)>& fn) {
  return WalkRecords(segment_bytes, segment_base,
                     [&fn](const LogRecordView& rec) { return fn(rec.ToRecord()); });
}

size_t ValueLog::SealedPrefixLength(Slice segment_bytes) {
  return *SealedLength(segment_bytes.size(),
                       [&](size_t) -> StatusOr<const char*> { return segment_bytes.data(); });
}

StatusOr<std::string> ValueLog::ReadSealedPrefix(SegmentId segment, IoClass io_class,
                                                 uint64_t* bytes_read) const {
  // The first chunk covers a lightly used segment whole; each later one
  // quadruples what has been read, so a full segment costs a few reads.
  constexpr size_t kFirstChunk = 16 << 10;
  const uint64_t base = device_->geometry().BaseOffset(segment);
  const size_t size = device_->segment_size();
  std::string buf;
  auto view = [&](size_t n) -> StatusOr<const char*> {
    if (n > buf.size()) {
      const size_t have = buf.size();
      buf.resize(std::min(size, std::max({n, kFirstChunk, 4 * have})));
      TEBIS_RETURN_IF_ERROR(
          device_->Read(base + have, buf.size() - have, buf.data() + have, io_class));
      if (bytes_read != nullptr) {
        *bytes_read += buf.size() - have;
      }
    }
    return buf.data();
  };
  TEBIS_ASSIGN_OR_RETURN(size_t sealed, SealedLength(size, view));
  TEBIS_RETURN_IF_ERROR(view(sealed).status());
  buf.resize(sealed);
  return buf;
}

Status ValueLog::ForEachRecordIn(SegmentId segment, IoClass io_class,
                                 const std::function<Status(const LogRecord&)>& fn,
                                 uint64_t* bytes_read) const {
  TEBIS_ASSIGN_OR_RETURN(std::string sealed, ReadSealedPrefix(segment, io_class, bytes_read));
  return ForEachRecord(sealed, device_->geometry().BaseOffset(segment), fn);
}

void ValueLog::ForEachBufferRecord(Slice image,
                                   const std::function<void(const LogRecordView&)>& fn) {
  // A corruption marks the end of valid data, so its status is dropped.
  (void)WalkRecords(image, /*segment_base=*/0, [&fn](const LogRecordView& rec) {
    fn(rec);
    return Status::Ok();
  });
}

std::vector<LogRecord> ValueLog::DecodeBufferImage(Slice image) {
  std::vector<LogRecord> records;
  ForEachBufferRecord(image,
                      [&records](const LogRecordView& rec) { records.push_back(rec.ToRecord()); });
  return records;
}

}  // namespace tebis
