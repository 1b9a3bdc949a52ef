#include "src/lsm/segment_verifier.h"

#include "src/common/crc32.h"
#include "src/common/logging.h"

namespace tebis {

namespace {
constexpr uint8_t kUnverified = 0;
constexpr uint8_t kOk = 1;
constexpr uint8_t kBad = 2;
}  // namespace

bool MatchesChecksum(Slice bytes, const SegmentChecksum& expected) {
  return bytes.size() == expected.length && Crc32c(bytes.data(), bytes.size()) == expected.crc;
}

StatusOr<bool> ReadAndMatch(BlockDevice* device, SegmentId segment,
                            const SegmentChecksum& expected, IoClass io_class, std::string* out) {
  out->resize(expected.length);
  if (expected.length == 0) {
    return true;  // nothing written, nothing to rot
  }
  TEBIS_RETURN_IF_ERROR(device->Read(device->geometry().BaseOffset(segment), expected.length,
                                     out->data(), io_class));
  return MatchesChecksum(Slice(*out), expected);
}

SegmentVerifier::SegmentVerifier(BlockDevice* device, std::vector<SegmentId> segments,
                                 std::vector<SegmentChecksum> checksums, std::string label)
    : device_(device),
      segments_(std::move(segments)),
      checksums_(std::move(checksums)),
      label_(std::move(label)),
      verdicts_(std::make_unique<std::atomic<uint8_t>[]>(segments_.size())) {
  TEBIS_CHECK(checksums_.size() == segments_.size()) << label_ << ": " << checksums_.size()
                                                     << " checksums for " << segments_.size()
                                                     << " segments";
  for (size_t i = 0; i < segments_.size(); ++i) {
    index_of_[segments_[i]] = i;
    verdicts_[i].store(kUnverified, std::memory_order_relaxed);
  }
}

Status SegmentVerifier::BadStatus(size_t idx) const {
  return Status::Corruption("index segment " + std::to_string(segments_[idx]) + " (" + label_ +
                            ") on device " + device_->name() + " @" +
                            std::to_string(device_->geometry().BaseOffset(segments_[idx])) +
                            ": crc mismatch");
}

void SegmentVerifier::RecomputeQuarantine() {
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (verdicts_[i].load(std::memory_order_acquire) == kBad) {
      quarantined_.store(true, std::memory_order_release);
      return;
    }
  }
  quarantined_.store(false, std::memory_order_release);
}

std::optional<size_t> SegmentVerifier::IndexOf(SegmentId segment) const {
  auto it = index_of_.find(segment);
  if (it == index_of_.end()) {
    return std::nullopt;
  }
  return it->second;
}

Status SegmentVerifier::VerifyForOffset(uint64_t node_offset, IoClass io_class) {
  const std::optional<size_t> idx = IndexOf(device_->geometry().SegmentOf(node_offset));
  if (!idx.has_value()) {
    // Not one of this level's segments — nothing to check here.
    return Status::Ok();
  }
  return VerifySegment(*idx, io_class, /*force=*/false);
}

Status SegmentVerifier::VerifySegment(size_t idx, IoClass io_class, bool force) {
  const uint8_t verdict = verdicts_[idx].load(std::memory_order_acquire);
  if (verdict == kOk && !force) {
    return Status::Ok();
  }
  std::string bytes;
  return ReadSegment(idx, io_class, &bytes);
}

Status SegmentVerifier::ReadSegment(size_t idx, IoClass io_class, std::string* out) {
  if (verdicts_[idx].load(std::memory_order_acquire) == kBad) {
    return BadStatus(idx);
  }
  TEBIS_ASSIGN_OR_RETURN(bool matched,
                         ReadAndMatch(device_, segments_[idx], checksums_[idx], io_class, out));
  if (!matched) {
    verdicts_[idx].store(kBad, std::memory_order_release);
    quarantined_.store(true, std::memory_order_release);
    return BadStatus(idx);
  }
  verdicts_[idx].store(kOk, std::memory_order_release);
  return Status::Ok();
}

std::vector<size_t> SegmentVerifier::BadSegments() const {
  std::vector<size_t> bad;
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (verdicts_[i].load(std::memory_order_acquire) == kBad) {
      bad.push_back(i);
    }
  }
  return bad;
}

void SegmentVerifier::ResetSegment(size_t idx) {
  verdicts_[idx].store(kUnverified, std::memory_order_release);
  RecomputeQuarantine();
}

}  // namespace tebis
