#include "src/lsm/segment_verifier.h"

#include "src/common/crc32.h"

namespace tebis {

namespace {
constexpr uint8_t kUnverified = 0;
constexpr uint8_t kOk = 1;
constexpr uint8_t kBad = 2;
}  // namespace

SegmentVerifier::SegmentVerifier(BlockDevice* device, std::vector<SegmentId> segments,
                                 std::vector<SegmentChecksum> checksums, std::string label)
    : device_(device),
      segments_(std::move(segments)),
      checksums_(std::move(checksums)),
      label_(std::move(label)),
      verdicts_(std::make_unique<std::atomic<uint8_t>[]>(segments_.size())) {
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

Status SegmentVerifier::VerifyForOffset(uint64_t node_offset, IoClass io_class) {
  auto it = index_of_.find(device_->geometry().SegmentOf(node_offset));
  if (it == index_of_.end()) {
    // Not one of this level's segments — nothing to check here.
    return Status::Ok();
  }
  return VerifySegment(it->second, io_class, /*force=*/false);
}

Status SegmentVerifier::VerifySegment(size_t idx, IoClass io_class, bool force) {
  const uint8_t verdict = verdicts_[idx].load(std::memory_order_acquire);
  if (verdict == kBad) {
    return BadStatus(idx);
  }
  if (verdict == kOk && !force) {
    return Status::Ok();
  }
  const SegmentChecksum& expected = checksums_[idx];
  if (expected.length == 0) {
    verdicts_[idx].store(kOk, std::memory_order_release);
    return Status::Ok();
  }
  const uint64_t base = device_->geometry().BaseOffset(segments_[idx]);
  std::string buf(expected.length, '\0');
  TEBIS_RETURN_IF_ERROR(device_->Read(base, expected.length, buf.data(), io_class));
  if (Crc32c(buf.data(), buf.size()) != expected.crc) {
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
