// Read-path integrity verification for one published level.
//
// A verifier wraps the per-segment CRC32C fingerprints a BTreeBuilder
// recorded when it wrote the level and checks the on-device bytes against
// them. Verification is segment-granular and lazily cached: the first node
// read that touches a segment re-reads its used prefix once and caches the
// verdict, so steady-state lookups pay one atomic load. A mismatch marks the
// segment bad and quarantines the level — every subsequent read through the
// verifier fails with kCorruption until repair re-installs good bytes and
// resets the verdict. The scrubber (PacedScrub, level_read.h) re-verifies
// every segment through the same object with force=true, so bit-rot that
// lands *after* the first verification is still caught.
#ifndef TEBIS_LSM_SEGMENT_VERIFIER_H_
#define TEBIS_LSM_SEGMENT_VERIFIER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/btree_builder.h"
#include "src/storage/block_device.h"

namespace tebis {

class SegmentVerifier {
 public:
  // `label` names the level in corruption messages ("L2"). The segment and
  // checksum vectors must be parallel (BuiltTree::checksummed()).
  SegmentVerifier(BlockDevice* device, std::vector<SegmentId> segments,
                  std::vector<SegmentChecksum> checksums, std::string label);

  SegmentVerifier(const SegmentVerifier&) = delete;
  SegmentVerifier& operator=(const SegmentVerifier&) = delete;

  // Verifies the segment containing `node_offset` (cached verdict fast path).
  // kCorruption if that segment — or a previous check of it — mismatched.
  Status VerifyForOffset(uint64_t node_offset, IoClass io_class);

  // Verifies one segment by index. force=true recomputes even when a cached
  // ok verdict exists (scrub: catch damage that landed after the last check).
  Status VerifySegment(size_t idx, IoClass io_class, bool force);

  // True once any segment failed verification and has not been repaired.
  bool quarantined() const { return quarantined_.load(std::memory_order_acquire); }

  // Indexes (into segments()) of segments currently marked bad.
  std::vector<size_t> BadSegments() const;

  // Repair installed fresh bytes for segment `idx`: forget its verdict (and
  // clear the quarantine if nothing else is bad). The next touch re-verifies.
  void ResetSegment(size_t idx);

  const std::vector<SegmentId>& segments() const { return segments_; }
  const std::vector<SegmentChecksum>& checksums() const { return checksums_; }
  const std::string& label() const { return label_; }

 private:
  Status BadStatus(size_t idx) const;
  void RecomputeQuarantine();

  BlockDevice* const device_;
  const std::vector<SegmentId> segments_;
  const std::vector<SegmentChecksum> checksums_;
  const std::string label_;
  std::map<SegmentId, size_t> index_of_;
  // 0 = unverified, 1 = ok, 2 = bad. Concurrent verifiers of the same clean
  // segment race benignly (both compute the same verdict).
  std::unique_ptr<std::atomic<uint8_t>[]> verdicts_;
  std::atomic<bool> quarantined_{false};
};

}  // namespace tebis

#endif  // TEBIS_LSM_SEGMENT_VERIFIER_H_
