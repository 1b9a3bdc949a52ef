// Read-path integrity verification for one published level.
//
// A level's segments each carry the CRC32C fingerprint a BTreeBuilder
// recorded when it wrote them (SegmentChecksum). ReadAndMatch is the one
// check: read a segment's checksummed prefix in one device read and match
// it. Every reader of level bytes goes through it — the first-touch check of
// a lookup, the scrub's forced re-check, the repair donor, and a cache-less
// level stream (BTreeIterator), which serves its nodes from the very buffer
// it checked, so a compaction reads each input segment once.
//
// A SegmentVerifier keeps the per-segment verdicts of one level, shared by
// every reader of it: the first read that checks a segment caches its
// verdict, so steady-state lookups pay one atomic load. A mismatch marks the
// segment bad and quarantines the level — every subsequent read through the
// verifier fails with kCorruption until repair re-installs good bytes and
// resets the verdict. The scrubber (PacedScrub, level_read.h) re-checks
// every segment through the same object with force=true, and a stream
// re-checks each segment it reads, so bit-rot that lands *after* the first
// verification is still caught.
#ifndef TEBIS_LSM_SEGMENT_VERIFIER_H_
#define TEBIS_LSM_SEGMENT_VERIFIER_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/btree_builder.h"
#include "src/storage/block_device.h"

namespace tebis {

// True when `bytes` are exactly the bytes `expected` fingerprints.
bool MatchesChecksum(Slice bytes, const SegmentChecksum& expected);

// Reads the checksummed prefix of `segment` (expected.length bytes, one
// device read as `io_class`; none when the prefix is empty) into `out` and
// returns whether those bytes match `expected`. Only an I/O failure is an
// error; a mismatch is the caller's verdict to record.
StatusOr<bool> ReadAndMatch(BlockDevice* device, SegmentId segment,
                            const SegmentChecksum& expected, IoClass io_class, std::string* out);

class SegmentVerifier {
 public:
  // `label` names the level in corruption messages ("L2"). The segment and
  // checksum vectors must be parallel, as every BuiltTree's are.
  SegmentVerifier(BlockDevice* device, std::vector<SegmentId> segments,
                  std::vector<SegmentChecksum> checksums, std::string label);

  SegmentVerifier(const SegmentVerifier&) = delete;
  SegmentVerifier& operator=(const SegmentVerifier&) = delete;

  // Index of `segment` in segments(), or nullopt when it is not one of this
  // level's segments.
  std::optional<size_t> IndexOf(SegmentId segment) const;

  // Verifies the segment containing `node_offset` (cached verdict fast path).
  // kCorruption if that segment — or a previous check of it — mismatched.
  Status VerifyForOffset(uint64_t node_offset, IoClass io_class);

  // Verifies one segment by index. force=true recomputes even when a cached
  // ok verdict exists (scrub: catch damage that landed after the last check).
  Status VerifySegment(size_t idx, IoClass io_class, bool force);

  // Reads segment `idx`'s checksummed prefix into `out` through ReadAndMatch
  // and records the verdict, whatever the cached one was: kCorruption (and
  // the level quarantined) when the bytes mismatch. A segment already marked
  // bad fails without a read.
  Status ReadSegment(size_t idx, IoClass io_class, std::string* out);

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
