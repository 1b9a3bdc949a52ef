// The two small mappings every backup keeps (paper §3.2, §3.3):
//  * the log map   — <primary log segment, backup log segment>, updated on
//    every tail flush; ~16 B per 2 MB of log.
//  * the index map — <primary index segment, backup index segment>, populated
//    while a shipped compaction streams in and dropped when it completes.
//
// The index map supports *reservations*: a shipped segment may reference a
// primary segment that has not arrived yet (a parent node shipped before a
// child's segment sealed); the backup allocates the local segment eagerly and
// fills it when the bytes arrive.
#ifndef TEBIS_REPLICATION_SEGMENT_MAP_H_
#define TEBIS_REPLICATION_SEGMENT_MAP_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/wire.h"
#include "src/storage/segment.h"

namespace tebis {

class SegmentMap {
 public:
  Status Insert(SegmentId primary, SegmentId backup);
  StatusOr<SegmentId> Lookup(SegmentId primary) const;
  bool Contains(SegmentId primary) const { return entries_.contains(primary); }

  // Returns the mapping for `primary`, allocating a local segment via
  // `allocate` and installing the entry if absent.
  StatusOr<SegmentId> GetOrReserve(SegmentId primary,
                                   const std::function<StatusOr<SegmentId>()>& allocate);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

  // Iteration in primary-segment order.
  const std::map<SegmentId, SegmentId>& entries() const { return entries_; }

  // Approximate in-memory footprint (16 B per entry, as in the paper).
  size_t MemoryBytes() const { return entries_.size() * 16; }

  // Wire round trip (used when a new primary broadcasts its log map, §3.2).
  void Serialize(WireWriter* w) const;
  static StatusOr<SegmentMap> Deserialize(WireReader* r);

  // Promotion re-keying (§3.2): this node's map is keyed by the *old*
  // primary's segments; `new_primary_map` maps old-primary segments to the
  // new primary's local segments. The result maps new-primary segments to
  // this node's local segments. Entries the new primary does not know are
  // dropped (it never had them, so it can never reference them).
  StatusOr<SegmentMap> RekeyForNewPrimary(const SegmentMap& new_primary_map) const;

  // Swaps keys and values (graceful demotion: the old primary derives its
  // backup-side log map from the promoted node's). Fails on duplicate values.
  StatusOr<SegmentMap> Invert() const;

 private:
  std::map<SegmentId, SegmentId> entries_;
};

// Flat snapshot of a log map for the Send-Index rewrite (§3.3), which
// translates every shipped leaf entry: one slot per primary segment id up to
// the largest mapped one, so a lookup is an array read. Its size follows the
// primary's segment ids, which its device's segment count bounds.
class LogSegmentTable {
 public:
  LogSegmentTable() = default;
  LogSegmentTable(const SegmentMap& map, SegmentGeometry geometry);

  // The offset moved into its segment's local counterpart. An id absent
  // from the snapshot, or past the end of the table, is refused exactly as
  // SegmentMap::Lookup refuses it (NotFound).
  StatusOr<uint64_t> Translate(uint64_t offset) const {
    const SegmentId primary = geometry_.SegmentOf(offset);
    if (primary >= local_.size() || local_[primary] == kInvalidSegment) {
      return Unmapped(primary);
    }
    return geometry_.Translate(offset, local_[primary]);
  }

  // The refusal both this table and SegmentMap::Lookup return.
  static Status Unmapped(SegmentId primary);

 private:
  SegmentGeometry geometry_{kDefaultSegmentSize};
  std::vector<SegmentId> local_;  // kInvalidSegment where unmapped
};

}  // namespace tebis

#endif  // TEBIS_REPLICATION_SEGMENT_MAP_H_
