// Read-side primitives over published device levels, shared by every holder
// of them. A Send-Index backup's levels are the primary's levels byte for
// byte in another address space (paper §3.3), so KvStore and the backup
// probe, scrub and serve repair reads of them through this one code:
//  * ProbeLevel — one level of a point lookup: filter gate, tree descent,
//    false-positive accounting;
//  * PacedScrub — force re-verification of every level's segments plus a
//    parse of every flushed value-log segment, paced by one token bucket;
//  * ReadSegmentVerified / InstallRepairedSegment — the donor and repairer
//    halves of online repair, at the byte level.
// The newest-wins merge that scans run on lives with the compaction merge
// (MergeIterator, compaction.h).
#ifndef TEBIS_LSM_LEVEL_READ_H_
#define TEBIS_LSM_LEVEL_READ_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/btree_builder.h"
#include "src/lsm/btree_node.h"
#include "src/lsm/page_cache.h"
#include "src/lsm/segment_verifier.h"
#include "src/lsm/value_log.h"
#include "src/storage/block_device.h"
#include "src/telemetry/metrics.h"

namespace tebis {

// Filter instruments one level probe updates (per level on a primary,
// summed over levels on a backup).
struct FilterCounters {
  Counter* checks = nullptr;           // probes that consulted a filter
  Counter* negatives = nullptr;        // probes the filter excluded (tree skipped)
  Counter* false_positives = nullptr;  // filter said maybe, tree said NotFound
};

// Full-key loader for point lookups whose leaf search ties on a key prefix:
// one kLookup read of a record's header + key through `cache` (may be null).
// Two pointers fit std::function's inline storage, so a Get allocates none.
FullKeyLoader LookupKeyLoader(const ValueLog* log, PageCache* cache);

// One level of a point lookup: the leaf entry of `key` in `tree`, or
// NotFound (empty tree, filter negative, or absent). `key_hash` is
// KeyHash(key), computed once per lookup. The filter gate is
// presence-gated, not option-gated: a tree without a filter just descends.
// Nodes are read as IoClass::kLookup through `cache` (may be null) and
// checked by `verifier` (may be null), so a quarantined level fails with
// kCorruption.
StatusOr<LeafEntry> ProbeLevel(BlockDevice* device, size_t node_size, PageCache* cache,
                               const BuiltTree& tree, SegmentVerifier* verifier, Slice key,
                               uint64_t key_hash, const FullKeyLoader& loader,
                               const FilterCounters& counters);

struct ScrubOptions {
  // Token-bucket pacing cap on scrub read bandwidth (0 = unpaced). Burst is
  // one segment.
  uint64_t bytes_per_sec = 0;
  // Also walk every flushed value-log segment end to end (record CRCs).
  bool include_value_log = true;
};

struct ScrubReport {
  uint64_t bytes_scrubbed = 0;
  uint64_t corruptions_found = 0;
  std::vector<int> quarantined_levels;
};

// The integrity.* instruments every replica registers under its own labels.
struct IntegrityCounters {
  Counter* scrub_bytes = nullptr;
  Counter* corruptions_found = nullptr;
  Counter* corruptions_repaired = nullptr;
  Counter* repair_fetches = nullptr;
  Gauge* quarantined_levels = nullptr;  // levels currently refusing reads
};
IntegrityCounters RegisterIntegrityCounters(MetricsRegistry* registry,
                                            const MetricLabels& labels);

// Runs `verify` while the segments of `level` stay allocated, or returns
// false without running it once `verifier` no longer serves that level (the
// level was replaced and its segments may already be free).
using ScrubPin = std::function<bool(int level, const SegmentVerifier* verifier,
                                    const std::function<void()>& verify)>;

// Force-re-verifies every segment of every level (`levels[i]` is level i's
// verifier, never null; entry 0 unused), then, when
// options.include_value_log, parses every flushed segment of `log`. Reads
// are IoClass::kScrub, paced by a token bucket refilled at
// options.bytes_per_sec with a one-segment burst and charged per byte read.
// Rot quarantines a level and is reported, never an error; only an I/O
// failure fails the scrub. Adds the totals to `counters` and publishes the
// quarantined-level count. Without `pin` the caller keeps every level alive
// for the pass (a read snapshot); a flushed log segment trimmed mid-scrub is
// skipped.
StatusOr<ScrubReport> PacedScrub(BlockDevice* device, const std::vector<SegmentVerifier*>& levels,
                                 const ValueLog& log, const ScrubOptions& options,
                                 const IntegrityCounters& counters,
                                 const ScrubPin& pin = nullptr);

// Donor side of repair: the checksummed prefix of segment `seg_index` of
// `tree` (level `level`, for messages), read and matched by ReadAndMatch and
// returned only when it matches its own checksum — a corrupt donor must
// never propagate its rot. InvalidArgument for an index out of range.
StatusOr<std::string> ReadSegmentVerified(BlockDevice* device, const BuiltTree& tree, int level,
                                          size_t seg_index);

// Repairer side: writes verified replacement `bytes` over segment `idx` of
// the level `verifier` guards, drops its stale cache pages (`cache` may be
// null), and re-verifies it, which lifts the quarantine once nothing else is
// bad.
Status InstallRepairedSegment(BlockDevice* device, PageCache* cache, SegmentVerifier* verifier,
                              size_t idx, Slice bytes);

}  // namespace tebis

#endif  // TEBIS_LSM_LEVEL_READ_H_
