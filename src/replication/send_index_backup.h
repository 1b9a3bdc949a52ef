// A Send-Index backup replica (paper §3.3): it keeps the replicated value log
// and the device levels, but no L0 and no compactions. Shipped index segments
// are *rewritten* — every device offset gets its high-order bits replaced
// through the log map (leaf entries) or the index map (index-node children) —
// and written locally.
//
// Multiplexed shipping streams: the primary runs compactions of
// disjoint level pairs concurrently, so this backup keeps one rewrite state
// machine per stream id — N compactions can be mid-ship at once. Handlers are
// thread-safe: shared region state (log map, levels, stream table) is guarded
// by a short state lock, while the CPU-heavy segment rewrite runs under the
// owning stream's lock only, so streams rewrite in parallel.
#ifndef TEBIS_REPLICATION_SEND_INDEX_BACKUP_H_
#define TEBIS_REPLICATION_SEND_INDEX_BACKUP_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/lsm/btree_node.h"
#include "src/lsm/kv_store.h"
#include "src/lsm/level_read.h"
#include "src/lsm/segment_verifier.h"
#include "src/lsm/value_log.h"
#include "src/net/fabric.h"
#include "src/replication/backup_region.h"
#include "src/replication/compaction_stream.h"
#include "src/replication/replication_wire.h"
#include "src/replication/segment_map.h"
#include "src/storage/block_device.h"
#include "src/telemetry/telemetry.h"

namespace tebis {

class SendIndexBackupRegion final : public BackupRegion {
 public:
  // `rdma_buffer` is the log replication buffer the primary writes with
  // one-sided operations; it must be at least one segment large.
  static StatusOr<std::unique_ptr<SendIndexBackupRegion>> Create(
      BlockDevice* device, const KvStoreOptions& options,
      std::shared_ptr<RegisteredBuffer> rdma_buffer);

  // Graceful demotion (load balancing, §3.1): wraps a former primary's
  // durable parts as a backup of the newly promoted primary. `log_map` maps
  // the NEW primary's segments to this node's; `primary_flush_order` lists
  // the new primary's segment ids in flush order; `replay_from` is the L0
  // replay boundary carried over from the former primary's engine.
  static StatusOr<std::unique_ptr<SendIndexBackupRegion>> CreateFromParts(
      BlockDevice* device, const KvStoreOptions& options,
      std::shared_ptr<RegisteredBuffer> rdma_buffer, std::unique_ptr<ValueLog> log,
      std::vector<BuiltTree> levels, SegmentMap log_map,
      std::vector<SegmentId> primary_flush_order, size_t replay_from);

  SendIndexBackupRegion(const SendIndexBackupRegion&) = delete;
  SendIndexBackupRegion& operator=(const SendIndexBackupRegion&) = delete;

  // --- introspection ---

  const BuiltTree& level(uint32_t i) const { return levels_[i]; }
  ValueLog* value_log() override { return log_.get(); }
  uint64_t l0_memory_bytes() const override { return 0; }  // the headline saving
  // Compaction streams currently mid-ship.
  size_t active_streams() const;

  // Test/verification read path: lookup through the local device levels only
  // (backups have no L0), under the shared state lock like Get — a level
  // installed meanwhile frees the segments of the one it replaces.
  StatusOr<std::string> DebugGet(Slice key) override;

  // Where L0 replay starts on promotion (set by the replay-start message and
  // by every committed L0 -> L1 compaction).
  size_t replay_from() const;

  // --- integrity: scrub / online repair ---

  // The primary's scrub (PacedScrub) over this replica's shipped levels and
  // local value log: force re-verification, token-bucket paced. Each segment
  // is verified under the shared state lock, pacing sleeps without it, and a
  // level replaced mid-scrub is dropped from the pass. Corruption quarantines
  // the level and raises integrity.quarantined_levels; the report says what
  // was found. Never fails on rot — only on I/O errors.
  StatusOr<KvStore::ScrubReport> Scrub(const KvStore::ScrubOptions& options) override;
  StatusOr<KvStore::ScrubReport> Scrub() { return Scrub(KvStore::ScrubOptions()); }
  std::vector<int> QuarantinedLevels() const override;

  // Donor side: returns one index segment of `level` as the PRIMARY-space
  // bytes (re-deriving them by inverting this backup's rewrite through the
  // log/segment maps), verified against both the local and the retained
  // primary checksum — a corrupt donor never propagates. FailedPrecondition
  // when this level has no retained primary-space origin (e.g. installed by
  // demotion, not shipping); the requester then tries another peer.
  StatusOr<std::string> ServeRepairFetch(uint32_t level, uint64_t seg_index,
                                         uint32_t* crc_out = nullptr) override;

  // Repairer side: re-fetches every quarantined segment via `fetch` (which
  // returns PRIMARY-space bytes), verifies them against the retained primary
  // checksum, rewrites them back into local space, verifies against the local
  // checksum, installs, and lifts the quarantine.
  Status RepairQuarantinedLevels(const KvStore::SegmentFetcher& fetch) override;

 private:
  // `levels` has max_levels + 1 entries; each gets its verifier here.
  SendIndexBackupRegion(BlockDevice* device, const KvStoreOptions& options,
                        std::shared_ptr<RegisteredBuffer> rdma_buffer,
                        std::vector<BuiltTree> levels);

  // --- BackupRegion hooks ---

  // A flushed segment joins the unindexed suffix; nothing to do.
  Status OnLogFlushedLocked(SegmentId, Slice) override { return Status::Ok(); }
  // Rejects a trim during active streams (it would invalidate their log-map
  // snapshots; the primary drains compactions before GC) and shifts the L0
  // replay start past the trimmed prefix.
  Status PrepareTrimLocked(size_t segments) override;
  // The compaction plane (§3.3) and the replay start.
  Status HandleIndexMessage(const ReplicationMessage& msg) override;
  // Newest wins: unindexed flushed segments (newest first), then the device
  // levels.
  StatusOr<std::string> GetBelowBufferLocked(Slice key) override;
  // The not-yet-indexed records (log suffix under the buffer's) join the
  // device levels as the newest source of the primary's newest-wins merge.
  StatusOr<std::vector<KvPair>> ScanBelowBufferLocked(std::map<std::string, LogRecord> overlay,
                                                      Slice start, size_t limit) override;
  // Adopts the levels and value log, replays the log tail (segments after the
  // last L0 compaction) to rebuild L0, and aborts every half-shipped
  // compaction stream.
  StatusOr<std::unique_ptr<KvStore>> ReleaseStore() override;

  // --- control-plane handlers, dispatched by HandleIndexMessage ---

  // §3.3: compaction lifecycle, one state machine per `stream`.
  // `l0_boundary` (src_level == 0) is the primary's seal-time flushed-segment
  // count; the committed compaction moves replay_from_ there.
  Status HandleCompactionBegin(uint64_t compaction_id, int src_level, int dst_level,
                               StreamId stream, uint64_t l0_boundary);
  // `encoded` is the segment's wire form (index_codec.h) and `payload_crc`
  // the primary's CRC32C of the decoded image: a decode failure or a
  // mismatch rejects the segment before any pointer is rewritten. After the
  // rewrite the backup records the CRC of its *local* bytes so the installed
  // level is checksummed end to end.
  Status HandleIndexSegment(uint64_t compaction_id, SegmentId primary_segment, Slice encoded,
                            StreamId stream, uint32_t payload_crc);
  // Shipped bloom filter: validates and stages the primary's filter block on
  // the stream; the matching CompactionEnd installs it with the translated
  // tree. Unlike index segments the bytes install verbatim — filters hold key
  // fingerprints, not device offsets, so no rewrite.
  Status HandleFilterBlock(uint64_t compaction_id, Slice bytes, StreamId stream);
  // primary_tree.seg_checksums are the primary's per-segment CRCs; the
  // backup retains them so it can serve — and validate — repair fetches in
  // primary space. kCorruption when a listed segment was never rewritten or
  // its rewrite changed its length.
  Status HandleCompactionEnd(uint64_t compaction_id, int src_level, int dst_level,
                             const BuiltTree& primary_tree, StreamId stream);

  // Recovery/full sync (§3.5): overrides the L0-replay start point.
  void set_replay_from(size_t flushed_segment_index);


  // One in-flight shipping stream's rewrite state machine. `log_table`
  // is a flat snapshot of the log map taken at compaction begin: the primary
  // seals its tail before compacting, so every leaf offset the stream ships
  // references an already-mapped log segment — rewrites never need to see
  // flushes that land mid-stream, and can run without the region state lock.
  struct CompactionStream {
    uint64_t id = 0;
    int src_level = 0;
    int dst_level = 1;
    SegmentMap index_map;
    LogSegmentTable log_table;    // snapshot at begin
    size_t l0_boundary = 0;       // primary's seal-time boundary (L0 -> L1)
    std::mutex mutex;             // serializes rewrites within the stream
    // Filter block staged by HandleFilterBlock, installed at CompactionEnd
    // (guarded by `mutex`, like the rewrite state).
    std::string pending_filter;
    bool aborted = false;         // set by Promote; rejects further traffic
    // Reconstructed from (region epoch, stream id) at begin; rewrite/commit
    // spans attach to the primary's trace without any wire-format change.
    TraceId trace = kNoTrace;
    // CRC32C of each segment's LOCAL (rewritten) bytes, keyed by the primary
    // segment id it was shipped as; CompactionEnd installs them as the local
    // tree's seg_checksums (guarded by `mutex`, like the rewrite state).
    std::map<SegmentId, SegmentChecksum> local_crcs;
  };

  // Primary-space identity of one installed level: the primary's
  // segment ids and checksums, parallel to the local tree's segment list.
  // Lets this backup serve repair fetches (reverse rewrite) and validate
  // repair installs (forward rewrite). Empty when unknown — a level adopted
  // by demotion carries OLD-primary-space bytes and cannot interchange.
  struct LevelOrigin {
    std::vector<SegmentId> primary_segments;
    std::vector<SegmentChecksum> primary_checksums;
  };

  // The engine's own registry instruments ("backup.*", "integrity.*"), beside
  // the frame's.
  struct Instruments {
    Counter* rewrite_cpu_ns = nullptr;
    Counter* segments_rewritten = nullptr;
    Counter* offsets_rewritten = nullptr;
    Counter* streams_opened = nullptr;
    Counter* streams_aborted = nullptr;
    Counter* filter_blocks_installed = nullptr;
    FilterCounters filters;  // backup.filter_*, summed over levels
    Counter* segments_crc_rejected = nullptr;
    IntegrityCounters integrity;  // the integrity.* set every replica registers
    Counter* repair_serves = nullptr;
    Counter* read_corruptions = nullptr;
  };

  void InitTelemetry();
  void RecordSpan(const CompactionStream& stream, const char* name, uint64_t start_ns,
                  uint64_t end_ns, uint64_t bytes = 0) const;
  // Translates one shipped segment's offsets into local space through the
  // stream's tables (TranslateNodes, btree_node.h); backup.offsets_rewritten
  // gains the count once per segment.
  Status RewriteSegment(CompactionStream* stream, char* bytes, size_t size);
  // (Re)creates verifiers_[level] from levels_[level]'s checksums. Requires
  // state_mutex_ exclusive.
  void InstallVerifierLocked(int level);
  Status FreeTree(const BuiltTree& tree);

  // --- replica read helpers (all require state_mutex_) ---

  // Calls `fn` on every record of the flushed-but-unindexed log suffix
  // [replay_from_, end), oldest first, so a later record of a key is a newer
  // version. A record that fails its checksum ends the walk with kCorruption
  // (counted in read_corruptions): a read must not fall through to an older
  // version of the key the damaged record may hold.
  Status ForEachUnindexedLocked(const std::function<Status(const LogRecord&)>& fn);
  // Newest match for `key` in the unindexed suffix. NotFound when absent.
  StatusOr<LogRecord> FindUnindexedLocked(Slice key);
  // Lookup through the local device levels (top = newest), one ProbeLevel
  // per level.
  StatusOr<std::string> GetFromLevelsLocked(Slice key);
  // The value of the record a level entry points at, which must be `key`'s
  // live record (ValueLog::ReadIndexedRecord); a corrupt one bumps
  // read_corruptions.
  StatusOr<std::string> ReadLevelValue(Slice key, uint64_t log_offset);
  // Levels whose verifier is quarantined, and their count published to
  // integrity.quarantined_levels.
  std::vector<int> QuarantinedLevelsLocked() const;
  void PublishQuarantineLocked();

  // --- guarded by BackupRegion::state_mutex_ (taken before any
  // CompactionStream::mutex; the rewrite path takes only the stream mutex,
  // never the state lock while holding it; DebugGet and each Scrub segment
  // take it shared) ---
  std::unique_ptr<ValueLog> log_;
  std::vector<BuiltTree> levels_;  // [0] unused
  // Parallel to levels_: read-path verifier per level, never null (shared_ptr
  // so a scrub keeps it alive between its per-segment locks), and the
  // primary-space origin backing repair interchange.
  std::vector<std::shared_ptr<SegmentVerifier>> verifiers_;
  std::vector<LevelOrigin> origins_;
  // In-flight streams; shared_ptr so a handler can keep working on a stream
  // after dropping state_mutex_.
  std::map<StreamId, std::shared_ptr<CompactionStream>> streams_;
  // Last installed compaction per stream (dedups ack-lost retries).
  std::map<StreamId, uint64_t> last_completed_;
  // First flushed-segment index that is NOT yet reflected in the levels; L0
  // replay starts here on promotion.
  size_t replay_from_ = 0;

  std::string node_name_;
  Instruments counters_;
};

}  // namespace tebis

#endif  // TEBIS_REPLICATION_SEND_INDEX_BACKUP_H_
