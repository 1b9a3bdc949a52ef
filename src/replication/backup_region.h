// The backup half of a hosted region, whichever engine maintains it:
// Send-Index (rewrites the primary's shipped index, §3.3) or Build-Index
// (re-inserts flushed records and compacts on its own, §4). A region handle
// holds one of these, so every role-dependent call dispatches once here.
// Calls only Send-Index supports (scrub, repair, re-keying to a new primary's
// log map) are answered by the Build-Index engine itself: FailedPrecondition
// or a no-op, as each declaration says.
#ifndef TEBIS_REPLICATION_BACKUP_REGION_H_
#define TEBIS_REPLICATION_BACKUP_REGION_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lsm/compaction.h"
#include "src/lsm/kv_store.h"
#include "src/lsm/value_log.h"
#include "src/net/fabric.h"
#include "src/replication/replication_wire.h"
#include "src/replication/segment_map.h"
#include "src/telemetry/metrics.h"

namespace tebis {

class BackupRegion : public ReplicationMessageHandler {
 public:
  virtual ~BackupRegion() = default;

  // --- replica reads, fenced by the client's {min_epoch, min_seq} ---

  // A read this replica cannot answer consistently yet is rejected with
  // FailedPrecondition. On success `*visible_seq` (when non-null) is the
  // replica's visible commit sequence, >= min_seq.
  virtual StatusOr<std::string> Get(Slice key, uint64_t min_epoch, uint64_t min_seq,
                                    uint64_t* visible_seq) = 0;
  virtual StatusOr<std::vector<KvPair>> Scan(Slice start, size_t limit, uint64_t min_epoch,
                                             uint64_t min_seq, uint64_t* visible_seq) = 0;
  // Unfenced lookup through what the replica has persisted (Send-Index: its
  // device levels; Build-Index: its engine), for consistency checks on a
  // quiesced region.
  virtual StatusOr<std::string> DebugGet(Slice key) = 0;

  // --- epoch fencing (§3.5) ---

  // Raise-to-at-least; also fences the RDMA buffer at the new epoch.
  virtual void set_region_epoch(uint64_t epoch) = 0;
  virtual uint64_t region_epoch() const = 0;
  // Control messages rejected as stale-epoch.
  virtual uint64_t epoch_rejected() const = 0;

  // --- promotion (§3.5) ---

  // Primary segment -> local segment. Only valid on a quiesced region.
  virtual const SegmentMap& log_map() const = 0;
  // Converts the backup into a primary engine; the object is consumed. With
  // `replay_rdma_buffer` false the caller replays the unflushed buffer
  // through the wrapped PrimaryRegion instead, so the re-appends replicate.
  virtual StatusOr<std::unique_ptr<KvStore>> Promote(bool replay_rdma_buffer) = 0;
  // A different backup was promoted: re-key the log map to the new primary's
  // segments (idempotent per `epoch`). Build-Index keys nothing on primary
  // segments, so it only adopts a non-zero `epoch`.
  virtual Status AdoptNewPrimaryLogMap(const SegmentMap& new_primary_log_map,
                                       uint64_t epoch) = 0;

  // Memtable bytes; Send-Index keeps no L0 (the §5.5 saving).
  virtual uint64_t l0_memory_bytes() const = 0;
  const RegisteredBuffer* rdma_buffer() const { return rdma_buffer_.get(); }

  // --- integrity: scrub and online repair ---

  // Build-Index owns no shipped, checksummed index: Scrub,
  // RepairQuarantinedLevels and ServeRepairFetch answer FailedPrecondition
  // and QuarantinedLevels is always empty.
  virtual StatusOr<KvStore::ScrubReport> Scrub(const KvStore::ScrubOptions& options) = 0;
  virtual std::vector<int> QuarantinedLevels() const = 0;
  virtual Status RepairQuarantinedLevels(const KvStore::SegmentFetcher& fetch) = 0;
  // One index segment of `level` in PRIMARY space, verified; `*crc_out`
  // (when non-null) is its CRC32C.
  virtual StatusOr<std::string> ServeRepairFetch(uint32_t level, uint64_t seg_index,
                                                 uint32_t* crc_out) = 0;

 protected:
  BackupRegion(std::shared_ptr<RegisteredBuffer> rdma_buffer, uint64_t segment_size)
      : rdma_buffer_(std::move(rdma_buffer)), segment_size_(segment_size) {}

  // --- log flushes (§3.2); the caller holds its state lock exclusive ---

  // The image a flush of `tail_bytes` persists from `family`'s buffer half
  // (main at [0, segment), large-value at [segment, 2*segment)). Puts the
  // pad marker in the image's last 4 bytes, where the buffer holds the zero
  // terminator of the tail's last append, so the image equals the bytes the
  // primary's seal wrote. InvalidArgument — not FailedPrecondition, which
  // means "you are deposed" on this wire — for `tail_bytes` below 4 or
  // above a segment, or a large-family flush into a one-segment buffer.
  StatusOr<Slice> SealBufferHalf(uint32_t family, uint64_t tail_bytes);
  // After the sealed image is persisted: raises the flushed commit sequence
  // to `commit_seq` and scrubs the half's first header, so buffer parsing
  // restarts empty rather than counting the absorbed records twice toward
  // the visible sequence. Safe exactly then: FlushLog is synchronous, so the
  // primary is blocked on the ack and is not appending the next tail yet.
  void AbsorbBufferHalf(uint32_t family, uint64_t commit_seq);

  // --- replica reads; the caller holds its state lock (shared or more) ---

  // A consistent snapshot of the RDMA buffer decoded into records (append
  // order per family); returns the replica's visible commit sequence.
  uint64_t ParseBufferLocked(std::vector<LogRecord>* records) const;
  // The read fence (§3.5) of every replica read: rejects a read whose
  // `min_epoch` is above this replica's epoch, or whose `min_seq` is above
  // its visible sequence, with FailedPrecondition (counted in
  // read_rejects_epoch_ / read_rejects_seq_). On success `*records` holds
  // the decoded buffer and `*visible` the visible sequence.
  Status CheckReadFenceLocked(uint64_t min_epoch, uint64_t min_seq,
                              std::vector<LogRecord>* records, uint64_t* visible) const;

  // The log buffer the primary writes one-sided.
  std::shared_ptr<RegisteredBuffer> rdma_buffer_;
  const uint64_t segment_size_;
  // Highest primary commit sequence absorbed by a log flush. Guarded by the
  // engine's state lock.
  uint64_t flushed_commit_seq_ = 0;
  // backup.read_rejects_{epoch,seq}, registered by the engine.
  Counter* read_rejects_epoch_ = nullptr;
  Counter* read_rejects_seq_ = nullptr;
};

// A replica scan from `start`: merges `overlay` — the records the replica's
// index does not cover yet, one version per key — as the newest source over
// `older` (newest first, each positioned at `start`, outliving the call) and
// returns up to `limit` live pairs. An overlay winner's value is its
// record's; a winner from `older` gets its value from `older_value`.
using MergeValueReader = std::function<StatusOr<std::string>(const MergeEntry& winner)>;
StatusOr<std::vector<KvPair>> ScanOverOverlay(const std::map<std::string, LogRecord>& overlay,
                                              Slice start, size_t limit,
                                              const std::vector<MergeSource*>& older,
                                              const MergeValueReader& older_value);

}  // namespace tebis

#endif  // TEBIS_REPLICATION_BACKUP_REGION_H_
