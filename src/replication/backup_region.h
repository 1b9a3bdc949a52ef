// The backup half of a hosted region, whichever engine maintains it:
// Send-Index (rewrites the primary's shipped index, §3.3) or Build-Index
// (re-inserts flushed records and compacts on its own, §4). A region handle
// holds one of these, so every role-dependent call dispatches once here.
// Calls only Send-Index supports (scrub, repair, re-keying to a new primary's
// log map) are answered by the Build-Index engine itself: FailedPrecondition
// or a no-op, as each declaration says.
#ifndef TEBIS_REPLICATION_BACKUP_REGION_H_
#define TEBIS_REPLICATION_BACKUP_REGION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/lsm/kv_store.h"
#include "src/net/fabric.h"
#include "src/replication/replication_wire.h"
#include "src/replication/segment_map.h"

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
  explicit BackupRegion(std::shared_ptr<RegisteredBuffer> rdma_buffer)
      : rdma_buffer_(std::move(rdma_buffer)) {}

  // The log buffer the primary writes one-sided.
  std::shared_ptr<RegisteredBuffer> rdma_buffer_;
};

}  // namespace tebis

#endif  // TEBIS_REPLICATION_BACKUP_REGION_H_
