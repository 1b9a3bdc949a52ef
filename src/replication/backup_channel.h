// How a primary region talks to one backup replica. The data plane (value-log
// records) goes through one-sided RDMA writes into the backup's registered
// buffer — no backup CPU (paper §3.2). The control plane (flush, index
// shipping, trim, replay start) is one ReplicationMessage per call, handled by
// the backup's workers.
//
// Two implementations: RpcBackupChannel runs the real protocol over the
// simulated fabric; LocalBackupChannel round-trips the same encoded bytes to an
// in-process backup. Tests may implement the interface directly.
//
// Thread safety: with multiplexed shipping streams the primary sends
// compaction-plane messages from several background workers concurrently (one
// per stream) while the writer thread keeps driving RdmaWriteLog and log
// flushes. Implementations must tolerate that interleaving; per-stream
// ordering (begin -> segments -> filter -> end with one stream id) is
// guaranteed by the caller.
#ifndef TEBIS_REPLICATION_BACKUP_CHANNEL_H_
#define TEBIS_REPLICATION_BACKUP_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <variant>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/replication/replication_wire.h"

namespace tebis {

class BackupChannel {
 public:
  virtual ~BackupChannel() = default;

  // Data plane: one-sided write of a log record into the backup's RDMA buffer
  // at the record's offset within the tail segment.
  virtual Status RdmaWriteLog(uint64_t offset_in_segment, Slice record_bytes) = 0;

  // Control plane: stamps this channel's epoch into `msg` and delivers it.
  // Blocks until the backup acknowledges (or the delivery fails).
  Status Send(ReplicationMessage msg) {
    const uint64_t stamp = epoch();
    std::visit([stamp](auto& m) { m.epoch = stamp; }, msg);
    return Deliver(msg);
  }

  virtual const std::string& backup_name() const = 0;

  // Replication epoch stamped into every message this channel sends. The
  // primary raises it when the coordinator reconfigures the region; backups
  // reject older epochs (fencing, §3.5). Atomic because the primary's writer
  // thread and the background compaction workers both read it.
  void set_epoch(uint64_t epoch) { epoch_.store(epoch, std::memory_order_release); }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 protected:
  // Delivers one epoch-stamped control message to the backup.
  virtual Status Deliver(const ReplicationMessage& msg) = 0;

 private:
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace tebis

#endif  // TEBIS_REPLICATION_BACKUP_CHANNEL_H_
