// BackupChannel that hands each control message to an in-process backup
// region. The data plane still flows through the registered RDMA buffer, and
// every control message is encoded, accounted as one padded request plus one
// ack, decoded from those same bytes and handed to the backup's Handle — the
// decoder the RPC server runs. Used by unit tests and by single-process
// benchmark setups where the full RPC path is not under test.
//
// Every control message is bracketed with the fault-injection sites of its
// type (SitesFor): the send site fires before the backup handler runs (a
// lost request — the backup never saw it), the ack site fires after (a lost
// acknowledgment — the backup DID apply the message but the primary doesn't
// know). With `max_attempts` > 1 the channel retries Unavailable outcomes,
// which is why the backup handlers are idempotent: an ack-lost retry
// re-delivers an already-applied message.
#ifndef TEBIS_REPLICATION_LOCAL_BACKUP_CHANNEL_H_
#define TEBIS_REPLICATION_LOCAL_BACKUP_CHANNEL_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "src/net/fabric.h"
#include "src/net/message.h"
#include "src/replication/backup_channel.h"
#include "src/replication/replication_wire.h"
#include "src/telemetry/request_trace.h"
#include "src/testing/fault_injector.h"

namespace tebis {

class LocalBackupChannel : public BackupChannel {
 public:
  // `backup` is the Send-Index or Build-Index backup region; the channel
  // does not own it. `buffer` is the backup's registered log buffer;
  // `primary_name` is used only for traffic accounting of control messages.
  LocalBackupChannel(Fabric* fabric, std::string primary_name,
                     std::shared_ptr<RegisteredBuffer> buffer, ReplicationMessageHandler* backup,
                     int max_attempts = 1)
      : fabric_(fabric),
        primary_name_(std::move(primary_name)),
        buffer_(std::move(buffer)),
        backup_(backup),
        backup_name_(buffer_->owner()),
        max_attempts_(std::max(1, max_attempts)) {}

  Status RdmaWriteLog(uint64_t offset_in_segment, Slice record_bytes) override {
    return buffer_->RdmaWriteTagged(epoch(), offset_in_segment, record_bytes,
                                    CurrentRequestTrace());
  }

  const std::string& backup_name() const override { return backup_name_; }

  // Control messages re-sent after an Unavailable outcome.
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }

 protected:
  Status Deliver(const ReplicationMessage& msg) override {
    Status status = Status::Ok();
    for (int attempt = 0; attempt < max_attempts_; ++attempt) {
      if (attempt > 0) {
        retries_.fetch_add(1, std::memory_order_relaxed);
      }
      status = DeliverOnce(msg);
      if (!status.IsUnavailable()) {
        return status;
      }
    }
    return status;
  }

 private:
  // Fault sites per message type; kNumSites means the type has no such site.
  // Compaction begin and trim are fire-and-forget (no ack site); replay start
  // has no site at all.
  struct FaultSites {
    FaultSite send;
    FaultSite ack;
  };
  static FaultSites SitesFor(MessageType type) {
    switch (type) {
      case MessageType::kFlushLog:
        return {FaultSite::kReplFlushSend, FaultSite::kReplFlushAck};
      case MessageType::kCompactionBegin:
        return {FaultSite::kReplCompactionBeginSend, FaultSite::kNumSites};
      case MessageType::kIndexSegment:
        return {FaultSite::kReplIndexSegmentSend, FaultSite::kReplIndexSegmentAck};
      case MessageType::kFilterBlock:
        return {FaultSite::kReplFilterBlockSend, FaultSite::kReplFilterBlockAck};
      case MessageType::kCompactionEnd:
        return {FaultSite::kReplCompactionEndSend, FaultSite::kReplCompactionEndAck};
      case MessageType::kLogTrim:
        return {FaultSite::kReplTrimSend, FaultSite::kNumSites};
      default:
        return {FaultSite::kNumSites, FaultSite::kNumSites};
    }
  }

  Status DeliverOnce(const ReplicationMessage& msg) {
    const MessageType type = ReplicationMessageType(msg);
    const FaultSites sites = SitesFor(type);
    FaultInjector* injector = fabric_->fault_injector();
    if (injector != nullptr && sites.send != FaultSite::kNumSites) {
      // Request lost in flight: the backup never sees the message.
      TEBIS_RETURN_IF_ERROR(injector->OnSite(sites.send, primary_name_, backup_name_));
    }
    const std::string payload = EncodeReplicationMessage(msg);
    AccountControlMessage(payload.size());
    TEBIS_ASSIGN_OR_RETURN(ReplicationMessage decoded, DecodeReplicationMessage(type, payload));
    TEBIS_RETURN_IF_ERROR(backup_->Handle(decoded));
    if (injector != nullptr && sites.ack != FaultSite::kNumSites) {
      // Ack lost in flight: the backup applied the message but the primary
      // cannot tell — a retry re-delivers it.
      TEBIS_RETURN_IF_ERROR(injector->OnSite(sites.ack, backup_name_, primary_name_));
    }
    return Status::Ok();
  }

  void AccountControlMessage(size_t payload_size) {
    // One request + one fixed-size ack, padded like the real protocol.
    const size_t request =
        MessageWireSize(PaddedPayloadSize(payload_size, /*allow_empty=*/false));
    const size_t ack = MessageWireSize(PaddedPayloadSize(0, /*allow_empty=*/false));
    fabric_->AccountWrite(primary_name_, backup_name_, request + kWireOverheadPerWrite);
    fabric_->AccountWrite(backup_name_, primary_name_, ack + kWireOverheadPerWrite);
  }

  Fabric* const fabric_;
  const std::string primary_name_;
  std::shared_ptr<RegisteredBuffer> buffer_;
  ReplicationMessageHandler* const backup_;
  const std::string backup_name_;
  const int max_attempts_;
  // Concurrent streams retry independently.
  std::atomic<uint64_t> retries_{0};
};

}  // namespace tebis

#endif  // TEBIS_REPLICATION_LOCAL_BACKUP_CHANNEL_H_
