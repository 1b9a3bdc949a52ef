// BackupChannel over the simulated RDMA message protocol: each control message
// is encoded and sent through an RpcClient to the backup's region server; the
// data plane writes the registered log buffer directly (one-sided).
#ifndef TEBIS_REPLICATION_RPC_BACKUP_CHANNEL_H_
#define TEBIS_REPLICATION_RPC_BACKUP_CHANNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/net/rpc_client.h"
#include "src/replication/backup_channel.h"

namespace tebis {

class RpcBackupChannel : public BackupChannel {
 public:
  // Builds one dedicated connection per shipping stream: each stream gets its
  // own rings — its own queue-pair slot — so concurrent streams do not
  // serialize on one connection's send lock. kNoStream traffic (data-plane
  // flushes, trim, replay start) stays on the base `client`. May return null
  // to keep a stream on the shared client.
  using StreamClientFactory = std::function<std::unique_ptr<RpcClient>(StreamId)>;

  // `client` is a dedicated connection from the primary server to the backup
  // server (owned by this channel); `region_id` routes to the backup region.
  // `call_timeout_ns` bounds every control call: a backup that does not
  // acknowledge within the deadline surfaces Unavailable to the primary
  // instead of wedging the calling thread.
  RpcBackupChannel(std::unique_ptr<RpcClient> client, uint32_t region_id,
                   std::shared_ptr<RegisteredBuffer> buffer,
                   uint64_t call_timeout_ns = kDefaultRpcCallTimeoutNs,
                   StreamClientFactory stream_client_factory = nullptr);

  Status RdmaWriteLog(uint64_t offset_in_segment, Slice record_bytes) override;
  const std::string& backup_name() const override { return backup_name_; }

  // The underlying connection (e.g. to set an RpcRetryPolicy for fault
  // tolerance, or read its stats).
  RpcClient* client() { return client_.get(); }

 protected:
  // Encodes `msg` and calls the backup on the message's stream.
  Status Deliver(const ReplicationMessage& msg) override;

 private:
  // A connection slot: the (non-thread-safe) client plus the short lock held
  // only for sends and reply probes — never across a wait.
  struct ClientSlot {
    RpcClient* client = nullptr;  // owned or the channel's base client_
    std::unique_ptr<RpcClient> owned;
    bool resolved = false;  // the factory already ran for this stream
    std::mutex mutex;
  };

  Status CallChecked(MessageType type, Slice payload, StreamId stream);
  // Sends under the slot's short client lock, then waits for the reply
  // polling the slot briefly per probe — the lock is never held across a
  // wait, so streams sharing a slot keep their own requests in flight.
  StatusOr<RpcReply> CallOnSlot(ClientSlot* slot, MessageType type, Slice payload,
                                size_t reply_alloc);
  std::mutex* StreamMutex(StreamId stream);
  // The connection a stream's calls go out on: its dedicated per-stream
  // client when the factory produced one, else the shared base client. The
  // caller must hold the stream's call mutex (slot creation for a stream
  // races only with itself).
  ClientSlot* SlotFor(StreamId stream);

  std::unique_ptr<RpcClient> client_;
  const uint32_t region_id_;
  std::shared_ptr<RegisteredBuffer> buffer_;
  const std::string backup_name_;
  const uint64_t call_timeout_ns_;
  const StreamClientFactory stream_client_factory_;
  // Per-stream call mutexes: requests complete out of order (§3.4.1), so
  // per-stream *ordering* needs a lock held across the whole call. With a
  // StreamClientFactory each stream also gets its own ClientSlot, so nothing
  // below the call mutex is shared between streams; without one, every
  // stream's slot aliases the base client.
  std::mutex table_mutex_;
  std::map<StreamId, std::unique_ptr<std::mutex>> stream_mutexes_;
  std::map<StreamId, std::unique_ptr<ClientSlot>> stream_slots_;
  ClientSlot shared_slot_;
};

}  // namespace tebis

#endif  // TEBIS_REPLICATION_RPC_BACKUP_CHANNEL_H_
