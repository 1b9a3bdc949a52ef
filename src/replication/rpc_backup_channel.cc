#include "src/replication/rpc_backup_channel.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/clock.h"
#include "src/replication/replication_wire.h"
#include "src/telemetry/request_trace.h"

namespace tebis {

RpcBackupChannel::RpcBackupChannel(std::unique_ptr<RpcClient> client, uint32_t region_id,
                                   std::shared_ptr<RegisteredBuffer> buffer,
                                   uint64_t call_timeout_ns,
                                   StreamClientFactory stream_client_factory)
    : client_(std::move(client)),
      region_id_(region_id),
      buffer_(std::move(buffer)),
      backup_name_(buffer_->owner()),
      call_timeout_ns_(call_timeout_ns),
      stream_client_factory_(std::move(stream_client_factory)) {
  shared_slot_.client = client_.get();
}

Status RpcBackupChannel::RdmaWriteLog(uint64_t offset_in_segment, Slice record_bytes) {
  return buffer_->RdmaWriteTagged(epoch(), offset_in_segment, record_bytes,
                                  CurrentRequestTrace());
}

std::mutex* RpcBackupChannel::StreamMutex(StreamId stream) {
  std::lock_guard<std::mutex> lock(table_mutex_);
  std::unique_ptr<std::mutex>& slot = stream_mutexes_[stream];
  if (slot == nullptr) {
    slot = std::make_unique<std::mutex>();
  }
  return slot.get();
}

RpcBackupChannel::ClientSlot* RpcBackupChannel::SlotFor(StreamId stream) {
  if (!stream_client_factory_ || stream == kNoStream) {
    return &shared_slot_;
  }
  ClientSlot* slot;
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    std::unique_ptr<ClientSlot>& entry = stream_slots_[stream];
    if (entry == nullptr) {
      entry = std::make_unique<ClientSlot>();
    }
    slot = entry.get();
  }
  if (slot->client == nullptr && !slot->resolved) {
    // Built outside table_mutex_ (endpoint registration takes its own locks);
    // safe because only this stream — serialized by its call mutex — can be
    // populating its slot.
    slot->owned = stream_client_factory_(stream);
    slot->resolved = true;
    if (slot->owned != nullptr) {
      slot->owned->set_retry_policy(client_->retry_policy());
      slot->client = slot->owned.get();
    }
  }
  // A factory that declined (returned null) keeps the stream on the shared
  // slot — never alias the base client under a different mutex.
  return slot->client != nullptr ? slot : &shared_slot_;
}

StatusOr<RpcReply> RpcBackupChannel::CallOnSlot(ClientSlot* slot, MessageType type, Slice payload,
                                                size_t reply_alloc) {
  // Mirrors RpcClient::Call's retry loop, but holds the slot's client lock
  // only for the send and for each completion probe, so concurrent streams
  // keep their own requests in flight even when they share a connection.
  RpcRetryPolicy policy;
  {
    std::lock_guard<std::mutex> lock(slot->mutex);
    policy = slot->client->retry_policy();
  }
  uint64_t backoff_ns = policy.initial_backoff_ns;
  const int max_attempts = std::max(1, policy.max_attempts);
  Status last = Status::Ok();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0 && backoff_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(backoff_ns));
      backoff_ns = std::min<uint64_t>(static_cast<uint64_t>(backoff_ns * policy.backoff_multiplier),
                                      policy.max_backoff_ns);
    }
    StatusOr<uint64_t> id = [&]() -> StatusOr<uint64_t> {
      std::lock_guard<std::mutex> lock(slot->mutex);
      return slot->client->SendRequest(type, region_id_, payload, reply_alloc);
    }();
    if (!id.ok()) {
      last = id.status();
      if (last.IsUnavailable() || last.code() == StatusCode::kResourceExhausted) {
        continue;
      }
      return last;
    }
    const uint64_t deadline = NowNanos() + call_timeout_ns_;
    RpcReply reply;
    bool done = false;
    while (!done) {
      {
        std::lock_guard<std::mutex> lock(slot->mutex);
        done = slot->client->TryGetReply(id.value(), &reply);
      }
      if (done) {
        return reply;
      }
      if (NowNanos() > deadline) {
        break;
      }
      std::this_thread::yield();
    }
    last = Status::Unavailable("rpc timeout waiting for reply " + std::to_string(id.value()));
  }
  return last;
}

Status RpcBackupChannel::CallChecked(MessageType type, Slice payload, StreamId stream) {
  // Held across the whole call: messages of one stream stay strictly ordered
  // (begin -> segments -> filter -> end) while other streams proceed.
  std::lock_guard<std::mutex> stream_lock(*StreamMutex(stream));
  TEBIS_ASSIGN_OR_RETURN(RpcReply reply,
                         CallOnSlot(SlotFor(stream), type, payload, /*reply_alloc=*/16));
  if (reply.header.flags & kFlagError) {
    const std::string detail = "backup " + backup_name_ + " rejected " + MessageTypeName(type) +
                               ": " + reply.payload;
    // Epoch fencing (§3.5) must keep its code across the wire: the primary
    // treats FailedPrecondition as "I am deposed", never as replica sickness,
    // and never retries it. Error replies carry Status::ToString(), which
    // leads with the code name.
    if (reply.payload.rfind("FailedPrecondition", 0) == 0) {
      return Status::FailedPrecondition(detail);
    }
    return Status::Internal(detail);
  }
  return Status::Ok();
}

Status RpcBackupChannel::Deliver(const ReplicationMessage& msg) {
  // Compaction-plane messages travel on their shipping stream; log flushes,
  // trim and replay start are stream-less.
  const StreamId stream = std::visit(
      [](const auto& m) -> StreamId {
        if constexpr (requires { m.stream_id; }) {
          return m.stream_id;
        } else {
          return kNoStream;
        }
      },
      msg);
  return CallChecked(ReplicationMessageType(msg), EncodeReplicationMessage(msg), stream);
}

}  // namespace tebis
