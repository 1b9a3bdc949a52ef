#include "src/net/rpc_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/clock.h"
#include "src/testing/fault_injector.h"

namespace tebis {

RpcClient::RpcClient(Fabric* fabric, std::string name, ServerEndpoint* server, size_t buffer_size,
                     Telemetry* telemetry, MetricLabels labels)
    : fabric_(fabric),
      name_(std::move(name)),
      send_ring_(buffer_size),
      reply_ring_(buffer_size),
      telemetry_(telemetry),
      labels_(std::move(labels)) {
  ServerEndpoint::ConnectionHandles handles = server->Accept(name_, buffer_size);
  request_buffer_ = handles.request_buffer;
  reply_buffer_ = handles.reply_buffer;
  if (telemetry_ == nullptr) {
    owned_telemetry_ = std::make_unique<Telemetry>();
    telemetry_ = owned_telemetry_.get();
  }
  MetricsRegistry* reg = telemetry_->metrics();
  stats_.calls = reg->GetCounter("net.rpc_calls", labels_);
  stats_.attempts = reg->GetCounter("net.rpc_attempts", labels_);
  stats_.send_failures = reg->GetCounter("net.rpc_send_failures", labels_);
  stats_.reply_timeouts = reg->GetCounter("net.rpc_reply_timeouts", labels_);
  stats_.exhausted = reg->GetCounter("net.rpc_exhausted", labels_);
}

void RpcClient::Poll() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = it->second;
    const char* at = reply_buffer_->data() + p.reply_offset;
    MessageHeader header;
    if (!TryDecodeHeader(at, &header) || !PayloadComplete(at, header)) {
      ++it;
      continue;
    }
    RpcReply reply;
    reply.header = header;
    reply.payload.assign(at + kMessageHeaderSize, header.payload_size);
    // Scrub the whole reply slot (not just the reply's wire size: the server
    // may have written a shorter message than we allocated).
    ScrubRendezvous(reply_buffer_->mutable_data() + p.reply_offset, p.reply_wire_size);
    send_ring_.Free(p.request_offset);
    reply_ring_.Free(p.reply_offset);
    if (!p.discard) {
      completed_.emplace(it->first, std::move(reply));
    }
    it = pending_.erase(it);
  }
}

Status RpcClient::SendNoopFiller(size_t wire_size) {
  // A NOOP that exactly fills the tail gap of the send ring (§3.4.2 case b).
  // It still needs a reply slot so we learn when the server consumed it.
  const size_t reply_wire = MessageWireSize(PaddedPayloadSize(0, /*allow_empty=*/false));
  TEBIS_ASSIGN_OR_RETURN(size_t reply_offset,
                         AllocateWithWrap(&reply_ring_, reply_wire, /*is_send_ring=*/false));
  auto send_alloc = send_ring_.Allocate(wire_size);
  if (send_alloc.status != RingAllocator::AllocStatus::kOk) {
    return Status::Internal("filler allocation must succeed for the tail gap");
  }
  MessageHeader header{};
  header.payload_size = 0;
  header.padded_payload_size = static_cast<uint32_t>(wire_size - kMessageHeaderSize);
  header.type = static_cast<uint16_t>(MessageType::kNoop);
  header.request_id = next_request_id_++;
  header.reply_offset = reply_offset;
  header.reply_alloc_size = static_cast<uint32_t>(reply_wire);
  // The padded area of a filler carries no payload, so write the payload
  // rendezvous only if there is a padded area.
  Status sent = request_buffer_->RdmaWriteMessage(send_alloc.offset, header, Slice());
  if (!sent.ok()) {
    // A dropped filler still must fill the gap, or the server's sequential
    // rendezvous scan stalls on it forever (see SendRequest's hole patch).
    TEBIS_RETURN_IF_ERROR(
        request_buffer_->RdmaWriteMessageResync(send_alloc.offset, header, Slice()));
  }
  pending_.emplace(header.request_id,
                   Pending{send_alloc.offset, reply_offset, reply_wire, /*discard=*/true});
  return Status::Ok();
}

StatusOr<size_t> RpcClient::AllocateWithWrap(RingAllocator* ring, size_t n, bool is_send_ring) {
  const uint64_t deadline = NowNanos() + kDefaultRpcCallTimeoutNs;
  while (true) {
    auto alloc = ring->Allocate(n);
    switch (alloc.status) {
      case RingAllocator::AllocStatus::kOk:
        return alloc.offset;
      case RingAllocator::AllocStatus::kNeedWrap:
        if (is_send_ring) {
          // Fill the tail gap with a NOOP so the server's rendezvous wraps.
          TEBIS_RETURN_IF_ERROR(SendNoopFiller(alloc.tail_gap));
        } else {
          // Reply ring gaps need no message: the client controls both sides.
          // Claim the gap as a discard region and wrap.
          auto gap = ring->Allocate(alloc.tail_gap);
          if (gap.status != RingAllocator::AllocStatus::kOk) {
            return Status::Internal("reply-ring gap allocation failed");
          }
          ring->Free(gap.offset);
        }
        continue;
      case RingAllocator::AllocStatus::kFull:
        Poll();  // reclaim completed slots
        if (NowNanos() > deadline) {
          return Status::ResourceExhausted("ring full: no replies draining");
        }
        std::this_thread::yield();
        continue;
    }
  }
}

StatusOr<uint64_t> RpcClient::SendRequest(MessageType type, uint32_t region_id, Slice payload,
                                          size_t reply_payload_alloc, uint32_t map_version) {
  const size_t padded = PaddedPayloadSize(payload.size(), /*allow_empty=*/false);
  const size_t wire = MessageWireSize(padded);
  const size_t reply_wire =
      MessageWireSize(PaddedPayloadSize(reply_payload_alloc, /*allow_empty=*/false));
  if (wire > send_ring_.capacity() || reply_wire > reply_ring_.capacity()) {
    return Status::InvalidArgument("message larger than connection buffers");
  }
  if (FaultInjector* injector = fabric_->fault_injector()) {
    TEBIS_RETURN_IF_ERROR(
        injector->OnSite(FaultSite::kRpcSend, name_, request_buffer_->owner()));
  }
  TEBIS_ASSIGN_OR_RETURN(size_t reply_offset,
                         AllocateWithWrap(&reply_ring_, reply_wire, /*is_send_ring=*/false));
  TEBIS_ASSIGN_OR_RETURN(size_t request_offset,
                         AllocateWithWrap(&send_ring_, wire, /*is_send_ring=*/true));

  MessageHeader header{};
  header.payload_size = static_cast<uint32_t>(payload.size());
  header.padded_payload_size = static_cast<uint32_t>(padded);
  header.type = static_cast<uint16_t>(type);
  header.region_id = region_id;
  header.request_id = next_request_id_++;
  header.reply_offset = reply_offset;
  header.reply_alloc_size = static_cast<uint32_t>(reply_wire);
  header.map_version = map_version;
  Status sent = request_buffer_->RdmaWriteMessage(request_offset, header, payload);
  if (!sent.ok()) {
    // The write never reached the server, but the server's rendezvous scan is
    // strictly sequential: a dead slot would stall it forever. Patch the hole
    // with a NOOP of the same wire size (transport-level resync, not subject
    // to fault injection); the server's NOOP reply then drains both slots
    // like any other filler.
    MessageHeader noop{};
    noop.payload_size = 0;
    noop.padded_payload_size = header.padded_payload_size;
    noop.type = static_cast<uint16_t>(MessageType::kNoop);
    noop.request_id = header.request_id;
    noop.reply_offset = reply_offset;
    noop.reply_alloc_size = static_cast<uint32_t>(reply_wire);
    Status patched = request_buffer_->RdmaWriteMessageResync(request_offset, noop, Slice());
    if (patched.ok()) {
      pending_.emplace(noop.request_id,
                       Pending{request_offset, reply_offset, reply_wire, /*discard=*/true});
    } else {
      send_ring_.Free(request_offset);
      reply_ring_.Free(reply_offset);
    }
    return sent;
  }
  pending_.emplace(header.request_id,
                   Pending{request_offset, reply_offset, reply_wire, /*discard=*/false});
  return header.request_id;
}

bool RpcClient::TryGetReply(uint64_t request_id, RpcReply* out) {
  Poll();
  auto it = completed_.find(request_id);
  if (it == completed_.end()) {
    return false;
  }
  *out = std::move(it->second);
  completed_.erase(it);
  return true;
}

StatusOr<RpcReply> RpcClient::WaitReply(uint64_t request_id, uint64_t timeout_ns) {
  const uint64_t deadline = NowNanos() + timeout_ns;
  RpcReply reply;
  while (!TryGetReply(request_id, &reply)) {
    if (NowNanos() > deadline) {
      return Status::Unavailable("rpc timeout waiting for reply " + std::to_string(request_id));
    }
    std::this_thread::yield();
  }
  return reply;
}

StatusOr<RpcReply> RpcClient::Call(MessageType type, uint32_t region_id, Slice payload,
                                   size_t reply_payload_alloc, uint32_t map_version,
                                   uint64_t timeout_ns) {
  stats_.calls->Increment();
  uint64_t backoff_ns = retry_policy_.initial_backoff_ns;
  const int max_attempts = std::max(1, retry_policy_.max_attempts);
  Status last = Status::Ok();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0 && backoff_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(backoff_ns));
      backoff_ns = std::min<uint64_t>(
          static_cast<uint64_t>(backoff_ns * retry_policy_.backoff_multiplier),
          retry_policy_.max_backoff_ns);
    }
    stats_.attempts->Increment();
    StatusOr<uint64_t> id = SendRequest(type, region_id, payload, reply_payload_alloc, map_version);
    if (!id.ok()) {
      stats_.send_failures->Increment();
      last = id.status();
      // Dropped sends (injected fault, partition) and full rings are
      // transient; anything else (oversized message, internal error) is not.
      if (last.IsUnavailable() || last.code() == StatusCode::kResourceExhausted) {
        continue;
      }
      return last;
    }
    StatusOr<RpcReply> reply = WaitReply(id.value(), timeout_ns);
    if (reply.ok()) {
      return reply;
    }
    last = reply.status();
    if (last.IsUnavailable()) {
      stats_.reply_timeouts->Increment();
      continue;
    }
    return last;
  }
  stats_.exhausted->Increment();
  return last;
}

}  // namespace tebis
