#include "src/net/fabric.h"

#include <cassert>
#include <cstring>

#include "src/common/clock.h"
#include "src/net/message.h"
#include "src/testing/fault_injector.h"

namespace tebis {

RegisteredBuffer::RegisteredBuffer(Fabric* fabric, std::string owner, std::string writer,
                                   size_t size)
    : fabric_(fabric), owner_(std::move(owner)), writer_(std::move(writer)), data_(size, 0) {}

Status RegisteredBuffer::RdmaWrite(uint64_t offset, Slice bytes) {
  if (offset + bytes.size() > data_.size()) {
    return Status::OutOfRange("RDMA write past registered region");
  }
  if (FaultInjector* injector = fabric_->fault_injector()) {
    TEBIS_RETURN_IF_ERROR(injector->OnFabricWrite(writer_, owner_));
  }
  // The payload body first; callers that need ordered visibility (the message
  // protocol) place their own release-store rendezvous words.
  memcpy(data_.data() + offset, bytes.data(), bytes.size());
  fabric_->AccountWrite(writer_, owner_, bytes.size() + kWireOverheadPerWrite);
  return Status::Ok();
}

Status RegisteredBuffer::RdmaWriteTagged(uint64_t epoch, uint64_t offset, Slice bytes,
                                         TraceId trace) {
  const uint64_t start_ns = trace != kNoTrace ? NowNanos() : 0;
  {
    // Fence check and memcpy form one critical section with
    // FenceAndSnapshot(): a write that passed the fence check must fully land
    // before a snapshot taken under the raised fence may read the buffer.
    std::lock_guard<std::mutex> lock(write_mutex_);
    // The fence check happens before the memcpy: a deposed primary's write
    // must never land, not land-then-be-noticed.
    if (epoch < fence_epoch_.load(std::memory_order_acquire)) {
      stale_write_rejects_.fetch_add(1, std::memory_order_relaxed);
      return Status::FailedPrecondition("stale replication epoch fenced by " + owner_);
    }
    TEBIS_RETURN_IF_ERROR(RdmaWrite(offset, bytes));
    // Track the newest epoch observed; monotonic under concurrent writers.
    uint64_t seen = last_writer_epoch_.load(std::memory_order_relaxed);
    while (seen < epoch &&
           !last_writer_epoch_.compare_exchange_weak(seen, epoch, std::memory_order_release)) {
    }
  }
  if (trace != kNoTrace) {
    std::shared_ptr<const CommitListener> listener;
    {
      std::lock_guard<std::mutex> lock(listener_mutex_);
      listener = commit_listener_;
    }
    if (listener != nullptr && *listener) {
      (*listener)(trace, epoch, offset, bytes.size(), start_ns, NowNanos());
    }
  }
  return Status::Ok();
}

void RegisteredBuffer::set_commit_listener(CommitListener listener) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  if (listener) {
    commit_listener_ = std::make_shared<const CommitListener>(std::move(listener));
  } else {
    commit_listener_.reset();
  }
}

void RegisteredBuffer::Fence(uint64_t min_epoch) {
  uint64_t cur = fence_epoch_.load(std::memory_order_relaxed);
  while (cur < min_epoch &&
         !fence_epoch_.compare_exchange_weak(cur, min_epoch, std::memory_order_release)) {
  }
}

std::string RegisteredBuffer::FenceAndSnapshot(uint64_t min_epoch) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  Fence(min_epoch);
  return std::string(data_.data(), data_.size());
}

void RegisteredBuffer::ReadView(const std::function<void(Slice bytes)>& fn) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  fn(Slice(data_.data(), data_.size()));
}

void RegisteredBuffer::StoreRange(size_t offset, Slice bytes) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  assert(offset <= data_.size() && bytes.size() <= data_.size() - offset);
  memcpy(data_.data() + offset, bytes.data(), bytes.size());
}

Status RegisteredBuffer::RdmaWriteMessage(uint64_t offset, const MessageHeader& header,
                                          Slice payload) {
  const size_t wire = MessageWireSize(header.padded_payload_size);
  if (offset + wire > data_.size()) {
    return Status::OutOfRange("RDMA message write past registered region");
  }
  if (FaultInjector* injector = fabric_->fault_injector()) {
    TEBIS_RETURN_IF_ERROR(injector->OnFabricWrite(writer_, owner_));
  }
  EncodeMessage(data_.data() + offset, header, payload);
  fabric_->AccountWrite(writer_, owner_, wire + kWireOverheadPerWrite);
  return Status::Ok();
}

Status RegisteredBuffer::RdmaWriteMessageResync(uint64_t offset, const MessageHeader& header,
                                                Slice payload) {
  const size_t wire = MessageWireSize(header.padded_payload_size);
  if (offset + wire > data_.size()) {
    return Status::OutOfRange("RDMA message write past registered region");
  }
  // Deliberately skips the fault injector: this models the transport-level
  // ring resync a QP re-establishment performs after a completion error, not
  // fresh application traffic. Not accounted as traffic either.
  EncodeMessage(data_.data() + offset, header, payload);
  return Status::Ok();
}

std::shared_ptr<RegisteredBuffer> Fabric::RegisterBuffer(const std::string& owner,
                                                         const std::string& writer, size_t size) {
  return std::make_shared<RegisteredBuffer>(this, owner, writer, size);
}

NodeTraffic& Fabric::TrafficFor(const std::string& node) {
  auto it = traffic_.find(node);
  if (it == traffic_.end()) {
    it = traffic_.emplace(node, std::make_unique<NodeTraffic>()).first;
  }
  return *it->second;
}

void Fabric::AccountWrite(const std::string& from, const std::string& to, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  TrafficFor(from).bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
  TrafficFor(to).bytes_received.fetch_add(bytes, std::memory_order_relaxed);
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

uint64_t Fabric::BytesSent(const std::string& node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = traffic_.find(node);
  return it == traffic_.end() ? 0 : it->second->bytes_sent.load(std::memory_order_relaxed);
}

uint64_t Fabric::BytesReceived(const std::string& node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = traffic_.find(node);
  return it == traffic_.end() ? 0 : it->second->bytes_received.load(std::memory_order_relaxed);
}

uint64_t Fabric::TotalBytes() const { return total_bytes_.load(std::memory_order_relaxed); }

void Fabric::ResetTraffic() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, traffic] : traffic_) {
    traffic->bytes_sent.store(0, std::memory_order_relaxed);
    traffic->bytes_received.store(0, std::memory_order_relaxed);
  }
  total_bytes_.store(0, std::memory_order_relaxed);
}

}  // namespace tebis
