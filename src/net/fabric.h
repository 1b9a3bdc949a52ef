// In-process simulated RDMA fabric. One-sided RDMA WRITE is modelled as a
// memcpy into the remote node's registered memory plus a local work
// completion; the remote CPU is never involved — exactly the property the
// Tebis protocols rely on (paper §2, §3.2, §3.4).
//
// Every transfer is accounted against per-node traffic counters (plus a
// fixed per-message wire overhead), which is what the network-amplification
// experiments measure.
#ifndef TEBIS_NET_FABRIC_H_
#define TEBIS_NET_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/telemetry/trace.h"

namespace tebis {

class FaultInjector;

// Approximate per-RDMA-write wire overhead (Ethernet + IP + UDP + RoCE BTH).
inline constexpr uint64_t kWireOverheadPerWrite = 66;

struct NodeTraffic {
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> bytes_received{0};
};

class Fabric;

// A chunk of memory registered on `owner` that a single remote peer may write
// with one-sided operations. Used for client request rings, client reply
// rings, and the per-region value-log replication buffers.
class RegisteredBuffer {
 public:
  RegisteredBuffer(Fabric* fabric, std::string owner, std::string writer, size_t size);

  size_t size() const { return data_.size(); }

  // One-sided write by `writer_` (accounted as writer->owner traffic). The
  // owner's CPU is not involved.
  Status RdmaWrite(uint64_t offset, Slice bytes);

  // One-sided write carrying the writer's replication epoch as an out-of-line
  // header word. Writes below the owner's fence epoch are rejected before the
  // memcpy — the simulation analogue of revoking a deposed primary's memory
  // registration so its in-flight RDMA writes complete with an error.
  //
  // `trace`: the request trace id of the sampled op whose doorbell
  // produced this write, kNoTrace otherwise. A sampled write that lands
  // invokes the owner's commit listener after the critical section, which is
  // how the backup records its commit span under the client's trace id —
  // the write itself stays one-sided.
  Status RdmaWriteTagged(uint64_t epoch, uint64_t offset, Slice bytes,
                         TraceId trace = kNoTrace);

  // Owner-installed observer for sampled tagged writes that landed. Invoked
  // outside write_mutex_, on the writer's thread (the simulation stand-in
  // for the owner noticing the committed bytes). Install nullptr to clear —
  // owners must clear before their telemetry plane dies.
  using CommitListener = std::function<void(TraceId trace, uint64_t epoch, uint64_t offset,
                                            size_t bytes, uint64_t start_ns, uint64_t end_ns)>;
  void set_commit_listener(CommitListener listener);

  // Raises the fence: tagged writes with epoch < `min_epoch` fail from now
  // on. The owner calls this when it learns of a configuration change.
  void Fence(uint64_t min_epoch);

  // Atomically raises the fence and copies the buffer contents. Tagged writes
  // serialize with this, so the returned image can never contain a torn
  // record from a write that straddled the fence — the simulation analogue of
  // de-registering the memory region before reading it (in-flight DMA either
  // completed before the revoke or faults). Promotion uses this to capture
  // the deposed primary's replication buffer.
  std::string FenceAndSnapshot(uint64_t min_epoch);

  uint64_t fence_epoch() const { return fence_epoch_.load(std::memory_order_acquire); }
  // Epoch carried by the most recent accepted tagged write (0 if none).
  uint64_t last_writer_epoch() const {
    return last_writer_epoch_.load(std::memory_order_acquire);
  }
  // Number of tagged writes rejected by the fence.
  uint64_t stale_write_rejects() const {
    return stale_write_rejects_.load(std::memory_order_relaxed);
  }

  // One-sided write of a protocol message: the body is stored first, then the
  // rendezvous magics with release ordering, so a concurrently polling reader
  // never observes a torn message (models RDMA write last-byte ordering).
  Status RdmaWriteMessage(uint64_t offset, const struct MessageHeader& header, Slice payload);

  // Same encoding, but bypasses fault injection and traffic accounting. Used
  // only to patch a ring hole after a *failed* message write (the server's
  // rendezvous scan would otherwise stall on the dead slot forever) — the
  // moral equivalent of the ring resync a QP reconnect performs.
  Status RdmaWriteMessageResync(uint64_t offset, const struct MessageHeader& header,
                                Slice payload);

  // Owner-side access (polling / persisting the buffer).
  const char* data() const { return data_.data(); }
  char* mutable_data() { return data_.data(); }

  // Owner-side read of the whole buffer in place: runs `fn` on its bytes
  // while tagged writes are held off, so `fn` never sees a record a
  // concurrent one-sided append is still landing, and nothing is copied.
  // `fn` must not call back into this buffer.
  void ReadView(const std::function<void(Slice bytes)>& fn);

  // Owner-side store of `bytes` at `offset`, serialized with tagged writes;
  // no traffic is accounted. The range must fit the buffer. The replication
  // buffer is one tail mirror at [0, segment): a log flush seals it by
  // storing the pad marker after the tail, then zeroes the first header, so
  // buffer parsing restarts from an empty prefix (a 4-byte zero key_size
  // terminates record iteration).
  void StoreRange(size_t offset, Slice bytes);

  const std::string& owner() const { return owner_; }
  const std::string& writer() const { return writer_; }

 private:
  Fabric* const fabric_;
  const std::string owner_;
  const std::string writer_;
  std::vector<char> data_;
  // Serializes tagged writes against FenceAndSnapshot(). Plain RdmaWrite and
  // the message protocol stay lock-free: rings are single-writer and order
  // visibility through the rendezvous words instead.
  std::mutex write_mutex_;
  std::atomic<uint64_t> fence_epoch_{0};
  std::atomic<uint64_t> last_writer_epoch_{0};
  std::atomic<uint64_t> stale_write_rejects_{0};
  // Guarded by listener_mutex_; copied out per sampled write only, so the
  // unsampled path never touches it.
  std::mutex listener_mutex_;
  std::shared_ptr<const CommitListener> commit_listener_;
};

// Simulated RDMA network connecting named nodes.
class Fabric {
 public:
  Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Registers `size` bytes on `owner`, writable by `writer`.
  std::shared_ptr<RegisteredBuffer> RegisterBuffer(const std::string& owner,
                                                   const std::string& writer, size_t size);

  // Traffic accounting (called by RegisteredBuffer).
  void AccountWrite(const std::string& from, const std::string& to, uint64_t bytes);

  uint64_t BytesSent(const std::string& node) const;
  uint64_t BytesReceived(const std::string& node) const;
  // Total bytes that crossed the fabric (each transfer counted once).
  uint64_t TotalBytes() const;
  void ResetTraffic();

  // Attaches (nullptr detaches) a fault injector; every subsequent one-sided
  // write consults it before touching the destination buffer.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_acquire);
  }

 private:
  NodeTraffic& TrafficFor(const std::string& node);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<NodeTraffic>> traffic_;
  std::atomic<uint64_t> total_bytes_{0};
  std::atomic<FaultInjector*> fault_injector_{nullptr};
};

}  // namespace tebis

#endif  // TEBIS_NET_FABRIC_H_
