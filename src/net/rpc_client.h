// Client side of the Tebis protocol (§3.4.1): the client owns both rings. It
// allocates a request slot in its send ring and a reply slot in its receive
// ring for every operation, RDMA-writes the request, and polls the reply slot
// for the server's RDMA-written answer. Requests complete out of order.
#ifndef TEBIS_NET_RPC_CLIENT_H_
#define TEBIS_NET_RPC_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/net/fabric.h"
#include "src/net/message.h"
#include "src/net/ring_allocator.h"
#include "src/net/server_endpoint.h"
#include "src/telemetry/telemetry.h"

namespace tebis {

struct RpcReply {
  MessageHeader header;
  std::string payload;
};

// The single RPC deadline used across the codebase: WaitReply/Call defaults,
// the KV client's per-operation timeout, and the replication channels' control
// calls all derive from this constant (override per call site when a test
// needs a tighter or looser budget).
inline constexpr uint64_t kDefaultRpcCallTimeoutNs = 2'000'000'000ull;  // 2 s

// Retry/backoff policy for Call(). The default (one attempt) preserves the
// historical fail-fast behavior; tests running under fault injection raise
// max_attempts so transient fabric faults are survivable.
struct RpcRetryPolicy {
  int max_attempts = 1;
  uint64_t initial_backoff_ns = 200'000;  // 200us
  double backoff_multiplier = 2.0;
  uint64_t max_backoff_ns = 50'000'000;  // 50ms
};

class RpcClient {
 public:
  // Establishes a connection to `server` under the client's `name`.
  // `telemetry` (optional) is the plane the client's "net.rpc_*" instruments
  // register in, stamped with `labels`; null means a private plane, keeping
  // the instruments per-connection.
  RpcClient(Fabric* fabric, std::string name, ServerEndpoint* server,
            size_t buffer_size = kDefaultConnectionBufferSize,
            Telemetry* telemetry = nullptr, MetricLabels labels = {});

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Sends a request asynchronously. `reply_payload_alloc` is the payload size
  // the client reserves for the reply (§3.4.1: put replies are fixed-size;
  // get/scan replies are a guess that grows on truncation). Returns the
  // request id. Blocks polling for ring space when the rings are full.
  StatusOr<uint64_t> SendRequest(MessageType type, uint32_t region_id, Slice payload,
                                 size_t reply_payload_alloc, uint32_t map_version = 0);

  // Polls once for completed replies; fills `out` and returns true if the
  // given request has completed.
  bool TryGetReply(uint64_t request_id, RpcReply* out);

  // Blocks (polling) until the reply arrives or `timeout_ns` elapses.
  StatusOr<RpcReply> WaitReply(uint64_t request_id,
                               uint64_t timeout_ns = kDefaultRpcCallTimeoutNs);

  // Convenience: send and wait.
  StatusOr<RpcReply> Call(MessageType type, uint32_t region_id, Slice payload,
                          size_t reply_payload_alloc, uint32_t map_version = 0,
                          uint64_t timeout_ns = kDefaultRpcCallTimeoutNs);

  size_t pending_requests() const { return pending_.size(); }
  const std::string& name() const { return name_; }

  // Adaptive default reply allocation (grows when the server reports
  // truncation).
  size_t default_reply_alloc() const { return default_reply_alloc_; }
  void set_default_reply_alloc(size_t n) { default_reply_alloc_ = n; }

  const RpcRetryPolicy& retry_policy() const { return retry_policy_; }
  void set_retry_policy(const RpcRetryPolicy& policy) { retry_policy_ = policy; }

  // The plane and labels the "net.rpc_*" instruments (calls, attempts,
  // send_failures, reply_timeouts, exhausted) register under.
  Telemetry* telemetry() const { return telemetry_; }
  const MetricLabels& telemetry_labels() const { return labels_; }

 private:
  struct Instruments {
    Counter* calls = nullptr;
    Counter* attempts = nullptr;
    Counter* send_failures = nullptr;
    Counter* reply_timeouts = nullptr;
    Counter* exhausted = nullptr;
  };

  struct Pending {
    size_t request_offset;
    size_t reply_offset;
    size_t reply_wire_size;
    bool discard;  // NOOP fillers: free silently on completion
  };

  // Scans pending reply slots for completed replies; stores them aside.
  void Poll();
  Status SendNoopFiller(size_t wire_size);
  StatusOr<size_t> AllocateWithWrap(RingAllocator* ring, size_t n, bool is_send_ring);

  Fabric* const fabric_;
  const std::string name_;
  std::shared_ptr<RegisteredBuffer> request_buffer_;  // we write requests here
  std::shared_ptr<RegisteredBuffer> reply_buffer_;    // server writes replies here

  RingAllocator send_ring_;
  RingAllocator reply_ring_;

  uint64_t next_request_id_ = 1;
  size_t default_reply_alloc_ = 1024;
  RpcRetryPolicy retry_policy_;
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_ = nullptr;
  const MetricLabels labels_;
  Instruments stats_;
  std::map<uint64_t, Pending> pending_;
  std::map<uint64_t, RpcReply> completed_;
};

}  // namespace tebis

#endif  // TEBIS_NET_RPC_CLIENT_H_
