// Per-stream credit-based flow control over a backup's shared replication
// buffer. The primary ships index segments for several concurrent
// compaction streams through one connection budget; without per-stream
// accounting a single stalled stream (slow backup apply, injected stall,
// congested link) could queue enough bytes to starve every other stream of
// the shared buffer. The controller splits the budget into equal per-stream
// credit caps: a stream may never hold more than pool/max_streams bytes in
// flight, so the other streams always have headroom to make progress.
//
// Acquire() blocks until credit is available or the timeout expires; a
// timeout returns Unavailable, which feeds the caller's strike/detach policy
// — flow-control starvation on one stream strikes that stream, not the
// whole backup.
#ifndef TEBIS_NET_FLOW_CONTROL_H_
#define TEBIS_NET_FLOW_CONTROL_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>

#include "src/common/status.h"
#include "src/replication/compaction_stream.h"

namespace tebis {

class StreamFlowController {
 public:
  // `pool_bytes` is the shared budget (typically the replication connection
  // buffer size); `max_streams` sets the per-stream cap at
  // max(pool_bytes / max_streams, 1).
  StreamFlowController(uint64_t pool_bytes, uint32_t max_streams);

  StreamFlowController(const StreamFlowController&) = delete;
  StreamFlowController& operator=(const StreamFlowController&) = delete;

  // Charges `bytes` (clamped to the per-stream cap, so one oversized segment
  // cannot deadlock) against `stream`'s credit and the shared pool. Blocks
  // until the charge fits; returns Unavailable if `timeout_ns` elapses first
  // (0 means wait forever). On success the caller must pair with Release().
  // If `waited_ns` is non-null it receives the time spent blocked, success or
  // not.
  Status Acquire(StreamId stream, uint64_t bytes, uint64_t timeout_ns,
                 uint64_t* waited_ns = nullptr);

  // Returns the credit taken by the matching Acquire(). Safe to call from any
  // thread; wakes all waiters.
  void Release(StreamId stream, uint64_t bytes);

  uint64_t pool_bytes() const { return pool_; }
  uint64_t per_stream_cap() const { return cap_; }

  // Bytes currently charged across all streams.
  uint64_t in_flight() const;

 private:
  uint64_t Charge(uint64_t bytes) const { return bytes < cap_ ? bytes : cap_; }

  const uint64_t pool_;
  const uint64_t cap_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  uint64_t total_ = 0;                     // guarded by mutex_
  std::map<StreamId, uint64_t> in_use_;    // per-stream charge, guarded by mutex_
};

}  // namespace tebis

#endif  // TEBIS_NET_FLOW_CONTROL_H_
