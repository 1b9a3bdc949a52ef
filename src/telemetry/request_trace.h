// Thread-local request-trace context. A sampled client request gets a
// trace id that must reach the engine apply, the group-commit doorbell, and
// the replication fabric without threading a TraceId parameter through every
// signature on the write path. Instead, the dispatch site (RegionServer's op
// handler, or SimCluster's client-facing calls) installs a ScopedRequestTrace
// for the duration of the op; downstream layers read the current trace and
// accumulate per-stage timings through the free functions below.
//
// When no scope is installed (the common case: unsampled ops, standalone
// stores, compaction threads) CurrentRequestTrace() costs one thread-local
// load and returns kNoTrace, so the hot path stays branch-predictable.
//
// Stage timings are *inclusive*, matching the cluster CPU-breakdown
// convention elsewhere in the repo: the doorbell fan-out runs inside the
// engine apply (the value-log observer fires synchronously), so
// engine_ns covers doorbell_ns rather than excluding it.
#ifndef TEBIS_TELEMETRY_REQUEST_TRACE_H_
#define TEBIS_TELEMETRY_REQUEST_TRACE_H_

#include <cstdint>

#include "src/telemetry/trace.h"

namespace tebis {

struct RequestStageTimings {
  uint64_t engine_ns = 0;         // KvStore apply (includes the doorbell)
  uint64_t doorbell_ns = 0;       // replication fan-out on the primary
  uint64_t backup_commit_ns = 0;  // tagged fabric write landing on the backup
};

// RAII: installs `trace` as the calling thread's current request trace and
// restores the previous scope (scopes nest, e.g. a batch frame around a
// per-op fallback) on destruction.
class ScopedRequestTrace {
 public:
  explicit ScopedRequestTrace(TraceId trace);
  ~ScopedRequestTrace();
  ScopedRequestTrace(const ScopedRequestTrace&) = delete;
  ScopedRequestTrace& operator=(const ScopedRequestTrace&) = delete;

  TraceId trace() const { return trace_; }
  const RequestStageTimings& stages() const { return stages_; }
  RequestStageTimings* mutable_stages() { return &stages_; }

 private:
  ScopedRequestTrace* const prev_;
  const TraceId trace_;
  RequestStageTimings stages_;
};

// The calling thread's current request trace id, or kNoTrace when no scope is
// installed (or the installed scope carries kNoTrace — a slow-op-only scope).
TraceId CurrentRequestTrace();

// Stage accumulator of the innermost scope, or nullptr when none is
// installed. Callers use nullness to skip clock reads entirely on untraced
// paths.
RequestStageTimings* CurrentRequestStages();

}  // namespace tebis

#endif  // TEBIS_TELEMETRY_REQUEST_TRACE_H_
