// Pipeline span tracing: every compaction the KvStore scheduler claims
// gets a trace id derived from (replication epoch, shipping stream id) — the
// two values already stamped on every shipped wire message (flush/begin/
// segment/end), so the backup reconstructs the primary's trace id without any
// wire-format change and attaches its rewrite/commit spans to the same trace.
//
// Request-scoped tracing extends the same buffer to client requests:
// a sampled put/get/batch gets a request trace id (bit 63 set, so it can
// never collide with a compaction trace id) carried in a trailing wire field,
// and its client / primary-apply / engine / doorbell / backup-commit spans
// all land under that one id.
//
// Spans land in a bounded per-node buffer and dump as chrome://tracing
// "complete" events. When the buffer is full, retention evicts the oldest
// *whole trace tree* (every span sharing the oldest span's trace id), never
// individual spans — a partial tree renders broken in chrome://tracing. A
// stream id is reused across compactions, so within one epoch a compaction
// trace id recurs over time; spans carry the compaction id to disambiguate
// when a capture window spans reuse.
#ifndef TEBIS_TELEMETRY_TRACE_H_
#define TEBIS_TELEMETRY_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tebis {

using TraceId = uint64_t;
inline constexpr TraceId kNoTrace = 0;

// (epoch+1) << 32 | stream: nonzero for every valid stream (epoch 0 is the
// standalone/SimCluster configuration), identical on both ends of the wire.
inline TraceId MakeTraceId(uint64_t epoch, uint32_t stream) {
  return ((epoch + 1) << 32) | stream;
}

// Request trace ids set bit 63; compaction ids keep it clear (epochs stay far
// below 2^30), so the two families never collide. The source hash keeps ids
// from distinct clients apart, the sequence number keeps one client's sampled
// requests apart.
inline constexpr TraceId kRequestTraceBit = 1ull << 63;
inline TraceId MakeRequestTraceId(uint64_t source_hash, uint64_t seq) {
  return kRequestTraceBit | ((source_hash & 0x7fff) << 48) | (seq & ((1ull << 48) - 1));
}
inline bool IsRequestTrace(TraceId id) { return (id & kRequestTraceBit) != 0; }

struct SpanRecord {
  TraceId trace = kNoTrace;
  uint64_t compaction_id = 0;
  const char* name = "";  // static string ("claim", "merge_build", ...)
  std::string node;       // emitting node (NodeLabel of the owner's labels)
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int src_level = -1;
  int dst_level = -1;
  uint64_t bytes = 0;  // payload size for ship/rewrite spans
};

// Bounded mutex-guarded buffer with whole-tree eviction. Capacity 0 disables
// recording entirely — the telemetry-overhead A/B's "off" arm and the default
// for standalone stores; callers branch on enabled() so a disabled buffer
// costs one load per span.
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity) : capacity_(capacity) {}
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  bool enabled() const { return capacity_ != 0; }
  size_t capacity() const { return capacity_; }

  void Record(SpanRecord span);

  // Recorded spans, oldest first. Empty when disabled.
  std::vector<SpanRecord> Snapshot() const;

  // Spans evicted because the buffer was full.
  uint64_t dropped() const;

 private:
  // Evicts every span sharing the oldest span's trace id. Called with mutex_
  // held when the buffer is at capacity.
  void EvictOldestTraceLocked();

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<SpanRecord> spans_;              // oldest first
  std::map<TraceId, size_t> trace_counts_;    // live span count per trace
  uint64_t evicted_ = 0;                      // spans removed by retention
};

// chrome://tracing JSON ("X" complete events, ts/dur in microseconds). Each
// distinct node becomes a pid with a process_name metadata record; span args
// carry trace id, compaction id, levels, and bytes.
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans);

}  // namespace tebis

#endif  // TEBIS_TELEMETRY_TRACE_H_
