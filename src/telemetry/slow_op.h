// Slow-op log: a bounded ring of structured records for any client op
// that exceeded its per-type latency threshold. Each record keeps enough
// context to chase the outlier after the fact — key prefix, region, epoch,
// trace id (when the op was sampled), and the per-stage breakdown from the
// request-trace scope — and the whole ring is exposed through ScrapeJson so
// the stats tool and the federated cluster document can surface it.
//
// Thresholds live in relaxed atomics so the per-op check is a single load;
// a threshold of 0 disables that op type. Recording takes the ring mutex,
// which only happens for ops already slow enough to care about.
#ifndef TEBIS_TELEMETRY_SLOW_OP_H_
#define TEBIS_TELEMETRY_SLOW_OP_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/request_trace.h"
#include "src/telemetry/trace.h"

namespace tebis {

enum class SlowOpType : uint8_t { kPut = 0, kGet = 1, kDelete = 2, kScan = 3, kBatch = 4 };
inline constexpr size_t kNumSlowOpTypes = 5;

const char* SlowOpTypeName(SlowOpType type);

// Per-type latency thresholds in nanoseconds; 0 disables the type. Configure
// once at node setup, before traffic.
struct SlowOpPolicy {
  uint64_t put_ns = 0;
  uint64_t get_ns = 0;
  uint64_t delete_ns = 0;
  uint64_t scan_ns = 0;
  uint64_t batch_ns = 0;

  uint64_t ThresholdFor(SlowOpType type) const;
  bool AnyEnabled() const {
    return put_ns != 0 || get_ns != 0 || delete_ns != 0 || scan_ns != 0 || batch_ns != 0;
  }
};

struct SlowOpRecord {
  SlowOpType type = SlowOpType::kPut;
  std::string key_prefix;          // first bytes of the (first) key, for locality triage
  uint32_t region = 0;
  uint64_t epoch = 0;
  TraceId trace = kNoTrace;        // kNoTrace when the op was not sampled
  uint64_t total_ns = 0;
  RequestStageTimings stages;      // zero when the op ran without a trace scope
  uint64_t end_ns = 0;             // NowNanos() when the op completed
};

class SlowOpLog {
 public:
  static constexpr size_t kDefaultCapacity = 128;
  static constexpr size_t kKeyPrefixBytes = 16;

  explicit SlowOpLog(size_t capacity = kDefaultCapacity) : capacity_(capacity) {}
  SlowOpLog(const SlowOpLog&) = delete;
  SlowOpLog& operator=(const SlowOpLog&) = delete;

  void Configure(const SlowOpPolicy& policy);

  // Relaxed per-type threshold; 0 = disabled.
  uint64_t threshold(SlowOpType type) const {
    return thresholds_[static_cast<size_t>(type)].load(std::memory_order_relaxed);
  }

  // Records the op if total_ns exceeded the type's threshold. Returns true
  // when a record was written. `stages` may be nullptr (no trace scope).
  bool MaybeRecord(SlowOpType type, std::string_view key, uint32_t region, uint64_t epoch,
                   TraceId trace, uint64_t total_ns, const RequestStageTimings* stages,
                   uint64_t end_ns);

  std::vector<SlowOpRecord> Snapshot() const;
  uint64_t total() const;    // slow ops ever recorded
  uint64_t dropped() const;  // records overwritten because the ring was full
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  std::atomic<uint64_t> thresholds_[kNumSlowOpTypes] = {};
  mutable std::mutex mutex_;
  std::vector<SlowOpRecord> ring_;
  size_t next_ = 0;
  uint64_t total_ = 0;
};

// JSON array of slow-op records (the "slow_ops" section of ScrapeJson and the
// federated cluster document).
std::string SlowOpsJson(const std::vector<SlowOpRecord>& records);

}  // namespace tebis

#endif  // TEBIS_TELEMETRY_SLOW_OP_H_
