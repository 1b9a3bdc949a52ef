// Unified metrics plane: a lock-sharded registry of named instruments
// — monotonic counters, gauges, and mergeable histograms — each identified by
// (name, labels). The registry is the one definition of every engine
// counter: hot paths update atomics, and tests, benches and the scrape all
// read the same instruments through a snapshot.
//
// Naming scheme (DESIGN.md §6): dotted `<subsystem>.<counter>` names —
// `kv.puts`, `repl.index_bytes_shipped`, `backup.rewrite_cpu_ns` — with low-
// cardinality labels drawn from {node, region, role, level, stream, backup}.
// Label values must come from configuration-bounded sets (server names,
// level numbers), never from keys or per-operation data.
#ifndef TEBIS_TELEMETRY_METRICS_H_
#define TEBIS_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/telemetry/trace.h"

namespace tebis {

// Ordered (key, value) pairs; kept sorted by key in the registry's canonical
// form so {a=1,b=2} and {b=2,a=1} name the same instrument.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// The `node` label if present, else all label values joined with '/', else
// "local". Used to stamp trace spans with the emitting node.
std::string NodeLabel(const MetricLabels& labels);

// Canonical instrument key: name + sorted labels, `kv.puts{node=s0,region=r3}`.
// Shared by the registry, the snapshot JSON, and the cluster federation layer
// so one key format names an instrument everywhere.
std::string CanonicalMetricKey(std::string_view name, const MetricLabels& labels);

// Monotonic counter. Relaxed atomics: counters order nothing; the consistency
// a snapshot needs is per-instrument atomicity, which the load provides.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time value (queue depths, in-flight bytes, high-water marks).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  // Monotonic high-water mark (CAS loop).
  void SetMax(int64_t value) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (value > seen &&
           !value_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Exemplar: the trace id of a sampled request that landed a value in
// this histogram, so a tail-latency bucket links back to the trace tree that
// produced it. A small ring keeps the most recent few.
struct HistogramExemplar {
  TraceId trace = kNoTrace;
  uint64_t value = 0;
};

// Mergeable distribution backed by common/Histogram. Mutex-guarded: Record is
// off the put fast path (latencies are recorded by the harness; durations by
// compaction jobs), so a per-instrument lock is cheap and keeps Histogram's
// bucket array coherent.
class HistogramInstrument {
 public:
  static constexpr size_t kMaxExemplars = 4;

  void Record(uint64_t value_ns, TraceId exemplar_trace = kNoTrace) {
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_.Record(value_ns);
    if (exemplar_trace != kNoTrace) {
      exemplars_[next_exemplar_ % kMaxExemplars] = {exemplar_trace, value_ns};
      next_exemplar_++;
    }
  }
  Histogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return histogram_;
  }
  // Most recent exemplars, oldest first (at most kMaxExemplars).
  std::vector<HistogramExemplar> Exemplars() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<HistogramExemplar> out;
    const size_t n = next_exemplar_ < kMaxExemplars ? next_exemplar_ : kMaxExemplars;
    for (size_t i = 0; i < n; ++i) {
      out.push_back(exemplars_[(next_exemplar_ - n + i) % kMaxExemplars]);
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  Histogram histogram_;
  HistogramExemplar exemplars_[kMaxExemplars] = {};
  size_t next_exemplar_ = 0;
};

enum class InstrumentKind { kCounter, kGauge, kHistogram };

struct MetricSample {
  std::string name;
  MetricLabels labels;
  InstrumentKind kind = InstrumentKind::kCounter;
  // Counter value or gauge value (gauges may be negative; stored signed).
  int64_t value = 0;
  Histogram histogram;                       // kHistogram only
  std::vector<HistogramExemplar> exemplars;  // kHistogram only; often empty

  bool HasLabel(std::string_view key, std::string_view value_match) const;
  // True when the sample carries every (key, value) pair of `subset`.
  bool HasLabels(const MetricLabels& subset) const;
};

// A consistent point-in-time walk of the registry: every sample is an atomic
// read of its instrument, and instruments registered before the walk began
// are all present exactly once.
class MetricsSnapshot {
 public:
  void Add(MetricSample sample) { samples_.push_back(std::move(sample)); }
  const std::vector<MetricSample>& samples() const { return samples_; }

  // Sum of `name` across all label sets (0 if absent).
  uint64_t Sum(std::string_view name) const;
  // Sum restricted to samples carrying label `key` == `value`.
  uint64_t Sum(std::string_view name, std::string_view key, std::string_view value) const;
  // Sum restricted to samples carrying every label of `subset`. With the
  // labels one object registered under, this reads that object's instrument
  // summed over any extra labels it adds (per-level filters, sources).
  uint64_t Sum(std::string_view name, const MetricLabels& subset) const;
  // First sample matching name (+ optional label filter); nullptr if none.
  const MetricSample* Find(std::string_view name) const;
  const MetricSample* Find(std::string_view name, std::string_view key,
                           std::string_view value) const;

  // {"name{k=v,...}": value, ...} — histograms expand to _count/_p50/_p99/_max
  // plus an `_exemplars` string ("0x<trace>@<value>,...") when exemplars exist.
  std::string Json(int indent = 2) const;

 private:
  std::vector<MetricSample> samples_;
};

// Lock-sharded get-or-create registry. Instrument pointers are stable for the
// registry's lifetime, so call sites resolve once at construction and update
// lock-free afterwards. Shards are keyed by a hash of the canonical
// "name{k=v,...}" string; a snapshot locks one shard at a time.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, const MetricLabels& labels = {});
  Gauge* GetGauge(std::string_view name, const MetricLabels& labels = {});
  HistogramInstrument* GetHistogram(std::string_view name, const MetricLabels& labels = {});

  MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    std::string name;
    MetricLabels labels;
    InstrumentKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramInstrument> histogram;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, Entry> entries;  // canonical key -> instrument
  };
  static constexpr size_t kShards = 16;

  Entry* GetOrCreate(std::string_view name, const MetricLabels& labels, InstrumentKind kind);

  Shard shards_[kShards];
};

}  // namespace tebis

#endif  // TEBIS_TELEMETRY_METRICS_H_
