// The per-node telemetry plane: one MetricsRegistry + one span TraceBuffer,
// shared by every store/region object a node hosts (each stamped with unique
// labels), plus scrape-time collectors for subsystems whose hot-path counters
// stay native (IoStats, page caches) and are sampled live instead of
// migrated. It also keeps a bounded slow-op log and an optional health watchdog
// whose `health.*` gauges ride every snapshot. SimCluster and RegionServer
// each own one; a standalone KvStore creates a private one so its
// instruments stay per-store. Every engine counter has one definition, its
// registry instrument: tests, benches and the scrape all read it through
// metrics()->Snapshot().
#ifndef TEBIS_TELEMETRY_TELEMETRY_H_
#define TEBIS_TELEMETRY_TELEMETRY_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/telemetry/health.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/slow_op.h"
#include "src/telemetry/trace.h"

namespace tebis {

class Telemetry {
 public:
  // `trace_capacity` bounds the span ring; 0 disables tracing (standalone
  // default — the overhead A/B's "off" arm).
  explicit Telemetry(size_t trace_capacity = 0) : traces_(trace_capacity) {}
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry* metrics() { return &metrics_; }
  TraceBuffer* traces() { return &traces_; }
  SlowOpLog* slow_ops() { return &slow_ops_; }
  const SlowOpLog* slow_ops() const { return &slow_ops_; }

  // Sets the per-type slow-op thresholds. Call at node setup, before traffic.
  void ConfigureSlowOps(const SlowOpPolicy& policy) { slow_ops_.Configure(policy); }

  // Installs the health watchdog as a scrape-time collector. Call at most
  // once per plane, at node setup.
  void EnableHealthWatchdog(HealthThresholds thresholds = {});

  // Collectors run during Snapshot() and append samples for state that lives
  // outside the registry. The owner must guarantee whatever the collector
  // touches outlives this Telemetry (both are owned by the same node object).
  void AddCollector(std::function<void(MetricsSnapshot*)> collector);

  // Registry walk + collectors.
  MetricsSnapshot Snapshot() const;

  // Scrape payload: {"node":..., "metrics":{...}, "spans":[chrome events],
  // "slow_ops":[...]}.
  std::string ScrapeJson(const std::string& node) const;

 private:
  MetricsRegistry metrics_;
  TraceBuffer traces_;
  SlowOpLog slow_ops_;
  mutable std::mutex collectors_mutex_;
  std::vector<std::function<void(MetricsSnapshot*)>> collectors_;
  std::unique_ptr<HealthWatchdog> watchdog_;  // set once by EnableHealthWatchdog
};

}  // namespace tebis

#endif  // TEBIS_TELEMETRY_TELEMETRY_H_
