// Health watchdogs: per-node detectors layered over the instruments
// the subsystems already publish, run at scrape time as a Telemetry collector.
// Each detector compares the current registry snapshot against the previous
// evaluation (deltas for counters, absolute values for gauges) and publishes
// a `health.*` gauge: 0 = green, 1 = yellow, 2 = red. The federated cluster
// view rolls per-node `health.node` into one red/yellow/green summary.
//
// Detectors and their inputs:
//   health.flow_control — kv.write_stall_ns + repl.flow_wait_ns delta
//   health.compaction   — kv.compaction_queue_wait_ns delta
//   health.integrity    — integrity.corruptions_found delta (yellow) and
//                         integrity.quarantined_levels gauge (red)
//   health.replication  — repl.backups_detached / repl.fence_errors deltas
//   health.node         — max of the above
#ifndef TEBIS_TELEMETRY_HEALTH_H_
#define TEBIS_TELEMETRY_HEALTH_H_

#include <cstdint>

#include "src/telemetry/metrics.h"

namespace tebis {

inline constexpr int64_t kHealthGreen = 0;
inline constexpr int64_t kHealthYellow = 1;
inline constexpr int64_t kHealthRed = 2;

const char* HealthColorName(int64_t color);

// Thresholds are per evaluation interval (one scrape-to-scrape window).
struct HealthThresholds {
  uint64_t stall_ns_yellow = 1'000'000;         // any meaningful stall time
  uint64_t stall_ns_red = 500'000'000;          // half a second stalled per window
  uint64_t queue_wait_ns_yellow = 100'000'000;  // compactions queueing behind the pool
  uint64_t queue_wait_ns_red = 5'000'000'000;
  uint64_t detached_backups_red = 2;            // detaches this window; 1 detach = yellow
};

// Stateful scrape-time collector. Install exactly once per Telemetry plane
// (Telemetry::EnableHealthWatchdog); Telemetry's collector mutex serializes
// Evaluate, so prev_ needs no lock of its own.
class HealthWatchdog {
 public:
  explicit HealthWatchdog(HealthThresholds thresholds = {}) : thresholds_(thresholds) {}
  HealthWatchdog(const HealthWatchdog&) = delete;
  HealthWatchdog& operator=(const HealthWatchdog&) = delete;

  // Appends the health.* gauge samples computed from `snapshot` (which holds
  // the registry walk that just completed) and the previous evaluation. The
  // first evaluation has no baseline and reports green unless an absolute
  // signal (quarantined levels) is already raised.
  void Evaluate(MetricsSnapshot* snapshot);

 private:
  struct Baseline {
    bool valid = false;
    uint64_t stall_ns = 0;
    uint64_t queue_wait_ns = 0;
    uint64_t corruptions = 0;
    uint64_t detached = 0;
    uint64_t fence_errors = 0;
  };

  const HealthThresholds thresholds_;
  Baseline prev_;
};

}  // namespace tebis

#endif  // TEBIS_TELEMETRY_HEALTH_H_
