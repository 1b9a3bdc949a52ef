// Binary node-scrape encoding for metrics federation. The master's
// scrape fan-out needs the *structured* per-node snapshot — counters to sum,
// gauges to label, histograms to merge bucket-wise, exemplars and slow-op
// records to carry through — and the repo has no C++ JSON parser, so the
// kStatsScrape RPC grows a request-side format byte: an empty request payload
// keeps the legacy JSON reply (ScrapeJson, used by tools and existing tests),
// while [u8 kScrapeFormatBinary] selects this encoding.
#ifndef TEBIS_CLUSTER_STATS_WIRE_H_
#define TEBIS_CLUSTER_STATS_WIRE_H_

#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/slow_op.h"

namespace tebis {

// kStatsScrape request payload byte selecting the binary reply.
inline constexpr uint8_t kScrapeFormatBinary = 1;

std::string EncodeScrapeRequest(uint8_t format);

// One node's structured scrape: the full snapshot (registry walk + collector
// samples, so health.* gauges ride along) plus the slow-op ring.
struct NodeScrape {
  std::string node;
  MetricsSnapshot metrics;
  std::vector<SlowOpRecord> slow_ops;
};

std::string EncodeNodeScrape(const std::string& node, const MetricsSnapshot& snapshot,
                             const std::vector<SlowOpRecord>& slow_ops);
Status DecodeNodeScrape(Slice payload, NodeScrape* out);

}  // namespace tebis

#endif  // TEBIS_CLUSTER_STATS_WIRE_H_
