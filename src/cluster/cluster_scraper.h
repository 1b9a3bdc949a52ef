// Metrics federation: the master-side scrape fan-out. A ClusterScraper
// owns the node list and a fetch function (in production: the kStatsScrape RPC
// with the binary format byte; in tests: any stand-in), pulls every node's
// structured scrape, and merges the snapshots into one cluster document —
// counters summed, gauges labeled per node, histograms merged bucket-wise via
// the mergeable-histogram support, slow-op rings concatenated, and per-node
// health rolled into a cluster red/yellow/green summary.
//
// A node whose fetch fails keeps its last-good snapshot in the merge but is
// marked stale (with a missed-scrape count) in the document — the federation
// analogue of Prometheus staleness markers. ScrapeOnce() runs one fan-out
// round synchronously (the testable core); Start()/Stop() wrap it in a paced
// background thread.
#ifndef TEBIS_CLUSTER_CLUSTER_SCRAPER_H_
#define TEBIS_CLUSTER_CLUSTER_SCRAPER_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/stats_wire.h"
#include "src/common/status.h"
#include "src/telemetry/health.h"

namespace tebis {

class ClusterScraper {
 public:
  // Returns the node's binary scrape payload (EncodeNodeScrape) or an error.
  using FetchFn = std::function<StatusOr<std::string>(const std::string& server)>;

  struct Options {
    uint64_t period_ms = 1000;   // paced-thread scrape interval
    int stale_after_misses = 1;  // consecutive failed rounds before stale
  };

  ClusterScraper(std::vector<std::string> servers, FetchFn fetch)
      : ClusterScraper(std::move(servers), std::move(fetch), Options()) {}
  ClusterScraper(std::vector<std::string> servers, FetchFn fetch, Options options);
  ~ClusterScraper();
  ClusterScraper(const ClusterScraper&) = delete;
  ClusterScraper& operator=(const ClusterScraper&) = delete;

  // One synchronous fan-out round. Per-node fetch failures become staleness,
  // not errors; the only failure is a node replying undecodable bytes.
  Status ScrapeOnce();

  // Paced background scraping. Idempotent; Stop() joins the thread.
  void Start();
  void Stop();

  // The federated cluster document (JSON). Empty-ish but well-formed before
  // the first round.
  std::string ClusterJson() const;

  // Every node's samples in one snapshot, each stamped with a `node` label
  // (added when the sample lacks one). The federation-math tests compare this
  // against per-node snapshots directly.
  MetricsSnapshot MergedSnapshot() const;

  struct NodeState {
    bool ever_scraped = false;
    bool stale = false;
    int missed_scrapes = 0;
  };
  NodeState node_state(const std::string& server) const;

  // max(health.node) across nodes; a stale node forces at least yellow.
  int64_t ClusterHealth() const;

  uint64_t rounds() const;

 private:
  struct PerNode {
    NodeScrape last;  // last-good scrape (valid when ever_scraped)
    bool ever_scraped = false;
    int missed = 0;
  };

  bool NodeStaleLocked(const PerNode& node) const {
    return node.missed >= options_.stale_after_misses;
  }
  int64_t ClusterHealthLocked() const;
  int64_t NodeHealthLocked(const PerNode& node) const;

  const std::vector<std::string> servers_;
  const FetchFn fetch_;
  const Options options_;

  mutable std::mutex mutex_;
  std::map<std::string, PerNode> nodes_;
  uint64_t rounds_ = 0;

  std::mutex thread_mutex_;
  std::condition_variable stop_cv_;
  std::thread thread_;
  bool stop_ = false;
};

}  // namespace tebis

#endif  // TEBIS_CLUSTER_CLUSTER_SCRAPER_H_
