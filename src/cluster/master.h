// The Tebis master (paper §3.1, §3.5): reads the region map, issues open
// region commands with primary/backup roles, watches the coordinator's
// membership (ephemeral nodes) to detect failures, and orchestrates recovery:
//   backup failure  -> replacement backup + full region transfer
//   primary failure -> promote a backup (log-map re-keying, L0 replay),
//                      update the map, then treat as a backup failure
// Multiple Master instances race in a leader election; only the leader acts.
//
// Recovery is crash-safe: every reconfiguration bumps the region's epoch and
// is journaled as a recovery-intent znode *before* the master acts, so a
// standby that wins the election mid-failover rolls the intent forward
// (idempotently — promotion, re-keying and re-attach all tolerate repeats)
// instead of leaving the region half-recovered.
#ifndef TEBIS_CLUSTER_MASTER_H_
#define TEBIS_CLUSTER_MASTER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cluster/cluster_scraper.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/region_map.h"
#include "src/cluster/region_server.h"

namespace tebis {

class Master {
 public:
  // `directory` resolves server names to in-process instances (the admin
  // control plane); replacement backups are chosen from it.
  Master(Coordinator* coordinator, std::string name,
         std::map<std::string, RegionServer*> directory);

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  // Joins the leader election. The lowest sequence node leads; the others
  // watch their predecessor and take over on its death (§3.5 master failure).
  Status Campaign();
  bool IsLeader() const;

  // Leader-only: installs the initial region map — opens all regions with
  // their roles, wires replication channels, distributes the map.
  Status Bootstrap(const RegionMap& map);

  // Leader-only load balancing (§3.1): gracefully moves a region's primary
  // role to one of its current backups. The old primary flushes its tail, the
  // backup is promoted under a bumped epoch (fencing the old primary), and
  // the old primary is demoted to a backup — no data loss. The handover
  // window is not quiesced: a write racing the move fails un-acked (fenced)
  // and is retried by the client against the refreshed map.
  Status MovePrimary(uint32_t region_id, const std::string& new_primary);

  // Simulates master death: expires the session (standbys take over).
  void Fail();

  std::shared_ptr<const RegionMap> current_map() const;

  const std::string& name() const { return name_; }

  // --- metrics federation ---

  // Leader-only: one synchronous scrape fan-out round over every directory
  // server's kStatsScrape RPC (binary format). Builds the scraper on first
  // use. Per-node fetch failures become staleness markers, not errors.
  Status ScrapeCluster();
  // Leader-only: paced background federation at `period_ms`. Idempotent.
  Status EnableClusterScrape(uint64_t period_ms = 1000);
  // Stops the paced thread (keeps the last federated state readable).
  void DisableClusterScrape();
  // The federated cluster document; "" before the scraper ever ran.
  std::string ClusterStatsJson() const;
  // nullptr before the first ScrapeCluster/EnableClusterScrape.
  ClusterScraper* cluster_scraper() { return scraper_.get(); }
  // Test seam: replaces the default RPC fetch. Must be set before the scraper
  // is built (i.e. before the first ScrapeCluster/EnableClusterScrape).
  void set_scrape_fetcher(ClusterScraper::FetchFn fetch);

  // Test support: invoked at named recovery failpoints (e.g.
  // "failover-promoted:<region>", "move-promoted:<region>"). Returning false
  // aborts the recovery at that point, simulating the leader dying with the
  // intent journaled but the reconfiguration unfinished.
  using StepHook = std::function<bool(const std::string&)>;
  void set_step_hook(StepHook hook);

 private:
  // Journaled reconfiguration, persisted under /recovery/r<region_id> before
  // the first mutating step. `epoch` is the generation the new configuration
  // runs at; equal-epoch repeats are accepted by every server-side step, so a
  // resumed intent converges without double-applying destructive work.
  struct RecoveryIntent {
    enum class Kind : uint8_t { kPrimaryFailover = 1, kMovePrimary = 2 };
    Kind kind = Kind::kPrimaryFailover;
    uint32_t region_id = 0;
    std::string old_primary;  // failed (failover) or demoting (move)
    std::string new_primary;  // the server being promoted
    uint64_t epoch = 0;
  };

  void OnBecameLeader();
  void RecheckLeadership();
  void ArmServerWatch();
  void ArmDetachWatch();
  void HandleMembershipChange();
  Status HandleServerFailure(const std::string& failed);
  Status HandlePrimaryFailure(RegionMap* map, uint32_t region_id, const std::string& failed);
  Status HandleBackupFailure(RegionMap* map, uint32_t region_id, const std::string& failed);
  // The promotion every primary change shares: promotes `new_primary` for
  // `region` under `epoch` (or, on resume, re-fetches the log map an earlier
  // promotion produced), passes the `<failpoint>:<region>` step, then re-keys
  // and re-attaches every live backup other than the old and new primary.
  // Returns the new primary's log map.
  StatusOr<SegmentMap> PromoteAndReattach(const RegionInfo& region,
                                          const std::string& old_primary,
                                          const std::string& new_primary,
                                          const std::string& failpoint, uint64_t epoch);
  // The promote/re-key/re-attach/replay sequence, written to be idempotent so
  // both the original leader and a resuming standby can run it.
  Status ExecutePrimaryFailover(RegionMap* map, uint32_t region_id, const std::string& failed,
                                const std::string& promoted, uint64_t epoch);
  Status ExecuteMovePrimary(RegionMap* map, uint32_t region_id, const std::string& old_primary,
                            const std::string& new_primary, uint64_t epoch);
  // Rolls forward (or abandons) intents left by a dead leader. Called on
  // leadership acquisition, before membership reconciliation.
  void ResumeRecoveryIntents();
  // Replaces replicas that a primary unilaterally detached (health policy),
  // consuming the /detached records the region servers publish.
  void ReconcileDetachRecords();
  StatusOr<std::string> PickReplacement(const RegionInfo& region,
                                        const std::vector<std::string>& exclude) const;
  Status WriteIntent(const RecoveryIntent& intent);
  void DeleteIntent(uint32_t region_id);
  Status PushMap(const RegionMap& map);
  bool ServerAlive(const std::string& name) const;
  bool Step(const std::string& point);
  // Builds scraper_ (leader-gated) if it does not exist yet; returns it.
  // `period_ms` only applies when this call constructs the scraper.
  StatusOr<ClusterScraper*> EnsureScraper(uint64_t period_ms = 1000);
  // The default fetch: kStatsScrape with the binary format byte over the
  // server's client endpoint, growing the allocation on truncated replies.
  StatusOr<std::string> FetchNodeScrape(const std::string& server);

  Coordinator* const coordinator_;
  const std::string name_;
  std::map<std::string, RegionServer*> directory_;

  Coordinator::SessionId session_ = Coordinator::kNoSession;
  std::string election_node_;

  mutable std::recursive_mutex mutex_;
  bool leader_ = false;
  bool failed_ = false;
  std::shared_ptr<const RegionMap> map_;
  std::function<void()> recheck_;
  StepHook step_hook_;
  // Metrics federation. scraper_ is built on first use and survives
  // DisableClusterScrape so the last federated state stays readable.
  std::unique_ptr<ClusterScraper> scraper_;
  ClusterScraper::FetchFn scrape_fetch_;  // null = FetchNodeScrape
};

}  // namespace tebis

#endif  // TEBIS_CLUSTER_MASTER_H_
