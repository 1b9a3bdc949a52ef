// A Tebis region server (paper §3.1): hosts regions with primary or backup
// roles, serves client KV operations through the RDMA-write protocol, and
// runs the backup-side replication handlers. Each server has two endpoints:
// the client endpoint (paper: 2 spinning threads + 8 workers) and a separate
// replication endpoint whose workers never block on remote calls — modelling
// the paper's split between protocol threads and compaction threads and
// keeping primary->backup shipping deadlock-free.
#ifndef TEBIS_CLUSTER_REGION_SERVER_H_
#define TEBIS_CLUSTER_REGION_SERVER_H_

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/cluster/region_host.h"
#include "src/cluster/region_map.h"
#include "src/net/server_endpoint.h"
#include "src/net/worker_pool.h"
#include "src/replication/primary_region.h"
#include "src/storage/block_device.h"
#include "src/telemetry/health.h"
#include "src/telemetry/slow_op.h"

namespace tebis {

struct RegionServerOptions {
  int num_spinners = 2;  // paper §4
  int num_workers = 8;   // paper §4
  // Background compaction workers shared by this server's *primary* stores.
  // 0 = synchronous compactions. A region promoted from a backup role adopts
  // the pool.
  int compaction_workers = 0;
  BlockDeviceOptions device_options;
  KvStoreOptions kv_options;
  ReplicationMode replication_mode = ReplicationMode::kSendIndex;
  // Connection buffer for server-to-server replication channels; index
  // segments must fit, so default to 8 segments.
  size_t replication_connection_buffer = 0;
  // Per-replica health policy for this server's primary regions (§3.5
  // slow-not-dead). call_deadline_ns also bounds every replication control
  // call; max_consecutive_failures > 0 enables unilateral detach into
  // degraded mode, recorded under /detached for the master to reconcile.
  ReplicationPolicy replication_policy;
  // Regions this server expects to host (primary or backup). When > 0 the
  // page-cache shard count of every store is sized with
  // PageCache::ShardsForStores at Start(); 0 keeps kv_options.cache_shards
  // as configured (the standalone default).
  size_t expected_regions = 0;
  // Span ring capacity for this server's telemetry plane; 0 disables pipeline
  // tracing.
  size_t trace_capacity = 4096;
  // Slow-op thresholds; all-zero keeps the slow-op log silent. An op
  // type with a nonzero threshold is timed even when unsampled, so the log
  // catches outliers that sampling missed.
  SlowOpPolicy slow_op_policy;
  // Health watchdog: evaluated at every scrape, publishing the
  // `health.*` gauge family into the snapshot.
  HealthThresholds health_thresholds;
};

class RegionServer {
 public:
  RegionServer(Fabric* fabric, Coordinator* coordinator, std::string name,
               RegionServerOptions options);
  ~RegionServer();

  RegionServer(const RegionServer&) = delete;
  RegionServer& operator=(const RegionServer&) = delete;

  // Creates the device, registers the ephemeral /servers/<name> node and
  // starts both endpoints.
  Status Start();
  void Stop();
  // Simulated failure: endpoints stop, the coordinator session expires (the
  // master's failure detector fires), regions are dropped.
  void Crash();
  bool crashed() const { return crashed_; }
  // Test support (deposed primary, §3.5): expires the coordinator session —
  // the failure detector declares this server dead — while it keeps serving
  // its stale configuration. The master will promote a backup elsewhere and
  // this server's subsequent replication traffic must be fenced by epoch.
  void DropCoordinatorSession();

  const std::string& name() const { return name_; }
  BlockDevice* device() { return device_.get(); }
  ServerEndpoint* client_endpoint() { return client_endpoint_.get(); }
  ServerEndpoint* replication_endpoint() { return replication_endpoint_.get(); }
  Fabric* fabric() { return fabric_; }

  // --- admin API (driven by the master; models open/close region commands) ---

  // Opens require Start(). `epoch` arguments carry the
  // coordinator-authoritative configuration generation. Defaults keep direct
  // (master-less) test setups working: opens start at generation 1; 0
  // elsewhere means "derive locally".
  Status OpenPrimaryRegion(uint32_t region_id, uint64_t epoch = 1);
  Status OpenBackupRegion(uint32_t region_id, uint64_t epoch = 1);
  Status CloseRegion(uint32_t region_id);

  // Backup-side registered log buffer for a region (handed to the primary at
  // attach time, modelling MR exchange during connection setup).
  StatusOr<std::shared_ptr<RegisteredBuffer>> GetReplicationBuffer(uint32_t region_id);

  // Wires a local *primary* region to a backup hosted on `backup_server`.
  Status AttachBackup(uint32_t region_id, RegionServer* backup_server, uint64_t epoch = 0);
  // Same, but first streams the full region state (recovery path).
  Status AttachBackupWithFullSync(uint32_t region_id, RegionServer* backup_server,
                                  uint64_t epoch = 0);

  // Drops the replication channel to a failed backup.
  Status DetachBackup(uint32_t region_id, const std::string& backup_name, uint64_t epoch = 0);

  // §3.5: converts a local backup region into the primary. Returns the log
  // map the other backups need for re-keying (Send-Index; empty otherwise).
  // `epoch` = 0 derives the next generation from the backup's own (locally
  // monotonic); the master passes the coordinator-bumped value instead. The
  // log map is also retained so a standby master resuming a half-finished
  // failover can re-fetch it (GetPromotionLogMap).
  Status PromoteRegion(uint32_t region_id, SegmentMap* log_map_out, uint64_t epoch = 0);
  // Reentrant-recovery support: the log map produced by the last
  // PromoteRegion on this region (NotFound if never promoted).
  StatusOr<SegmentMap> GetPromotionLogMap(uint32_t region_id) const;

  // Graceful primary handover (load balancing, §3.1). FlushRegionTail seals
  // the log so the chosen backup is fully caught up; DemoteRegion then turns
  // the local primary into a backup of `new_primary_log_map`'s owner.
  Status FlushRegionTail(uint32_t region_id);
  Status DemoteRegion(uint32_t region_id, const SegmentMap& new_primary_log_map,
                      uint64_t epoch = 0);
  Status AdoptNewPrimaryLogMap(uint32_t region_id, const SegmentMap& map, uint64_t epoch = 0);
  // After backups are re-attached: replays the unflushed RDMA buffer kept
  // from promotion through the new primary (replicated).
  Status ReplayPromotionBuffer(uint32_t region_id);

  // --- integrity ---

  // Scrubs one hosted region (primary or Send-Index backup role) against its
  // segment checksums, quarantining levels that fail. Build-Index backups own
  // no checksummed shipped index and answer FailedPrecondition. The engine
  // pointer is resolved once under the region lock and the scrub then runs
  // unlocked (the engines are internally thread-safe), so a paced scrub never
  // stalls client or replication traffic; admin role changes (promote/demote)
  // must not race an in-flight scrub.
  StatusOr<KvStore::ScrubReport> ScrubRegion(uint32_t region_id,
                                             const KvStore::ScrubOptions& options);
  StatusOr<KvStore::ScrubReport> ScrubRegion(uint32_t region_id) {
    return ScrubRegion(region_id, KvStore::ScrubOptions());
  }
  StatusOr<std::vector<int>> QuarantinedLevels(uint32_t region_id) const;
  // Online repair: re-fetches every bad segment of the local region's
  // quarantined levels from `peer` — any replica of the region at the same
  // epoch — over kRepairFetch/kRepairSegment, verifies the bytes against the
  // retained primary-space checksums, and reinstalls them. Works for a local
  // primary (donor: a backup) and a local Send-Index backup (donor: the
  // primary or another backup).
  Status RepairRegion(uint32_t region_id, RegionServer* peer);

  void SetRegionMap(std::shared_ptr<const RegionMap> map);
  std::shared_ptr<const RegionMap> region_map() const;

  // True if this server currently hosts `region_id` as primary.
  bool IsPrimaryFor(uint32_t region_id) const;

  // --- telemetry plane ---
  // Shared by every region this server hosts; each store/region object is
  // stamped with {node, region, role} labels at open/promote/demote time.
  Telemetry* telemetry() { return telemetry_.get(); }
  // The kStatsScrape reply payload: {"node", "metrics", "spans"} JSON.
  std::string ScrapeJson() const { return telemetry_->ScrapeJson(name_); }

 private:
  void HandleRequest(const MessageHeader& header, std::string payload, ReplyContext ctx);
  // Decode → host → encode for one region-addressed request.
  void HandleRegionOp(const MessageHeader& header, Slice payload, const ReplyContext& ctx);
  // The host's handle for `region_id`, locked, in `role` (FailedPrecondition
  // before Start).
  StatusOr<RegionHost::Locked> LockRegion(uint32_t region_id, RegionHost::Role role) const;
  // Wires the health policy + detach listener into a primary region object.
  void InstallPrimaryPolicy(uint32_t region_id, PrimaryRegion* primary);
  // Builds the replication channel to one backup, with a per-stream client
  // factory: each shipping stream gets its own connection — its own
  // queue-pair slot — so concurrent streams do not serialize on one
  // channel-wide send lock.
  std::unique_ptr<BackupChannel> MakeBackupChannel(uint32_t region_id,
                                                   RegionServer* backup_server,
                                                   std::shared_ptr<RegisteredBuffer> buffer);
  // Shared by AttachBackup and AttachBackupWithFullSync.
  Status Attach(uint32_t region_id, RegionServer* backup_server, uint64_t epoch, bool full_sync);
  // Records a unilateral detach as a persistent coordinator znode, off-thread
  // (the listener runs under region locks; the master's watch fires on the
  // creating thread and re-enters this server). `stream` is the shipping
  // stream whose strikes triggered the detach (kNoStream = data plane).
  void RecordDetach(uint32_t region_id, const std::string& backup_name, uint64_t epoch,
                    StreamId stream);

  Fabric* const fabric_;
  Coordinator* const coordinator_;
  const std::string name_;
  RegionServerOptions options_;

  // Declared before host_: instruments resolved against this plane must
  // outlive the stores updating them.
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<BlockDevice> device_;
  // Declared before host_: stores must be destroyed while the pool still
  // runs, so queued background compactions can finish.
  std::unique_ptr<WorkerPool> compaction_pool_;
  std::unique_ptr<ServerEndpoint> client_endpoint_;
  std::unique_ptr<ServerEndpoint> replication_endpoint_;
  // The hosted regions; created by Start() over the device and pool.
  std::unique_ptr<RegionHost> host_;
  Coordinator::SessionId session_ = Coordinator::kNoSession;
  bool started_ = false;
  bool crashed_ = false;

  mutable std::mutex map_mutex_;
  std::shared_ptr<const RegionMap> map_;

  std::mutex detach_mutex_;
  std::vector<std::thread> detach_threads_;  // joined in Stop()
};

}  // namespace tebis

#endif  // TEBIS_CLUSTER_REGION_SERVER_H_
