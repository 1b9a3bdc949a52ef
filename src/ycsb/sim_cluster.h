// A single-process Tebis testbed mirroring the paper's setup: N servers (one
// simulated NVMe device each), the key space range-partitioned into regions,
// every server acting simultaneously as primary for some regions and backup
// for others. SimCluster is wiring only: one RegionHost per simulated server
// — the request-serving core the RPC server runs — over one shared telemetry
// plane, with LocalBackupChannels in place of the RPC replication channels.
// Value-log bytes and control messages are accounted on the fabric, so I/O
// amplification, network amplification, and the CPU component breakdown are
// measured, not modelled. What is left here is key routing, the one sampling
// decision per call, and the `client` span recorded in place of a client.
//
// The end-to-end benchmark in perfbench/ drives the full RPC path
// (TebisClient → rings → RegionServer → RegionHost); SimCluster gives the
// engine-only arm and the single-process experiment harness.
#ifndef TEBIS_YCSB_SIM_CLUSTER_H_
#define TEBIS_YCSB_SIM_CLUSTER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/region_host.h"
#include "src/cluster/region_map.h"
#include "src/net/fabric.h"
#include "src/net/worker_pool.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/storage/block_device.h"
#include "src/telemetry/telemetry.h"
#include "src/ycsb/workload.h"

namespace tebis {

struct SimClusterOptions {
  int num_servers = 3;        // paper: 3 identical servers
  uint32_t num_regions = 8;   // paper: 32; scaled with the dataset
  int replication_factor = 2; // 1 => No-Replication
  ReplicationMode mode = ReplicationMode::kSendIndex;
  // Compaction workers shared by every primary store. 0 = each compaction
  // job runs inline on the thread that claimed it. Backup stores always run
  // theirs inline (their work is driven by replication messages).
  int compaction_workers = 0;
  KvStoreOptions kv_options;
  BlockDeviceOptions device_options;
  // Key space for region boundaries; must cover every key the workload uses.
  uint64_t key_space = 1ull << 32;
  // Retry budget per control message on the backup channels (>1 makes
  // injected transient faults survivable; see src/testing/fault_injector.h).
  int channel_max_attempts = 1;
  // Span ring capacity for the cluster's shared trace buffer; 0 disables
  // pipeline tracing entirely.
  size_t trace_capacity = 4096;
  // Request-scoped tracing: sample one in N client-facing calls (0 disables
  // — the overhead A/B's off arm takes no clock reads at all).
  uint64_t request_trace_sample_every = 0;
  // Slow-op thresholds; all-zero keeps the slow-op log silent.
  SlowOpPolicy slow_op_policy;
};

// Aggregated *inclusive* CPU timings across all servers. Calls nest (see
// CpuBreakdown() in the .cc); the experiment harness converts these to the
// exclusive Table-3 buckets.
struct ClusterCpuBreakdown {
  uint64_t insert_l0_ns = 0;        // primary put path (incl. log replication)
  uint64_t log_replication_ns = 0;  // incl. backup flush handling
  uint64_t compaction_ns = 0;       // primary compactions (incl. shipping)
  uint64_t send_index_ns = 0;       // incl. backup rewrite (direct channel)
  uint64_t rewrite_index_ns = 0;
  uint64_t backup_insert_ns = 0;      // Build-Index backup flush replay (incl. its compactions)
  uint64_t backup_compaction_ns = 0;  // Build-Index backup compactions only
  uint64_t get_ns = 0;
  // Primary compaction pipeline stages, wall time: queue wait between
  // memtable seal and the background job picking it up, k-way merge, B+ tree
  // build, and observer/shipping callbacks.
  uint64_t compaction_queue_wait_ns = 0;
  uint64_t compaction_merge_ns = 0;
  uint64_t compaction_build_ns = 0;
  uint64_t compaction_ship_ns = 0;
};

class SimCluster {
 public:
  static StatusOr<std::unique_ptr<SimCluster>> Create(const SimClusterOptions& options);

  // Drains every primary before any host goes: a background compaction
  // ships into backups that live on the other hosts.
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  Status Put(Slice key, Slice value);
  StatusOr<std::string> Get(Slice key);
  Status Delete(Slice key);

  // Group-commit passthrough: applies `ops` grouped per owning region
  // — one engine reservation and one coalesced replication doorbell per
  // group, mirroring the client's per-destination batching. Per-op statuses
  // land in `statuses` in input order; returns the first group-level error.
  Status WriteBatch(const std::vector<KvStore::BatchOp>& ops, std::vector<Status>* statuses);

  // Replica-read fan-out: rotates each get across the region's
  // replica set — the primary plus every backup — so read I/O spreads over
  // all devices holding the region. The fence is zero (the harness measures
  // committed, settled data), so no read is ever rejected.
  StatusOr<std::string> ReplicaGet(Slice key);

  // Pushes all L0s down (end-of-phase flush, so backups are fully comparable).
  Status FlushAll();

  // Adapters for the YCSB workload driver. `fan_out_reads` routes reads
  // through ReplicaGet instead of the primary (bench A/B).
  KvHooks Hooks(bool fan_out_reads = false);

  // --- metrics ---
  uint64_t TotalDeviceBytes() const;
  uint64_t DeviceBytes(IoClass io_class, bool reads) const;
  uint64_t NetworkBytes() const { return fabric_->TotalBytes(); }
  ClusterCpuBreakdown CpuBreakdown() const;
  // The same name->bucket mapping applied to an arbitrary snapshot (e.g. a
  // per-phase delta computed by the bench harness).
  static ClusterCpuBreakdown CpuBreakdownFrom(const MetricsSnapshot& snapshot);
  uint64_t TotalL0MemoryBytes() const;  // primaries + Build-Index backups
  // Configured L0 budget in keys across every replica that keeps an L0 —
  // the §5.5 comparison axis (Send-Index backups keep none).
  uint64_t TotalL0BudgetKeys() const;
  uint64_t TotalCompactions() const;
  void ResetTrafficCounters();  // zeroes device + network counters (per phase)

  const SimClusterOptions& options() const { return options_; }
  int num_regions() const { return static_cast<int>(regions_.size()); }
  PrimaryRegion* region(int i) { return regions_[i].primary; }
  Fabric* fabric() { return fabric_.get(); }

  // --- telemetry plane ---
  // Shared by every store/region the cluster hosts; each is stamped with
  // {node, region, role} labels, so snapshot sums can slice per node or role.
  Telemetry* telemetry() { return telemetry_.get(); }
  // Consistent registry walk + live collectors (device/fabric byte counts).
  MetricsSnapshot MetricsNow() const { return telemetry_->Snapshot(); }
  // Recorded pipeline spans, oldest first.
  std::vector<SpanRecord> Traces() const { return telemetry_->traces()->Snapshot(); }
  // Full scrape payload: metrics JSON + spans as chrome://tracing events.
  std::string ScrapeJson() const { return telemetry_->ScrapeJson("sim-cluster"); }

  // Test access to individual replicas (the RegisteredBuffer owner names the
  // hosting server): tests that detach a backup mid-run verify the survivors
  // directly instead of through VerifyBackupsConsistent.
  size_t num_backups(int i) const { return regions_[i].backups.size(); }
  BackupRegion* backup(int i, size_t b) { return regions_[i].backups[b]; }

  // Wires `injector` (nullptr detaches) into the fabric and every server
  // device, so one injector schedules faults across the whole cluster.
  void AttachFaultInjector(FaultInjector* injector);

  // Consistency check used by examples/tests: every key readable from the
  // primary must be readable (same value) from each Send-Index backup's
  // on-device levels after FlushAll().
  Status VerifyBackupsConsistent(const std::vector<std::string>& keys);

 private:
  // Where one region lives. The engines are owned by the hosts' handles and
  // never change role here; the raw pointers serve test access, metrics and
  // verification, while every client op goes through the host.
  struct Region {
    uint32_t id;
    RegionHost* host = nullptr;  // the primary's server
    PrimaryRegion* primary = nullptr;
    std::vector<RegionHost*> backup_hosts;
    std::vector<BackupRegion*> backups;  // parallel to backup_hosts
    std::vector<std::unique_ptr<RegionHost::ReplicationPort>> channel_targets;
  };

  explicit SimCluster(const SimClusterOptions& options);
  StatusOr<Region*> Route(Slice key);
  // 1-in-N sampling decision; kNoTrace when tracing is off.
  TraceId MaybeSampleTrace();
  // Stands in for the client: records the `client` span of a sampled call.
  void RecordClientSpan(TraceId trace, uint64_t start_ns, Slice key);

  SimClusterOptions options_;
  // Declared before every store/region member: instruments resolved against
  // this plane must outlive the objects updating them.
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<Fabric> fabric_;
  // Declared before hosts_: primaries must be destroyed while the pool still
  // runs, so queued background compactions can finish.
  std::unique_ptr<WorkerPool> compaction_pool_;
  std::vector<std::unique_ptr<BlockDevice>> devices_;  // one per server
  std::vector<std::string> server_names_;
  RegionMap map_;
  std::vector<Region> regions_;
  // Declared after the devices: the hosts' engines write to them.
  std::vector<std::unique_ptr<RegionHost>> hosts_;  // one per server
  std::atomic<uint64_t> replica_rr_{0};  // ReplicaGet round-robin cursor
  // Atomics because the YCSB driver is threaded.
  std::atomic<uint64_t> sample_counter_{0};
  std::atomic<uint64_t> trace_seq_{0};
  uint64_t source_hash_ = 0;
};

}  // namespace tebis

#endif  // TEBIS_YCSB_SIM_CLUSTER_H_
