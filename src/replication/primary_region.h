// A primary replica of one region: the Kreon engine plus the Tebis
// replication machinery. Client operations flow through here; the value log
// is mirrored to every backup with one-sided RDMA writes (§3.2), and —
// depending on the mode — compactions either ship their pre-built index
// (Send-Index, §3.3) or leave the backups to compact on their own
// (Build-Index baseline).
//
// Multiplexed shipping streams: with a compaction pool the engine runs
// compactions of disjoint level pairs concurrently, and each one ships on its
// own stream. This region allocates a stream id per compaction,
// tags every shipped message with it, and fans compaction-plane calls out
// WITHOUT holding the region lock — N streams ship to the backups at once
// while the writer thread keeps replicating the log. Per-stream credit-based
// flow control (StreamFlowController) bounds what any one stream can keep in
// flight on a backup's shared replication buffer, and the health policy
// counts strikes per (backup, stream) so one stalled stream detaches the
// replica without the other streams' clean calls masking it.
#ifndef TEBIS_REPLICATION_PRIMARY_REGION_H_
#define TEBIS_REPLICATION_PRIMARY_REGION_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/lsm/kv_store.h"
#include "src/net/flow_control.h"
#include "src/replication/backup_channel.h"
#include "src/replication/compaction_stream.h"
#include "src/telemetry/request_trace.h"

namespace tebis {

enum class ReplicationMode {
  kNoReplication,
  kSendIndex,
  kBuildIndex,
};

const char* ReplicationModeName(ReplicationMode mode);

// Per-replica health policy (§3.5 "slow-not-dead"). A control/data call that
// fails or overruns `call_deadline_ns` is a strike; `max_consecutive_failures`
// strikes in a row — counted per shipping stream, so a stalled stream cannot
// hide behind another stream's clean calls — detach the replica unilaterally:
// writes keep flowing to the survivors and the detach is reported through the
// listener so the master can reconcile with a replacement. The default (0)
// disables detaching, which preserves the historical park-and-surface
// behavior.
struct ReplicationPolicy {
  int max_consecutive_failures = 0;
  uint64_t call_deadline_ns = 2'000'000'000ull;  // kDefaultRpcCallTimeoutNs
};

class PrimaryRegion : public ValueLogObserver, public CompactionObserver {
 public:
  static StatusOr<std::unique_ptr<PrimaryRegion>> Create(BlockDevice* device,
                                                         const KvStoreOptions& options,
                                                         ReplicationMode mode);

  // Promotion path (§3.5): wraps an engine produced by a backup's Promote().
  static StatusOr<std::unique_ptr<PrimaryRegion>> CreateFromStore(
      BlockDevice* device, ReplicationMode mode, std::unique_ptr<KvStore> store);

  // Drains the engine's background compactions before the replication state
  // they call back into is destroyed.
  ~PrimaryRegion() override;

  PrimaryRegion(const PrimaryRegion&) = delete;
  PrimaryRegion& operator=(const PrimaryRegion&) = delete;

  // Attaches a backup (replacing any existing channel to the same backup —
  // recovery retries re-attach idempotently). The channel's RDMA buffer must
  // already be registered. The channel is stamped with this region's epoch.
  void AddBackup(std::unique_ptr<BackupChannel> channel);

  // Detaches a failed backup (the master removes it from the replica set
  // before wiring a replacement, §3.5). Returns false if unknown. A fan-out
  // already in flight to the removed replica finishes against the detached
  // channel (it stays alive until the last in-flight call drops it).
  bool RemoveBackup(const std::string& backup_name);

  // Client operations. A put/delete returns only after the record is in the
  // memory of every backup (§3.2: "when a client receives an acknowledgment
  // it means that its operation has been replicated in the replica set").
  Status Put(Slice key, Slice value);
  Status Delete(Slice key);
  // Group commit: applies the whole batch under one engine reservation
  // and replicates it with one coalesced doorbell per contiguous log run.
  // Batch semantics match KvStore::WriteBatch (transport artifact, not a
  // transaction); a replication failure parks and surfaces as the batch-level
  // status, failing every op the client must re-issue.
  Status WriteBatch(const std::vector<KvStore::BatchOp>& ops, std::vector<Status>* statuses);
  StatusOr<std::string> Get(Slice key);
  StatusOr<std::vector<KvPair>> Scan(Slice start, size_t limit);

  // GC with backup trim coordination (paper §4).
  StatusOr<size_t> GarbageCollect(size_t max_segments);

  Status FlushL0();

  // Recovery (§3.5 "backup failure"): streams this region's entire state —
  // the replicated log, then (Send-Index) each level via the normal shipping
  // messages, then the L0 replay point — to a freshly opened backup. Call
  // before AddBackup(channel) while no other operation is running.
  Status FullSync(BackupChannel* channel);

  // Replays a promotion RDMA-buffer image as fresh (replicated) operations.
  Status ReplayBufferImage(Slice image);

  // Index of the first flushed log segment not yet covered by the levels.
  size_t l0_boundary() const {
    std::lock_guard<std::mutex> lock(region_mutex_);
    return l0_boundary_;
  }

  KvStore* store() { return store_.get(); }
  // Graceful demotion: detaches observers and hands the engine to the caller.
  // The region object must be discarded afterwards.
  std::unique_ptr<KvStore> ReleaseStore() {
    store_->value_log()->set_observer(nullptr);
    store_->set_compaction_observer(nullptr);
    return std::move(store_);
  }
  ReplicationMode mode() const { return mode_; }
  // The telemetry plane this region reports into and the labels its
  // instruments carry: the engine's.
  Telemetry* telemetry() const { return store_->telemetry(); }
  const MetricLabels& telemetry_labels() const { return store_->options().telemetry_labels; }
  size_t num_backups() const {
    std::lock_guard<std::mutex> lock(region_mutex_);
    return backups_.size();
  }

  // --- replication epoch (§3.5 fencing) ---

  // Sets this primary's configuration generation and stamps it into every
  // attached channel; subsequent messages carry it.
  void set_epoch(uint64_t epoch);
  uint64_t epoch() const {
    std::lock_guard<std::mutex> lock(region_mutex_);
    return epoch_;
  }

  // --- commit token (read-your-writes) ---

  // Monotonic count of records this primary has appended; paired with the
  // epoch it forms the commit token a writer folds into its read fence.
  uint64_t commit_seq() const {
    std::lock_guard<std::mutex> lock(region_mutex_);
    return commit_seq_;
  }
  // One consistent (epoch, seq) pair.
  void CommitToken(uint64_t* epoch, uint64_t* seq) const {
    std::lock_guard<std::mutex> lock(region_mutex_);
    *epoch = epoch_;
    *seq = commit_seq_;
  }

  // --- health policy / degraded mode ---

  void set_replication_policy(const ReplicationPolicy& policy) {
    std::lock_guard<std::mutex> lock(region_mutex_);
    policy_ = policy;
  }
  // Invoked (with region_mutex_ held — do not call back into the region) when
  // the health policy detaches a replica; args: backup name, current epoch,
  // and the shipping stream whose strikes triggered the detach (kNoStream for
  // the data plane).
  using DetachListener = std::function<void(const std::string&, uint64_t, StreamId)>;
  void set_detach_listener(DetachListener listener) {
    std::lock_guard<std::mutex> lock(region_mutex_);
    detach_listener_ = std::move(listener);
  }

  // Per-stream flow control: bounds the index bytes each backup can
  // have in flight across all shipping streams to `pool_bytes` (one shared
  // replication buffer per backup), with a per-stream cap of pool/kMax so a
  // stalled stream cannot starve the others. 0 disables (the default).
  // Applies to already-attached and future backups.
  void set_stream_flow_pool(uint64_t pool_bytes);

 private:
  PrimaryRegion(BlockDevice* device, ReplicationMode mode);

  struct BackupSlot {
    std::unique_ptr<BackupChannel> channel;
    // Consecutive failed/overdue calls, per shipping stream (kNoStream = the
    // data plane). Guarded by region_mutex_.
    std::map<StreamId, int> strikes;
    // Internally synchronized; null when flow control is disabled.
    std::unique_ptr<StreamFlowController> flow;
    Gauge* credits_in_flight = nullptr;  // repl.credits_in_flight{backup}
  };

  // The region's "repl.*" and "wp.doorbell*" counters, resolved once against
  // the engine's telemetry plane (same labels as the store).
  struct ReplInstruments {
    Counter* log_replication_cpu_ns = nullptr;
    Counter* send_index_cpu_ns = nullptr;
    Counter* log_records_replicated = nullptr;
    Counter* log_flushes = nullptr;
    Counter* append_retries = nullptr;
    Counter* index_segments_shipped = nullptr;
    Counter* index_bytes_shipped = nullptr;
    Counter* filter_blocks_shipped = nullptr;
    Counter* filter_bytes_shipped = nullptr;
    Counter* backups_detached = nullptr;
    Counter* slow_call_strikes = nullptr;
    Counter* fence_errors = nullptr;
    Counter* streams_opened = nullptr;
    Counter* flow_wait_ns = nullptr;
    Counter* doorbells = nullptr;
    Counter* doorbell_records = nullptr;
  };

  // ValueLogObserver (data plane). Each append run is one doorbell: a single
  // one-sided write of the run at its tail offset in each backup's
  // replication buffer.
  void OnAppend(SegmentId segment, uint64_t offset_in_segment, Slice run_with_terminator,
                size_t record_count) override;
  void OnTailFlush(SegmentId segment, Slice sealed_bytes) override;

  // CompactionObserver (index shipping). May run on several compaction
  // workers concurrently — one stream each; fan-outs drop region_mutex_
  // around the channel calls.
  void OnCompactionBegin(const CompactionInfo& info) override;
  void OnIndexSegment(const CompactionInfo& info, int tree_level, SegmentId segment,
                      Slice bytes, uint32_t crc) override;
  void OnCompactionEnd(const CompactionInfo& info, const BuiltTree& new_tree) override;

  // Observers cannot return errors; failures park here and surface on the
  // next client operation.
  void ParkLocked(const Status& status);
  Status TakeParkedError();
  bool RemoveBackupLocked(const std::string& backup_name);

  // Stream-id bookkeeping for one compaction. Acquire is idempotent per
  // compaction id (retries reuse the stream); Release frees the id.
  StreamId AcquireStreamLocked(uint64_t compaction_id);
  void ReleaseStreamLocked(uint64_t compaction_id);
  // Prefers the engine-assigned stream carried in CompactionInfo (the
  // scheduler allocates it at claim time, so the id in every span and wire
  // message is identical); falls back to this region's own allocator for
  // observers called without one (tests, legacy paths).
  StreamId RegisterStreamLocked(const CompactionInfo& info);

  // Resolves the "repl.*" instruments against the engine's telemetry plane.
  // Must run after store_ is set, before any observer can fire.
  void InitTelemetry();
  // Records one shipping-plane span (no-op when untraced or disabled).
  void RecordSpan(const CompactionInfo& info, const char* name, uint64_t start_ns,
                  uint64_t end_ns, uint64_t bytes = 0) const;
  // Request-trace bookkeeping for one doorbell fan-out: accumulates
  // the stage timing and records a "doorbell" span when the calling thread
  // carries a sampled request scope. `stages` is the non-null result of
  // CurrentRequestStages() the caller already fetched.
  void FinishDoorbellSpan(uint64_t start_ns, uint64_t bytes,
                          RequestStageTimings* stages) const;

  // Runs one call against a backup under the health policy: failures and
  // deadline overruns are strikes on (backup, stream), a clean on-time call
  // resets that stream's counter. Epoch fencing errors (FailedPrecondition)
  // bypass the strike counter — they mean THIS primary is deposed, not that
  // the backup is sick. The call itself runs without region_mutex_ (the
  // bookkeeping re-takes it), so concurrent streams overlap their calls.
  Status GuardedCall(const std::shared_ptr<BackupSlot>& slot, StreamId stream,
                     const std::function<Status()>& call);
  // GuardedCall's bookkeeping for a call that returned `status` after
  // `elapsed_ns`; returns `status`.
  Status RecordCallLocked(BackupSlot* slot, StreamId stream, const Status& status,
                          uint64_t elapsed_ns);
  // Data-plane fan-out, region_mutex_ held throughout so the log mirror stays
  // in append order: runs `call` against every backup under the health
  // policy, parks errors and detaches struck-out replicas.
  void DataPlaneFanOutLocked(const std::function<Status(BackupChannel*)>& call);
  // Fans `call` out to every attached backup on `stream`, charging
  // `flow_bytes` of per-stream shipping credit around each call (0 = no
  // charge), parking errors and detaching struck-out replicas.
  void FanOut(StreamId stream, uint64_t flow_bytes,
              const std::function<Status(BackupChannel*)>& call);
  // True once the slot's `stream` has struck out — its errors stop parking
  // (the replica is about to be dropped, so it must not fail client
  // operations).
  bool StruckOutLocked(const BackupSlot& slot, StreamId stream) const;
  // Detaches every struck-out replica, clears the parked error it left
  // behind, and notifies the listener. Call after each fan-out.
  void DetachStruckBackupsLocked();

  BlockDevice* const device_;
  const ReplicationMode mode_;
  std::unique_ptr<KvStore> store_;

  // Serializes region state: the backup set, stream table, parked error and
  // stats. Held across data-plane channel calls (the log mirror is ordered);
  // NOT held across compaction-plane channel calls — that is what lets N
  // streams ship concurrently. Never held across a call back into the engine,
  // and never re-entered: helpers that run under it are named *Locked.
  mutable std::mutex region_mutex_;
  // shared_ptr: a fan-out snapshots the set and keeps its slots alive even if
  // RemoveBackup/detach runs mid-flight.
  std::vector<std::shared_ptr<BackupSlot>> backups_;
  Status parked_error_;
  ReplInstruments repl_;    // stable pointers; updated without region_mutex_
  std::string node_name_;   // span node label
  ReplicationPolicy policy_;
  DetachListener detach_listener_;
  uint64_t epoch_ = 0;
  uint64_t commit_seq_ = 0;
  size_t l0_boundary_ = 0;
  uint64_t next_sync_id_ = 1ull << 62;  // synthetic compaction ids for FullSync
  // Shipping-stream table: compaction id -> (stream, allocator-owned).
  StreamIdAllocator stream_ids_;
  std::map<uint64_t, std::pair<StreamId, bool>> compaction_streams_;
  uint64_t stream_flow_pool_ = 0;
};

}  // namespace tebis

#endif  // TEBIS_REPLICATION_PRIMARY_REGION_H_
