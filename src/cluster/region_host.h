// The transport-free request-serving core of one server (paper §3.1): the
// table of regions the server hosts, some as primary and some as backup, and
// the one path every client op, replica read and replication message takes
// through it:
//
//   fence    the handle is open and holds the role the request needs, under
//            the handle's mutex held shared (else WrongRegion);
//   trace    a ScopedRequestTrace, only when the op is sampled or its type has
//            a slow-op threshold, so untraced ops take no clock reads;
//   engine   PrimaryRegion, or the region's BackupRegion;
//   observe  primary_apply span, latency exemplar, slow-op record;
//
// and the answer is the engine's result plus the commit token a write
// reached. RegionServer decodes a request, calls the host and encodes the
// answer; SimCluster calls the host directly, one per simulated server.
#ifndef TEBIS_CLUSTER_REGION_HOST_H_
#define TEBIS_CLUSTER_REGION_HOST_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/net/fabric.h"
#include "src/net/worker_pool.h"
#include "src/replication/backup_region.h"
#include "src/replication/primary_region.h"
#include "src/replication/replication_wire.h"
#include "src/storage/block_device.h"
#include "src/telemetry/slow_op.h"
#include "src/telemetry/telemetry.h"

namespace tebis {

class RegionHost {
 public:
  // One hosted region. Exactly one of `primary` / `backup` is set while the
  // handle is open; admin role changes swap them under `mutex`.
  struct RegionHandle {
    // The serving core holds it shared: the engines synchronize internally,
    // so one region's client ops, replica reads and replication messages run
    // in parallel. Close, role changes and the other admin calls hold it
    // exclusive, so they wait for in-flight ops to drain.
    mutable std::shared_mutex mutex;
    // Set by Close after draining in-flight operations. A thread that
    // resolved this handle before the close finishes re-checks under `mutex`
    // and fails: the engines are about to be (or have been) torn down.
    bool closed = false;
    std::unique_ptr<PrimaryRegion> primary;
    std::unique_ptr<BackupRegion> backup;
    std::shared_ptr<RegisteredBuffer> replication_buffer;  // backup role
    std::string promotion_buffer_image;                    // kept across promotion
    std::string promotion_log_map;                         // serialized, for resume
  };

  // A handle pinned (a concurrent Close cannot free it) and locked.
  template <typename LockType>
  struct Pinned {
    std::shared_ptr<RegionHandle> handle;
    LockType lock;
    RegionHandle* operator->() const { return handle.get(); }
  };
  using Locked = Pinned<std::unique_lock<std::shared_mutex>>;
  using Shared = Pinned<std::shared_lock<std::shared_mutex>>;

  enum class Role { kAny, kPrimary, kBackup };

  // The (epoch, commit sequence) a write reached; read-your-writes clients
  // fold it into their replica read fence.
  struct CommitToken {
    uint64_t epoch = 0;
    uint64_t seq = 0;
  };

  // One region's replication messages, routed through this host's fence: the
  // target an in-process LocalBackupChannel delivers to, where the RPC
  // server would decode and call Handle.
  class ReplicationPort final : public ReplicationMessageHandler {
   public:
    ReplicationPort(RegionHost* host, uint32_t region_id) : host_(host), region_id_(region_id) {}
    Status Handle(const ReplicationMessage& msg) override {
      return host_->Handle(region_id_, msg);
    }

   private:
    RegionHost* const host_;
    const uint32_t region_id_;
  };

  // Runs on every primary engine the host creates (open and promotion), so
  // the owner can wire its health policy and detach listener.
  using PrimaryHook = std::function<void(uint32_t region_id, PrimaryRegion* primary)>;

  // `telemetry`, `device` and `compaction_pool` (null = synchronous
  // compactions) must outlive the host. Every store gets `kv_options` with
  // the plane and {node, region, role} labels stamped in.
  RegionHost(std::string node, Fabric* fabric, Telemetry* telemetry, BlockDevice* device,
             WorkerPool* compaction_pool, KvStoreOptions kv_options, ReplicationMode mode,
             PrimaryHook on_primary = nullptr);
  // Clears the commit listeners: a primary elsewhere may keep a buffer alive.
  ~RegionHost();

  RegionHost(const RegionHost&) = delete;
  RegionHost& operator=(const RegionHost&) = delete;

  // --- region table ---

  Status OpenPrimary(uint32_t region_id, uint64_t epoch);
  // `writer` names the primary whose one-sided writes land in the region's
  // registered log buffer (fabric accounting and fault sites).
  Status OpenBackup(uint32_t region_id, uint64_t epoch, const std::string& writer);
  // Removes the region, then drains: an op that resolved the handle first
  // either finishes before this returns or sees `closed`.
  Status Close(uint32_t region_id);
  // Drops every region (simulated crash).
  void Clear();
  // The handle pinned and locked: exclusive for admin calls, Shared in the
  // serving core. NotFound when the region is not hosted or closed;
  // FailedPrecondition when it holds the other role.
  template <typename PinnedHandle = Locked>
  StatusOr<PinnedHandle> Lock(uint32_t region_id, Role role) const;
  bool IsPrimary(uint32_t region_id) const;
  StatusOr<std::shared_ptr<RegisteredBuffer>> ReplicationBuffer(uint32_t region_id) const;

  // --- engine construction for role changes (caller holds the lock) ---

  // Promotion: wraps `store` (a backup's promoted engine) as a primary.
  Status BecomePrimary(RegionHandle* handle, uint32_t region_id, std::unique_ptr<KvStore> store,
                       uint64_t epoch);
  // Demotion: wraps the primary's engine as a backup of the region's new
  // primary, whose `new_primary_log_map` maps this node's segments to its
  // own. The primary stays in place if the map does not cover the log.
  Status BecomeBackup(RegionHandle* handle, uint32_t region_id, uint64_t epoch,
                      const std::string& writer, const SegmentMap& new_primary_log_map);

  // --- serving core: client ops on a primary handle ---

  Status Put(uint32_t region_id, Slice key, Slice value, TraceId trace, CommitToken* token);
  Status Delete(uint32_t region_id, Slice key, TraceId trace, CommitToken* token);
  StatusOr<std::string> Get(uint32_t region_id, Slice key, TraceId trace);
  StatusOr<std::vector<KvPair>> Scan(uint32_t region_id, Slice start, size_t limit,
                                     TraceId trace);
  // Group commit: per-op outcomes land in `statuses`; the batch-level status
  // is already folded into them.
  Status WriteBatch(uint32_t region_id, const std::vector<KvStore::BatchOp>& ops,
                    std::vector<Status>* statuses, TraceId trace, CommitToken* token);

  // --- serving core: backup handles ---

  // Replica reads, fenced by {min_epoch, min_seq}. A primary handle answers
  // WrongRegion, so a replica read is only counted where a backup served it.
  StatusOr<std::string> ReplicaGet(uint32_t region_id, Slice key, uint64_t min_epoch,
                                   uint64_t min_seq, uint64_t* visible_seq);
  StatusOr<std::vector<KvPair>> ReplicaScan(uint32_t region_id, Slice start, size_t limit,
                                            uint64_t min_epoch, uint64_t min_seq,
                                            uint64_t* visible_seq);
  // Epoch check, then apply (§3.5 fencing is inside the engine).
  Status Handle(uint32_t region_id, const ReplicationMessage& msg);
  // Donor side of online repair, served by a primary or a backup handle at
  // exactly the requester's epoch: the verified primary-space bytes of one
  // index segment and their CRC32C.
  StatusOr<std::string> ServeRepairFetch(uint32_t region_id, const RepairFetchMsg& msg,
                                         uint32_t* crc);

 private:
  // Inserts a handle `build` filled in; AlreadyExists if the region is hosted.
  Status Open(uint32_t region_id, const std::function<Status(RegionHandle*)>& build);
  KvStoreOptions RegionKvOptions(uint32_t region_id, const char* role) const;
  std::shared_ptr<RegisteredBuffer> RegisterBackupBuffer(uint32_t region_id,
                                                         const std::string& writer);
  // Records the backup_commit span (and the writer's stage time) when a
  // sampled write commits into `buffer`.
  void InstallCommitListener(RegisteredBuffer* buffer) const;
  Status AdoptPrimary(RegionHandle* handle, uint32_t region_id,
                      StatusOr<std::unique_ptr<PrimaryRegion>> primary, uint64_t epoch);
  // fence → trace → `op` → observe → commit token.
  template <typename Result, typename Op>
  Result OnPrimary(uint32_t region_id, SlowOpType type, Slice key, TraceId trace,
                   CommitToken* token, const Op& op);
  void Observe(SlowOpType type, Slice key, uint32_t region_id, uint64_t epoch, TraceId trace,
               uint64_t start_ns, const RequestStageTimings& stages);

  const std::string node_;
  Fabric* const fabric_;
  Telemetry* const telemetry_;
  BlockDevice* const device_;
  WorkerPool* const compaction_pool_;
  const KvStoreOptions kv_options_;
  const ReplicationMode mode_;
  const PrimaryHook on_primary_;
  // trace.request_latency_ns{node, op}, pre-resolved so the sampled path is
  // one array index.
  HistogramInstrument* request_latency_[kNumSlowOpTypes] = {};

  mutable std::mutex regions_mutex_;
  std::map<uint32_t, std::shared_ptr<RegionHandle>> regions_;
};

}  // namespace tebis

#endif  // TEBIS_CLUSTER_REGION_HOST_H_
