// The Tebis client library (paper §3.1, §3.4.1): caches the region map,
// routes each operation to the primary of the owning region over the
// RDMA-write protocol, and recovers transparently from stale maps
// (kFlagWrongRegion -> refresh + retry) and undersized reply allocations
// (kFlagTruncatedReply -> larger allocation + retry, the §3.4.1 round trip).
//
// Operations can be pipelined: *Async issues without waiting; Wait/WaitAll
// harvest completions. One TebisClient is single-threaded (use one per client
// thread, as the paper's client processes do).
#ifndef TEBIS_CLUSTER_CLIENT_H_
#define TEBIS_CLUSTER_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/region_map.h"
#include "src/lsm/kv_store.h"
#include "src/net/rpc_client.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace tebis {

// Resolves a server name to its client endpoint ("network addressing").
using ServerResolver = std::function<ServerEndpoint*(const std::string&)>;

struct ClientStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t scans = 0;
  uint64_t wrong_region_retries = 0;
  uint64_t truncated_retries = 0;
  uint64_t failover_retries = 0;
  uint64_t map_refreshes = 0;
  uint64_t replica_reads = 0;      // reads issued to a leased backup
  uint64_t replica_fallbacks = 0;  // replica rejected the fence -> primary
  // Reads re-routed to the other side after a kCorruption reply: a
  // replica served rotten bytes -> retry on the primary; the primary did ->
  // retry on a leased replica. One flip per op, then the error surfaces.
  uint64_t corruption_retries = 0;
  // Write batching (set_batching).
  uint64_t batches_sent = 0;     // kKvBatch frames shipped
  uint64_t batched_ops = 0;      // writes carried by those frames
  uint64_t batch_fallbacks = 0;  // batch frames re-issued op-by-op
};

// Where reads are routed. Writes always go to the primary.
enum class ReadMode {
  // The default: every read is served by the region's primary.
  kPrimaryOnly,
  // Reads rotate across leased backups; a replica may serve as long as its
  // committed epoch is within `staleness_bound` epochs of the map's. Reads
  // are still monotonic per client (the read fence carries the largest
  // visible sequence this client has observed).
  kBoundedStaleness,
  // Like bounded staleness, but the read fence additionally carries the
  // client's commit token high-water mark, so a replica that has not yet
  // applied this client's own writes rejects the read (FailedPrecondition)
  // and the client falls back to the primary.
  kReadYourWrites,
};

class TebisClient {
 public:
  TebisClient(Fabric* fabric, std::string name, ServerResolver resolver,
              std::vector<std::string> seed_servers,
              size_t buffer_size = kDefaultConnectionBufferSize);

  TebisClient(const TebisClient&) = delete;
  TebisClient& operator=(const TebisClient&) = delete;

  // Fetches the region map from a seed server (clients read and cache it at
  // initialization, §3.1).
  Status Connect();

  // Admin scrape: fetch `server`'s telemetry payload — metrics
  // snapshot + recent pipeline spans — as JSON.
  StatusOr<std::string> ScrapeStats(const std::string& server);

  // --- synchronous API ---
  Status Put(Slice key, Slice value);
  StatusOr<std::string> Get(Slice key);
  Status Delete(Slice key);
  StatusOr<std::vector<KvPair>> Scan(Slice start, uint32_t limit);

  // --- pipelined API ---
  using OpHandle = uint64_t;
  struct OpResult {
    Status status;
    std::string value;  // get only
  };
  StatusOr<OpHandle> PutAsync(Slice key, Slice value);
  StatusOr<OpHandle> GetAsync(Slice key);
  StatusOr<OpHandle> DeleteAsync(Slice key);
  // Blocks (polling + retries) until the op completes.
  OpResult Wait(OpHandle handle);
  // Completes every pending op; returns the first error.
  Status WaitAll();
  size_t pending() const { return pending_.size(); }

  const ClientStats& stats() const { return stats_; }
  uint64_t map_version() const { return map_ == nullptr ? 0 : map_->version(); }
  // Per-attempt RPC timeout before the client assumes the server died and
  // re-routes via a fresh map.
  void set_rpc_timeout_ns(uint64_t ns) { rpc_timeout_ns_ = ns; }

  // Read routing. `staleness_bound` (kBoundedStaleness only) is the
  // number of epochs a serving replica may lag the cached map; 0 requires the
  // replica to be at the map's epoch.
  void set_read_mode(ReadMode mode, uint64_t staleness_bound = 0) {
    read_mode_ = mode;
    staleness_bound_ = staleness_bound;
  }
  ReadMode read_mode() const { return read_mode_; }

  // Write batching: when batch_size > 1, PutAsync/DeleteAsync stage writes
  // per destination region and ship each group as one kKvBatch frame once it
  // reaches batch_size ops or batch_bytes of key+value payload. A call that
  // is about to block first puts every staged group on the wire, whichever
  // region it waits on: Wait on a staged op (sync Put/Delete wait this way),
  // WaitAll, and any read (which must not overtake this client's parked
  // writes). Wait on an op whose frame is already on the wire flushes
  // nothing. So a blocked client keeps one frame per region in flight, not
  // one in total; ops of one region still go out in FIFO order. The server
  // applies a group under one value-log reservation and replicates it with
  // coalesced doorbells. batch_size = 1 (the default) keeps the single-op
  // wire format byte-for-byte; a group of one is likewise sent as a plain
  // kPut/kDelete.
  void set_batching(size_t batch_size, size_t batch_bytes = 1 << 16) {
    batch_size_ = batch_size == 0 ? 1 : batch_size;
    batch_bytes_ = batch_bytes == 0 ? 1 : batch_bytes;
  }
  size_t batch_size() const { return batch_size_; }

  // Request-scoped tracing: sample one in `sample_every` ops (0
  // disables, the default — requests stay byte-identical on the wire). A
  // sampled op carries a request trace id in a trailing wire field; the
  // servers it touches record spans under that id.
  void set_request_sampling(uint64_t sample_every) { sample_every_ = sample_every; }
  uint64_t request_sampling() const { return sample_every_; }
  // Plane that receives this client's "client" spans for sampled ops (e.g.
  // the test harness's plane). nullptr (default) skips client-side spans;
  // trace ids still flow to the servers.
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

 private:
  struct PendingOp {
    MessageType type;
    std::string key;
    std::string value;     // put
    uint32_t limit = 0;    // scan
    size_t reply_alloc;
    std::string server;    // where it was sent
    uint64_t request_id;
    int attempts = 0;
    // Replica-read routing.
    bool replica = false;        // currently issued to a backup
    bool force_primary = false;  // a replica rejected the fence: stay on primary
    // Corruption failover: the primary answered kCorruption, so prefer
    // a leased replica even under ReadMode::kPrimaryOnly. One retry only.
    bool force_replica = false;
    bool corruption_retried = false;
    uint32_t region_id = 0;      // region it routed to (read-state key)
    // Write batching.
    bool staged = false;     // parked in a batch queue, not yet on the wire
    uint64_t batch_id = 0;   // in-flight kKvBatch frame it rode (0 = single-op)
    // Request tracing: allocated once at op creation; retries re-send
    // the same id so the trace tree stays whole across failover.
    TraceId trace = kNoTrace;
    uint64_t trace_start_ns = 0;
  };

  // Per-region read-consistency state.
  struct RegionReadState {
    // Commit token of this client's latest write (read-your-writes fence).
    uint64_t token_epoch = 0;
    uint64_t token_seq = 0;
    // Largest visible sequence any replica reported to this client
    // (monotonic-reads fence, folded into every replica read).
    uint64_t observed_seq = 0;
  };

  // A batch queue holds writes staged for one region; an in-flight batch is
  // one kKvBatch frame whose per-op statuses have not been harvested yet.
  struct BatchQueue {
    std::vector<OpHandle> handles;
    size_t bytes = 0;  // staged key+value payload
  };
  struct InflightBatch {
    std::string server;
    uint64_t request_id = 0;
    uint32_t region_id = 0;
    std::vector<OpHandle> handles;
    // Request tracing: sampled per frame, not per carried op.
    TraceId trace = kNoTrace;
    uint64_t trace_start_ns = 0;
    uint64_t trace_bytes = 0;
  };

  Status RefreshMap();
  StatusOr<RpcClient*> ClientFor(const std::string& server);
  // Issues (or re-issues) `op` to the current owner of its key.
  Status Issue(PendingOp* op);
  // Drives one op to completion.
  OpResult Complete(OpHandle handle);
  // Parks a write in its region's batch queue, flushing at the thresholds.
  StatusOr<OpHandle> StageWrite(MessageType type, Slice key, Slice value);
  // Ships one region's staged writes as a kKvBatch frame (or re-issues them
  // through the single-op path when the frame cannot be sent).
  Status FlushBatchQueue(uint32_t region_id);
  // The blocking-flush rule (see set_batching): ships every staged group.
  // Called by Complete on a staged op, by WaitAll and before issuing a read.
  Status FlushBeforeBlocking();
  // Waits for a batch reply and distributes per-op statuses; a frame that
  // fails as a unit falls back to single-op re-issue per carried write.
  void HarvestBatch(uint64_t batch_id);
  // 1-in-N sampling decision; returns a fresh request trace id or kNoTrace.
  TraceId MaybeSampleTrace();
  // Records the end-to-end "client" span for a sampled op (no-op without a
  // telemetry plane).
  void RecordClientSpan(TraceId trace, uint64_t start_ns, uint64_t bytes);

  Fabric* const fabric_;
  const std::string name_;
  const ServerResolver resolver_;
  const std::vector<std::string> seed_servers_;
  const size_t buffer_size_;

  std::map<std::string, std::unique_ptr<RpcClient>> connections_;
  std::shared_ptr<const RegionMap> map_;
  std::map<OpHandle, PendingOp> pending_;
  // Results of batched ops resolved before their Wait (node-stable maps:
  // KvBatchOp slices into pending_ entries survive unrelated inserts).
  std::map<OpHandle, OpResult> completed_;
  std::map<uint32_t, BatchQueue> batch_queues_;    // keyed by region id
  std::map<uint64_t, InflightBatch> inflight_batches_;
  uint64_t next_batch_id_ = 1;
  size_t batch_size_ = 1;
  size_t batch_bytes_ = 1 << 16;
  OpHandle next_handle_ = 1;
  size_t default_value_alloc_ = 1024;
  uint64_t rpc_timeout_ns_ = kDefaultRpcCallTimeoutNs;
  ClientStats stats_;
  ReadMode read_mode_ = ReadMode::kPrimaryOnly;
  uint64_t staleness_bound_ = 0;
  uint64_t replica_rr_ = 0;  // round-robin cursor over a region's leases
  std::map<uint32_t, RegionReadState> read_state_;
  // Request tracing.
  uint64_t sample_every_ = 0;   // 0 = off
  uint64_t sample_counter_ = 0;
  uint64_t trace_seq_ = 0;
  uint64_t source_hash_ = 0;    // hash of name_, keeps clients' ids apart
  Telemetry* telemetry_ = nullptr;
};

}  // namespace tebis

#endif  // TEBIS_CLUSTER_CLIENT_H_
