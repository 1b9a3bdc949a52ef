// The Kreon-style single-node LSM engine Tebis runs inside every region
// replica (paper §2): KV separation into a segmented value log, an in-memory
// L0 (skiplist), and on-device B+ tree levels with leveled compaction
// (growth factor f, default 4).
//
// Replication hooks:
//  * ValueLog observer        — mirrors appends/flushes (paper §3.2)
//  * CompactionObserver       — receives every index segment as it is built,
//                               plus compaction begin/end (Send-Index, §3.3)
//  * ReplayRecord/CreateFromParts — rebuilds L0 / adopts shipped levels when a
//                               backup is promoted to primary (§3.5)
//
// Threading model — see DESIGN.md "Threading model":
//  * One logical writer at a time (Put/Delete/ReplayRecord and every
//    maintenance operation serialize on an internal writer lock).
//  * Any number of concurrent Get/Scan threads. Readers take a snapshot of
//    {active memtable, immutable memtable, level trees} under a short state
//    lock; level trees are refcounted so a compaction can retire them while a
//    reader is still walking them — segments are freed only when the last
//    reference drops.
//  * One compaction engine. A full memtable is sealed on the writer thread
//    (tail flush + swap, so replication's data plane stays single-threaded);
//    a scheduler then claims {src, dst} level ownership under the state lock
//    and runs each claimed job: begin -> merge/build -> end. Compactions of
//    disjoint level pairs may overlap (L0->L1 alongside L2->L3 while L1->L2
//    waits for L1).
//  * With KvStoreOptions::compaction_pool set, jobs run on the pool and
//    writes overlap them. Writers slow down when the fresh L0 grows past
//    3/2 × l0_max_entries (token-bucket paced against the measured L0 drain
//    rate) and hard-stall at 2 × l0_max_entries until the sealed memtable
//    drains.
//  * With a null pool each job runs inline on the thread that claimed it, one
//    job at a time, lowest level first — single-threaded and deterministic
//    (fault-injection crash points stay reproducible).
#ifndef TEBIS_LSM_KV_STORE_H_
#define TEBIS_LSM_KV_STORE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/bloom_filter.h"
#include "src/lsm/btree_builder.h"
#include "src/lsm/btree_reader.h"
#include "src/lsm/level_read.h"
#include "src/lsm/memtable.h"
#include "src/lsm/page_cache.h"
#include "src/lsm/segment_verifier.h"
#include "src/lsm/value_log.h"
#include "src/replication/compaction_stream.h"  // header-only: StreamId
#include "src/storage/block_device.h"
#include "src/telemetry/telemetry.h"

namespace tebis {

class WorkerPool;

struct KvStoreOptions {
  // L0 spills into L1 when it reaches this many keys (paper: 96K; the
  // Build-IndexRL configuration of §5.5 uses 32K).
  uint64_t l0_max_entries = 96 * 1024;
  // Level i holds up to l0_max_entries * growth_factor^i keys (paper: f=4).
  uint32_t growth_factor = 4;
  // Number of device levels (L1..Lmax). Tombstones are elided when compacting
  // into Lmax.
  uint32_t max_levels = 4;
  size_t node_size = kDefaultNodeSize;
  // Page-cache capacity for lookups/scans; 0 disables caching (the paper caps
  // the cache at 25% of the dataset via cgroups).
  uint64_t cache_bytes = 0;
  // Mutex stripes for the page cache (clamped down for tiny caches).
  uint32_t cache_shards = PageCache::kDefaultShards;
  // Persist a checkpoint manifest after every compaction and tail flush, so
  // Recover() restores everything up to the last flushed log segment.
  bool auto_checkpoint = false;
  // Per-level bloom filters: compactions fingerprint every merged key
  // (plus its kFilterPrefixSize prefix) and attach a filter block to the built
  // tree; point lookups and prefix scans consult it before descending the
  // level, at kDefaultFilterBitsPerKey. Send-Index primaries ship the block
  // so backups answer membership probes from the primary's exact bytes.
  bool enable_filters = true;

  // Compaction pool. When set, L0 spills and level cascades run as
  // long-running jobs on this pool and writes overlap compaction. The pool
  // must be Start()ed and must outlive the store. Null = each job runs inline
  // on the thread that claimed it (the writer or a maintenance call).
  // While a flush is in flight, writers are paced once the active L0 exceeds
  // 3/2 × l0_max_entries and block until the flush finishes once it reaches
  // 2 × l0_max_entries.
  WorkerPool* compaction_pool = nullptr;
  // Slowdown-band pacing: writers are paced by a token bucket charged
  // per record byte and refilled at the measured L0 drain rate, so the delay
  // adapts to the value-size mix. Until a drain measurement exists (and as
  // the floor unit of pacing) this per-operation sleep applies.
  uint64_t slowdown_sleep_us = 200;
  // Cap on concurrently running background compactions for this store
  // (0 = unlimited; level ownership already bounds it at (max_levels+1)/2).
  // 1 serializes the pipeline — the A/B baseline in bench_micro's shipping
  // comparison. Without a pool the cap is always 1.
  uint32_t max_background_compactions = 0;

  // Telemetry plane. Null = the store owns a private Telemetry, so a
  // standalone store's instruments are its own. Node owners (SimCluster,
  // RegionServer) pass their shared plane instead and MUST stamp each store
  // with unique telemetry_labels ({node, region, role}), or instruments merge
  // across stores; a reader picks one store's instruments out of the plane
  // with MetricsSnapshot::Sum(name, telemetry_labels).
  Telemetry* telemetry = nullptr;
  MetricLabels telemetry_labels;
};

struct CompactionInfo {
  uint64_t compaction_id = 0;
  int src_level = 0;  // 0 == L0
  int dst_level = 1;
  // The engine sealed the value-log tail on the writer thread before any
  // compaction starts, so observers never flush it. For src_level == 0 this
  // is the number of flushed log segments at seal time — the L0 replay
  // boundary this compaction covers. The writer may flush more segments
  // before the job runs; their records live in the next memtable. 0 for
  // level-to-level compactions.
  size_t l0_boundary = 0;
  // Shipping stream the scheduler assigned to this compaction: the engine
  // owns the allocation so the stream id — and the trace id derived
  // from (epoch, stream) — exists before the observer's begin fires and is
  // identical in every span and wire message of the compaction. kNoStream
  // when the per-region allocator is exhausted (the replication layer then
  // falls back to its own hashed ids, untraced).
  StreamId stream = kNoStream;
  TraceId trace_id = kNoTrace;
};

// Observer of the compaction lifecycle; the Send-Index primary attaches one
// to stream index segments to its backups while the compaction runs. Each
// compaction's callbacks stay ordered (begin -> segments -> end on the thread
// running its job). Without a pool that is the claiming thread, one
// compaction at a time. With a compaction pool, compactions of disjoint level
// pairs run concurrently and callbacks from *different* compactions
// interleave across threads — implementations must be
// thread-safe both across compactions (key callbacks by
// CompactionInfo::compaction_id) and against the data-plane (value log)
// callbacks, which keep arriving on the writer thread.
class CompactionObserver {
 public:
  virtual ~CompactionObserver() = default;
  virtual void OnCompactionBegin(const CompactionInfo& info) {}
  // `bytes` is the used prefix of a just-sealed index segment (whole nodes)
  // and `crc` its CRC32C, as the builder fingerprinted it.
  virtual void OnIndexSegment(const CompactionInfo& info, int tree_level, SegmentId segment,
                              Slice bytes, uint32_t crc) {}
  // The compaction produced `new_tree` for dst_level; src and old-dst
  // segments have been freed on the primary device.
  virtual void OnCompactionEnd(const CompactionInfo& info, const BuiltTree& new_tree) {}
};

struct KvPair {
  std::string key;
  std::string value;
};

class KvStore {
 public:
  static StatusOr<std::unique_ptr<KvStore>> Create(BlockDevice* device,
                                                   const KvStoreOptions& options);

  // Promotion path (§3.5): builds an engine around an existing value log and
  // already-installed level trees (a Send-Index backup's state). The caller
  // then replays the log tail into L0 with ReplayRecord.
  static StatusOr<std::unique_ptr<KvStore>> CreateFromParts(BlockDevice* device,
                                                            const KvStoreOptions& options,
                                                            std::unique_ptr<ValueLog> log,
                                                            std::vector<BuiltTree> levels);

  ~KvStore();

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  Status Put(Slice key, Slice value);
  Status Delete(Slice key);
  StatusOr<std::string> Get(Slice key);

  // Group commit: applies `ops` in order under one writer-lock
  // acquisition and one value-log group reservation, firing the replication
  // observer once per contiguous run instead of once per record. The batch is
  // a transport artifact, not a transaction: an invalid op fails alone (its
  // slot in `statuses`) and the rest of the group proceeds; a hard log
  // failure fails that op and every later one, while the already-applied
  // prefix stays committed. Returns non-ok only for store-level failures
  // (background error, log I/O) — per-op outcomes live in `statuses`, which
  // is resized to ops.size().
  struct BatchOp {
    Slice key;
    Slice value;  // ignored for deletes
    bool tombstone = false;
  };
  Status WriteBatch(const std::vector<BatchOp>& ops, std::vector<Status>* statuses);

  // Returns up to `limit` pairs with key >= start, ascending, skipping
  // tombstones.
  StatusOr<std::vector<KvPair>> Scan(Slice start, size_t limit);

  // Prefix scan: up to `limit` pairs whose keys start with `prefix`,
  // ascending. When the prefix fixes at least the first kFilterPrefixSize bytes,
  // levels whose bloom filter excludes the prefix fingerprint are skipped
  // without touching their on-device tree; shorter prefixes fall back to the
  // plain merged scan (correct, just never skips).
  StatusOr<std::vector<KvPair>> ScanPrefix(Slice prefix, size_t limit);

  // Inserts an existing log record into L0 without appending to the log
  // (promotion replay).
  Status ReplayRecord(Slice key, uint64_t log_offset, bool tombstone);

  // The three maintenance entry points drain in-flight jobs, seal or claim
  // through the one scheduler, then drain again: they return once the work
  // has finished, with the sticky compaction error if any job failed.
  //
  // Forces an L0 -> L1 compaction (plus any cascade) even if L0 is not full.
  Status FlushL0();

  // Seals a full L0 or claims every over-capacity level, until every level
  // is within capacity.
  Status MaybeCompact();

  // Flushes L0 and then compacts every non-empty level downwards, leaving all
  // data in the deepest reachable level. Used before value-log trims so that
  // no surviving leaf entry references superseded record offsets.
  Status ForceFullCompaction();

  // Blocks until no compaction is queued or running; returns (and clears
  // nothing — the error is sticky) any compaction failure.
  Status WaitForBackgroundWork();

  // Value-log GC: scans up to `max_segments` of the oldest flushed log
  // segments, re-appends live records, and trims the head. Returns the number
  // of segments reclaimed. The primary tells backups to trim the same count
  // (paper §4: backups "only perform the trim").
  StatusOr<size_t> GarbageCollectHead(size_t max_segments);

  // fsck-style verification: every level index is sorted with readable,
  // CRC-valid log records behind each entry, and every flushed log segment
  // parses end to end. Returns the first inconsistency found.
  struct IntegrityReport {
    uint64_t level_entries_checked = 0;
    uint64_t log_records_checked = 0;
  };
  StatusOr<IntegrityReport> CheckIntegrity();

  // --- integrity: scrub / quarantine / online repair ----------------------
  //
  // Every published level carries per-segment CRC32C checksums (kept in the manifest,
  // computed by BTreeBuilder at seal time). Reads verify a segment the first
  // time they touch it; the scrubber re-verifies everything. A segment whose
  // check fails quarantines its level: every read of that level returns
  // kCorruption until RepairQuarantinedLevels rewrites the segment with good
  // bytes from a peer replica (byte-identical in primary space, §3.3) and the
  // re-check passes.

  // The scrub is PacedScrub (level_read.h), the one a Send-Index backup runs
  // over its shipped copy of these levels.
  using ScrubOptions = tebis::ScrubOptions;
  using ScrubReport = tebis::ScrubReport;
  // Force-re-verifies every checksummed segment of every published level
  // (plus the value log) against its CRC. Concurrent with reads and writes;
  // corrupt segments are quarantined, not repaired. Returns the report even
  // when corruption was found (the report carries the damage).
  StatusOr<ScrubReport> Scrub(const ScrubOptions& options);
  StatusOr<ScrubReport> Scrub() { return Scrub(ScrubOptions()); }

  // Dispatches Scrub onto the compaction pool as a low-priority background
  // job. `done` (may be null) fires on the worker with the report.
  Status ScheduleScrub(const ScrubOptions& options,
                       std::function<void(const StatusOr<ScrubReport>&)> done = nullptr);

  // Levels currently refusing reads because a segment failed its CRC check.
  std::vector<int> QuarantinedLevels() const;

  // Fetches replacement bytes for one quarantined index segment: the full
  // checksummed prefix of segment `seg_index` (position within the level's
  // segment list) of `level`, in this store's address space.
  using SegmentFetcher = std::function<StatusOr<std::string>(int level, size_t seg_index)>;

  // Online repair: for every quarantined level, re-fetches each bad segment
  // through `fetch`, verifies the bytes against the expected CRC, writes them
  // back in place, drops stale cache pages, and lifts the quarantine once the
  // re-check passes. Runs under the writer lock with background work drained
  // (level sets are stable); concurrent reads keep failing until the segment
  // verdict flips back.
  Status RepairQuarantinedLevels(const SegmentFetcher& fetch);

  // Serves a repair fetch: reads the checksummed prefix of segment `seg_index`
  // of `level` and returns it only if its CRC matches (a corrupt peer must
  // never propagate rot). This is the donor side of RepairQuarantinedLevels.
  StatusOr<std::string> ReadLevelSegmentVerified(int level, size_t seg_index);

  // --- checkpoint / local recovery ---------------------------------------

  // Persists a manifest (levels with their segment checksums, flushed log
  // segments, L0 replay boundary) into a dedicated segment and returns its
  // id; it reads no level bytes. The previous checkpoint segment is freed.
  // The id is the store's "superblock" handle — keep it somewhere durable
  // (Recover needs it). Safe to call from the writer thread or the background
  // job concurrently with readers.
  StatusOr<SegmentId> Checkpoint();

  // Rebuilds a store from `checkpoint_segment` on a device whose backing file
  // was reopened (BlockDeviceOptions::reopen_existing). Restores every record
  // in flushed log segments — the in-memory tail is not local state; in Tebis
  // it comes back from the replicas via promotion (§3.5). Every level segment
  // is checked against its checksum (IoClass::kRecovery, the checksummed
  // prefix only); any mismatch drops every level and rebuilds the index from
  // the value log.
  static StatusOr<std::unique_ptr<KvStore>> Recover(BlockDevice* device,
                                                    const KvStoreOptions& options,
                                                    SegmentId checkpoint_segment);

  // Dismantles a store into its durable parts (graceful primary handover:
  // the demoted primary re-wraps them as a backup region). Drains background
  // work first. The L0 content is dropped — the caller must have flushed the
  // tail, which makes every L0 record recoverable from the flushed segments
  // past l0_replay_from.
  struct Parts {
    std::unique_ptr<ValueLog> log;
    std::vector<BuiltTree> levels;
    size_t l0_replay_from;
  };
  static Parts Decompose(std::unique_ptr<KvStore> store);

  void set_compaction_observer(CompactionObserver* observer) { observer_ = observer; }

  // Late-binds a compaction pool onto a store opened without one (a promoted
  // backup's engine: backups compact inline, if at all, so their stores are
  // built without a pool). Only legal while no pool is attached and no
  // background job is scheduled; callers promote under the region lock before
  // any write reaches the new primary.
  Status AdoptCompactionPool(WorkerPool* pool);

  ValueLog* value_log() { return log_.get(); }
  PageCache* cache() { return cache_.get(); }
  const KvStoreOptions& options() const { return options_; }
  // Active + sealed-but-unflushed L0 entries.
  uint64_t l0_entries() const;
  uint64_t l0_memory_bytes() const;
  // Only valid while no compaction can run concurrently (quiesced store or
  // after WaitForBackgroundWork with no writers).
  const BuiltTree& level(uint32_t i) const { return levels_[i]->tree; }
  uint32_t max_levels() const { return options_.max_levels; }

  // The telemetry plane this store reports into (shared or privately owned),
  // under options().telemetry_labels.
  Telemetry* telemetry() const { return telemetry_; }
  // Replication epoch folded into new trace ids (PrimaryRegion::set_epoch
  // forwards here). Compactions already in flight keep their old trace.
  void set_trace_epoch(uint64_t epoch) {
    trace_epoch_.store(epoch, std::memory_order_relaxed);
  }

  uint64_t LevelCapacity(uint32_t level) const;

 private:
  // A published level tree. Readers hold shared_ptr copies; when a compaction
  // replaces the level it marks the old handle retired, and the destructor —
  // running when the last reader drops its reference — frees the segments and
  // invalidates their cache pages. Unretired handles (live levels at store
  // teardown, Decompose) never free anything.
  struct TreeHandle {
    BlockDevice* device = nullptr;
    PageCache* cache = nullptr;
    BuiltTree tree;
    // Shared verdict state over the tree's segment checksums for every reader
    // of this publication (an empty level's covers no segments). Readers
    // check it per node; the scrubber force-re-verifies through it; repair
    // resets it. `level` labels it for corruption messages and telemetry.
    SegmentVerifier verifier;
    std::atomic<bool> retire{false};

    TreeHandle(BlockDevice* d, PageCache* c, BuiltTree t, int level)
        : device(d),
          cache(c),
          tree(std::move(t)),
          verifier(d, tree.segments, tree.seg_checksums, "L" + std::to_string(level)) {}
    ~TreeHandle();
  };
  using TreeRef = std::shared_ptr<TreeHandle>;

  // What a reader sees: consistent pointers, contents safe to read
  // concurrently with one writer.
  struct ReadSnapshot {
    std::shared_ptr<Memtable> active;
    std::shared_ptr<Memtable> imm;  // may be null
    std::vector<TreeRef> levels;
  };

  // One unit of compaction work.
  struct CompactionJob {
    CompactionInfo info;
    std::shared_ptr<Memtable> imm;  // non-null for L0 spills
    // When the memtable was sealed; start of the "claim" trace span and of
    // the queue wait (near zero when the job runs inline). 0 for level jobs.
    uint64_t queued_at_ns = 0;
    // Log bytes appended while this memtable was active (L0 spills); feeds
    // the slowdown token bucket's drain-rate estimate.
    uint64_t imm_bytes = 0;
  };

  // The store's registry instruments ("kv.*", "wp.batch_*", "integrity.*"):
  // resolved once at construction against the telemetry plane's
  // MetricsRegistry (with this store's labels), updated lock-free.
  struct Instruments {
    Counter* puts = nullptr;
    Counter* gets = nullptr;
    Counter* deletes = nullptr;
    Counter* scans = nullptr;
    Counter* compactions = nullptr;
    Counter* background_compactions = nullptr;
    Counter* insert_l0_cpu_ns = nullptr;
    Counter* compaction_cpu_ns = nullptr;
    Counter* get_cpu_ns = nullptr;
    Counter* write_slowdowns = nullptr;
    Counter* write_slowdown_ns = nullptr;
    Counter* write_stalls = nullptr;
    Counter* write_stall_ns = nullptr;
    Gauge* concurrent_compaction_peak = nullptr;  // SetMax high-water mark
    Counter* compaction_queue_wait_ns = nullptr;
    Counter* compaction_merge_ns = nullptr;
    Counter* compaction_build_ns = nullptr;
    Counter* compaction_ship_ns = nullptr;
    // Per-level filter instruments, indexed by level (entry 0 unused).
    // Pre-resolved so the hot read path never takes a registry lookup.
    std::vector<FilterCounters> filters;
    std::vector<Gauge*> filter_bits_per_key;  // set when a level publishes
    IntegrityCounters integrity;
    Counter* read_corruptions_log = nullptr;    // kv.read_corruptions{source=value_log}
    Counter* read_corruptions_level = nullptr;  // kv.read_corruptions{source=level}
    // Write-path group commit.
    Counter* batch_groups = nullptr;
    Counter* batch_ops = nullptr;
    HistogramInstrument* batch_size = nullptr;               // ops per group
    HistogramInstrument* group_commit_latency_ns = nullptr;  // WriteBatch wall time
  };

  KvStore(BlockDevice* device, const KvStoreOptions& options);

  TreeRef MakeHandle(BuiltTree tree, int level) {
    return std::make_shared<TreeHandle>(device_, cache_.get(), std::move(tree), level);
  }

  ReadSnapshot TakeReadSnapshot() const;

  // Request-trace wrapper: times the apply and records an
  // "engine_apply" span when the calling thread carries a sampled request
  // scope, then delegates to WriteImplInner. Costs one thread-local load on
  // untraced calls.
  Status WriteImpl(Slice key, Slice value, bool tombstone);
  Status WriteImplInner(Slice key, Slice value, bool tombstone);
  Status WriteBatchInner(const std::vector<BatchOp>& ops, std::vector<Status>* statuses);
  // Append + L0 insert without backpressure/seals; requires write_mutex_.
  Status PutLocked(Slice key, Slice value, bool tombstone);

  // Backpressure + seal/dispatch once the active L0 is full; write_mutex_.
  // `record_bytes` is the log footprint of the record just written (token
  // bucket charge).
  Status MaybeScheduleL0(size_t record_bytes);
  // Token-bucket pacing in the slowdown band: sleeps just long enough for the
  // measured L0 drain rate to absorb `record_bytes`. Writer thread only.
  void SlowdownDelay(size_t record_bytes);
  // Seals the active memtable: tail flush on this (writer) thread — the
  // data-plane observer mirrors it, and its CPU is insert time — then the
  // swap; dispatches any claimable jobs. The compaction observer's begin
  // fires later, from the job. Returns the sticky compaction error, which an
  // inline job may just have set. write_mutex_ held, imm_ must be empty.
  Status SealL0Locked();

  // Compaction scheduler. Claims every runnable unit of work whose
  // {src, dst} levels are free: the sealed memtable (owns levels {0, 1}) and
  // any over-capacity device level i (owns {i, i+1}). Without a pool at most
  // one job is in flight. mutex_ must be held.
  std::vector<CompactionJob> ClaimBackgroundJobsLocked();
  // Claims levels {src_level, src_level + 1} for one job — the sealed
  // memtable when src_level is 0, else device level src_level — marking
  // both busy and counting the job in bg_jobs_. mutex_ held, levels free.
  CompactionJob ClaimLevelJobLocked(uint32_t src_level);
  // Hands each claimed job to the pool, or runs it inline on this thread
  // when there is none. Must be called WITHOUT mutex_.
  void DispatchBackgroundJobs(std::vector<CompactionJob> jobs);
  // Runs one claimed job, then its completion bookkeeping: release level
  // ownership, latch a failure in bg_error_, update the drain-rate estimate,
  // and claim any newly runnable work.
  void BackgroundJob(CompactionJob job);

  // Maintenance helpers (write_mutex_ held, jobs drained).
  Status FlushL0Locked();
  Status ForceFullCompactionLocked();

  // Observer begin + merge + publish + observer end + auto-checkpoint for
  // one job, on the thread running it.
  Status RunCompaction(const CompactionJob& job);

  // Assigns a shipping stream + trace id to a just-claimed compaction.
  // mutex_ must be held (stream_ids_ is guarded by it).
  void AssignStreamLocked(CompactionInfo* info);
  // Records one pipeline span into the plane's ring buffer. No-op when the
  // compaction is untraced or the ring is disabled.
  void RecordSpan(const CompactionInfo& info, const char* name, uint64_t start_ns,
                  uint64_t end_ns, uint64_t bytes = 0) const;

  // Publishes the current quarantined-level count to the integrity gauge.
  void UpdateQuarantineGauge();

  // Waits until every claimed job is idle; returns the sticky error.
  // write_mutex_ must be held (blocks new seals).
  Status DrainBackgroundLocked();
  Status BackgroundError() const;

  StatusOr<ValueLocation> FindLocation(Slice key, const ReadSnapshot& snap);
  // Scan and ScanPrefix: up to `limit` live pairs with key >= start, ending
  // at the first key that does not begin with `prefix` (empty = no end).
  // A prefix of at least kFilterPrefixSize bytes lets level filters skip
  // levels.
  StatusOr<std::vector<KvPair>> ScanRange(Slice start, Slice prefix, size_t limit);

  BlockDevice* const device_;
  const KvStoreOptions options_;
  const uint64_t l0_slowdown_entries_;
  const uint64_t l0_stop_entries_;
  WorkerPool* pool_;  // non-const only for AdoptCompactionPool (promotion)

  std::unique_ptr<ValueLog> log_;
  std::unique_ptr<PageCache> cache_;

  // Lock hierarchy: write_mutex_ > mutex_ > (tail lock inside ValueLog).
  // checkpoint_mutex_ is a leaf taken after write_mutex_ or alone (background
  // job). Neither mutex_ nor write_mutex_ is ever held across merge I/O or
  // observer callbacks.
  std::mutex write_mutex_;               // serializes writers + maintenance
  mutable std::mutex mutex_;             // state below
  std::condition_variable stall_cv_;     // signaled when imm_ drains
  std::condition_variable bg_cv_;        // signaled when a bg job finishes

  // --- guarded by mutex_ ---
  std::shared_ptr<Memtable> active_;
  std::shared_ptr<Memtable> imm_;        // sealed memtable being flushed
  CompactionInfo imm_info_;
  uint64_t imm_queued_at_ns_ = 0;
  uint64_t imm_bytes_ = 0;               // log bytes appended into imm_
  // levels_[0] unused (L0 is the memtable); levels_[1..max_levels] on device.
  // Entries are never null. Only the job owning a level replaces it.
  std::vector<TreeRef> levels_;
  // Level-ownership guard: level_busy_[i] is set while a claimed job
  // owns level i. Index 0 doubles as the claim marker for the sealed memtable
  // (imm_ stays non-null until its job publishes, so "imm_ && !level_busy_[0]"
  // means an unclaimed spill).
  std::vector<bool> level_busy_;
  int bg_jobs_ = 0;                      // claimed-but-unfinished jobs
  Status bg_error_;                      // sticky
  size_t l0_replay_from_ = 0;            // first flushed segment not in levels

  // Slowdown token bucket. tokens/refill are writer-thread state
  // (write_mutex_); the drain-rate estimate is published by background jobs.
  double slowdown_tokens_ = 0;
  uint64_t slowdown_refill_ns_ = 0;
  uint64_t active_appended_bytes_ = 0;   // log bytes into active_; write_mutex_
  std::atomic<uint64_t> drain_bytes_per_sec_{0};  // EWMA of L0 drain rate

  CompactionObserver* observer_ = nullptr;
  std::atomic<uint64_t> next_compaction_id_{1};

  // Telemetry plane. telemetry_ points at options_.telemetry or at
  // owned_telemetry_ (standalone store). Instrument pointers are stable for
  // the registry's lifetime, so hot paths update them without any lock.
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_ = nullptr;
  std::string node_name_;  // span node label, from telemetry_labels
  Instruments counters_;

  // Shipping-stream allocator: the scheduler assigns each compaction a
  // stream id at claim time (guarded by mutex_), so the id — and the trace id
  // derived from (trace_epoch_, stream) — is fixed before the observer begin.
  // Released when RunCompaction succeeds; leaked on failure (a reused id must
  // never reach a backup that still holds the failed compaction's state).
  StreamIdAllocator stream_ids_;
  std::atomic<uint64_t> trace_epoch_{0};

  std::mutex checkpoint_mutex_;          // serializes Checkpoint()
  SegmentId checkpoint_segment_ = kInvalidSegment;  // guarded by checkpoint_mutex_
};

}  // namespace tebis

#endif  // TEBIS_LSM_KV_STORE_H_
