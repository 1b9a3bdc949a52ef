#include "src/lsm/kv_store.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/lsm/btree_reader.h"
#include "src/lsm/compaction.h"
#include "src/lsm/manifest.h"
#include "src/net/worker_pool.h"
#include "src/telemetry/request_trace.h"

namespace tebis {
namespace {

// Adapts a CompactionObserver to the builder's SegmentSink, accounting the
// wall time spent inside the observer (index-shipping cost).
class ObserverSink : public SegmentSink {
 public:
  ObserverSink(CompactionObserver* observer, const CompactionInfo& info, uint64_t* ship_ns)
      : observer_(observer), info_(info), ship_ns_(ship_ns) {}

  void OnSegmentComplete(int tree_level, SegmentId segment, Slice bytes, uint32_t crc) override {
    if (observer_ != nullptr) {
      ScopedTimer t(ship_ns_);
      observer_->OnIndexSegment(info_, tree_level, segment, bytes, crc);
    }
  }

 private:
  CompactionObserver* observer_;
  CompactionInfo info_;
  uint64_t* ship_ns_;
};

}  // namespace

KvStore::TreeHandle::~TreeHandle() {
  if (!retire.load(std::memory_order_acquire)) {
    return;
  }
  for (SegmentId seg : tree.segments) {
    if (cache != nullptr) {
      cache->InvalidateSegment(seg);
    }
    Status freed = device->FreeSegment(seg);
    if (!freed.ok()) {
      TEBIS_LOG(kError) << "failed to free retired level segment: " << freed.ToString();
    }
  }
}

StatusOr<std::unique_ptr<KvStore>> KvStore::Create(BlockDevice* device,
                                                   const KvStoreOptions& options) {
  if (options.max_levels < 1 || options.growth_factor < 2 || options.l0_max_entries == 0) {
    return Status::InvalidArgument("bad KvStoreOptions");
  }
  if (options.node_size > device->segment_size() ||
      device->segment_size() % options.node_size != 0) {
    return Status::InvalidArgument("node_size must divide segment_size");
  }
  TEBIS_RETURN_IF_ERROR(CheckLeafAddressable(device));
  std::unique_ptr<KvStore> store(new KvStore(device, options));
  TEBIS_ASSIGN_OR_RETURN(store->log_, ValueLog::Create(device));
  return store;
}

StatusOr<std::unique_ptr<KvStore>> KvStore::CreateFromParts(BlockDevice* device,
                                                            const KvStoreOptions& options,
                                                            std::unique_ptr<ValueLog> log,
                                                            std::vector<BuiltTree> levels) {
  if (levels.size() != options.max_levels + 1) {
    return Status::InvalidArgument("levels vector must have max_levels+1 entries");
  }
  TEBIS_RETURN_IF_ERROR(CheckLeafAddressable(device));
  std::unique_ptr<KvStore> store(new KvStore(device, options));
  store->log_ = std::move(log);
  for (size_t i = 0; i < levels.size(); ++i) {
    store->levels_[i] = store->MakeHandle(std::move(levels[i]), static_cast<int>(i));
  }
  return store;
}

KvStore::KvStore(BlockDevice* device, const KvStoreOptions& options)
    : device_(device),
      options_(options),
      l0_slowdown_entries_(options.l0_max_entries + options.l0_max_entries / 2),
      l0_stop_entries_(2 * options.l0_max_entries),
      pool_(options.compaction_pool),
      active_(std::make_shared<Memtable>()) {
  if (options.cache_bytes > 0) {
    cache_ = std::make_unique<PageCache>(device, options.cache_bytes, options.node_size,
                                         options.cache_shards);
  }
  levels_.reserve(options.max_levels + 1);
  for (uint32_t i = 0; i <= options.max_levels; ++i) {
    levels_.push_back(MakeHandle(BuiltTree{}, static_cast<int>(i)));
  }
  level_busy_.assign(options.max_levels + 1, false);

  if (options.telemetry != nullptr) {
    telemetry_ = options.telemetry;
  } else {
    owned_telemetry_ = std::make_unique<Telemetry>();
    telemetry_ = owned_telemetry_.get();
  }
  node_name_ = NodeLabel(options.telemetry_labels);
  MetricsRegistry* reg = telemetry_->metrics();
  const MetricLabels& l = options.telemetry_labels;
  counters_.puts = reg->GetCounter("kv.puts", l);
  counters_.gets = reg->GetCounter("kv.gets", l);
  counters_.deletes = reg->GetCounter("kv.deletes", l);
  counters_.scans = reg->GetCounter("kv.scans", l);
  counters_.compactions = reg->GetCounter("kv.compactions", l);
  counters_.background_compactions = reg->GetCounter("kv.background_compactions", l);
  counters_.insert_l0_cpu_ns = reg->GetCounter("kv.insert_l0_cpu_ns", l);
  counters_.compaction_cpu_ns = reg->GetCounter("kv.compaction_cpu_ns", l);
  counters_.get_cpu_ns = reg->GetCounter("kv.get_cpu_ns", l);
  counters_.write_slowdowns = reg->GetCounter("kv.write_slowdowns", l);
  counters_.write_slowdown_ns = reg->GetCounter("kv.write_slowdown_ns", l);
  counters_.write_stalls = reg->GetCounter("kv.write_stalls", l);
  counters_.write_stall_ns = reg->GetCounter("kv.write_stall_ns", l);
  counters_.concurrent_compaction_peak = reg->GetGauge("kv.concurrent_compaction_peak", l);
  counters_.compaction_queue_wait_ns = reg->GetCounter("kv.compaction_queue_wait_ns", l);
  counters_.compaction_merge_ns = reg->GetCounter("kv.compaction_merge_ns", l);
  counters_.compaction_build_ns = reg->GetCounter("kv.compaction_build_ns", l);
  counters_.compaction_ship_ns = reg->GetCounter("kv.compaction_ship_ns", l);
  // Per-level filter instruments: resolved up front, one label set per
  // device level, so Get never pays a registry lookup. Entry 0 stays null
  // (L0 is the memtable, no filter).
  counters_.filters.assign(options.max_levels + 1, FilterCounters{});
  counters_.filter_bits_per_key.assign(options.max_levels + 1, nullptr);
  for (uint32_t i = 1; i <= options.max_levels; ++i) {
    MetricLabels labels = l;
    labels.emplace_back("level", "L" + std::to_string(i));
    counters_.filters[i] = FilterCounters{reg->GetCounter("kv.filter_checks", labels),
                                          reg->GetCounter("kv.filter_negatives", labels),
                                          reg->GetCounter("kv.filter_false_positives", labels)};
    counters_.filter_bits_per_key[i] = reg->GetGauge("kv.filter_bits_per_key", labels);
  }
  counters_.integrity = RegisterIntegrityCounters(reg, l);
  {
    MetricLabels log_labels = l;
    log_labels.emplace_back("source", "value_log");
    counters_.read_corruptions_log = reg->GetCounter("kv.read_corruptions", log_labels);
    MetricLabels level_labels = l;
    level_labels.emplace_back("source", "level");
    counters_.read_corruptions_level = reg->GetCounter("kv.read_corruptions", level_labels);
  }
  // Write-path group commit.
  counters_.batch_groups = reg->GetCounter("wp.batch_groups", l);
  counters_.batch_ops = reg->GetCounter("wp.batch_ops", l);
  counters_.batch_size = reg->GetHistogram("wp.batch_size", l);
  counters_.group_commit_latency_ns = reg->GetHistogram("wp.group_commit_latency_ns", l);
}

void KvStore::AssignStreamLocked(CompactionInfo* info) {
  info->stream = stream_ids_.Acquire();
  if (info->stream != kNoStream) {
    info->trace_id = MakeTraceId(trace_epoch_.load(std::memory_order_relaxed), info->stream);
  }
}

void KvStore::RecordSpan(const CompactionInfo& info, const char* name, uint64_t start_ns,
                         uint64_t end_ns, uint64_t bytes) const {
  TraceBuffer* traces = telemetry_->traces();
  if (info.trace_id == kNoTrace || !traces->enabled()) {
    return;
  }
  SpanRecord span;
  span.trace = info.trace_id;
  span.compaction_id = info.compaction_id;
  span.name = name;
  span.node = node_name_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.src_level = info.src_level;
  span.dst_level = info.dst_level;
  span.bytes = bytes;
  traces->Record(std::move(span));
}

KvStore::~KvStore() {
  std::unique_lock<std::mutex> lock(mutex_);
  bg_cv_.wait(lock, [&] { return bg_jobs_ == 0; });
}

Status KvStore::AdoptCompactionPool(WorkerPool* pool) {
  std::lock_guard<std::mutex> write_lock(write_mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_ != nullptr) {
    return Status::FailedPrecondition("store already has a compaction pool");
  }
  if (bg_jobs_ > 0 || imm_ != nullptr) {
    return Status::FailedPrecondition("store has in-flight compaction work");
  }
  pool_ = pool;
  return Status::Ok();
}

uint64_t KvStore::LevelCapacity(uint32_t level) const {
  uint64_t cap = options_.l0_max_entries;
  for (uint32_t i = 0; i < level; ++i) {
    cap *= options_.growth_factor;
  }
  return cap;
}

uint64_t KvStore::l0_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = active_->entries();
  if (imm_ != nullptr) {
    n += imm_->entries();
  }
  return n;
}

uint64_t KvStore::l0_memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = active_->ApproximateMemoryBytes();
  if (imm_ != nullptr) {
    n += imm_->ApproximateMemoryBytes();
  }
  return n;
}

KvStore::ReadSnapshot KvStore::TakeReadSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ReadSnapshot snap;
  snap.active = active_;
  snap.imm = imm_;
  snap.levels = levels_;
  return snap;
}

// --- write path ----------------------------------------------------------------

Status KvStore::Put(Slice key, Slice value) { return WriteImpl(key, value, false); }

Status KvStore::Delete(Slice key) { return WriteImpl(key, Slice(), true); }

Status KvStore::WriteImpl(Slice key, Slice value, bool tombstone) {
  RequestStageTimings* stages = CurrentRequestStages();
  if (stages == nullptr) {
    return WriteImplInner(key, value, tombstone);
  }
  const uint64_t start_ns = NowNanos();
  Status status = WriteImplInner(key, value, tombstone);
  const uint64_t end_ns = NowNanos();
  stages->engine_ns += end_ns - start_ns;
  const TraceId trace = CurrentRequestTrace();
  TraceBuffer* traces = telemetry_->traces();
  if (trace != kNoTrace && traces->enabled()) {
    SpanRecord span;
    span.trace = trace;
    span.name = "engine_apply";
    span.node = node_name_;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.bytes = key.size() + value.size();
    traces->Record(std::move(span));
  }
  return status;
}

Status KvStore::WriteImplInner(Slice key, Slice value, bool tombstone) {
  std::lock_guard<std::mutex> wl(write_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!bg_error_.ok()) {
      return bg_error_;
    }
  }
  bool flushed;
  {
    uint64_t cpu_ns = 0;
    {
      ScopedCpuTimer t(&cpu_ns);
      TEBIS_ASSIGN_OR_RETURN(ValueLog::AppendResult res, log_->Append(key, value, tombstone));
      active_->Put(key, ValueLocation{res.offset, tombstone});
      flushed = res.flushed_segment;
    }
    counters_.insert_l0_cpu_ns->Add(cpu_ns);
    (tombstone ? counters_.deletes : counters_.puts)->Increment();
  }
  const size_t record_bytes = key.size() + value.size();
  active_appended_bytes_ += record_bytes;
  if (flushed && options_.auto_checkpoint) {
    TEBIS_RETURN_IF_ERROR(Checkpoint().status());
  }
  return MaybeScheduleL0(record_bytes);
}

Status KvStore::WriteBatch(const std::vector<BatchOp>& ops, std::vector<Status>* statuses) {
  RequestStageTimings* stages = CurrentRequestStages();
  if (stages == nullptr) {
    return WriteBatchInner(ops, statuses);
  }
  const uint64_t start_ns = NowNanos();
  Status status = WriteBatchInner(ops, statuses);
  const uint64_t end_ns = NowNanos();
  stages->engine_ns += end_ns - start_ns;
  const TraceId trace = CurrentRequestTrace();
  TraceBuffer* traces = telemetry_->traces();
  if (trace != kNoTrace && traces->enabled()) {
    SpanRecord span;
    span.trace = trace;
    span.name = "engine_apply";
    span.node = node_name_;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    for (const BatchOp& op : ops) {
      span.bytes += op.key.size() + op.value.size();
    }
    traces->Record(std::move(span));
  }
  return status;
}

Status KvStore::WriteBatchInner(const std::vector<BatchOp>& ops, std::vector<Status>* statuses) {
  statuses->assign(ops.size(), Status::Ok());
  if (ops.empty()) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> wl(write_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!bg_error_.ok()) {
      for (Status& s : *statuses) {
        s = bg_error_;
      }
      return bg_error_;
    }
  }
  const uint64_t start_ns = NowNanos();

  // Validate up front with the log's own record-size rule so the group
  // reservation only counts records that will land; an invalid op fails alone
  // and the rest of the batch proceeds.
  size_t group_bytes = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const BatchOp& op = ops[i];
    StatusOr<size_t> need =
        log_->CheckedRecordSize(op.key.size(), op.tombstone ? 0 : op.value.size());
    if (!need.ok()) {
      (*statuses)[i] = need.status();
      continue;
    }
    group_bytes += *need;
  }

  bool flushed = false;
  Status result = Status::Ok();
  uint64_t appended_bytes = 0;
  uint64_t applied_puts = 0;
  uint64_t applied_deletes = 0;
  uint64_t cpu_ns = 0;
  {
    ScopedCpuTimer t(&cpu_ns);
    Status begin = log_->BeginGroup(group_bytes, &flushed);
    if (!begin.ok()) {
      for (size_t i = 0; i < ops.size(); ++i) {
        if ((*statuses)[i].ok()) {
          (*statuses)[i] = begin;
        }
      }
      return begin;
    }
    std::vector<Memtable::BatchEntry> entries;
    entries.reserve(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!(*statuses)[i].ok()) {
        continue;
      }
      const BatchOp& op = ops[i];
      StatusOr<ValueLog::AppendResult> res =
          log_->Append(op.key, op.tombstone ? Slice() : op.value, op.tombstone);
      if (!res.ok()) {
        // A hard append failure (I/O, allocation) kills the rest of the group:
        // nothing at or past this op reached the log. The applied prefix stays
        // committed — it is already in the run the observer will see.
        for (size_t j = i; j < ops.size(); ++j) {
          if ((*statuses)[j].ok()) {
            (*statuses)[j] = res.status();
          }
        }
        result = res.status();
        break;
      }
      flushed = flushed || res->flushed_segment;
      entries.push_back({op.key, ValueLocation{res->offset, op.tombstone}});
      appended_bytes += op.key.size() + (op.tombstone ? 0 : op.value.size());
      if (op.tombstone) {
        ++applied_deletes;
      } else {
        ++applied_puts;
      }
    }
    log_->EndGroup();
    if (!entries.empty()) {
      active_->PutBatch(entries.data(), entries.size());
    }
  }
  counters_.insert_l0_cpu_ns->Add(cpu_ns);
  counters_.puts->Add(applied_puts);
  counters_.deletes->Add(applied_deletes);
  counters_.batch_groups->Increment();
  counters_.batch_ops->Add(applied_puts + applied_deletes);
  counters_.batch_size->Record(applied_puts + applied_deletes);
  active_appended_bytes_ += appended_bytes;
  if (flushed && options_.auto_checkpoint) {
    TEBIS_RETURN_IF_ERROR(Checkpoint().status());
  }
  // A sampled batch stamps its trace as the histogram exemplar, linking the
  // group-commit tail bucket back to the trace tree that landed there.
  counters_.group_commit_latency_ns->Record(NowNanos() - start_ns, CurrentRequestTrace());
  if (!result.ok()) {
    return result;
  }
  // Backpressure charged once for the whole group: one slowdown-bucket debit
  // (or one seal) per doorbell, not per record.
  return MaybeScheduleL0(appended_bytes);
}

Status KvStore::PutLocked(Slice key, Slice value, bool tombstone) {
  uint64_t cpu_ns = 0;
  {
    ScopedCpuTimer t(&cpu_ns);
    TEBIS_ASSIGN_OR_RETURN(ValueLog::AppendResult res, log_->Append(key, value, tombstone));
    active_->Put(key, ValueLocation{res.offset, tombstone});
  }
  counters_.insert_l0_cpu_ns->Add(cpu_ns);
  (tombstone ? counters_.deletes : counters_.puts)->Increment();
  return Status::Ok();
}

Status KvStore::ReplayRecord(Slice key, uint64_t log_offset, bool tombstone) {
  std::lock_guard<std::mutex> wl(write_mutex_);
  active_->Put(key, ValueLocation{log_offset, tombstone});
  return Status::Ok();
}

Status KvStore::MaybeScheduleL0(size_t record_bytes) {
  const uint64_t entries = active_->entries();
  if (entries < options_.l0_max_entries) {
    return Status::Ok();
  }
  bool flush_in_flight;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    flush_in_flight = (imm_ != nullptr);
  }
  if (flush_in_flight) {
    if (entries >= l0_stop_entries_) {
      // Hard stall: wait for the in-flight flush, then seal immediately.
      counters_.write_stalls->Increment();
      const uint64_t start = NowNanos();
      {
        std::unique_lock<std::mutex> lock(mutex_);
        stall_cv_.wait(lock, [&] { return imm_ == nullptr || !bg_error_.ok(); });
        if (!bg_error_.ok()) {
          counters_.write_stall_ns->Add(NowNanos() - start);
          return bg_error_;
        }
      }
      counters_.write_stall_ns->Add(NowNanos() - start);
    } else if (entries >= l0_slowdown_entries_) {
      // Slowdown band: pace the writer, let the flush catch up.
      counters_.write_slowdowns->Increment();
      SlowdownDelay(record_bytes);
      return Status::Ok();
    } else {
      return Status::Ok();  // over l0_max but the double buffer absorbs it
    }
  }
  return SealL0Locked();
}

void KvStore::SlowdownDelay(size_t record_bytes) {
  const uint64_t rate = drain_bytes_per_sec_.load(std::memory_order_relaxed);
  uint64_t sleep_ns = 0;
  if (rate == 0) {
    // No drain measurement yet: fall back to the fixed per-operation pace.
    sleep_ns = options_.slowdown_sleep_us * 1000;
  } else {
    // Token bucket: refill at the measured drain rate, burst capped at one
    // log segment, one token per appended log byte. Large values drain the
    // bucket faster and sleep proportionally longer; small values mostly ride
    // the refill for free.
    const uint64_t now = NowNanos();
    if (slowdown_refill_ns_ != 0 && now > slowdown_refill_ns_) {
      slowdown_tokens_ += static_cast<double>(now - slowdown_refill_ns_) *
                          static_cast<double>(rate) / 1e9;
    }
    slowdown_refill_ns_ = now;
    const double burst = static_cast<double>(device_->segment_size());
    if (slowdown_tokens_ > burst) {
      slowdown_tokens_ = burst;
    }
    slowdown_tokens_ -= static_cast<double>(record_bytes);
    if (slowdown_tokens_ >= 0) {
      return;  // the bucket absorbs this record, no sleep
    }
    sleep_ns = static_cast<uint64_t>(-slowdown_tokens_ * 1e9 / static_cast<double>(rate));
    // The hard stall at 2 × l0_max_entries bounds total debt; cap a single
    // sleep so one huge value cannot freeze the writer.
    const uint64_t cap_ns = 5'000'000;
    if (sleep_ns > cap_ns) {
      sleep_ns = cap_ns;
    }
    slowdown_tokens_ = 0;  // the sleep pays the debt off
  }
  if (sleep_ns == 0) {
    return;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
  counters_.write_slowdown_ns->Add(sleep_ns);
}

Status KvStore::SealL0Locked() {
  CompactionInfo info;
  info.compaction_id = next_compaction_id_.fetch_add(1, std::memory_order_relaxed);
  info.src_level = 0;
  info.dst_level = 1;
  // The tail seal stays on the writer thread: the data-plane observer mirrors
  // the flush to the backups and must never run off it. Its CPU is insert
  // time, like every other tail flush on the writer thread. The compaction
  // observer's begin fires later from the job, keeping the index control
  // messages strictly serialized (begin -> segments -> end) even when the
  // writer seals the next memtable mid-shipment.
  uint64_t cpu_ns = 0;
  Status sealed;
  {
    ScopedCpuTimer t(&cpu_ns);
    sealed = log_->FlushTail();
  }
  counters_.insert_l0_cpu_ns->Add(cpu_ns);
  TEBIS_RETURN_IF_ERROR(sealed);
  info.l0_boundary = log_->flushed_segment_count();
  std::vector<CompactionJob> jobs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Stream + trace assigned under the state lock so the id is fixed before
    // the observer's begin fires.
    AssignStreamLocked(&info);
    imm_ = std::move(active_);
    active_ = std::make_shared<Memtable>();
    imm_info_ = info;
    imm_queued_at_ns_ = NowNanos();
    imm_bytes_ = active_appended_bytes_;
    jobs = ClaimBackgroundJobsLocked();
  }
  active_appended_bytes_ = 0;
  DispatchBackgroundJobs(std::move(jobs));
  return BackgroundError();
}

std::vector<KvStore::CompactionJob> KvStore::ClaimBackgroundJobsLocked() {
  std::vector<CompactionJob> jobs;
  if (!bg_error_.ok()) {
    return jobs;
  }
  // Without a pool each job runs to completion on the claiming thread before
  // the next claim, so cascades run one at a time, lowest level first.
  const uint32_t cap = pool_ == nullptr ? 1 : options_.max_background_compactions;
  bool progressed = true;
  while (progressed && (cap == 0 || static_cast<uint32_t>(bg_jobs_) < cap)) {
    progressed = false;
    // The sealed memtable owns {0, 1}. level_busy_[0] doubles as its claim
    // marker: imm_ stays set until the job publishes L1.
    if (imm_ != nullptr && !level_busy_[0] && !level_busy_[1]) {
      jobs.push_back(ClaimLevelJobLocked(0));
      progressed = true;
      continue;
    }
    // Cascades: any over-capacity device level whose {src, dst} pair is free.
    // Every offset in device levels is already flushed, so nothing is sealed.
    for (uint32_t i = 1; i < options_.max_levels; ++i) {
      if (level_busy_[i] || level_busy_[i + 1] ||
          levels_[i]->tree.num_entries <= LevelCapacity(i)) {
        continue;
      }
      jobs.push_back(ClaimLevelJobLocked(i));
      progressed = true;
      break;
    }
  }
  return jobs;
}

KvStore::CompactionJob KvStore::ClaimLevelJobLocked(uint32_t src_level) {
  CompactionJob job;
  if (src_level == 0) {
    job.imm = imm_;
    job.info = imm_info_;
    job.queued_at_ns = imm_queued_at_ns_;
    job.imm_bytes = imm_bytes_;
  } else {
    job.info.compaction_id = next_compaction_id_.fetch_add(1, std::memory_order_relaxed);
    job.info.src_level = static_cast<int>(src_level);
    job.info.dst_level = static_cast<int>(src_level) + 1;
    AssignStreamLocked(&job.info);
  }
  level_busy_[src_level] = level_busy_[src_level + 1] = true;
  ++bg_jobs_;
  counters_.concurrent_compaction_peak->SetMax(bg_jobs_);
  return job;
}

void KvStore::DispatchBackgroundJobs(std::vector<CompactionJob> jobs) {
  for (CompactionJob& job : jobs) {
    if (pool_ == nullptr) {
      // Inline: the job's own reclaim hands the next job straight back here,
      // so a cascade recurses at most once per level.
      BackgroundJob(std::move(job));
    } else {
      pool_->DispatchLongRunning(
          [this, job = std::move(job)]() mutable { BackgroundJob(std::move(job)); });
    }
  }
}

void KvStore::BackgroundJob(CompactionJob job) {
  Status done = RunCompaction(job);
  if (done.ok() && job.info.src_level == 0 && job.imm_bytes > 0 && job.queued_at_ns != 0) {
    // Update the slowdown bucket's drain-rate estimate: bytes the spill
    // absorbed over its seal-to-publish wall time, smoothed 3:1.
    const uint64_t elapsed = NowNanos() - job.queued_at_ns;
    if (elapsed > 0) {
      const uint64_t rate = job.imm_bytes * 1'000'000'000ull / elapsed;
      const uint64_t prev = drain_bytes_per_sec_.load(std::memory_order_relaxed);
      drain_bytes_per_sec_.store(prev == 0 ? rate : (3 * prev + rate) / 4,
                                 std::memory_order_relaxed);
    }
  }
  std::vector<CompactionJob> next;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    level_busy_[job.info.src_level] = false;
    level_busy_[job.info.dst_level] = false;
    bg_jobs_--;
    if (!done.ok()) {
      bg_error_ = done;
    } else {
      if (pool_ != nullptr) {
        counters_.background_compactions->Increment();
      }
      // Reclaim: this job may have filled dst past capacity, or freed the
      // levels an already-sealed memtable was waiting for.
      next = ClaimBackgroundJobsLocked();
    }
    bg_cv_.notify_all();
    stall_cv_.notify_all();
  }
  DispatchBackgroundJobs(std::move(next));
}

Status KvStore::RunCompaction(const CompactionJob& job) {
  const uint64_t cpu_start = ThreadCpuNanos();
  const uint64_t run_start_ns = NowNanos();
  if (job.queued_at_ns != 0) {
    counters_.compaction_queue_wait_ns->Add(run_start_ns - job.queued_at_ns);
    // Scheduler-claim span: seal to the moment the job starts.
    RecordSpan(job.info, "claim", job.queued_at_ns, run_start_ns);
  }
  uint64_t ship_ns = 0;
  if (observer_ != nullptr) {
    ScopedTimer t(&ship_ns);
    observer_->OnCompactionBegin(job.info);
  }
  const int src_level = job.info.src_level;
  const int dst_level = job.info.dst_level;

  TreeRef src_ref, dst_ref;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (src_level > 0) {
      src_ref = levels_[src_level];
    }
    dst_ref = levels_[dst_level];
  }

  ObserverSink sink(observer_, job.info, &ship_ns);
  BTreeBuilder builder(device_, options_.node_size, IoClass::kCompactionWrite, &sink);
  if (options_.enable_filters) {
    builder.EnableFilter(kDefaultFilterBitsPerKey);
  }

  std::unique_ptr<MemtableMergeSource> mem_src;
  std::unique_ptr<LevelMergeSource> src_src;
  std::unique_ptr<LevelMergeSource> dst_src;
  std::vector<MergeSource*> sources;

  if (job.imm != nullptr) {
    mem_src = std::make_unique<MemtableMergeSource>(job.imm.get());
    sources.push_back(mem_src.get());
  } else if (src_ref != nullptr && !src_ref->tree.empty()) {
    src_src = std::make_unique<LevelMergeSource>(device_, options_.node_size, src_ref->tree,
                                                 log_.get(), &src_ref->verifier,
                                                 /*cache=*/nullptr, IoClass::kCompactionRead);
    TEBIS_RETURN_IF_ERROR(src_src->Init());
    sources.push_back(src_src.get());
  }
  if (!dst_ref->tree.empty()) {
    dst_src = std::make_unique<LevelMergeSource>(device_, options_.node_size, dst_ref->tree,
                                                 log_.get(), &dst_ref->verifier,
                                                 /*cache=*/nullptr, IoClass::kCompactionRead);
    TEBIS_RETURN_IF_ERROR(dst_src->Init());
    sources.push_back(dst_src.get());
  }

  const bool drop_tombstones = dst_level == static_cast<int>(options_.max_levels);
  MergeStageTiming timing;
  timing.sink_ns = &ship_ns;
  const uint64_t merge_start_ns = NowNanos();
  TEBIS_ASSIGN_OR_RETURN(uint64_t written,
                         MergeSources(sources, drop_tombstones, &builder, &timing));
  (void)written;
  TEBIS_ASSIGN_OR_RETURN(BuiltTree new_tree, builder.Finish());
  RecordSpan(job.info, "merge_build", merge_start_ns, NowNanos());

  // Publish atomically: swap the level handles and retire the inputs. Readers
  // holding the old trees keep them alive until their snapshot drops.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (src_level == 0) {
      imm_.reset();
      l0_replay_from_ = job.info.l0_boundary;
      stall_cv_.notify_all();
    } else {
      levels_[src_level]->retire.store(true, std::memory_order_release);
      levels_[src_level] = MakeHandle(BuiltTree{}, src_level);
    }
    levels_[dst_level]->retire.store(true, std::memory_order_release);
    levels_[dst_level] = MakeHandle(new_tree, dst_level);
  }
  if (new_tree.filter != nullptr && new_tree.num_entries > 0) {
    counters_.filter_bits_per_key[dst_level]->Set(
        static_cast<int64_t>(new_tree.filter->size() * 8 / new_tree.num_entries));
  }
  // Drop our references: with no concurrent readers this frees the retired
  // segments right here.
  src_ref.reset();
  dst_ref.reset();

  counters_.compactions->Increment();
  counters_.compaction_merge_ns->Add(timing.merge_ns);
  counters_.compaction_build_ns->Add(timing.build_ns);

  if (observer_ != nullptr) {
    ScopedTimer t(&ship_ns);
    observer_->OnCompactionEnd(job.info, new_tree);
  }
  counters_.compaction_ship_ns->Add(ship_ns);
  if (options_.auto_checkpoint) {
    TEBIS_RETURN_IF_ERROR(Checkpoint().status());
  }
  counters_.compaction_cpu_ns->Add(ThreadCpuNanos() - cpu_start);
  {
    // Per-level compaction duration distribution. Resolved lazily: the level
    // label set is bounded by max_levels, and a map lookup once per
    // compaction is noise next to the merge itself.
    MetricLabels labels = options_.telemetry_labels;
    labels.emplace_back("level", "L" + std::to_string(src_level));
    telemetry_->metrics()
        ->GetHistogram("kv.compaction_duration_ns", labels)
        ->Record(NowNanos() - run_start_ns);
  }
  if (job.info.stream != kNoStream) {
    // Success: the stream id may be reused. On failure the id stays leaked on
    // purpose — a reused id must never reach a backup that still holds the
    // failed compaction's stream state.
    std::lock_guard<std::mutex> lock(mutex_);
    stream_ids_.Release(job.info.stream);
  }
  return Status::Ok();
}

// --- maintenance entry points (write_mutex_ held, jobs drained) ----------------

Status KvStore::DrainBackgroundLocked() {
  std::unique_lock<std::mutex> lock(mutex_);
  bg_cv_.wait(lock, [&] { return bg_jobs_ == 0; });
  return bg_error_;
}

Status KvStore::WaitForBackgroundWork() {
  std::lock_guard<std::mutex> wl(write_mutex_);
  return DrainBackgroundLocked();
}

Status KvStore::MaybeCompact() {
  std::lock_guard<std::mutex> wl(write_mutex_);
  TEBIS_RETURN_IF_ERROR(DrainBackgroundLocked());
  if (active_->entries() >= options_.l0_max_entries) {
    return FlushL0Locked();
  }
  std::vector<CompactionJob> jobs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs = ClaimBackgroundJobsLocked();
  }
  DispatchBackgroundJobs(std::move(jobs));
  return DrainBackgroundLocked();
}

Status KvStore::FlushL0() {
  std::lock_guard<std::mutex> wl(write_mutex_);
  TEBIS_RETURN_IF_ERROR(DrainBackgroundLocked());
  return FlushL0Locked();
}

Status KvStore::FlushL0Locked() {
  if (active_->entries() > 0) {
    TEBIS_RETURN_IF_ERROR(SealL0Locked());
  }
  return DrainBackgroundLocked();
}

Status KvStore::ForceFullCompaction() {
  std::lock_guard<std::mutex> wl(write_mutex_);
  TEBIS_RETURN_IF_ERROR(DrainBackgroundLocked());
  return ForceFullCompactionLocked();
}

Status KvStore::ForceFullCompactionLocked() {
  TEBIS_RETURN_IF_ERROR(FlushL0Locked());
  for (uint32_t i = 1; i < options_.max_levels; ++i) {
    std::vector<CompactionJob> jobs;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!levels_[i]->tree.empty()) {
        jobs.push_back(ClaimLevelJobLocked(i));
      }
    }
    DispatchBackgroundJobs(std::move(jobs));
    TEBIS_RETURN_IF_ERROR(DrainBackgroundLocked());
  }
  return Status::Ok();
}

// --- read path -----------------------------------------------------------------

StatusOr<ValueLocation> KvStore::FindLocation(Slice key, const ReadSnapshot& snap) {
  ValueLocation loc;
  if (snap.active->Get(key, &loc)) {
    return loc;
  }
  if (snap.imm != nullptr && snap.imm->Get(key, &loc)) {
    return loc;
  }
  FullKeyLoader loader = LookupKeyLoader(log_.get(), cache_.get());
  const uint64_t key_hash = KeyHash(key);
  for (uint32_t i = 1; i <= options_.max_levels; ++i) {
    TreeHandle& level = *snap.levels[i];
    auto found = ProbeLevel(device_, options_.node_size, cache_.get(), level.tree,
                            &level.verifier, key, key_hash, loader, counters_.filters[i]);
    if (found.ok()) {
      return ValueLocation{found->log_offset(), found->tombstone()};
    }
    if (!found.status().IsNotFound()) {
      if (found.status().IsCorruption()) {
        counters_.read_corruptions_level->Increment();
        UpdateQuarantineGauge();
      }
      return found.status();
    }
  }
  return Status::NotFound();
}

StatusOr<std::string> KvStore::Get(Slice key) {
  const uint64_t cpu_start = ThreadCpuNanos();
  counters_.gets->Increment();
  auto finish = [&](StatusOr<std::string> result) {
    counters_.get_cpu_ns->Add(ThreadCpuNanos() - cpu_start);
    return result;
  };
  ReadSnapshot snap = TakeReadSnapshot();
  auto loc = FindLocation(key, snap);
  if (!loc.ok()) {
    return finish(loc.status());
  }
  if (loc->tombstone) {
    return finish(Status::NotFound());
  }
  LogRecord rec;
  Status read =
      log_->ReadIndexedRecord(loc->log_offset, key, &rec, cache_.get(), IoClass::kLookup);
  if (!read.ok()) {
    if (read.IsCorruption()) {
      // Rot in the value log behind a live index entry, or a record that is
      // not the key's: count it per source (the status names device + offset).
      counters_.read_corruptions_log->Increment();
    }
    return finish(read);
  }
  return finish(std::move(rec.value));
}

StatusOr<std::vector<KvPair>> KvStore::Scan(Slice start, size_t limit) {
  return ScanRange(start, Slice(), limit);
}

StatusOr<std::vector<KvPair>> KvStore::ScanPrefix(Slice prefix, size_t limit) {
  return ScanRange(prefix, prefix, limit);
}

StatusOr<std::vector<KvPair>> KvStore::ScanRange(Slice start, Slice prefix, size_t limit) {
  counters_.scans->Increment();
  ReadSnapshot snap = TakeReadSnapshot();

  // Level skipping via prefix fingerprints is only sound when the query pins
  // at least kFilterPrefixSize leading bytes: the filter stores zero-padded
  // kFilterPrefixSize fingerprints, so a shorter query prefix covers many
  // stored prefixes and a single probe cannot rule the level out.
  const bool can_skip = prefix.size() >= kFilterPrefixSize;

  std::vector<std::unique_ptr<MergeSource>> owned;
  owned.push_back(std::make_unique<MemtableMergeSource>(snap.active.get(), start));
  if (snap.imm != nullptr) {
    owned.push_back(std::make_unique<MemtableMergeSource>(snap.imm.get(), start));
  }
  for (uint32_t i = 1; i <= options_.max_levels; ++i) {
    const BuiltTree& tree = snap.levels[i]->tree;
    if (tree.empty()) {
      continue;
    }
    if (can_skip && tree.filter != nullptr) {
      BloomFilterView view;
      if (BloomFilterView::Parse(Slice(*tree.filter), &view, /*verify_crc=*/false).ok()) {
        counters_.filters[i].checks->Increment();
        if (!view.MayContainPrefix(prefix)) {
          counters_.filters[i].negatives->Increment();
          continue;
        }
      }
    }
    auto src = std::make_unique<LevelMergeSource>(device_, options_.node_size, tree, log_.get(),
                                                  &snap.levels[i]->verifier, cache_.get(),
                                                  IoClass::kLookup);
    TEBIS_RETURN_IF_ERROR(src->Init(start));
    owned.push_back(std::move(src));
  }

  std::vector<MergeSource*> sources;
  for (const auto& src : owned) {
    sources.push_back(src.get());
  }
  MergeIterator merged(std::move(sources));
  std::vector<KvPair> out;
  while (merged.Valid() && out.size() < limit) {
    const MergeEntry& winner = merged.entry();
    if (!Slice(winner.key).StartsWith(prefix)) {
      break;  // sorted sources: the first key past the prefix range ends the scan
    }
    if (!winner.tombstone) {
      LogRecord rec;
      TEBIS_RETURN_IF_ERROR(log_->ReadIndexedRecord(winner.log_offset, winner.key, &rec,
                                                    cache_.get(), IoClass::kLookup));
      out.push_back(KvPair{std::move(rec.key), std::move(rec.value)});
    }
    TEBIS_RETURN_IF_ERROR(merged.Next());
  }
  return out;
}

// --- maintenance ----------------------------------------------------------------

StatusOr<size_t> KvStore::GarbageCollectHead(size_t max_segments) {
  std::lock_guard<std::mutex> wl(write_mutex_);
  TEBIS_RETURN_IF_ERROR(DrainBackgroundLocked());
  const std::vector<SegmentId> flushed = log_->FlushedSegmentsSnapshot();
  const size_t n = std::min(max_segments, flushed.size());
  if (n == 0) {
    return size_t{0};
  }
  // Levels are stable for the whole GC (background drained, we are the only
  // writer) and PutLocked only grows the active memtable, so one snapshot
  // serves every liveness check.
  ReadSnapshot snap = TakeReadSnapshot();
  for (size_t s = 0; s < n; ++s) {
    TEBIS_RETURN_IF_ERROR(log_->ForEachRecordIn(
        flushed[s], IoClass::kGc, [&](const LogRecord& rec) -> Status {
          if (rec.tombstone) {
            return Status::Ok();  // tombstones live in the index, not the log head
          }
          // Live iff this offset is still the newest version of the key.
          auto loc = FindLocation(rec.key, snap);
          if (!loc.ok()) {
            if (loc.status().IsNotFound()) {
              return Status::Ok();
            }
            return loc.status();
          }
          if (loc->tombstone || loc->log_offset != rec.offset) {
            return Status::Ok();  // superseded
          }
          return PutLocked(rec.key, rec.value, false);  // move to the tail
        }));
  }
  // The moved records are duplicated at the tail, but leaf entries in device
  // levels may still reference the head segments. Run a full cascade so the
  // newest (tail) versions replace every stale reference, then trim.
  TEBIS_RETURN_IF_ERROR(ForceFullCompactionLocked());
  const std::vector<SegmentId> still_flushed = log_->FlushedSegmentsSnapshot();
  if (cache_ != nullptr) {
    for (size_t s = 0; s < n && s < still_flushed.size(); ++s) {
      cache_->InvalidateSegment(still_flushed[s]);
    }
  }
  TEBIS_RETURN_IF_ERROR(log_->TrimHead(n));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    l0_replay_from_ -= std::min(l0_replay_from_, n);
  }
  if (options_.auto_checkpoint) {
    TEBIS_RETURN_IF_ERROR(Checkpoint().status());
  }
  return n;
}

StatusOr<KvStore::IntegrityReport> KvStore::CheckIntegrity() {
  std::lock_guard<std::mutex> wl(write_mutex_);
  TEBIS_RETURN_IF_ERROR(DrainBackgroundLocked());
  IntegrityReport report;
  // Levels: in-order iteration with every entry's record readable and every
  // leaf entry's size, prefix, tag and tombstone flag matching its record. A
  // wrong tag or flag passes every CRC when the builder wrote it, yet hides
  // the key from Get (or answers a deleted key with a value).
  for (uint32_t level = 1; level <= options_.max_levels; ++level) {
    const BuiltTree& tree = levels_[level]->tree;
    if (tree.empty()) {
      continue;
    }
    BTreeReader reader(device_, nullptr, options_.node_size, tree, IoClass::kOther);
    BTreeIterator it(&reader);
    TEBIS_RETURN_IF_ERROR(it.SeekToFirst());
    std::string prev;
    uint64_t entries = 0;
    while (it.Valid()) {
      const std::string where = "L" + std::to_string(level) + " entry " + std::to_string(entries);
      const LeafEntry& e = it.entry();
      LogRecord record;
      Status read = log_->ReadRecord(e.log_offset(), &record, nullptr, IoClass::kOther);
      if (!read.ok()) {
        return Status::Corruption(where + ": " + read.ToString());
      }
      const std::string& key = record.key;
      // Size plus zero-padded prefix compare the whole key of an inline entry.
      char prefix[kPrefixSize];
      MakePrefix(key, prefix);
      if (e.key_size() != key.size() || memcmp(e.prefix, prefix, kPrefixSize) != 0 ||
          e.key_tag != KeyTag(KeyHash(key))) {
        return Status::Corruption(where + ": leaf entry does not match its key " + key);
      }
      if (e.tombstone() != record.tombstone) {
        return Status::Corruption(where + ": leaf tombstone flag disagrees with the record of " +
                                  key);
      }
      if (e.word != LeafEntry::Pack(e.log_offset(), e.key_size(), e.tombstone())) {
        return Status::Corruption(where + ": reserved leaf entry bits set for " + key);
      }
      if (!prev.empty() && Slice(prev).Compare(Slice(key)) >= 0) {
        return Status::Corruption("L" + std::to_string(level) + " out of order at " + key);
      }
      prev = key;
      entries++;
      TEBIS_RETURN_IF_ERROR(it.Next());
    }
    if (entries != tree.num_entries) {
      return Status::Corruption("L" + std::to_string(level) + " entry count mismatch: " +
                                std::to_string(entries) + " vs " +
                                std::to_string(tree.num_entries));
    }
    report.level_entries_checked += entries;
  }
  // Value log: every flushed segment parses with valid CRCs.
  for (SegmentId seg : log_->FlushedSegmentsSnapshot()) {
    TEBIS_RETURN_IF_ERROR(log_->ForEachRecordIn(seg, IoClass::kOther, [&](const LogRecord&) {
      report.log_records_checked++;
      return Status::Ok();
    }));
  }
  return report;
}

// --- integrity: scrub / quarantine / online repair ---------------------

void KvStore::UpdateQuarantineGauge() {
  counters_.integrity.quarantined_levels->Set(static_cast<int64_t>(QuarantinedLevels().size()));
}

std::vector<int> KvStore::QuarantinedLevels() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> out;
  for (uint32_t i = 1; i <= options_.max_levels; ++i) {
    if (levels_[i]->verifier.quarantined()) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

StatusOr<KvStore::ScrubReport> KvStore::Scrub(const ScrubOptions& options) {
  // The snapshot keeps each tree alive; a level compacted away mid-scrub is
  // simply verified one last time on its way out.
  ReadSnapshot snap = TakeReadSnapshot();
  std::vector<SegmentVerifier*> verifiers;
  for (const TreeRef& level : snap.levels) {
    verifiers.push_back(&level->verifier);
  }
  return PacedScrub(device_, verifiers, *log_, options, counters_.integrity);
}

Status KvStore::ScheduleScrub(const ScrubOptions& options,
                              std::function<void(const StatusOr<ScrubReport>&)> done) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pool_ == nullptr) {
      return Status::FailedPrecondition("no compaction pool for a background scrub");
    }
    // Counted like a claimed compaction so teardown/drain wait for it; a
    // corrupt scrub result is expected operational state, never bg_error_.
    bg_jobs_++;
  }
  pool_->DispatchLongRunning([this, options, done = std::move(done)] {
    StatusOr<ScrubReport> report = Scrub(options);
    if (done) {
      done(report);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    bg_jobs_--;
    bg_cv_.notify_all();
    stall_cv_.notify_all();
  });
  return Status::Ok();
}

StatusOr<std::string> KvStore::ReadLevelSegmentVerified(int level, size_t seg_index) {
  TreeRef ref;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (level < 1 || level > static_cast<int>(options_.max_levels)) {
      return Status::InvalidArgument("no such level");
    }
    ref = levels_[level];
  }
  return ReadSegmentVerified(device_, ref->tree, level, seg_index);
}

Status KvStore::RepairQuarantinedLevels(const SegmentFetcher& fetch) {
  std::lock_guard<std::mutex> wl(write_mutex_);
  TEBIS_RETURN_IF_ERROR(DrainBackgroundLocked());
  for (uint32_t i = 1; i <= options_.max_levels; ++i) {
    TreeRef ref;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ref = levels_[i];
    }
    SegmentVerifier* verifier = &ref->verifier;
    if (!verifier->quarantined()) {
      continue;
    }
    for (size_t idx : verifier->BadSegments()) {
      counters_.integrity.repair_fetches->Increment();
      TEBIS_ASSIGN_OR_RETURN(std::string bytes, fetch(static_cast<int>(i), idx));
      if (!MatchesChecksum(Slice(bytes), verifier->checksums()[idx])) {
        return Status::Corruption("repair fetch for segment " + std::to_string(idx) + " of L" +
                                  std::to_string(i) +
                                  " returned bytes that fail the expected checksum");
      }
      TEBIS_RETURN_IF_ERROR(
          InstallRepairedSegment(device_, cache_.get(), verifier, idx, Slice(bytes)));
      counters_.integrity.corruptions_repaired->Increment();
    }
  }
  UpdateQuarantineGauge();
  return Status::Ok();
}

// --- checkpoint / local recovery ---------------------------------------------

StatusOr<SegmentId> KvStore::Checkpoint() {
  std::lock_guard<std::mutex> cp(checkpoint_mutex_);
  Manifest manifest;
  // Capture a consistent {levels, replay boundary} pair; the log snapshot
  // taken after may contain newer flushed segments, which recovery simply
  // replays into L0 (they are not in any level yet).
  std::vector<TreeRef> held;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    held = levels_;
    manifest.l0_replay_from = l0_replay_from_;
  }
  manifest.levels.reserve(held.size());
  for (const TreeRef& h : held) {
    manifest.levels.push_back(h->tree);
  }
  manifest.log_flushed_segments = log_->FlushedSegmentsSnapshot();
  // The levels' segment checksums travel in the manifest and are all
  // recovery needs to tell a torn or lost index write from an intact level,
  // so a checkpoint reads no level bytes.
  const std::string body = manifest.Encode();
  // Layout in the checkpoint segment: [u32 length][manifest bytes].
  if (body.size() + 4 > device_->segment_size()) {
    return Status::ResourceExhausted("manifest larger than a segment");
  }
  TEBIS_ASSIGN_OR_RETURN(SegmentId fresh, device_->AllocateSegment());
  const uint32_t length = static_cast<uint32_t>(body.size());
  std::string image;
  image.resize(4 + body.size());
  memcpy(image.data(), &length, 4);
  memcpy(image.data() + 4, body.data(), body.size());
  TEBIS_RETURN_IF_ERROR(
      device_->Write(device_->geometry().BaseOffset(fresh), Slice(image), IoClass::kOther));
  if (checkpoint_segment_ != kInvalidSegment) {
    TEBIS_RETURN_IF_ERROR(device_->FreeSegment(checkpoint_segment_));
  }
  checkpoint_segment_ = fresh;
  return fresh;
}

StatusOr<std::unique_ptr<KvStore>> KvStore::Recover(BlockDevice* device,
                                                    const KvStoreOptions& options,
                                                    SegmentId checkpoint_segment) {
  TEBIS_RETURN_IF_ERROR(device->AdoptAllocated({checkpoint_segment}));
  std::string image(device->segment_size(), 0);
  TEBIS_RETURN_IF_ERROR(device->Read(device->geometry().BaseOffset(checkpoint_segment),
                                     image.size(), image.data(), IoClass::kRecovery));
  uint32_t length;
  memcpy(&length, image.data(), 4);
  if (length + 4 > image.size()) {
    return Status::Corruption("checkpoint length field out of range");
  }
  TEBIS_ASSIGN_OR_RETURN(Manifest manifest, Manifest::Decode(Slice(image.data() + 4, length)));
  if (manifest.levels.size() != options.max_levels + 1) {
    return Status::InvalidArgument("checkpoint level count does not match options");
  }
  // Re-mark every segment the store owns.
  std::vector<SegmentId> owned = manifest.log_flushed_segments;
  for (const BuiltTree& tree : manifest.levels) {
    owned.insert(owned.end(), tree.segments.begin(), tree.segments.end());
  }
  TEBIS_RETURN_IF_ERROR(device->AdoptAllocated(owned));

  // Check every level segment's checksummed prefix against its checksum. A
  // mismatch means an index write was torn or lost after the checkpoint:
  // drop every level and rebuild the whole index by replaying the
  // (authoritative, per-record-CRC'd) value log.
  bool levels_intact = true;
  {
    std::string seg_buf;
    for (size_t i = 1; i < manifest.levels.size() && levels_intact; ++i) {
      const BuiltTree& tree = manifest.levels[i];
      for (size_t s = 0; s < tree.segments.size() && levels_intact; ++s) {
        TEBIS_ASSIGN_OR_RETURN(levels_intact,
                               ReadAndMatch(device, tree.segments[s], tree.seg_checksums[s],
                                            IoClass::kRecovery, &seg_buf));
        if (!levels_intact) {
          TEBIS_LOG(kWarn) << "level " << i << " segment " << s
                              << " fails its checksum on recovery; rebuilding index from the "
                                 "value log";
        }
      }
    }
  }
  if (!levels_intact) {
    for (BuiltTree& tree : manifest.levels) {
      for (SegmentId seg : tree.segments) {
        TEBIS_RETURN_IF_ERROR(device->FreeSegment(seg));
      }
      tree = BuiltTree{};
    }
    manifest.l0_replay_from = 0;
  }

  TEBIS_ASSIGN_OR_RETURN(std::unique_ptr<ValueLog> log,
                         ValueLog::Recover(device, manifest.log_flushed_segments));
  TEBIS_ASSIGN_OR_RETURN(std::unique_ptr<KvStore> store,
                         CreateFromParts(device, options, std::move(log),
                                         std::move(manifest.levels)));
  store->checkpoint_segment_ = checkpoint_segment;
  store->l0_replay_from_ = manifest.l0_replay_from;

  // Rebuild L0 from the flushed-but-unindexed log suffix (same mechanism as
  // backup promotion).
  const std::vector<SegmentId> flushed = store->log_->FlushedSegmentsSnapshot();
  for (size_t i = manifest.l0_replay_from; i < flushed.size(); ++i) {
    Status replay = store->log_->ForEachRecordIn(
        flushed[i], IoClass::kRecovery, [&](const LogRecord& rec) {
          return store->ReplayRecord(rec.key, rec.offset, rec.tombstone);
        });
    if (replay.IsCorruption() && i + 1 == flushed.size()) {
      // A torn record in the *last* flushed segment is a crashed flush: the
      // prefix up to it is valid, everything after died with the primary and
      // comes back via promotion, not local recovery.
      TEBIS_LOG(kWarn) << "torn tail record in last flushed segment; truncating replay: "
                          << replay.ToString();
      break;
    }
    TEBIS_RETURN_IF_ERROR(replay);
  }
  return store;
}

KvStore::Parts KvStore::Decompose(std::unique_ptr<KvStore> store) {
  (void)store->WaitForBackgroundWork();
  Parts parts;
  parts.log = std::move(store->log_);
  parts.levels.reserve(store->levels_.size());
  for (const TreeRef& h : store->levels_) {
    parts.levels.push_back(h->tree);
  }
  parts.l0_replay_from = store->l0_replay_from_;
  return parts;
}

Status KvStore::BackgroundError() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bg_error_;
}

}  // namespace tebis
