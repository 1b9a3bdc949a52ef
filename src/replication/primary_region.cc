#include "src/replication/primary_region.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/lsm/index_codec.h"

namespace tebis {

const char* ReplicationModeName(ReplicationMode mode) {
  switch (mode) {
    case ReplicationMode::kNoReplication:
      return "No-Replication";
    case ReplicationMode::kSendIndex:
      return "Send-Index";
    case ReplicationMode::kBuildIndex:
      return "Build-Index";
  }
  return "?";
}

StatusOr<std::unique_ptr<PrimaryRegion>> PrimaryRegion::Create(BlockDevice* device,
                                                               const KvStoreOptions& options,
                                                               ReplicationMode mode) {
  std::unique_ptr<PrimaryRegion> region(new PrimaryRegion(device, mode));
  TEBIS_ASSIGN_OR_RETURN(region->store_, KvStore::Create(device, options));
  region->InitTelemetry();
  region->store_->value_log()->set_observer(region.get());
  region->store_->set_compaction_observer(region.get());
  return region;
}

StatusOr<std::unique_ptr<PrimaryRegion>> PrimaryRegion::CreateFromStore(
    BlockDevice* device, ReplicationMode mode, std::unique_ptr<KvStore> store) {
  std::unique_ptr<PrimaryRegion> region(new PrimaryRegion(device, mode));
  region->store_ = std::move(store);
  region->InitTelemetry();
  region->store_->value_log()->set_observer(region.get());
  region->store_->set_compaction_observer(region.get());
  // Everything currently flushed is covered by the adopted levels' replay
  // bookkeeping on the backups; the next L0 compaction resets this.
  region->l0_boundary_ = 0;
  return region;
}

PrimaryRegion::PrimaryRegion(BlockDevice* device, ReplicationMode mode)
    : device_(device), mode_(mode) {}

PrimaryRegion::~PrimaryRegion() {
  // A background compaction calls back into the stream table and backup set
  // until it finishes; both are destroyed before store_, so drain it first.
  if (store_ != nullptr) {
    (void)store_->WaitForBackgroundWork();
  }
}

void PrimaryRegion::InitTelemetry() {
  MetricsRegistry* reg = store_->telemetry()->metrics();
  const MetricLabels& l = store_->options().telemetry_labels;
  node_name_ = NodeLabel(l);
  repl_.log_replication_cpu_ns = reg->GetCounter("repl.log_replication_cpu_ns", l);
  repl_.send_index_cpu_ns = reg->GetCounter("repl.send_index_cpu_ns", l);
  repl_.log_records_replicated = reg->GetCounter("repl.log_records_replicated", l);
  repl_.log_flushes = reg->GetCounter("repl.log_flushes", l);
  repl_.append_retries = reg->GetCounter("repl.append_retries", l);
  repl_.index_segments_shipped = reg->GetCounter("repl.index_segments_shipped", l);
  repl_.index_bytes_shipped = reg->GetCounter("repl.index_bytes_shipped", l);
  repl_.filter_blocks_shipped = reg->GetCounter("repl.filter_blocks_shipped", l);
  repl_.filter_bytes_shipped = reg->GetCounter("repl.filter_bytes_shipped", l);
  repl_.backups_detached = reg->GetCounter("repl.backups_detached", l);
  repl_.slow_call_strikes = reg->GetCounter("repl.slow_call_strikes", l);
  repl_.fence_errors = reg->GetCounter("repl.fence_errors", l);
  repl_.streams_opened = reg->GetCounter("repl.streams_opened", l);
  repl_.flow_wait_ns = reg->GetCounter("repl.flow_wait_ns", l);
  // Write-path group commit: wp.* is the write-path instrument plane
  // (shared with the engine's wp.batch_* counters).
  repl_.doorbells = reg->GetCounter("wp.doorbells", l);
  repl_.doorbell_records = reg->GetCounter("wp.doorbell_records", l);
}

void PrimaryRegion::RecordSpan(const CompactionInfo& info, const char* name, uint64_t start_ns,
                               uint64_t end_ns, uint64_t bytes) const {
  TraceBuffer* traces = store_->telemetry()->traces();
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

void PrimaryRegion::FinishDoorbellSpan(uint64_t start_ns, uint64_t bytes,
                                       RequestStageTimings* stages) const {
  const uint64_t end_ns = NowNanos();
  stages->doorbell_ns += end_ns - start_ns;
  const TraceId trace = CurrentRequestTrace();
  TraceBuffer* traces = store_->telemetry()->traces();
  if (trace == kNoTrace || !traces->enabled()) {
    return;
  }
  SpanRecord span;
  span.trace = trace;
  span.name = "doorbell";
  span.node = node_name_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.bytes = bytes;
  traces->Record(std::move(span));
}

void PrimaryRegion::AddBackup(std::unique_ptr<BackupChannel> channel) {
  std::lock_guard<std::mutex> lock(region_mutex_);
  channel->set_epoch(epoch_);
  // Re-attach replaces: a recovery retry must not leave two channels fanning
  // out to the same replica.
  RemoveBackupLocked(channel->backup_name());
  auto slot = std::make_shared<BackupSlot>();
  slot->channel = std::move(channel);
  if (stream_flow_pool_ > 0) {
    slot->flow = std::make_unique<StreamFlowController>(stream_flow_pool_, kMaxShippingStreams);
  }
  {
    MetricLabels labels = store_->options().telemetry_labels;
    labels.emplace_back("backup", slot->channel->backup_name());
    slot->credits_in_flight =
        store_->telemetry()->metrics()->GetGauge("repl.credits_in_flight", labels);
  }
  // Mirror invariant: the backup's RDMA buffer must hold exactly the
  // primary's unflushed tail, because a later FlushLog makes the backup
  // persist that buffer as the tail's segment image. A backup attached
  // mid-tail — the handover window where a freshly promoted primary serves
  // (and acks) writes before its deposed peer re-attaches — starts with an
  // empty buffer and would otherwise persist a hole in place of those acked
  // records, silently losing them at the next promotion.
  std::string tail_image = store_->value_log()->TailImageSnapshot();
  if (!tail_image.empty()) {
    Status s = slot->channel->RdmaWriteLog(0, Slice(tail_image));
    constexpr int kSeedRetryLimit = 8;
    for (int retry = 0; retry < kSeedRetryLimit && s.IsUnavailable(); ++retry) {
      repl_.append_retries->Increment();
      s = slot->channel->RdmaWriteLog(0, Slice(tail_image));
    }
    if (!s.ok() && !s.IsFailedPrecondition()) {
      // An unseeded backup is worse than a parked region: it acks flushes it
      // cannot honor. (Epoch fences mean *we* are deposed; the master will
      // tear this attach down, so they don't park.)
      ParkLocked(s);
    }
  }
  backups_.push_back(std::move(slot));
}

bool PrimaryRegion::RemoveBackup(const std::string& backup_name) {
  std::lock_guard<std::mutex> lock(region_mutex_);
  return RemoveBackupLocked(backup_name);
}

bool PrimaryRegion::RemoveBackupLocked(const std::string& backup_name) {
  for (auto it = backups_.begin(); it != backups_.end(); ++it) {
    if ((*it)->channel->backup_name() == backup_name) {
      backups_.erase(it);
      return true;
    }
  }
  return false;
}

void PrimaryRegion::set_epoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(region_mutex_);
  epoch_ = epoch;
  // New compactions derive their trace ids from (epoch, stream); ones already
  // in flight keep the trace they started with.
  store_->set_trace_epoch(epoch);
  for (auto& slot : backups_) {
    slot->channel->set_epoch(epoch);
  }
}

void PrimaryRegion::set_stream_flow_pool(uint64_t pool_bytes) {
  std::lock_guard<std::mutex> lock(region_mutex_);
  stream_flow_pool_ = pool_bytes;
  for (auto& slot : backups_) {
    slot->flow = pool_bytes > 0 ? std::make_unique<StreamFlowController>(pool_bytes,
                                                                         kMaxShippingStreams)
                                : nullptr;
  }
}

// --- shipping-stream table -------------------------------------------------------

StreamId PrimaryRegion::AcquireStreamLocked(uint64_t compaction_id) {
  auto it = compaction_streams_.find(compaction_id);
  if (it != compaction_streams_.end()) {
    return it->second.first;  // retry of a begin: reuse
  }
  StreamId stream = stream_ids_.Acquire();
  bool owned = stream != kNoStream;
  if (!owned) {
    // More concurrent compactions than stream ids — impossible with the
    // engine's disjoint-level-pair cap on any realistic max_levels, but stay
    // defensive: alias onto a fixed stream (loses per-stream isolation for
    // the overflow, never correctness — the backup keys state machines by
    // stream AND compaction id).
    stream = static_cast<StreamId>(compaction_id % kMaxShippingStreams);
  }
  compaction_streams_[compaction_id] = {stream, owned};
  repl_.streams_opened->Increment();
  return stream;
}

StreamId PrimaryRegion::RegisterStreamLocked(const CompactionInfo& info) {
  auto it = compaction_streams_.find(info.compaction_id);
  if (it != compaction_streams_.end()) {
    return it->second.first;  // begin (or earlier segment) already registered
  }
  if (info.stream != kNoStream) {
    // Engine-assigned stream: the scheduler allocated it at claim
    // time, so spans and wire messages all carry the same id. Not
    // allocator-owned here — the engine releases it when the compaction
    // succeeds.
    compaction_streams_[info.compaction_id] = {info.stream, false};
    repl_.streams_opened->Increment();
    return info.stream;
  }
  // No engine assignment (hand-driven observers in tests, exhausted engine
  // allocator): fall back to this region's own allocator.
  return AcquireStreamLocked(info.compaction_id);
}

void PrimaryRegion::ReleaseStreamLocked(uint64_t compaction_id) {
  auto it = compaction_streams_.find(compaction_id);
  if (it == compaction_streams_.end()) {
    return;
  }
  if (it->second.second) {
    stream_ids_.Release(it->second.first);
  }
  compaction_streams_.erase(it);
}

// --- health policy ----------------------------------------------------------------

Status PrimaryRegion::GuardedCall(const std::shared_ptr<BackupSlot>& slot, StreamId stream,
                                  const std::function<Status()>& call) {
  const uint64_t start = NowNanos();
  Status status = call();
  const uint64_t elapsed = NowNanos() - start;
  std::lock_guard<std::mutex> lock(region_mutex_);
  return RecordCallLocked(slot.get(), stream, status, elapsed);
}

Status PrimaryRegion::RecordCallLocked(BackupSlot* slot, StreamId stream, const Status& status,
                                       uint64_t elapsed) {
  if (status.IsFailedPrecondition()) {
    // Epoch fence: this primary has been deposed. Not a replica-health event.
    repl_.fence_errors->Increment();
    return status;
  }
  const bool overdue = policy_.call_deadline_ns > 0 && elapsed > policy_.call_deadline_ns;
  int& strikes = slot->strikes[stream];
  if (status.ok() && !overdue) {
    strikes = 0;
    return status;
  }
  if (overdue) {
    repl_.slow_call_strikes->Increment();
  }
  strikes++;
  return status;
}

bool PrimaryRegion::StruckOutLocked(const BackupSlot& slot, StreamId stream) const {
  if (policy_.max_consecutive_failures <= 0) {
    return false;
  }
  auto it = slot.strikes.find(stream);
  return it != slot.strikes.end() && it->second >= policy_.max_consecutive_failures;
}

void PrimaryRegion::DetachStruckBackupsLocked() {
  if (policy_.max_consecutive_failures <= 0) {
    return;
  }
  for (auto it = backups_.begin(); it != backups_.end();) {
    StreamId struck = kNoStream;
    bool out = false;
    for (const auto& [stream, strikes] : (*it)->strikes) {
      if (strikes >= policy_.max_consecutive_failures) {
        struck = stream;
        out = true;
        break;
      }
    }
    if (!out) {
      ++it;
      continue;
    }
    const std::string name = (*it)->channel->backup_name();
    TEBIS_LOG(kWarn) << "detaching backup " << name << " after "
                     << policy_.max_consecutive_failures
                     << " consecutive failed/overdue calls on stream " << struck
                     << " (degraded mode)";
    it = backups_.erase(it);
    repl_.backups_detached->Increment();
    // Whatever the struck replica parked must not fail client operations —
    // the region now runs degraded on the survivors.
    parked_error_ = Status::Ok();
    if (detach_listener_) {
      detach_listener_(name, epoch_, struck);
    }
  }
}

void PrimaryRegion::FanOut(StreamId stream, uint64_t flow_bytes,
                           const std::function<Status(BackupChannel*)>& call) {
  std::vector<std::shared_ptr<BackupSlot>> snapshot;
  uint64_t deadline_ns;
  {
    std::lock_guard<std::mutex> lock(region_mutex_);
    snapshot = backups_;
    deadline_ns = policy_.call_deadline_ns;
  }
  for (auto& slot : snapshot) {
    uint64_t credit_wait_ns = 0;
    Status status = GuardedCall(slot, stream, [&]() -> Status {
      // Per-stream shipping credit: blocks while this stream's in-flight
      // bytes on this backup are at its cap (or the shared pool is full); a
      // timeout surfaces as Unavailable and strikes like any failed call.
      const bool charged = flow_bytes > 0 && slot->flow != nullptr;
      if (charged) {
        TEBIS_RETURN_IF_ERROR(
            slot->flow->Acquire(stream, flow_bytes, deadline_ns, &credit_wait_ns));
        slot->credits_in_flight->Set(static_cast<int64_t>(slot->flow->in_flight()));
      }
      Status s = call(slot->channel.get());
      if (charged) {
        // The call returns once the backup acknowledged — its rewrite is done
        // (or the call failed) — so the stream's share of the replication
        // buffer is free again.
        slot->flow->Release(stream, flow_bytes);
        slot->credits_in_flight->Set(static_cast<int64_t>(slot->flow->in_flight()));
      }
      return s;
    });
    repl_.flow_wait_ns->Add(credit_wait_ns);
    std::lock_guard<std::mutex> lock(region_mutex_);
    // A replica detached since the snapshot (struck out on another stream,
    // or removed) no longer fails client operations: its error is dropped.
    const bool attached = std::find(backups_.begin(), backups_.end(), slot) != backups_.end();
    if (attached && !StruckOutLocked(*slot, stream)) {
      ParkLocked(status);
    }
  }
  std::lock_guard<std::mutex> lock(region_mutex_);
  DetachStruckBackupsLocked();
}

void PrimaryRegion::DataPlaneFanOutLocked(const std::function<Status(BackupChannel*)>& call) {
  for (auto& slot : backups_) {
    const uint64_t start = NowNanos();
    Status status = call(slot->channel.get());
    status = RecordCallLocked(slot.get(), kNoStream, status, NowNanos() - start);
    if (!StruckOutLocked(*slot, kNoStream)) {
      ParkLocked(status);
    }
  }
  DetachStruckBackupsLocked();
}

void PrimaryRegion::ParkLocked(const Status& status) {
  if (!status.ok() && parked_error_.ok()) {
    TEBIS_LOG(kError) << "replication error parked: " << status.ToString();
    parked_error_ = status;
  }
}

Status PrimaryRegion::TakeParkedError() {
  std::lock_guard<std::mutex> lock(region_mutex_);
  Status s = parked_error_;
  parked_error_ = Status::Ok();
  return s;
}

Status PrimaryRegion::Put(Slice key, Slice value) {
  TEBIS_RETURN_IF_ERROR(store_->Put(key, value));
  return TakeParkedError();
}

Status PrimaryRegion::Delete(Slice key) {
  TEBIS_RETURN_IF_ERROR(store_->Delete(key));
  return TakeParkedError();
}

Status PrimaryRegion::WriteBatch(const std::vector<KvStore::BatchOp>& ops,
                                 std::vector<Status>* statuses) {
  Status applied = store_->WriteBatch(ops, statuses);
  Status parked = TakeParkedError();
  if (!parked.ok()) {
    // Replication failed somewhere in the group. Like Put, locally-applied
    // ops still fail back to the writer (it never got the §3.2 all-replicas
    // guarantee), so every op that was not already failed inherits the
    // parked error.
    for (Status& s : *statuses) {
      if (s.ok()) {
        s = parked;
      }
    }
    return parked;
  }
  return applied;
}

StatusOr<std::string> PrimaryRegion::Get(Slice key) { return store_->Get(key); }

StatusOr<std::vector<KvPair>> PrimaryRegion::Scan(Slice start, size_t limit) {
  return store_->Scan(start, limit);
}

Status PrimaryRegion::FlushL0() {
  TEBIS_RETURN_IF_ERROR(store_->FlushL0());
  return TakeParkedError();
}

StatusOr<size_t> PrimaryRegion::GarbageCollect(size_t max_segments) {
  TEBIS_ASSIGN_OR_RETURN(size_t freed, store_->GarbageCollectHead(max_segments));
  TEBIS_RETURN_IF_ERROR(TakeParkedError());
  {
    std::lock_guard<std::mutex> lock(region_mutex_);
    // The boundary indexes the flushed-segment list, whose head just went.
    l0_boundary_ -= std::min(l0_boundary_, freed);
    for (auto& slot : backups_) {
      TEBIS_RETURN_IF_ERROR(
          slot->channel->Send(TrimLogMsg{.segments = static_cast<uint32_t>(freed)}));
    }
  }
  return freed;
}

Status PrimaryRegion::FullSync(BackupChannel* channel) {
  // The fresh backup must adopt this configuration's generation before any
  // message reaches it.
  channel->set_epoch(epoch());
  // Seal the tail so the entire dataset is in flushed segments + L0, and the
  // levels reference only flushed offsets.
  TEBIS_RETURN_IF_ERROR(store_->value_log()->FlushTail());
  TEBIS_RETURN_IF_ERROR(TakeParkedError());

  // 1) The value log, oldest first, through the normal §3.2 path: buffer
  //    write + flush message builds the backup's log and log map. Each
  //    segment moves only what its seal wrote: records plus pad marker.
  for (SegmentId seg : store_->value_log()->FlushedSegmentsSnapshot()) {
    TEBIS_ASSIGN_OR_RETURN(std::string sealed,
                           store_->value_log()->ReadSealedPrefix(seg, IoClass::kRecovery));
    TEBIS_RETURN_IF_ERROR(channel->RdmaWriteLog(0, sealed));
    // The backup is not read-leased during a sync, so stamping every flush
    // with the current commit sequence (early for older segments) is safe.
    TEBIS_RETURN_IF_ERROR(channel->Send(FlushLogMsg{
        .primary_segment = seg, .commit_seq = commit_seq(), .tail_bytes = sealed.size()}));
  }
  // 2) (Send-Index) every device level via synthetic compactions, each on its
  //    own shipping stream; the backup rewrites them exactly like live
  //    shipments.
  if (mode_ == ReplicationMode::kSendIndex) {
    std::string buf(device_->segment_size(), 0);
    for (uint32_t i = 1; i <= store_->max_levels(); ++i) {
      const BuiltTree& tree = store_->level(i);
      if (tree.empty()) {
        continue;
      }
      uint64_t sync_id;
      StreamId stream;
      {
        std::lock_guard<std::mutex> lock(region_mutex_);
        sync_id = next_sync_id_++;
        stream = AcquireStreamLocked(sync_id);
      }
      Status status = [&]() -> Status {
        TEBIS_RETURN_IF_ERROR(channel->Send(CompactionBeginMsg{.compaction_id = sync_id,
                                                               .src_level = 0,
                                                               .dst_level = i,
                                                               .stream_id = stream,
                                                               .l0_boundary = l0_boundary()}));
        for (size_t s = 0; s < tree.segments.size(); ++s) {
          const SegmentId seg = tree.segments[s];
          // Each segment ships exactly its fingerprinted used prefix, encoded
          // and stamped with the stored CRC; the backup verifies the bytes it
          // decodes and retains the primary checksums for repair interchange.
          const SegmentChecksum& sum = tree.seg_checksums[s];
          TEBIS_RETURN_IF_ERROR(device_->Read(device_->geometry().BaseOffset(seg), sum.length,
                                              buf.data(), IoClass::kRecovery));
          const std::string wire =
              EncodeIndexSegment(Slice(buf.data(), sum.length), store_->options().node_size);
          TEBIS_RETURN_IF_ERROR(channel->Send(IndexSegmentMsg{.compaction_id = sync_id,
                                                              .dst_level = i,
                                                              .tree_level = 0,
                                                              .primary_segment = seg,
                                                              .data = Slice(wire),
                                                              .stream_id = stream,
                                                              .payload_crc = sum.crc}));
        }
        if (tree.filter != nullptr) {
          TEBIS_RETURN_IF_ERROR(channel->Send(FilterBlockMsg{.compaction_id = sync_id,
                                                             .dst_level = i,
                                                             .data = Slice(*tree.filter),
                                                             .stream_id = stream}));
        }
        return channel->Send(CompactionEndMsg{.compaction_id = sync_id,
                                              .src_level = 0,
                                              .dst_level = i,
                                              .tree = tree,
                                              .stream_id = stream});
      }();
      {
        std::lock_guard<std::mutex> lock(region_mutex_);
        ReleaseStreamLocked(sync_id);
      }
      TEBIS_RETURN_IF_ERROR(status);
    }
  }
  // 3) Where L0 replay starts if this backup is ever promoted.
  return channel->Send(SetReplayStartMsg{.flushed_segment_index = l0_boundary()});
}

Status PrimaryRegion::ReplayBufferImage(Slice image) {
  // Append order: a later overwrite replays after the record it replaces.
  for (const LogRecord& rec : ValueLog::DecodeBufferImage(image)) {
    TEBIS_RETURN_IF_ERROR(rec.tombstone ? Delete(rec.key) : Put(rec.key, rec.value));
  }
  return Status::Ok();
}

// --- data plane (§3.2) ---------------------------------------------------------

void PrimaryRegion::OnAppend(SegmentId segment, uint64_t offset_in_segment,
                             Slice run_with_terminator, size_t record_count) {
  std::lock_guard<std::mutex> lock(region_mutex_);
  // Every append advances the commit sequence, replicated or not: the token a
  // writer receives must cover degraded-mode writes too. A group advances it
  // once for all its records, so a batch reply's one token covers every op.
  commit_seq_ += record_count;
  if (backups_.empty()) {
    return;
  }
  RequestStageTimings* stages = CurrentRequestStages();
  const uint64_t doorbell_start_ns = stages != nullptr ? NowNanos() : 0;
  uint64_t cpu_ns = 0;
  {
    ScopedCpuTimer timer(&cpu_ns);
    // One doorbell: the run is contiguous in the tail, so a single one-sided
    // write carries every record plus the 4 zero bytes the log reserves
    // after them. Those act as an end-of-data terminator in the backup's RDMA
    // buffer, so promotion never replays stale bytes from a previous tail
    // image.
    constexpr int kAppendRetryLimit = 8;
    DataPlaneFanOutLocked([&](BackupChannel* channel) {
      Status s = channel->RdmaWriteLog(offset_in_segment, run_with_terminator);
      // One-sided writes dropped by a transient fabric fault are simply
      // re-posted; a halted/partitioned peer keeps failing and the error
      // parks.
      for (int retry = 0; retry < kAppendRetryLimit && s.IsUnavailable(); ++retry) {
        repl_.append_retries->Increment();
        s = channel->RdmaWriteLog(offset_in_segment, run_with_terminator);
      }
      return s;
    });
  }
  repl_.log_replication_cpu_ns->Add(cpu_ns);
  repl_.log_records_replicated->Add(record_count);
  repl_.doorbells->Increment();
  repl_.doorbell_records->Add(record_count);
  if (stages != nullptr) {
    FinishDoorbellSpan(doorbell_start_ns, run_with_terminator.size(), stages);
  }
}

void PrimaryRegion::OnTailFlush(SegmentId segment, Slice sealed_bytes) {
  std::lock_guard<std::mutex> lock(region_mutex_);
  if (backups_.empty()) {
    return;
  }
  uint64_t cpu_ns = 0;
  {
    ScopedCpuTimer timer(&cpu_ns);
    // The backups already hold these bytes but the pad marker: the appends
    // carried every record and the zero terminator it replaces.
    const FlushLogMsg msg{.primary_segment = segment,
                          .commit_seq = commit_seq_,
                          .tail_bytes = sealed_bytes.size()};
    DataPlaneFanOutLocked([&](BackupChannel* channel) { return channel->Send(msg); });
  }
  repl_.log_replication_cpu_ns->Add(cpu_ns);
  repl_.log_flushes->Increment();
}

// --- index shipping (§3.3) -------------------------------------------------------

void PrimaryRegion::OnCompactionBegin(const CompactionInfo& info) {
  StreamId stream;
  bool ship;
  {
    std::lock_guard<std::mutex> lock(region_mutex_);
    stream = RegisterStreamLocked(info);
    if (info.src_level == 0) {
      // The engine sealed the tail on the writer thread; the writer may have
      // flushed more segments since, whose records live in the *new*
      // memtable, so the boundary is the seal-time count. Kept even without
      // backups so the L0 boundary stays exact for later FullSyncs.
      l0_boundary_ = info.l0_boundary;
    }
    ship = !backups_.empty() && mode_ == ReplicationMode::kSendIndex;
  }
  if (!ship) {
    return;  // the stream stays allocated until OnCompactionEnd releases it
  }
  uint64_t cpu_ns = 0;
  {
    ScopedCpuTimer timer(&cpu_ns);
    const CompactionBeginMsg msg{.compaction_id = info.compaction_id,
                                 .src_level = static_cast<uint32_t>(info.src_level),
                                 .dst_level = static_cast<uint32_t>(info.dst_level),
                                 .stream_id = stream,
                                 .l0_boundary = info.l0_boundary};
    FanOut(stream, /*flow_bytes=*/0, [&](BackupChannel* channel) { return channel->Send(msg); });
  }
  repl_.send_index_cpu_ns->Add(cpu_ns);
}

void PrimaryRegion::OnIndexSegment(const CompactionInfo& info, int tree_level, SegmentId segment,
                                   Slice bytes, uint32_t crc) {
  StreamId stream;
  {
    std::lock_guard<std::mutex> lock(region_mutex_);
    if (mode_ != ReplicationMode::kSendIndex || backups_.empty()) {
      return;
    }
    stream = RegisterStreamLocked(info);
  }
  uint64_t cpu_ns = 0;
  uint64_t wire_bytes = 0;
  const uint64_t ship_start_ns = NowNanos();
  {
    ScopedCpuTimer timer(&cpu_ns);
    // Encode once, fan out to every backup. The builder's checksum of the
    // segment rides along: each receiver decodes and proves the bytes
    // survived the wire before rewriting a single pointer.
    const std::string wire = EncodeIndexSegment(bytes, store_->options().node_size);
    wire_bytes = wire.size();
    const IndexSegmentMsg msg{.compaction_id = info.compaction_id,
                              .dst_level = static_cast<uint32_t>(info.dst_level),
                              .tree_level = static_cast<uint32_t>(tree_level),
                              .primary_segment = segment,
                              .data = Slice(wire),
                              .stream_id = stream,
                              .payload_crc = crc};
    FanOut(stream, /*flow_bytes=*/wire_bytes,
           [&](BackupChannel* channel) { return channel->Send(msg); });
  }
  RecordSpan(info, "ship_segment", ship_start_ns, NowNanos(), wire_bytes);
  repl_.send_index_cpu_ns->Add(cpu_ns);
  repl_.index_segments_shipped->Increment();
  repl_.index_bytes_shipped->Add(wire_bytes);
}

void PrimaryRegion::OnCompactionEnd(const CompactionInfo& info, const BuiltTree& new_tree) {
  StreamId stream;
  {
    std::lock_guard<std::mutex> lock(region_mutex_);
    if (mode_ != ReplicationMode::kSendIndex || backups_.empty()) {
      ReleaseStreamLocked(info.compaction_id);
      return;
    }
    stream = RegisterStreamLocked(info);
  }
  uint64_t cpu_ns = 0;
  {
    ScopedCpuTimer timer(&cpu_ns);
    if (new_tree.filter != nullptr) {
      // Ship the level's filter block before the end message: when the end
      // commits on the backup the filter installs atomically with the tree.
      // Control-plane sized (a few KB of fingerprints), so no flow credit.
      const FilterBlockMsg msg{.compaction_id = info.compaction_id,
                               .dst_level = static_cast<uint32_t>(info.dst_level),
                               .data = Slice(*new_tree.filter),
                               .stream_id = stream};
      FanOut(stream, /*flow_bytes=*/0, [&](BackupChannel* channel) { return channel->Send(msg); });
      repl_.filter_blocks_shipped->Increment();
      repl_.filter_bytes_shipped->Add(new_tree.filter->size());
    }
    const CompactionEndMsg msg{.compaction_id = info.compaction_id,
                               .src_level = static_cast<uint32_t>(info.src_level),
                               .dst_level = static_cast<uint32_t>(info.dst_level),
                               .tree = new_tree,
                               .stream_id = stream};
    FanOut(stream, /*flow_bytes=*/0, [&](BackupChannel* channel) { return channel->Send(msg); });
  }
  {
    std::lock_guard<std::mutex> lock(region_mutex_);
    ReleaseStreamLocked(info.compaction_id);
  }
  repl_.send_index_cpu_ns->Add(cpu_ns);
}

}  // namespace tebis
