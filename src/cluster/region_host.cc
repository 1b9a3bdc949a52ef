#include "src/cluster/region_host.h"

#include <optional>
#include <string_view>
#include <utility>

#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/replication/build_index_backup.h"
#include "src/replication/send_index_backup.h"
#include "src/telemetry/request_trace.h"

namespace tebis {
namespace {

std::string RegionName(uint32_t region_id) { return "region " + std::to_string(region_id); }

// Whether a timed op goes into the latency histogram and slow-op log: a
// batch always (a failed replication round is the outlier the log is for), a
// get also when it found nothing, any other op when it succeeded.
bool Observed(SlowOpType type, const Status& status) {
  return type == SlowOpType::kBatch || status.ok() ||
         (type == SlowOpType::kGet && status.IsNotFound());
}
template <typename T>
bool Observed(SlowOpType type, const StatusOr<T>& result) {
  return Observed(type, result.status());
}

}  // namespace

RegionHost::RegionHost(std::string node, Fabric* fabric, Telemetry* telemetry,
                       BlockDevice* device, WorkerPool* compaction_pool,
                       KvStoreOptions kv_options, ReplicationMode mode, PrimaryHook on_primary)
    : node_(std::move(node)),
      fabric_(fabric),
      telemetry_(telemetry),
      device_(device),
      compaction_pool_(compaction_pool),
      kv_options_(std::move(kv_options)),
      mode_(mode),
      on_primary_(std::move(on_primary)) {
  for (size_t t = 0; t < kNumSlowOpTypes; ++t) {
    request_latency_[t] = telemetry_->metrics()->GetHistogram(
        "trace.request_latency_ns",
        {{"node", node_}, {"op", SlowOpTypeName(static_cast<SlowOpType>(t))}});
  }
}

RegionHost::~RegionHost() { Clear(); }

KvStoreOptions RegionHost::RegionKvOptions(uint32_t region_id, const char* role) const {
  KvStoreOptions kv_options = kv_options_;
  kv_options.telemetry = telemetry_;
  kv_options.telemetry_labels.emplace_back("node", node_);
  kv_options.telemetry_labels.emplace_back("region", std::to_string(region_id));
  kv_options.telemetry_labels.emplace_back("role", role);
  return kv_options;
}

// --- region table ------------------------------------------------------------

Status RegionHost::Open(uint32_t region_id,
                        const std::function<Status(RegionHandle*)>& build) {
  {
    std::lock_guard<std::mutex> lock(regions_mutex_);
    if (regions_.contains(region_id)) {
      return Status::AlreadyExists(RegionName(region_id));
    }
  }
  // Built outside regions_mutex_: building takes engine locks, and the
  // serving path holds those while it looks up another region's handle.
  auto handle = std::make_shared<RegionHandle>();
  TEBIS_RETURN_IF_ERROR(build(handle.get()));
  std::lock_guard<std::mutex> lock(regions_mutex_);
  if (!regions_.emplace(region_id, std::move(handle)).second) {
    return Status::AlreadyExists(RegionName(region_id));
  }
  return Status::Ok();
}

Status RegionHost::OpenPrimary(uint32_t region_id, uint64_t epoch) {
  return Open(region_id, [&](RegionHandle* handle) {
    KvStoreOptions kv_options = RegionKvOptions(region_id, "primary");
    kv_options.compaction_pool = compaction_pool_;
    return AdoptPrimary(handle, region_id, PrimaryRegion::Create(device_, kv_options, mode_),
                        epoch);
  });
}

Status RegionHost::OpenBackup(uint32_t region_id, uint64_t epoch, const std::string& writer) {
  return Open(region_id, [&](RegionHandle* handle) -> Status {
    handle->replication_buffer = RegisterBackupBuffer(region_id, writer);
    const KvStoreOptions backup_kv = RegionKvOptions(region_id, "backup");
    if (mode_ == ReplicationMode::kBuildIndex) {
      TEBIS_ASSIGN_OR_RETURN(
          handle->backup,
          BuildIndexBackupRegion::Create(device_, backup_kv, handle->replication_buffer));
    } else {
      TEBIS_ASSIGN_OR_RETURN(
          handle->backup,
          SendIndexBackupRegion::Create(device_, backup_kv, handle->replication_buffer));
    }
    handle->backup->set_region_epoch(epoch);
    return Status::Ok();
  });
}

Status RegionHost::Close(uint32_t region_id) {
  std::shared_ptr<RegionHandle> handle;
  {
    std::lock_guard<std::mutex> lock(regions_mutex_);
    auto it = regions_.find(region_id);
    if (it == regions_.end()) {
      return Status::NotFound(RegionName(region_id));
    }
    handle = std::move(it->second);
    regions_.erase(it);
  }
  // Drain before teardown: without it an in-flight put can be acked against
  // an engine this close is about to discard, and the handover dirty-tail
  // path then silently loses the acked write.
  std::lock_guard<std::shared_mutex> lock(handle->mutex);
  handle->closed = true;
  if (handle->replication_buffer != nullptr) {
    handle->replication_buffer->set_commit_listener(nullptr);
  }
  return Status::Ok();
}

void RegionHost::Clear() {
  std::map<uint32_t, std::shared_ptr<RegionHandle>> regions;
  {
    std::lock_guard<std::mutex> lock(regions_mutex_);
    regions.swap(regions_);
  }
  // Engines are destroyed outside regions_mutex_, like they are built.
  for (auto& [id, handle] : regions) {
    if (handle->replication_buffer != nullptr) {
      handle->replication_buffer->set_commit_listener(nullptr);
    }
  }
}

template <typename PinnedHandle>
StatusOr<PinnedHandle> RegionHost::Lock(uint32_t region_id, Role role) const {
  PinnedHandle locked;
  {
    std::lock_guard<std::mutex> lock(regions_mutex_);
    auto it = regions_.find(region_id);
    if (it == regions_.end()) {
      return Status::NotFound(RegionName(region_id));
    }
    locked.handle = it->second;
  }
  locked.lock = decltype(locked.lock)(locked.handle->mutex);
  if (locked->closed) {
    return Status::NotFound(RegionName(region_id) + " closed");
  }
  if (locked->primary == nullptr && locked->backup == nullptr) {
    return Status::NotFound(RegionName(region_id) + " has no engine");  // failed role change
  }
  if (role == Role::kPrimary && locked->primary == nullptr) {
    return Status::FailedPrecondition(RegionName(region_id) + " is not primary here");
  }
  if (role == Role::kBackup && locked->backup == nullptr) {
    return Status::FailedPrecondition(RegionName(region_id) + " is not a backup here");
  }
  return locked;
}
template StatusOr<RegionHost::Locked> RegionHost::Lock(uint32_t, Role) const;

bool RegionHost::IsPrimary(uint32_t region_id) const {
  return Lock<Shared>(region_id, Role::kPrimary).ok();
}

StatusOr<std::shared_ptr<RegisteredBuffer>> RegionHost::ReplicationBuffer(
    uint32_t region_id) const {
  StatusOr<Shared> region = Lock<Shared>(region_id, Role::kBackup);
  if (!region.ok()) {
    return Status::NotFound("no backup region " + std::to_string(region_id));
  }
  return (*region)->replication_buffer;
}

// --- engine construction -------------------------------------------------------

std::shared_ptr<RegisteredBuffer> RegionHost::RegisterBackupBuffer(uint32_t region_id,
                                                                   const std::string& writer) {
  // One segment: the mirror of the primary's one log tail.
  auto buffer = fabric_->RegisterBuffer(/*owner=*/node_, writer, device_->segment_size());
  InstallCommitListener(buffer.get());
  return buffer;
}

void RegionHost::InstallCommitListener(RegisteredBuffer* buffer) const {
  // Runs on the *primary's* writer thread (the simulation stand-in for the
  // backup noticing committed bytes), so it touches no handle state. It
  // captures the plane, so it is cleared before the host lets the buffer go.
  buffer->set_commit_listener([telemetry = telemetry_, node = node_](
                                  TraceId trace, uint64_t /*epoch*/, uint64_t /*offset*/,
                                  size_t bytes, uint64_t start_ns, uint64_t end_ns) {
    // Accumulate into the writer's request scope so the primary's slow-op
    // breakdown includes replication time.
    if (RequestStageTimings* stages = CurrentRequestStages(); stages != nullptr) {
      stages->backup_commit_ns += end_ns - start_ns;
    }
    TraceBuffer* traces = telemetry->traces();
    if (!traces->enabled()) {
      return;
    }
    SpanRecord span;
    span.trace = trace;
    span.name = "backup_commit";
    span.node = node;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.bytes = bytes;
    traces->Record(std::move(span));
  });
}

Status RegionHost::AdoptPrimary(RegionHandle* handle, uint32_t region_id,
                                StatusOr<std::unique_ptr<PrimaryRegion>> primary,
                                uint64_t epoch) {
  TEBIS_RETURN_IF_ERROR(primary.status());
  handle->primary = std::move(*primary);
  handle->primary->set_epoch(epoch);
  if (on_primary_) {
    on_primary_(region_id, handle->primary.get());
  }
  return Status::Ok();
}

Status RegionHost::BecomePrimary(RegionHandle* handle, uint32_t region_id,
                                 std::unique_ptr<KvStore> store, uint64_t epoch) {
  handle->backup.reset();
  // A promoted region keeps background compactions: adopt the pool the
  // backup engine never needed.
  if (compaction_pool_ != nullptr) {
    TEBIS_RETURN_IF_ERROR(store->AdoptCompactionPool(compaction_pool_));
  }
  return AdoptPrimary(handle, region_id,
                      PrimaryRegion::CreateFromStore(device_, mode_, std::move(store)), epoch);
}

Status RegionHost::BecomeBackup(RegionHandle* handle, uint32_t region_id, uint64_t epoch,
                                const std::string& writer,
                                const SegmentMap& new_primary_log_map) {
  // The demoted node's log map is the inverse of the promoted node's
  // (new-primary segment -> local segment), ordered by the local flush order.
  TEBIS_ASSIGN_OR_RETURN(SegmentMap inverted, new_primary_log_map.Invert());
  std::vector<SegmentId> flush_order;
  for (SegmentId mine : handle->primary->store()->value_log()->flushed_segments()) {
    TEBIS_ASSIGN_OR_RETURN(SegmentId theirs, new_primary_log_map.Lookup(mine));
    flush_order.push_back(theirs);
  }
  std::unique_ptr<KvStore> store = handle->primary->ReleaseStore();
  handle->primary.reset();
  handle->replication_buffer = RegisterBackupBuffer(region_id, writer);
  const KvStoreOptions backup_kv = RegionKvOptions(region_id, "backup");
  if (mode_ == ReplicationMode::kBuildIndex) {
    TEBIS_ASSIGN_OR_RETURN(handle->backup, BuildIndexBackupRegion::CreateFromStore(
                                               device_, backup_kv, handle->replication_buffer,
                                               std::move(store), std::move(inverted),
                                               std::move(flush_order)));
  } else {
    KvStore::Parts parts = KvStore::Decompose(std::move(store));
    TEBIS_ASSIGN_OR_RETURN(
        handle->backup,
        SendIndexBackupRegion::CreateFromParts(
            device_, backup_kv, handle->replication_buffer, std::move(parts.log),
            std::move(parts.levels), std::move(inverted), std::move(flush_order),
            parts.l0_replay_from));
  }
  handle->backup->set_region_epoch(epoch);
  return Status::Ok();
}

// --- serving core ----------------------------------------------------------------

template <typename Result, typename Op>
Result RegionHost::OnPrimary(uint32_t region_id, SlowOpType type, Slice key, TraceId trace,
                             CommitToken* token, const Op& op) {
  StatusOr<Shared> region = Lock<Shared>(region_id, Role::kPrimary);
  if (!region.ok()) {
    return Status::WrongRegion(region.status().message());
  }
  PrimaryRegion* primary = (*region)->primary.get();
  // A trace scope only when the op is sampled or the slow-op log wants this
  // type timed, so untraced ops pay no clock reads.
  const bool timed = trace != kNoTrace || telemetry_->slow_ops()->threshold(type) != 0;
  std::optional<ScopedRequestTrace> scope;
  uint64_t start_ns = 0;
  if (timed) {
    scope.emplace(trace);
    start_ns = NowNanos();
  }
  Result result = op(primary);
  if (timed && Observed(type, result)) {
    Observe(type, key, region_id, primary->epoch(), trace, start_ns, scope->stages());
  }
  if (token != nullptr) {
    // The commit token the write reached: read-your-writes clients fold it
    // into their replica read fence.
    primary->CommitToken(&token->epoch, &token->seq);
  }
  return result;
}

void RegionHost::Observe(SlowOpType type, Slice key, uint32_t region_id, uint64_t epoch,
                         TraceId trace, uint64_t start_ns, const RequestStageTimings& stages) {
  const uint64_t end_ns = NowNanos();
  const uint64_t total_ns = end_ns - start_ns;
  if (trace != kNoTrace) {
    // The exemplar links a p99 bucket in the (federated) latency histogram
    // back to this trace id.
    request_latency_[static_cast<size_t>(type)]->Record(static_cast<int64_t>(total_ns), trace);
    TraceBuffer* traces = telemetry_->traces();
    if (traces->enabled()) {
      SpanRecord span;
      span.trace = trace;
      span.name = "primary_apply";
      span.node = node_;
      span.start_ns = start_ns;
      span.end_ns = end_ns;
      span.bytes = key.size();
      traces->Record(std::move(span));
    }
  }
  telemetry_->slow_ops()->MaybeRecord(type, std::string_view(key.data(), key.size()), region_id,
                                      epoch, trace, total_ns, &stages, end_ns);
}

Status RegionHost::Put(uint32_t region_id, Slice key, Slice value, TraceId trace,
                       CommitToken* token) {
  return OnPrimary<Status>(region_id, SlowOpType::kPut, key, trace, token,
                           [&](PrimaryRegion* primary) { return primary->Put(key, value); });
}

Status RegionHost::Delete(uint32_t region_id, Slice key, TraceId trace, CommitToken* token) {
  return OnPrimary<Status>(region_id, SlowOpType::kDelete, key, trace, token,
                           [&](PrimaryRegion* primary) { return primary->Delete(key); });
}

StatusOr<std::string> RegionHost::Get(uint32_t region_id, Slice key, TraceId trace) {
  return OnPrimary<StatusOr<std::string>>(
      region_id, SlowOpType::kGet, key, trace, /*token=*/nullptr,
      [&](PrimaryRegion* primary) { return primary->Get(key); });
}

StatusOr<std::vector<KvPair>> RegionHost::Scan(uint32_t region_id, Slice start, size_t limit,
                                               TraceId trace) {
  return OnPrimary<StatusOr<std::vector<KvPair>>>(
      region_id, SlowOpType::kScan, start, trace, /*token=*/nullptr,
      [&](PrimaryRegion* primary) { return primary->Scan(start, limit); });
}

Status RegionHost::WriteBatch(uint32_t region_id, const std::vector<KvStore::BatchOp>& ops,
                              std::vector<Status>* statuses, TraceId trace,
                              CommitToken* token) {
  return OnPrimary<Status>(
      region_id, SlowOpType::kBatch, ops.empty() ? Slice() : ops.front().key, trace, token,
      [&](PrimaryRegion* primary) { return primary->WriteBatch(ops, statuses); });
}

StatusOr<std::string> RegionHost::ReplicaGet(uint32_t region_id, Slice key, uint64_t min_epoch,
                                             uint64_t min_seq, uint64_t* visible_seq) {
  StatusOr<Shared> region = Lock<Shared>(region_id, Role::kBackup);
  if (!region.ok()) {
    return Status::WrongRegion(region.status().message());
  }
  return (*region)->backup->Get(key, min_epoch, min_seq, visible_seq);
}

StatusOr<std::vector<KvPair>> RegionHost::ReplicaScan(uint32_t region_id, Slice start,
                                                      size_t limit, uint64_t min_epoch,
                                                      uint64_t min_seq, uint64_t* visible_seq) {
  StatusOr<Shared> region = Lock<Shared>(region_id, Role::kBackup);
  if (!region.ok()) {
    return Status::WrongRegion(region.status().message());
  }
  return (*region)->backup->Scan(start, limit, min_epoch, min_seq, visible_seq);
}

Status RegionHost::Handle(uint32_t region_id, const ReplicationMessage& msg) {
  StatusOr<Shared> region = Lock<Shared>(region_id, Role::kAny);
  if (!region.ok()) {
    return Status::WrongRegion(region.status().message());
  }
  if ((*region)->backup == nullptr) {
    return Status::FailedPrecondition("replication op on primary");
  }
  return (*region)->backup->Handle(msg);
}

StatusOr<std::string> RegionHost::ServeRepairFetch(uint32_t region_id, const RepairFetchMsg& msg,
                                                   uint32_t* crc) {
  StatusOr<Shared> region = Lock<Shared>(region_id, Role::kAny);
  if (!region.ok()) {
    return Status::WrongRegion(region.status().message());
  }
  PrimaryRegion* primary = (*region)->primary.get();
  BackupRegion* backup = (*region)->backup.get();
  // Repair bytes cross replicas only within one configuration generation: a
  // stale donor must never feed bytes into a newer epoch, and a stale
  // requester must not resurrect bytes a newer epoch replaced.
  const uint64_t local_epoch = primary != nullptr ? primary->epoch() : backup->region_epoch();
  if (msg.epoch != local_epoch) {
    return Status::FailedPrecondition("repair fetch epoch " + std::to_string(msg.epoch) +
                                      " != donor epoch " + std::to_string(local_epoch));
  }
  if (backup != nullptr) {
    return backup->ServeRepairFetch(msg.level, msg.seg_index, crc);
  }
  StatusOr<std::string> bytes = primary->store()->ReadLevelSegmentVerified(
      static_cast<int>(msg.level), static_cast<size_t>(msg.seg_index));
  if (bytes.ok()) {
    *crc = Crc32c(bytes->data(), bytes->size());
  }
  return bytes;
}

}  // namespace tebis
