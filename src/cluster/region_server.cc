#include "src/cluster/region_server.h"

#include <optional>

#include "src/cluster/kv_wire.h"
#include "src/cluster/stats_wire.h"
#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/net/rpc_client.h"
#include "src/replication/replication_wire.h"
#include "src/replication/rpc_backup_channel.h"

namespace tebis {
namespace {

constexpr char kDetachedPath[] = "/detached";

MessageType ReplyTypeFor(MessageType request) {
  return static_cast<MessageType>(static_cast<uint16_t>(request) + 1);
}

}  // namespace

RegionServer::RegionServer(Fabric* fabric, Coordinator* coordinator, std::string name,
                           RegionServerOptions options)
    : fabric_(fabric),
      coordinator_(coordinator),
      name_(std::move(name)),
      options_(options),
      telemetry_(std::make_unique<Telemetry>(options.trace_capacity)) {
  if (options_.replication_connection_buffer == 0) {
    options_.replication_connection_buffer = 8 * options_.device_options.segment_size;
  }
  telemetry_->EnableHealthWatchdog(options_.health_thresholds);
  telemetry_->ConfigureSlowOps(options_.slow_op_policy);
  for (size_t t = 0; t < kNumSlowOpTypes; ++t) {
    request_latency_[t] = telemetry_->metrics()->GetHistogram(
        "trace.request_latency_ns",
        {{"node", name_}, {"op", SlowOpTypeName(static_cast<SlowOpType>(t))}});
  }
}

KvStoreOptions RegionServer::RegionKvOptions(uint32_t region_id, const char* role) const {
  KvStoreOptions kv_options = options_.kv_options;
  kv_options.telemetry = telemetry_.get();
  kv_options.telemetry_labels.emplace_back("node", name_);
  kv_options.telemetry_labels.emplace_back("region", std::to_string(region_id));
  kv_options.telemetry_labels.emplace_back("role", role);
  return kv_options;
}

RegionServer::~RegionServer() {
  Stop();
  // See Crash(): shared buffers must not invoke listeners into a destroyed
  // telemetry plane.
  std::lock_guard<std::mutex> lock(regions_mutex_);
  for (auto& [id, handle] : regions_) {
    ClearCommitListener(handle.get());
  }
}

Status RegionServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  TEBIS_ASSIGN_OR_RETURN(device_, BlockDevice::Create(options_.device_options));
  if (options_.expected_regions > 0) {
    // Split the server's shard-lock budget across the stores it will host
    // (PR 4); a standalone store keeps the configured default.
    options_.kv_options.cache_shards = PageCache::ShardsForStores(options_.expected_regions);
  }
  if (options_.compaction_workers > 0) {
    compaction_pool_ = std::make_unique<WorkerPool>(options_.compaction_workers);
    compaction_pool_->Start();
  }
  client_endpoint_ = std::make_unique<ServerEndpoint>(fabric_, name_, options_.num_spinners,
                                                      options_.num_workers);
  replication_endpoint_ = std::make_unique<ServerEndpoint>(
      fabric_, name_ + ":repl", /*num_spinners=*/1, /*num_workers=*/2);
  auto handler = [this](const MessageHeader& header, std::string payload, ReplyContext ctx) {
    HandleRequest(header, std::move(payload), std::move(ctx));
  };
  client_endpoint_->set_handler(handler);
  replication_endpoint_->set_handler(handler);
  client_endpoint_->Start();
  replication_endpoint_->Start();

  session_ = coordinator_->CreateSession();
  // Membership (§3.5): the ephemeral node is the failure detector.
  if (!coordinator_->Exists("/servers")) {
    (void)coordinator_->Create(Coordinator::kNoSession, "/servers", "", {});
  }
  TEBIS_RETURN_IF_ERROR(coordinator_->Create(session_, "/servers/" + name_, "",
                                             {.ephemeral = true, .sequential = false}));
  started_ = true;
  return Status::Ok();
}

void RegionServer::Stop() {
  if (!started_) {
    return;
  }
  std::vector<std::thread> detachers;
  {
    std::lock_guard<std::mutex> lock(detach_mutex_);
    started_ = false;  // under detach_mutex_: RecordDetach checks it there
    detachers.swap(detach_threads_);
  }
  for (auto& t : detachers) {
    t.join();
  }
  client_endpoint_->Stop();
  replication_endpoint_->Stop();
}

void RegionServer::DropCoordinatorSession() { coordinator_->ExpireSession(session_); }

void RegionServer::InstallPrimaryPolicy(uint32_t region_id, PrimaryRegion* primary) {
  primary->set_replication_policy(options_.replication_policy);
  // Per-stream shipping credit (PR 4): each backup's in-flight index bytes
  // are bounded by its shared replication connection buffer, split across the
  // concurrent streams so one stalled stream cannot occupy the whole buffer.
  primary->set_stream_flow_pool(options_.replication_connection_buffer);
  if (options_.replication_policy.max_consecutive_failures > 0) {
    primary->set_detach_listener(
        [this, region_id](const std::string& backup, uint64_t epoch, StreamId stream) {
          RecordDetach(region_id, backup, epoch, stream);
        });
  }
}

void RegionServer::RecordDetach(uint32_t region_id, const std::string& backup_name,
                                uint64_t epoch, StreamId stream) {
  std::lock_guard<std::mutex> lock(detach_mutex_);
  if (!started_) {
    return;
  }
  // Off-thread: the detach listener fires under region locks, and creating
  // the znode runs the master's watch synchronously on the creating thread —
  // reconciliation re-enters this server and must not self-deadlock.
  detach_threads_.emplace_back([this, region_id, backup_name, epoch, stream] {
    if (!coordinator_->Exists(kDetachedPath)) {
      (void)coordinator_->Create(Coordinator::kNoSession, kDetachedPath, "", {});
    }
    WireWriter w;
    w.U32(region_id).Bytes(backup_name).U64(epoch).Bytes(name_).U32(stream);
    // One record per (region, backup, epoch): retries collapse.
    const std::string path = std::string(kDetachedPath) + "/r" + std::to_string(region_id) +
                             "-" + backup_name + "-e" + std::to_string(epoch);
    Status s = coordinator_->Create(Coordinator::kNoSession, path, w.str(), {});
    if (!s.ok() && !s.IsAlreadyExists()) {
      TEBIS_LOG(kError) << "recording detach of " << backup_name << ": " << s.ToString();
    }
  });
}

void RegionServer::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  Stop();
  {
    std::lock_guard<std::mutex> lock(regions_mutex_);
    // Buffers can outlive their handles (the primary's channel keeps a ref);
    // drop the listeners that capture this server's telemetry plane.
    for (auto& [id, handle] : regions_) {
      ClearCommitListener(handle.get());
    }
    regions_.clear();
  }
  coordinator_->ExpireSession(session_);
}

// --- admin API ------------------------------------------------------------

Status RegionServer::OpenPrimaryRegion(uint32_t region_id, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(regions_mutex_);
  if (regions_.contains(region_id)) {
    return Status::AlreadyExists("region " + std::to_string(region_id));
  }
  auto handle = std::make_shared<RegionHandle>();
  handle->is_primary = true;
  KvStoreOptions kv_options = RegionKvOptions(region_id, "primary");
  kv_options.compaction_pool = compaction_pool_.get();  // null = synchronous
  TEBIS_ASSIGN_OR_RETURN(
      handle->primary,
      PrimaryRegion::Create(device_.get(), kv_options, options_.replication_mode));
  handle->primary->set_epoch(epoch);
  InstallPrimaryPolicy(region_id, handle->primary.get());
  regions_[region_id] = std::move(handle);
  return Status::Ok();
}

Status RegionServer::OpenBackupRegion(uint32_t region_id, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(regions_mutex_);
  if (regions_.contains(region_id)) {
    return Status::AlreadyExists("region " + std::to_string(region_id));
  }
  auto handle = std::make_shared<RegionHandle>();
  handle->is_primary = false;
  // Register the log buffer this region's primary will write one-sided: 2x a
  // segment (PR 9) — main tail mirror in [0, segment), large-value tail
  // mirror in [segment, 2*segment).
  handle->replication_buffer =
      fabric_->RegisterBuffer(/*owner=*/name_, /*writer=*/"primary-of-r" + std::to_string(region_id),
                              2 * options_.device_options.segment_size);
  InstallCommitListener(handle->replication_buffer.get());
  const KvStoreOptions backup_kv = RegionKvOptions(region_id, "backup");
  if (options_.replication_mode == ReplicationMode::kSendIndex) {
    TEBIS_ASSIGN_OR_RETURN(handle->send_backup,
                           SendIndexBackupRegion::Create(device_.get(), backup_kv,
                                                         handle->replication_buffer));
    handle->send_backup->set_region_epoch(epoch);
  } else {
    TEBIS_ASSIGN_OR_RETURN(handle->build_backup,
                           BuildIndexBackupRegion::Create(device_.get(), backup_kv,
                                                          handle->replication_buffer));
    handle->build_backup->set_region_epoch(epoch);
  }
  regions_[region_id] = std::move(handle);
  return Status::Ok();
}

Status RegionServer::CloseRegion(uint32_t region_id) {
  std::shared_ptr<RegionHandle> handle;
  {
    std::lock_guard<std::mutex> lock(regions_mutex_);
    auto it = regions_.find(region_id);
    if (it == regions_.end()) {
      return Status::NotFound("region " + std::to_string(region_id));
    }
    handle = std::move(it->second);
    regions_.erase(it);
  }
  // Drain before teardown: an op that resolved the handle before the erase is
  // either inside `handle->mutex` (we wait for it here) or has yet to take it
  // (it will see `closed` and fail). Without this an in-flight put can be
  // acked against an engine this close is about to discard — the handover
  // dirty-tail path then silently loses the acked write.
  std::lock_guard<std::mutex> lock(handle->mutex);
  handle->closed = true;
  // The commit listener captures this server's telemetry plane; a primary
  // elsewhere may keep a ref to the buffer past this close.
  ClearCommitListener(handle.get());
  return Status::Ok();
}

StatusOr<std::shared_ptr<RegisteredBuffer>> RegionServer::GetReplicationBuffer(
    uint32_t region_id) {
  std::lock_guard<std::mutex> lock(regions_mutex_);
  auto it = regions_.find(region_id);
  if (it == regions_.end() || it->second->replication_buffer == nullptr) {
    return Status::NotFound("no backup region " + std::to_string(region_id));
  }
  return it->second->replication_buffer;
}

std::shared_ptr<RegionServer::RegionHandle> RegionServer::FindRegion(uint32_t region_id) const {
  std::lock_guard<std::mutex> lock(regions_mutex_);
  auto it = regions_.find(region_id);
  return it == regions_.end() ? nullptr : it->second;
}

std::unique_ptr<BackupChannel> RegionServer::MakeBackupChannel(
    uint32_t region_id, RegionServer* backup_server, std::shared_ptr<RegisteredBuffer> buffer) {
  const std::string backup_name = backup_server->name();
  const std::string base = name_ + ">r" + std::to_string(region_id) + ">" + backup_name;
  const MetricLabels labels{{"node", name_},
                            {"region", std::to_string(region_id)},
                            {"backup", backup_name}};
  auto client = std::make_unique<RpcClient>(fabric_, base,
                                            backup_server->replication_endpoint(),
                                            options_.replication_connection_buffer,
                                            telemetry_.get(), labels);
  // Per-stream queue-pair slots (PR 9): a dedicated connection — own rings,
  // own send lock — per shipping stream. Captures the endpoint, not the
  // server object: the channel may outlive this attach call, and the
  // endpoint's lifetime is what the base connection already depends on.
  ServerEndpoint* endpoint = backup_server->replication_endpoint();
  RpcBackupChannel::StreamClientFactory factory =
      [this, base, endpoint, labels](StreamId stream) -> std::unique_ptr<RpcClient> {
    MetricLabels stream_labels = labels;
    stream_labels.emplace_back("stream", std::to_string(stream));
    return std::make_unique<RpcClient>(fabric_, base + ">s" + std::to_string(stream), endpoint,
                                       options_.replication_connection_buffer, telemetry_.get(),
                                       stream_labels);
  };
  return std::make_unique<RpcBackupChannel>(std::move(client), region_id, std::move(buffer),
                                            options_.replication_policy.call_deadline_ns,
                                            std::move(factory));
}

Status RegionServer::AttachBackup(uint32_t region_id, RegionServer* backup_server,
                                  uint64_t epoch) {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr || !handle->is_primary) {
    return Status::FailedPrecondition("not primary for region " + std::to_string(region_id));
  }
  TEBIS_ASSIGN_OR_RETURN(std::shared_ptr<RegisteredBuffer> buffer,
                         backup_server->GetReplicationBuffer(region_id));
  std::unique_ptr<BackupChannel> channel =
      MakeBackupChannel(region_id, backup_server, std::move(buffer));
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  if (epoch != 0) {
    handle->primary->set_epoch(epoch);
  }
  handle->primary->AddBackup(std::move(channel));
  return Status::Ok();
}

Status RegionServer::AttachBackupWithFullSync(uint32_t region_id, RegionServer* backup_server,
                                              uint64_t epoch) {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr || !handle->is_primary) {
    return Status::FailedPrecondition("not primary for region " + std::to_string(region_id));
  }
  TEBIS_ASSIGN_OR_RETURN(std::shared_ptr<RegisteredBuffer> buffer,
                         backup_server->GetReplicationBuffer(region_id));
  std::unique_ptr<BackupChannel> channel =
      MakeBackupChannel(region_id, backup_server, std::move(buffer));
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  if (epoch != 0) {
    handle->primary->set_epoch(epoch);
  }
  TEBIS_RETURN_IF_ERROR(handle->primary->FullSync(channel.get()));
  handle->primary->AddBackup(std::move(channel));
  return Status::Ok();
}

Status RegionServer::DetachBackup(uint32_t region_id, const std::string& backup_name,
                                  uint64_t epoch) {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr || !handle->is_primary) {
    return Status::FailedPrecondition("not primary for region " + std::to_string(region_id));
  }
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  if (epoch != 0) {
    handle->primary->set_epoch(epoch);
  }
  handle->primary->RemoveBackup(backup_name);
  return Status::Ok();
}

Status RegionServer::PromoteRegion(uint32_t region_id, SegmentMap* log_map_out,
                                   uint64_t epoch) {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr || handle->is_primary) {
    return Status::FailedPrecondition("no backup region " + std::to_string(region_id));
  }
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  // New configuration generation: coordinator-authoritative when given,
  // locally monotonic otherwise.
  const uint64_t backup_epoch = handle->send_backup != nullptr
                                    ? handle->send_backup->region_epoch()
                                    : handle->build_backup->region_epoch();
  const uint64_t new_epoch = epoch != 0 ? epoch : backup_epoch + 1;
  // Fence our own buffer *before* reading it, so the deposed primary's
  // one-sided writes can no longer land; the snapshot is atomic with the
  // fence, so an in-flight write either completed before it or was rejected.
  // The image is replayed once the remaining backups are re-attached (so the
  // re-appends replicate).
  if (handle->replication_buffer != nullptr) {
    handle->promotion_buffer_image = handle->replication_buffer->FenceAndSnapshot(new_epoch);
  }
  std::unique_ptr<KvStore> store;
  SegmentMap log_map;
  if (handle->send_backup != nullptr) {
    log_map = handle->send_backup->log_map();
    TEBIS_ASSIGN_OR_RETURN(store, handle->send_backup->Promote(/*replay_rdma_buffer=*/false));
    handle->send_backup.reset();
  } else {
    log_map = handle->build_backup->log_map();
    TEBIS_ASSIGN_OR_RETURN(store, handle->build_backup->Promote(/*replay_rdma_buffer=*/false));
    handle->build_backup.reset();
  }
  if (log_map_out != nullptr) {
    *log_map_out = log_map;
  }
  // Kept for a standby master resuming a half-finished failover: re-keying
  // needs this map, and the backup object that produced it is gone.
  WireWriter w;
  log_map.Serialize(&w);
  handle->promotion_log_map = w.str();
  TEBIS_ASSIGN_OR_RETURN(
      handle->primary,
      PrimaryRegion::CreateFromStore(device_.get(), options_.replication_mode, std::move(store)));
  handle->primary->set_epoch(new_epoch);
  InstallPrimaryPolicy(region_id, handle->primary.get());
  // A promoted region keeps background compactions: adopt the server pool the
  // backup engine never needed (ROADMAP follow-on from the pipeline work).
  if (compaction_pool_ != nullptr) {
    TEBIS_RETURN_IF_ERROR(handle->primary->store()->AdoptCompactionPool(compaction_pool_.get()));
  }
  handle->is_primary = true;
  return Status::Ok();
}

StatusOr<SegmentMap> RegionServer::GetPromotionLogMap(uint32_t region_id) const {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr) {
    return Status::NotFound("region " + std::to_string(region_id));
  }
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  if (handle->promotion_log_map.empty()) {
    return Status::NotFound("region " + std::to_string(region_id) + " was never promoted");
  }
  WireReader r(Slice(handle->promotion_log_map));
  return SegmentMap::Deserialize(&r);
}

Status RegionServer::FlushRegionTail(uint32_t region_id) {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr || !handle->is_primary) {
    return Status::FailedPrecondition("region not primary: " + std::to_string(region_id));
  }
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  return handle->primary->store()->value_log()->FlushTail();
}

Status RegionServer::DemoteRegion(uint32_t region_id, const SegmentMap& new_primary_log_map,
                                  uint64_t epoch) {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr || !handle->is_primary) {
    return Status::FailedPrecondition("region not primary: " + std::to_string(region_id));
  }
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  const uint64_t backup_epoch = epoch != 0 ? epoch : handle->primary->epoch();
  // Validate BEFORE gutting the primary: a put that raced in after the
  // coordinator's tail flush must leave the region serving (the caller
  // retries the move), not a husk whose engine was moved out and destroyed.
  // Covers both tails (PR 9): a dual-tail log may have a clean main tail but
  // unflushed large-value records.
  if (handle->primary->store()->value_log()->HasUnflushedRecords()) {
    return Status::FailedPrecondition("tail not flushed before demotion");
  }
  std::unique_ptr<KvStore> store = handle->primary->ReleaseStore();
  // The demoted node's log map is the inverse of the promoted node's
  // (new-primary segment -> local segment), ordered by the local flush order.
  TEBIS_ASSIGN_OR_RETURN(SegmentMap inverted, new_primary_log_map.Invert());
  std::vector<SegmentId> flush_order;
  for (SegmentId mine : store->value_log()->flushed_segments()) {
    TEBIS_ASSIGN_OR_RETURN(SegmentId theirs, new_primary_log_map.Lookup(mine));
    flush_order.push_back(theirs);
  }
  handle->replication_buffer = fabric_->RegisterBuffer(
      /*owner=*/name_, /*writer=*/"primary-of-r" + std::to_string(region_id),
      2 * options_.device_options.segment_size);
  InstallCommitListener(handle->replication_buffer.get());
  const KvStoreOptions backup_kv = RegionKvOptions(region_id, "backup");
  if (options_.replication_mode == ReplicationMode::kSendIndex) {
    KvStore::Parts parts = KvStore::Decompose(std::move(store));
    TEBIS_ASSIGN_OR_RETURN(
        handle->send_backup,
        SendIndexBackupRegion::CreateFromParts(device_.get(), backup_kv,
                                               handle->replication_buffer, std::move(parts.log),
                                               std::move(parts.levels), std::move(inverted),
                                               std::move(flush_order), parts.l0_replay_from));
    handle->send_backup->set_region_epoch(backup_epoch);
  } else {
    TEBIS_ASSIGN_OR_RETURN(
        handle->build_backup,
        BuildIndexBackupRegion::CreateFromStore(device_.get(), backup_kv,
                                                handle->replication_buffer, std::move(store),
                                                std::move(inverted), std::move(flush_order)));
    handle->build_backup->set_region_epoch(backup_epoch);
  }
  handle->primary.reset();
  handle->is_primary = false;
  return Status::Ok();
}

Status RegionServer::AdoptNewPrimaryLogMap(uint32_t region_id, const SegmentMap& map,
                                           uint64_t epoch) {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr || handle->is_primary) {
    return Status::FailedPrecondition("no backup region " + std::to_string(region_id));
  }
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  if (handle->send_backup != nullptr) {
    return handle->send_backup->AdoptNewPrimaryLogMap(map, epoch);
  }
  if (handle->build_backup != nullptr && epoch != 0) {
    handle->build_backup->set_region_epoch(epoch);
  }
  return Status::Ok();  // Build-Index backups key nothing on primary segments
}

Status RegionServer::ReplayPromotionBuffer(uint32_t region_id) {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr || !handle->is_primary) {
    return Status::FailedPrecondition("region not primary: " + std::to_string(region_id));
  }
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  Status status = handle->primary->ReplayBufferImage(Slice(handle->promotion_buffer_image));
  handle->promotion_buffer_image.clear();
  return status;
}

void RegionServer::SetRegionMap(std::shared_ptr<const RegionMap> map) {
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    map_ = map;
  }
  // Read leases this server currently holds (PR 6): tracked as a gauge so a
  // stats scrape shows which replicas the master considers read-serving.
  if (map != nullptr) {
    int64_t leases = 0;
    for (const auto& region : map->regions()) {
      if (region.HasReadLease(name_)) {
        leases++;
      }
    }
    telemetry_->metrics()->GetGauge("server.read_leases", {{"node", name_}})->Set(leases);
  }
}

std::shared_ptr<const RegionMap> RegionServer::region_map() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return map_;
}

bool RegionServer::IsPrimaryFor(uint32_t region_id) const {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  return handle != nullptr && handle->is_primary;
}

StatusOr<uint64_t> RegionServer::BackupEpochRejected(uint32_t region_id) const {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr) {
    return Status::NotFound("region " + std::to_string(region_id));
  }
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  if (handle->send_backup != nullptr) {
    return handle->send_backup->stats().epoch_rejected;
  }
  if (handle->build_backup != nullptr) {
    return handle->build_backup->stats().epoch_rejected;
  }
  return Status::FailedPrecondition("region " + std::to_string(region_id) + " is not a backup");
}

StatusOr<ReplicationStats> RegionServer::PrimaryReplicationStats(uint32_t region_id) const {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr || !handle->is_primary) {
    return Status::NotFound("no primary region " + std::to_string(region_id));
  }
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  return handle->primary->replication_stats();
}

// --- request observability (PR 10) ----------------------------------------

void RegionServer::ObserveRequest(SlowOpType op, Slice key, uint32_t region_id, uint64_t epoch,
                                  TraceId trace, uint64_t start_ns,
                                  const RequestStageTimings& stages) {
  const uint64_t end_ns = NowNanos();
  const uint64_t total_ns = end_ns - start_ns;
  if (trace != kNoTrace) {
    // The exemplar links a p99 bucket in the (federated) latency histogram
    // back to this trace id.
    request_latency_[static_cast<size_t>(op)]->Record(total_ns, trace);
    TraceBuffer* traces = telemetry_->traces();
    if (traces->enabled()) {
      SpanRecord span;
      span.trace = trace;
      span.name = "primary_apply";
      span.node = name_;
      span.start_ns = start_ns;
      span.end_ns = end_ns;
      span.bytes = key.size();
      traces->Record(std::move(span));
    }
  }
  telemetry_->slow_ops()->MaybeRecord(op, std::string_view(key.data(), key.size()), region_id,
                                      epoch, trace, total_ns, &stages, end_ns);
}

void RegionServer::InstallCommitListener(RegisteredBuffer* buffer) {
  // The listener captures the raw plane pointer: it runs on the *primary's*
  // writer thread (the simulation stand-in for the backup noticing committed
  // bytes), so it must not touch handle state. Cleared on close/crash/destroy
  // before telemetry_ dies.
  Telemetry* telemetry = telemetry_.get();
  buffer->set_commit_listener([telemetry, node = name_](TraceId trace, uint64_t epoch,
                                                        uint64_t offset, size_t bytes,
                                                        uint64_t start_ns, uint64_t end_ns) {
    (void)epoch;
    (void)offset;
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

void RegionServer::ClearCommitListener(RegionHandle* handle) {
  if (handle->replication_buffer != nullptr) {
    handle->replication_buffer->set_commit_listener(nullptr);
  }
}

// --- request handling --------------------------------------------------------

void RegionServer::ReplyError(const ReplyContext& ctx, MessageType reply_type,
                              const Status& status) {
  Status sent = ctx.SendReply(reply_type, kFlagError, status.ToString());
  if (!sent.ok()) {
    TEBIS_LOG(kError) << "failed to send error reply: " << sent.ToString();
  }
}

void RegionServer::HandleRequest(const MessageHeader& header, std::string payload,
                                 ReplyContext ctx) {
  const auto type = static_cast<MessageType>(header.type);
  const MessageType reply_type = ReplyTypeFor(type);

  if (type == MessageType::kGetRegionMap) {
    std::shared_ptr<const RegionMap> map = region_map();
    if (map == nullptr) {
      ReplyError(ctx, reply_type, Status::Unavailable("no region map yet"));
      return;
    }
    std::string serialized = map->Serialize();
    if (!ctx.ReplyFits(serialized.size())) {
      (void)ctx.SendReply(reply_type, kFlagTruncatedReply,
                          EncodeTruncatedReply(serialized.size()));
      return;
    }
    (void)ctx.SendReply(reply_type, 0, serialized);
    return;
  }

  if (type == MessageType::kStatsScrape) {
    // Server-wide (region-independent), like the region map: one JSON payload
    // with the metrics snapshot and recent pipeline spans — or, when the
    // request carries the binary format byte (PR 10), the structured
    // NodeScrape the master's federation fan-out merges.
    const bool binary =
        !payload.empty() && static_cast<uint8_t>(payload[0]) == kScrapeFormatBinary;
    std::string scrape =
        binary ? EncodeNodeScrape(name_, telemetry_->Snapshot(),
                                  telemetry_->slow_ops()->Snapshot())
               : ScrapeJson();
    if (!ctx.ReplyFits(scrape.size())) {
      (void)ctx.SendReply(reply_type, kFlagTruncatedReply, EncodeTruncatedReply(scrape.size()));
      return;
    }
    (void)ctx.SendReply(reply_type, 0, scrape);
    return;
  }

  // The shared ref pins the handle for the duration of the op; CloseRegion
  // may race this dispatch, in which case the handler observes `closed` under
  // the region mutex and answers wrong-region (the client refreshes its map).
  std::shared_ptr<RegionHandle> region = FindRegion(header.region_id);
  if (region == nullptr) {
    (void)ctx.SendReply(reply_type, kFlagWrongRegion, Slice());
    return;
  }

  switch (type) {
    case MessageType::kPut:
    case MessageType::kGet:
    case MessageType::kDelete:
    case MessageType::kScan:
    case MessageType::kKvBatch:
      HandleKvOp(region.get(), header, payload, ctx);
      return;
    case MessageType::kReplicaGet:
    case MessageType::kReplicaScan:
      HandleReplicaRead(region.get(), header, payload, ctx);
      return;
    case MessageType::kFlushLog:
    case MessageType::kCompactionBegin:
    case MessageType::kIndexSegment:
    case MessageType::kFilterBlock:
    case MessageType::kCompactionEnd:
    case MessageType::kLogTrim:
    case MessageType::kSetReplayStart:
      HandleReplicationOp(region.get(), header, payload, ctx);
      return;
    case MessageType::kRepairFetch:
      HandleRepairFetch(region.get(), header, payload, ctx);
      return;
    default:
      ReplyError(ctx, reply_type, Status::InvalidArgument("unexpected message type"));
  }
}

void RegionServer::HandleKvOp(RegionHandle* region, const MessageHeader& header, Slice payload,
                              const ReplyContext& ctx) {
  const auto type = static_cast<MessageType>(header.type);
  const MessageType reply_type = ReplyTypeFor(type);
  std::lock_guard<std::mutex> lock(region->mutex);
  if (region->closed) {
    // Raced with CloseRegion: the engines are gone or about to be.
    (void)ctx.SendReply(reply_type, kFlagWrongRegion, Slice());
    return;
  }
  if (!region->is_primary) {
    // The client's map is stale: this replica is a backup (§3.1).
    (void)ctx.SendReply(reply_type, kFlagWrongRegion, Slice());
    return;
  }
  PrimaryRegion* primary = region->primary.get();
  switch (type) {
    case MessageType::kPut: {
      Slice key, value;
      TraceId trace = kNoTrace;
      if (Status s = DecodePutRequest(payload, &key, &value, &trace); !s.ok()) {
        ReplyError(ctx, reply_type, s);
        return;
      }
      // A trace scope is installed only when the op is sampled or the slow-op
      // log wants this type timed, so untraced ops pay no clock reads.
      const bool timed =
          trace != kNoTrace || telemetry_->slow_ops()->threshold(SlowOpType::kPut) != 0;
      std::optional<ScopedRequestTrace> scope;
      uint64_t start_ns = 0;
      if (timed) {
        scope.emplace(trace);
        start_ns = NowNanos();
      }
      if (Status s = primary->Put(key, value); !s.ok()) {
        ReplyError(ctx, reply_type, s);
        return;
      }
      if (timed) {
        ObserveRequest(SlowOpType::kPut, key, header.region_id, primary->epoch(), trace,
                       start_ns, scope->stages());
      }
      // The reply carries the commit token the write reached (PR 6);
      // read-your-writes clients fold it into their replica read fence.
      uint64_t token_epoch, token_seq;
      primary->CommitToken(&token_epoch, &token_seq);
      const std::string token = EncodeCommitToken(token_epoch, token_seq);
      (void)ctx.SendReply(reply_type, 0,
                          ctx.ReplyFits(token.size()) ? Slice(token) : Slice());
      return;
    }
    case MessageType::kDelete: {
      Slice key;
      TraceId trace = kNoTrace;
      if (Status s = DecodeKeyRequest(payload, &key, &trace); !s.ok()) {
        ReplyError(ctx, reply_type, s);
        return;
      }
      const bool timed = trace != kNoTrace ||
                         telemetry_->slow_ops()->threshold(SlowOpType::kDelete) != 0;
      std::optional<ScopedRequestTrace> scope;
      uint64_t start_ns = 0;
      if (timed) {
        scope.emplace(trace);
        start_ns = NowNanos();
      }
      if (Status s = primary->Delete(key); !s.ok()) {
        ReplyError(ctx, reply_type, s);
        return;
      }
      if (timed) {
        ObserveRequest(SlowOpType::kDelete, key, header.region_id, primary->epoch(), trace,
                       start_ns, scope->stages());
      }
      uint64_t token_epoch, token_seq;
      primary->CommitToken(&token_epoch, &token_seq);
      const std::string token = EncodeCommitToken(token_epoch, token_seq);
      (void)ctx.SendReply(reply_type, 0,
                          ctx.ReplyFits(token.size()) ? Slice(token) : Slice());
      return;
    }
    case MessageType::kGet: {
      Slice key;
      TraceId trace = kNoTrace;
      if (Status s = DecodeKeyRequest(payload, &key, &trace); !s.ok()) {
        ReplyError(ctx, reply_type, s);
        return;
      }
      const bool timed =
          trace != kNoTrace || telemetry_->slow_ops()->threshold(SlowOpType::kGet) != 0;
      std::optional<ScopedRequestTrace> scope;
      uint64_t start_ns = 0;
      if (timed) {
        scope.emplace(trace);
        start_ns = NowNanos();
      }
      auto value = primary->Get(key);
      if (timed && (value.ok() || value.status().IsNotFound())) {
        ObserveRequest(SlowOpType::kGet, key, header.region_id, primary->epoch(), trace,
                       start_ns, scope->stages());
      }
      if (!value.ok()) {
        ReplyError(ctx, reply_type, value.status());
        return;
      }
      if (!ctx.ReplyFits(value->size())) {
        // §3.4.1: the reply does not fit the client's allocation; tell the
        // client how much to allocate (one extra round trip).
        (void)ctx.SendReply(reply_type, kFlagTruncatedReply,
                            EncodeTruncatedReply(value->size()));
        return;
      }
      (void)ctx.SendReply(reply_type, 0, *value);
      return;
    }
    case MessageType::kKvBatch: {
      // Group commit (PR 9): the whole frame applies under one engine
      // reservation and one coalesced replication doorbell; the reply is one
      // status per op plus the commit token the group reached.
      std::vector<KvBatchOp> ops;
      TraceId trace = kNoTrace;
      if (Status s = DecodeKvBatchRequest(payload, &ops, &trace); !s.ok()) {
        ReplyError(ctx, reply_type, s);
        return;
      }
      std::vector<KvStore::BatchOp> batch;
      batch.reserve(ops.size());
      for (const KvBatchOp& op : ops) {
        batch.push_back({op.key, op.value, op.tombstone});
      }
      const bool timed = trace != kNoTrace ||
                         telemetry_->slow_ops()->threshold(SlowOpType::kBatch) != 0;
      std::optional<ScopedRequestTrace> scope;
      uint64_t start_ns = 0;
      if (timed) {
        scope.emplace(trace);
        start_ns = NowNanos();
      }
      std::vector<Status> statuses;
      // The batch-level status is already folded into the per-op statuses
      // (PrimaryRegion::WriteBatch fails un-replicated ops individually), so
      // the frame itself always answers with the per-op vector.
      (void)primary->WriteBatch(batch, &statuses);
      if (timed) {
        ObserveRequest(SlowOpType::kBatch, ops.empty() ? Slice() : ops.front().key,
                       header.region_id, primary->epoch(), trace, start_ns, scope->stages());
      }
      std::vector<KvBatchOpStatus> op_statuses;
      op_statuses.reserve(statuses.size());
      for (const Status& s : statuses) {
        op_statuses.push_back({static_cast<uint32_t>(s.code()), s.ok() ? "" : s.ToString()});
      }
      uint64_t token_epoch, token_seq;
      primary->CommitToken(&token_epoch, &token_seq);
      const std::string encoded = EncodeKvBatchReply(op_statuses, token_epoch, token_seq);
      if (!ctx.ReplyFits(encoded.size())) {
        (void)ctx.SendReply(reply_type, kFlagTruncatedReply,
                            EncodeTruncatedReply(encoded.size()));
        return;
      }
      (void)ctx.SendReply(reply_type, 0, encoded);
      return;
    }
    case MessageType::kScan: {
      Slice start;
      uint32_t limit;
      TraceId trace = kNoTrace;
      if (Status s = DecodeScanRequest(payload, &start, &limit, &trace); !s.ok()) {
        ReplyError(ctx, reply_type, s);
        return;
      }
      const bool timed =
          trace != kNoTrace || telemetry_->slow_ops()->threshold(SlowOpType::kScan) != 0;
      std::optional<ScopedRequestTrace> scope;
      uint64_t start_ns = 0;
      if (timed) {
        scope.emplace(trace);
        start_ns = NowNanos();
      }
      auto pairs = primary->Scan(start, limit);
      if (timed && pairs.ok()) {
        ObserveRequest(SlowOpType::kScan, start, header.region_id, primary->epoch(), trace,
                       start_ns, scope->stages());
      }
      if (!pairs.ok()) {
        ReplyError(ctx, reply_type, pairs.status());
        return;
      }
      std::string encoded = EncodeScanReply(*pairs);
      if (!ctx.ReplyFits(encoded.size())) {
        (void)ctx.SendReply(reply_type, kFlagTruncatedReply,
                            EncodeTruncatedReply(encoded.size()));
        return;
      }
      (void)ctx.SendReply(reply_type, 0, encoded);
      return;
    }
    default:
      ReplyError(ctx, reply_type, Status::Internal("bad kv op"));
  }
}

void RegionServer::HandleReplicaRead(RegionHandle* region, const MessageHeader& header,
                                     Slice payload, const ReplyContext& ctx) {
  const auto type = static_cast<MessageType>(header.type);
  const MessageType reply_type = ReplyTypeFor(type);
  std::lock_guard<std::mutex> lock(region->mutex);
  if (region->closed) {
    // Raced with CloseRegion: the engines are gone or about to be.
    (void)ctx.SendReply(reply_type, kFlagWrongRegion, Slice());
    return;
  }
  if (region->is_primary) {
    // The client's map is stale: this server was promoted. Answering
    // kFlagWrongRegion (instead of serving from the primary engine) keeps
    // replica-read counters honest — a "replica read" is only ever counted
    // when a backup engine actually served it.
    (void)ctx.SendReply(reply_type, kFlagWrongRegion, Slice());
    return;
  }
  SendIndexBackupRegion* send = region->send_backup.get();
  BuildIndexBackupRegion* build = region->build_backup.get();
  if (send == nullptr && build == nullptr) {
    (void)ctx.SendReply(reply_type, kFlagWrongRegion, Slice());
    return;
  }
  switch (type) {
    case MessageType::kReplicaGet: {
      Slice key;
      uint64_t min_epoch, min_seq;
      if (Status s = DecodeReplicaGetRequest(payload, &key, &min_epoch, &min_seq); !s.ok()) {
        ReplyError(ctx, reply_type, s);
        return;
      }
      uint64_t visible_seq = 0;
      auto value = send != nullptr ? send->Get(key, min_epoch, min_seq, &visible_seq)
                                   : build->Get(key, min_epoch, min_seq, &visible_seq);
      if (!value.ok()) {
        // FailedPrecondition (fenced read) and NotFound both travel as error
        // replies; the client keys off the status-string prefix.
        ReplyError(ctx, reply_type, value.status());
        return;
      }
      std::string encoded = EncodeReplicaGetReply(*value, visible_seq);
      if (!ctx.ReplyFits(encoded.size())) {
        (void)ctx.SendReply(reply_type, kFlagTruncatedReply,
                            EncodeTruncatedReply(encoded.size()));
        return;
      }
      (void)ctx.SendReply(reply_type, 0, encoded);
      return;
    }
    case MessageType::kReplicaScan: {
      Slice start;
      uint32_t limit;
      uint64_t min_epoch, min_seq;
      if (Status s = DecodeReplicaScanRequest(payload, &start, &limit, &min_epoch, &min_seq);
          !s.ok()) {
        ReplyError(ctx, reply_type, s);
        return;
      }
      uint64_t visible_seq = 0;
      auto pairs = send != nullptr ? send->Scan(start, limit, min_epoch, min_seq, &visible_seq)
                                   : build->Scan(start, limit, min_epoch, min_seq, &visible_seq);
      if (!pairs.ok()) {
        ReplyError(ctx, reply_type, pairs.status());
        return;
      }
      std::string encoded = EncodeReplicaScanReply(*pairs, visible_seq);
      if (!ctx.ReplyFits(encoded.size())) {
        (void)ctx.SendReply(reply_type, kFlagTruncatedReply,
                            EncodeTruncatedReply(encoded.size()));
        return;
      }
      (void)ctx.SendReply(reply_type, 0, encoded);
      return;
    }
    default:
      ReplyError(ctx, reply_type, Status::Internal("bad replica read op"));
  }
}

void RegionServer::HandleReplicationOp(RegionHandle* region, const MessageHeader& header,
                                       Slice payload, const ReplyContext& ctx) {
  const auto type = static_cast<MessageType>(header.type);
  const MessageType reply_type = ReplyTypeFor(type);
  std::lock_guard<std::mutex> lock(region->mutex);
  if (region->closed) {
    // Raced with CloseRegion: the engines are gone or about to be.
    (void)ctx.SendReply(reply_type, kFlagWrongRegion, Slice());
    return;
  }
  if (region->is_primary) {
    ReplyError(ctx, reply_type, Status::FailedPrecondition("replication op on primary"));
    return;
  }
  // Fencing (§3.5): every replication message carries the sender's epoch;
  // Handle rejects traffic from a deposed primary before applying it.
  ReplicationMessageHandler* backup = region->build_backup.get();
  if (region->send_backup != nullptr) {
    backup = region->send_backup.get();
  }
  StatusOr<ReplicationMessage> msg = DecodeReplicationMessage(type, payload);
  Status status = msg.ok() ? backup->Handle(*msg) : msg.status();
  if (!status.ok()) {
    ReplyError(ctx, reply_type, status);
    return;
  }
  (void)ctx.SendReply(reply_type, 0, Slice());
}

void RegionServer::HandleRepairFetch(RegionHandle* region, const MessageHeader& header,
                                     Slice payload, const ReplyContext& ctx) {
  const MessageType reply_type = ReplyTypeFor(static_cast<MessageType>(header.type));
  std::lock_guard<std::mutex> lock(region->mutex);
  if (region->closed) {
    (void)ctx.SendReply(reply_type, kFlagWrongRegion, Slice());
    return;
  }
  RepairFetchMsg msg{};
  if (Status s = DecodeRepairFetch(payload, &msg); !s.ok()) {
    ReplyError(ctx, reply_type, s);
    return;
  }
  // Fencing: repair bytes cross replicas only within one configuration
  // generation. A stale donor must never feed bytes into a newer epoch, and a
  // stale requester must not resurrect bytes a newer epoch replaced — so the
  // epochs must match exactly, not merely be "new enough".
  uint64_t local_epoch = 0;
  StatusOr<std::string> bytes = Status::Internal("unreachable");
  uint32_t crc = 0;
  if (region->is_primary) {
    local_epoch = region->primary->epoch();
    if (msg.epoch != local_epoch) {
      ReplyError(ctx, reply_type,
                 Status::FailedPrecondition("repair fetch epoch " + std::to_string(msg.epoch) +
                                            " != donor epoch " + std::to_string(local_epoch)));
      return;
    }
    bytes = region->primary->store()->ReadLevelSegmentVerified(
        static_cast<int>(msg.level), static_cast<size_t>(msg.seg_index));
    if (bytes.ok()) {
      crc = Crc32c(bytes->data(), bytes->size());
    }
  } else if (region->send_backup != nullptr) {
    local_epoch = region->send_backup->region_epoch();
    if (msg.epoch != local_epoch) {
      ReplyError(ctx, reply_type,
                 Status::FailedPrecondition("repair fetch epoch " + std::to_string(msg.epoch) +
                                            " != donor epoch " + std::to_string(local_epoch)));
      return;
    }
    bytes = region->send_backup->ServeRepairFetch(msg.level, msg.seg_index, &crc);
  } else {
    ReplyError(ctx, reply_type,
               Status::FailedPrecondition(
                   "Build-Index backup holds no primary-space index segments"));
    return;
  }
  if (!bytes.ok()) {
    ReplyError(ctx, reply_type, bytes.status());
    return;
  }
  const std::string encoded = EncodeRepairSegment(
      RepairSegmentMsg{local_epoch, msg.level, msg.seg_index, crc, Slice(*bytes)});
  if (!ctx.ReplyFits(encoded.size())) {
    (void)ctx.SendReply(reply_type, kFlagTruncatedReply, EncodeTruncatedReply(encoded.size()));
    return;
  }
  (void)ctx.SendReply(reply_type, 0, encoded);
}

StatusOr<KvStore::ScrubReport> RegionServer::ScrubRegion(uint32_t region_id,
                                                         const KvStore::ScrubOptions& options) {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr) {
    return Status::NotFound("region " + std::to_string(region_id));
  }
  KvStore* store = nullptr;
  SendIndexBackupRegion* send = nullptr;
  {
    std::lock_guard<std::mutex> lock(handle->mutex);
    if (handle->closed) {
      return Status::NotFound("region " + std::to_string(region_id) + " closed");
    }
    if (handle->is_primary) {
      store = handle->primary->store();
    } else if (handle->send_backup != nullptr) {
      send = handle->send_backup.get();
    } else {
      return Status::FailedPrecondition("Build-Index backup has no shipped index to scrub");
    }
  }
  // Unlocked from here: a paced scrub must not hold the region mutex, or
  // client ops and the primary's replication calls would stall behind it.
  return store != nullptr ? store->Scrub(options) : send->Scrub(options);
}

StatusOr<std::vector<int>> RegionServer::QuarantinedLevels(uint32_t region_id) const {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr) {
    return Status::NotFound("region " + std::to_string(region_id));
  }
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (handle->closed) {
    return Status::NotFound("region " + std::to_string(region_id) + " closed");
  }
  if (handle->is_primary) {
    return handle->primary->store()->QuarantinedLevels();
  }
  if (handle->send_backup != nullptr) {
    return handle->send_backup->QuarantinedLevels();
  }
  return std::vector<int>{};
}

Status RegionServer::RepairRegion(uint32_t region_id, RegionServer* peer) {
  std::shared_ptr<RegionHandle> handle = FindRegion(region_id);
  if (handle == nullptr) {
    return Status::NotFound("region " + std::to_string(region_id));
  }
  KvStore* store = nullptr;
  SendIndexBackupRegion* send = nullptr;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(handle->mutex);
    if (handle->closed) {
      return Status::NotFound("region " + std::to_string(region_id) + " closed");
    }
    if (handle->is_primary) {
      store = handle->primary->store();
      epoch = handle->primary->epoch();
    } else if (handle->send_backup != nullptr) {
      send = handle->send_backup.get();
      epoch = send->region_epoch();
    } else {
      return Status::FailedPrecondition("Build-Index backup repairs by rebuilding, not fetching");
    }
  }
  // One connection for the whole repair; a full index segment plus the
  // repair-reply framing must fit the reply allocation.
  const size_t reply_alloc = options_.device_options.segment_size + 256;
  RpcClient client(fabric_,
                   name_ + ">repair-r" + std::to_string(region_id) + ">" + peer->name(),
                   peer->replication_endpoint(),
                   std::max(options_.replication_connection_buffer, 4 * reply_alloc),
                   telemetry_.get(),
                   MetricLabels{{"node", name_},
                                {"region", std::to_string(region_id)},
                                {"peer", peer->name()}});
  KvStore::SegmentFetcher fetch = [&](int level, size_t seg_index) -> StatusOr<std::string> {
    RepairFetchMsg msg{epoch, static_cast<uint32_t>(level), static_cast<uint64_t>(seg_index)};
    TEBIS_ASSIGN_OR_RETURN(
        RpcReply reply, client.Call(MessageType::kRepairFetch, region_id, EncodeRepairFetch(msg),
                                    reply_alloc, /*map_version=*/0,
                                    options_.replication_policy.call_deadline_ns));
    if (reply.header.flags & kFlagWrongRegion) {
      return Status::NotFound("peer " + peer->name() + " does not host region " +
                              std::to_string(region_id));
    }
    if (reply.header.flags & kFlagError) {
      const std::string detail =
          "peer " + peer->name() + " rejected repair fetch: " + reply.payload;
      // Epoch fencing keeps its code across the wire (same contract as the
      // replication channels): FailedPrecondition means "wrong generation",
      // never "try another segment".
      if (reply.payload.rfind("FailedPrecondition", 0) == 0) {
        return Status::FailedPrecondition(detail);
      }
      return Status::Internal(detail);
    }
    RepairSegmentMsg seg{};
    TEBIS_RETURN_IF_ERROR(DecodeRepairSegment(Slice(reply.payload), &seg));
    if (seg.level != static_cast<uint32_t>(level) || seg.seg_index != seg_index) {
      return Status::Internal("repair reply addresses the wrong segment");
    }
    if (Crc32c(seg.data.data(), seg.data.size()) != seg.crc) {
      return Status::Corruption("repair segment for level " + std::to_string(level) +
                                " mangled in flight");
    }
    return std::string(seg.data.data(), seg.data.size());
  };
  return store != nullptr ? store->RepairQuarantinedLevels(fetch)
                          : send->RepairQuarantinedLevels(fetch);
}

RegionServerStats RegionServer::Aggregate() const {
  RegionServerStats out;
  std::lock_guard<std::mutex> lock(regions_mutex_);
  for (const auto& [id, handle] : regions_) {
    std::lock_guard<std::mutex> region_lock(handle->mutex);
    if (handle->is_primary && handle->primary != nullptr) {
      const KvStoreStats& kv = handle->primary->store()->stats();
      out.puts += kv.puts;
      out.gets += kv.gets;
      out.deletes += kv.deletes;
      out.scans += kv.scans;
      out.compactions += kv.compactions;
      out.insert_l0_cpu_ns += kv.insert_l0_cpu_ns;
      out.compaction_cpu_ns += kv.compaction_cpu_ns;
      out.get_cpu_ns += kv.get_cpu_ns;
      out.l0_memory_bytes += handle->primary->store()->l0_memory_bytes();
      const ReplicationStats& rs = handle->primary->replication_stats();
      out.log_replication_cpu_ns += rs.log_replication_cpu_ns;
      out.send_index_cpu_ns += rs.send_index_cpu_ns;
      out.index_bytes_shipped += rs.index_bytes_shipped;
    } else if (handle->send_backup != nullptr) {
      out.rewrite_index_cpu_ns += handle->send_backup->stats().rewrite_cpu_ns;
    } else if (handle->build_backup != nullptr) {
      out.backup_insert_cpu_ns += handle->build_backup->stats().insert_cpu_ns;
      out.compaction_cpu_ns += handle->build_backup->store()->stats().compaction_cpu_ns;
      out.compactions += handle->build_backup->store()->stats().compactions;
      out.l0_memory_bytes += handle->build_backup->l0_memory_bytes();
    }
  }
  return out;
}

}  // namespace tebis
