#include "src/cluster/region_server.h"

#include "src/cluster/kv_wire.h"
#include "src/cluster/stats_wire.h"
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

void ReplyError(const ReplyContext& ctx, MessageType reply_type, const Status& status) {
  Status sent = ctx.SendReply(reply_type, kFlagError, status.ToString());
  if (!sent.ok()) {
    TEBIS_LOG(kError) << "failed to send error reply: " << sent.ToString();
  }
}

// Replies with `payload`, or — when it does not fit the client's allocation —
// with the size to allocate (§3.4.1: one extra round trip).
void ReplyOrTruncate(const ReplyContext& ctx, MessageType reply_type, Slice payload) {
  if (!ctx.ReplyFits(payload.size())) {
    (void)ctx.SendReply(reply_type, kFlagTruncatedReply, EncodeTruncatedReply(payload.size()));
    return;
  }
  (void)ctx.SendReply(reply_type, 0, payload);
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
}

RegionServer::~RegionServer() { Stop(); }

Status RegionServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  TEBIS_ASSIGN_OR_RETURN(device_, BlockDevice::Create(options_.device_options));
  if (options_.expected_regions > 0) {
    // Split the server's shard-lock budget across the stores it will host; a
    // standalone store keeps the configured default.
    options_.kv_options.cache_shards = PageCache::ShardsForStores(options_.expected_regions);
  }
  if (options_.compaction_workers > 0) {
    compaction_pool_ = std::make_unique<WorkerPool>(options_.compaction_workers);
    compaction_pool_->Start();
  }
  host_ = std::make_unique<RegionHost>(
      name_, fabric_, telemetry_.get(), device_.get(), compaction_pool_.get(),
      options_.kv_options, options_.replication_mode,
      [this](uint32_t region_id, PrimaryRegion* primary) {
        InstallPrimaryPolicy(region_id, primary);
      });
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
  // Per-stream shipping credit: each backup's in-flight index bytes are
  // bounded by its shared replication connection buffer, split across the
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
  if (host_ != nullptr) {
    host_->Clear();
  }
  coordinator_->ExpireSession(session_);
}

// --- admin API ------------------------------------------------------------

StatusOr<RegionHost::Locked> RegionServer::LockRegion(uint32_t region_id,
                                                      RegionHost::Role role) const {
  if (host_ == nullptr) {
    return Status::FailedPrecondition("server " + name_ + " not started");
  }
  return host_->Lock(region_id, role);
}

Status RegionServer::OpenPrimaryRegion(uint32_t region_id, uint64_t epoch) {
  return host_->OpenPrimary(region_id, epoch);
}

Status RegionServer::OpenBackupRegion(uint32_t region_id, uint64_t epoch) {
  // The writer is whichever server is primary at the time, so the buffer
  // is named for the role rather than a server.
  return host_->OpenBackup(region_id, epoch, "primary-of-r" + std::to_string(region_id));
}

Status RegionServer::CloseRegion(uint32_t region_id) {
  if (host_ == nullptr) {
    return Status::NotFound("region " + std::to_string(region_id));
  }
  return host_->Close(region_id);
}

StatusOr<std::shared_ptr<RegisteredBuffer>> RegionServer::GetReplicationBuffer(
    uint32_t region_id) {
  if (host_ == nullptr) {
    return Status::NotFound("no backup region " + std::to_string(region_id));
  }
  return host_->ReplicationBuffer(region_id);
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
  // A dedicated connection — own rings, own send lock — per shipping stream.
  // Captures the endpoint, not the server object: the channel may outlive
  // this attach call, and the endpoint's lifetime is what the base
  // connection already depends on.
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

Status RegionServer::Attach(uint32_t region_id, RegionServer* backup_server, uint64_t epoch,
                            bool full_sync) {
  if (!IsPrimaryFor(region_id)) {
    return Status::FailedPrecondition("not primary for region " + std::to_string(region_id));
  }
  TEBIS_ASSIGN_OR_RETURN(std::shared_ptr<RegisteredBuffer> buffer,
                         backup_server->GetReplicationBuffer(region_id));
  std::unique_ptr<BackupChannel> channel =
      MakeBackupChannel(region_id, backup_server, std::move(buffer));
  TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked region,
                         LockRegion(region_id, RegionHost::Role::kPrimary));
  if (epoch != 0) {
    region->primary->set_epoch(epoch);
  }
  if (full_sync) {
    TEBIS_RETURN_IF_ERROR(region->primary->FullSync(channel.get()));
  }
  region->primary->AddBackup(std::move(channel));
  return Status::Ok();
}

Status RegionServer::AttachBackup(uint32_t region_id, RegionServer* backup_server,
                                  uint64_t epoch) {
  return Attach(region_id, backup_server, epoch, /*full_sync=*/false);
}

Status RegionServer::AttachBackupWithFullSync(uint32_t region_id, RegionServer* backup_server,
                                              uint64_t epoch) {
  return Attach(region_id, backup_server, epoch, /*full_sync=*/true);
}

Status RegionServer::DetachBackup(uint32_t region_id, const std::string& backup_name,
                                  uint64_t epoch) {
  TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked region,
                         LockRegion(region_id, RegionHost::Role::kPrimary));
  if (epoch != 0) {
    region->primary->set_epoch(epoch);
  }
  region->primary->RemoveBackup(backup_name);
  return Status::Ok();
}

Status RegionServer::PromoteRegion(uint32_t region_id, SegmentMap* log_map_out,
                                   uint64_t epoch) {
  TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked region,
                         LockRegion(region_id, RegionHost::Role::kBackup));
  // New configuration generation: coordinator-authoritative when given,
  // locally monotonic otherwise.
  const uint64_t new_epoch = epoch != 0 ? epoch : region->backup->region_epoch() + 1;
  // Fence our own buffer *before* reading it, so the deposed primary's
  // one-sided writes can no longer land; the snapshot is atomic with the
  // fence, so an in-flight write either completed before it or was rejected.
  // The image is replayed once the remaining backups are re-attached (so the
  // re-appends replicate).
  region->promotion_buffer_image = region->replication_buffer->FenceAndSnapshot(new_epoch);
  const SegmentMap log_map = region->backup->log_map();
  TEBIS_ASSIGN_OR_RETURN(std::unique_ptr<KvStore> store,
                         region->backup->Promote(/*replay_rdma_buffer=*/false));
  if (log_map_out != nullptr) {
    *log_map_out = log_map;
  }
  // Kept for a standby master resuming a half-finished failover: re-keying
  // needs this map, and the backup object that produced it is gone.
  WireWriter w;
  log_map.Serialize(&w);
  region->promotion_log_map = w.str();
  return host_->BecomePrimary(region.handle.get(), region_id, std::move(store), new_epoch);
}

StatusOr<SegmentMap> RegionServer::GetPromotionLogMap(uint32_t region_id) const {
  TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked region, LockRegion(region_id, RegionHost::Role::kAny));
  if (region->promotion_log_map.empty()) {
    return Status::NotFound("region " + std::to_string(region_id) + " was never promoted");
  }
  WireReader r(Slice(region->promotion_log_map));
  return SegmentMap::Deserialize(&r);
}

Status RegionServer::FlushRegionTail(uint32_t region_id) {
  TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked region,
                         LockRegion(region_id, RegionHost::Role::kPrimary));
  return region->primary->store()->value_log()->FlushTail();
}

Status RegionServer::DemoteRegion(uint32_t region_id, const SegmentMap& new_primary_log_map,
                                  uint64_t epoch) {
  TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked region,
                         LockRegion(region_id, RegionHost::Role::kPrimary));
  const uint64_t backup_epoch = epoch != 0 ? epoch : region->primary->epoch();
  // Validate BEFORE gutting the primary: a put that raced in after the
  // coordinator's tail flush must leave the region serving (the caller
  // retries the move), not a husk whose engine was moved out and destroyed.
  if (region->primary->store()->value_log()->HasUnflushedRecords()) {
    return Status::FailedPrecondition("tail not flushed before demotion");
  }
  return host_->BecomeBackup(region.handle.get(), region_id, backup_epoch,
                             "primary-of-r" + std::to_string(region_id), new_primary_log_map);
}

Status RegionServer::AdoptNewPrimaryLogMap(uint32_t region_id, const SegmentMap& map,
                                           uint64_t epoch) {
  TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked region,
                         LockRegion(region_id, RegionHost::Role::kBackup));
  return region->backup->AdoptNewPrimaryLogMap(map, epoch);
}

Status RegionServer::ReplayPromotionBuffer(uint32_t region_id) {
  TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked region,
                         LockRegion(region_id, RegionHost::Role::kPrimary));
  Status status = region->primary->ReplayBufferImage(Slice(region->promotion_buffer_image));
  region->promotion_buffer_image.clear();
  return status;
}

void RegionServer::SetRegionMap(std::shared_ptr<const RegionMap> map) {
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    map_ = map;
  }
  // Read leases this server currently holds, as a gauge, so a stats scrape
  // shows which replicas the master considers read-serving.
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
  return host_ != nullptr && host_->IsPrimary(region_id);
}

// --- request handling --------------------------------------------------------

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
    ReplyOrTruncate(ctx, reply_type, map->Serialize());
    return;
  }

  if (type == MessageType::kStatsScrape) {
    // Server-wide (region-independent), like the region map: one JSON payload
    // with the metrics snapshot and recent pipeline spans — or, when the
    // request carries the binary format byte, the structured NodeScrape the
    // master's federation fan-out merges.
    const bool binary =
        !payload.empty() && static_cast<uint8_t>(payload[0]) == kScrapeFormatBinary;
    ReplyOrTruncate(ctx, reply_type,
                    binary ? EncodeNodeScrape(name_, telemetry_->Snapshot(),
                                              telemetry_->slow_ops()->Snapshot())
                           : ScrapeJson());
    return;
  }

  HandleRegionOp(header, payload, ctx);
}

void RegionServer::HandleRegionOp(const MessageHeader& header, Slice payload,
                                  const ReplyContext& ctx) {
  const auto type = static_cast<MessageType>(header.type);
  const MessageType reply_type = ReplyTypeFor(type);
  const uint32_t region_id = header.region_id;
  Status status;
  std::string reply;
  switch (type) {
    case MessageType::kPut:
    case MessageType::kDelete: {
      Slice key, value;
      TraceId trace = kNoTrace;
      RegionHost::CommitToken token;
      if (type == MessageType::kPut) {
        status = DecodePutRequest(payload, &key, &value, &trace);
        if (status.ok()) {
          status = host_->Put(region_id, key, value, trace, &token);
        }
      } else {
        status = DecodeKeyRequest(payload, &key, &trace);
        if (status.ok()) {
          status = host_->Delete(region_id, key, trace, &token);
        }
      }
      // The token is optional: a client that allocated no room for it gets
      // an empty acknowledgment instead of a truncation round trip.
      reply = EncodeCommitToken(token.epoch, token.seq);
      if (!ctx.ReplyFits(reply.size())) {
        reply.clear();
      }
      break;
    }
    case MessageType::kGet: {
      Slice key;
      TraceId trace = kNoTrace;
      status = DecodeKeyRequest(payload, &key, &trace);
      if (status.ok()) {
        StatusOr<std::string> value = host_->Get(region_id, key, trace);
        status = value.status();
        if (value.ok()) {
          reply = std::move(*value);
        }
      }
      break;
    }
    case MessageType::kScan: {
      Slice start;
      uint32_t limit;
      TraceId trace = kNoTrace;
      status = DecodeScanRequest(payload, &start, &limit, &trace);
      if (status.ok()) {
        StatusOr<std::vector<KvPair>> pairs = host_->Scan(region_id, start, limit, trace);
        status = pairs.status();
        if (pairs.ok()) {
          reply = EncodeScanReply(*pairs);
        }
      }
      break;
    }
    case MessageType::kKvBatch: {
      // Group commit: the frame applies under one engine reservation and one
      // coalesced replication doorbell; the reply is one status per op plus
      // the commit token the group reached.
      std::vector<KvBatchOp> ops;
      TraceId trace = kNoTrace;
      status = DecodeKvBatchRequest(payload, &ops, &trace);
      if (!status.ok()) {
        break;
      }
      std::vector<KvStore::BatchOp> batch;
      batch.reserve(ops.size());
      for (const KvBatchOp& op : ops) {
        batch.push_back({op.key, op.value, op.tombstone});
      }
      std::vector<Status> statuses;
      RegionHost::CommitToken token;
      // Anything but the fence is already folded into the per-op statuses,
      // so the frame answers with the per-op vector.
      status = host_->WriteBatch(region_id, batch, &statuses, trace, &token);
      if (status.IsWrongRegion()) {
        break;
      }
      status = Status::Ok();
      std::vector<KvBatchOpStatus> op_statuses;
      op_statuses.reserve(statuses.size());
      for (const Status& s : statuses) {
        op_statuses.push_back({static_cast<uint32_t>(s.code()), s.ok() ? "" : s.ToString()});
      }
      reply = EncodeKvBatchReply(op_statuses, token.epoch, token.seq);
      break;
    }
    case MessageType::kReplicaGet: {
      Slice key;
      uint64_t min_epoch, min_seq, visible_seq = 0;
      status = DecodeReplicaGetRequest(payload, &key, &min_epoch, &min_seq);
      if (status.ok()) {
        // FailedPrecondition (fenced read) and NotFound both travel as error
        // replies; the client keys off the status-string prefix.
        StatusOr<std::string> value =
            host_->ReplicaGet(region_id, key, min_epoch, min_seq, &visible_seq);
        status = value.status();
        if (value.ok()) {
          reply = EncodeReplicaGetReply(*value, visible_seq);
        }
      }
      break;
    }
    case MessageType::kReplicaScan: {
      Slice start;
      uint32_t limit;
      uint64_t min_epoch, min_seq, visible_seq = 0;
      status = DecodeReplicaScanRequest(payload, &start, &limit, &min_epoch, &min_seq);
      if (status.ok()) {
        StatusOr<std::vector<KvPair>> pairs =
            host_->ReplicaScan(region_id, start, limit, min_epoch, min_seq, &visible_seq);
        status = pairs.status();
        if (pairs.ok()) {
          reply = EncodeReplicaScanReply(*pairs, visible_seq);
        }
      }
      break;
    }
    case MessageType::kFlushLog:
    case MessageType::kCompactionBegin:
    case MessageType::kIndexSegment:
    case MessageType::kFilterBlock:
    case MessageType::kCompactionEnd:
    case MessageType::kLogTrim:
    case MessageType::kSetReplayStart: {
      // Fencing (§3.5): every replication message carries the sender's
      // epoch; the backup engine rejects a deposed primary's traffic.
      StatusOr<ReplicationMessage> msg = DecodeReplicationMessage(type, payload);
      status = msg.ok() ? host_->Handle(region_id, *msg) : msg.status();
      break;
    }
    case MessageType::kRepairFetch: {
      RepairFetchMsg msg{};
      status = DecodeRepairFetch(payload, &msg);
      if (status.ok()) {
        uint32_t crc = 0;
        StatusOr<std::string> bytes = host_->ServeRepairFetch(region_id, msg, &crc);
        status = bytes.status();
        if (bytes.ok()) {
          reply = EncodeRepairSegment(
              RepairSegmentMsg{msg.epoch, msg.level, msg.seg_index, crc, Slice(*bytes)});
        }
      }
      break;
    }
    default:
      status = Status::InvalidArgument("unexpected message type");
  }
  if (status.IsWrongRegion()) {
    // Not hosted here in the role the request needs (closed, or the client's
    // map is stale): the client refreshes its map and retries.
    (void)ctx.SendReply(reply_type, kFlagWrongRegion, Slice());
    return;
  }
  if (!status.ok()) {
    ReplyError(ctx, reply_type, status);
    return;
  }
  ReplyOrTruncate(ctx, reply_type, reply);
}

// --- integrity -------------------------------------------------------------------

StatusOr<KvStore::ScrubReport> RegionServer::ScrubRegion(uint32_t region_id,
                                                         const KvStore::ScrubOptions& options) {
  TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked region, LockRegion(region_id, RegionHost::Role::kAny));
  KvStore* store = region->primary != nullptr ? region->primary->store() : nullptr;
  BackupRegion* backup = region->backup.get();
  // Unlocked from here: a paced scrub must not hold the region mutex, or
  // client ops and the primary's replication calls would stall behind it.
  // The pin in `region` keeps the engines alive should a close or crash drop
  // the handle meanwhile.
  region.lock.unlock();
  return store != nullptr ? store->Scrub(options) : backup->Scrub(options);
}

StatusOr<std::vector<int>> RegionServer::QuarantinedLevels(uint32_t region_id) const {
  TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked region, LockRegion(region_id, RegionHost::Role::kAny));
  return region->primary != nullptr ? region->primary->store()->QuarantinedLevels()
                                    : region->backup->QuarantinedLevels();
}

Status RegionServer::RepairRegion(uint32_t region_id, RegionServer* peer) {
  TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked region, LockRegion(region_id, RegionHost::Role::kAny));
  KvStore* store = region->primary != nullptr ? region->primary->store() : nullptr;
  BackupRegion* backup = region->backup.get();
  const uint64_t epoch = store != nullptr ? region->primary->epoch() : backup->region_epoch();
  // Unlocked for the fetches, pinned like a scrub.
  region.lock.unlock();
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
                          : backup->RepairQuarantinedLevels(fetch);
}

}  // namespace tebis
