#include "src/cluster/client.h"

#include <functional>

#include "src/cluster/kv_wire.h"
#include "src/cluster/stats_wire.h"
#include "src/common/clock.h"
#include "src/common/logging.h"

namespace tebis {
namespace {

constexpr int kMaxAttempts = 8;

}  // namespace

TebisClient::TebisClient(Fabric* fabric, std::string name, ServerResolver resolver,
                         std::vector<std::string> seed_servers, size_t buffer_size)
    : fabric_(fabric),
      name_(std::move(name)),
      resolver_(std::move(resolver)),
      seed_servers_(std::move(seed_servers)),
      buffer_size_(buffer_size),
      source_hash_(std::hash<std::string>{}(name_)) {}

TraceId TebisClient::MaybeSampleTrace() {
  if (sample_every_ == 0) {
    return kNoTrace;
  }
  if (++sample_counter_ % sample_every_ != 0) {
    return kNoTrace;
  }
  return MakeRequestTraceId(source_hash_, trace_seq_++);
}

void TebisClient::RecordClientSpan(TraceId trace, uint64_t start_ns, uint64_t bytes) {
  if (trace == kNoTrace || telemetry_ == nullptr) {
    return;
  }
  TraceBuffer* traces = telemetry_->traces();
  if (!traces->enabled()) {
    return;
  }
  SpanRecord span;
  span.trace = trace;
  span.name = "client";
  span.node = name_;
  span.start_ns = start_ns;
  span.end_ns = NowNanos();
  span.bytes = bytes;
  traces->Record(std::move(span));
}

StatusOr<RpcClient*> TebisClient::ClientFor(const std::string& server) {
  ServerEndpoint* endpoint = resolver_(server);
  if (endpoint == nullptr) {
    // The server is gone; drop any cached connection so we never wait on it.
    connections_.erase(server);
    return Status::Unavailable("server " + server + " unreachable");
  }
  auto it = connections_.find(server);
  if (it != connections_.end()) {
    return it->second.get();
  }
  auto client = std::make_unique<RpcClient>(fabric_, name_, endpoint, buffer_size_);
  RpcClient* raw = client.get();
  connections_[server] = std::move(client);
  return raw;
}

Status TebisClient::RefreshMap() {
  stats_.map_refreshes++;
  size_t alloc = 4096;
  for (const auto& seed : seed_servers_) {
    auto client = ClientFor(seed);
    if (!client.ok()) {
      continue;
    }
    for (int attempt = 0; attempt < 3; ++attempt) {
      auto reply =
          (*client)->Call(MessageType::kGetRegionMap, 0, Slice(), alloc, 0, rpc_timeout_ns_);
      if (!reply.ok()) {
        break;  // try the next seed
      }
      if (reply->header.flags & kFlagTruncatedReply) {
        uint64_t needed;
        TEBIS_RETURN_IF_ERROR(DecodeTruncatedReply(reply->payload, &needed));
        alloc = needed + 64;
        continue;
      }
      if (reply->header.flags & kFlagError) {
        break;
      }
      auto map = RegionMap::Deserialize(reply->payload);
      if (!map.ok()) {
        return map.status();
      }
      map_ = std::make_shared<const RegionMap>(std::move(*map));
      return Status::Ok();
    }
  }
  return Status::Unavailable("could not fetch region map from any seed server");
}

Status TebisClient::Connect() { return RefreshMap(); }

StatusOr<std::string> TebisClient::ScrapeStats(const std::string& server) {
  TEBIS_ASSIGN_OR_RETURN(RpcClient * client, ClientFor(server));
  size_t alloc = 16384;
  for (int attempt = 0; attempt < 3; ++attempt) {
    TEBIS_ASSIGN_OR_RETURN(
        RpcReply reply,
        client->Call(MessageType::kStatsScrape, 0, Slice(), alloc, 0, rpc_timeout_ns_));
    if (reply.header.flags & kFlagTruncatedReply) {
      uint64_t needed;
      TEBIS_RETURN_IF_ERROR(DecodeTruncatedReply(reply.payload, &needed));
      alloc = needed + 64;
      continue;
    }
    if (reply.header.flags & kFlagError) {
      return Status::Internal("scrape rejected: " + reply.payload);
    }
    return std::move(reply.payload);
  }
  return Status::Unavailable("scrape reply kept outgrowing the allocation");
}

Status TebisClient::Issue(PendingOp* op) {
  if (map_ == nullptr) {
    TEBIS_RETURN_IF_ERROR(RefreshMap());
  }
  if (op->type == MessageType::kGet || op->type == MessageType::kScan) {
    // Writes parked behind the batch threshold must not be overtaken by this
    // client's own reads (per-connection FIFO); push them onto the wire first.
    TEBIS_RETURN_IF_ERROR(FlushBeforeBlocking());
  }
  // Scans route by start key; everything else by exact key. If the cached
  // map routes to an unreachable server, refresh and re-route (§3.1).
  const RegionInfo* region = nullptr;
  RpcClient* client = nullptr;
  std::string target;
  const bool replica_eligible =
      (read_mode_ != ReadMode::kPrimaryOnly || op->force_replica) && !op->force_primary &&
      (op->type == MessageType::kGet || op->type == MessageType::kScan);
  for (int attempt = 0; attempt < 3; ++attempt) {
    region = map_->FindRegion(op->key);
    if (region == nullptr) {
      return Status::Internal("no region owns key " + op->key);
    }
    target = region->primary;
    op->replica = false;
    if (replica_eligible && !region->read_leases.empty()) {
      // Rotate across the backups the master currently leases for reads;
      // an unresolvable (failed) lease falls through to the next, then to
      // the primary. The master revokes leases of detached/degraded
      // replicas, so a leased backup is expected to satisfy the fence.
      const auto& leases = region->read_leases;
      for (size_t i = 0; i < leases.size(); ++i) {
        const std::string& candidate = leases[(replica_rr_ + i) % leases.size()];
        if (resolver_(candidate) != nullptr) {
          target = candidate;
          op->replica = true;
          break;
        }
      }
      replica_rr_++;
    }
    auto resolved = ClientFor(target);
    if (resolved.ok()) {
      client = *resolved;
      break;
    }
    stats_.failover_retries++;
    TEBIS_RETURN_IF_ERROR(RefreshMap());
  }
  if (client == nullptr) {
    return Status::Unavailable("primary for " + op->key + " unreachable after retries");
  }
  op->region_id = region->region_id;
  MessageType wire_type = op->type;
  std::string payload;
  if (op->replica) {
    // Read fence: the replica must have committed at least
    // {min_epoch, min_seq} or reject with FailedPrecondition.
    const RegionReadState& st = read_state_[region->region_id];
    uint64_t min_epoch;
    uint64_t min_seq = st.observed_seq;  // monotonic reads across replicas
    if (read_mode_ == ReadMode::kReadYourWrites) {
      min_epoch = st.token_epoch;
      min_seq = std::max(min_seq, st.token_seq);
    } else {
      min_epoch = region->epoch > staleness_bound_ ? region->epoch - staleness_bound_ : 0;
    }
    if (op->type == MessageType::kGet) {
      wire_type = MessageType::kReplicaGet;
      payload = EncodeReplicaGetRequest(op->key, min_epoch, min_seq);
    } else {
      wire_type = MessageType::kReplicaScan;
      payload = EncodeReplicaScanRequest(op->key, op->limit, min_epoch, min_seq);
    }
    stats_.replica_reads++;
  } else {
    switch (op->type) {
      case MessageType::kPut:
        payload = EncodePutRequest(op->key, op->value, op->trace);
        break;
      case MessageType::kGet:
      case MessageType::kDelete:
        payload = EncodeKeyRequest(op->key, op->trace);
        break;
      case MessageType::kScan:
        payload = EncodeScanRequest(op->key, op->limit, op->trace);
        break;
      default:
        return Status::Internal("bad op type");
    }
  }
  TEBIS_ASSIGN_OR_RETURN(
      op->request_id,
      client->SendRequest(wire_type, region->region_id, payload, op->reply_alloc,
                          static_cast<uint32_t>(map_->version())));
  op->server = target;
  op->attempts++;
  return Status::Ok();
}

StatusOr<TebisClient::OpHandle> TebisClient::PutAsync(Slice key, Slice value) {
  if (batch_size_ > 1) {
    TEBIS_ASSIGN_OR_RETURN(OpHandle handle, StageWrite(MessageType::kPut, key, value));
    stats_.puts++;
    return handle;
  }
  PendingOp op;
  op.type = MessageType::kPut;
  op.key = key.ToString();
  op.value = value.ToString();
  op.reply_alloc = 16;
  op.trace = MaybeSampleTrace();
  if (op.trace != kNoTrace) {
    op.trace_start_ns = NowNanos();
  }
  TEBIS_RETURN_IF_ERROR(Issue(&op));
  stats_.puts++;
  const OpHandle handle = next_handle_++;
  pending_.emplace(handle, std::move(op));
  return handle;
}

StatusOr<TebisClient::OpHandle> TebisClient::StageWrite(MessageType type, Slice key,
                                                        Slice value) {
  if (map_ == nullptr) {
    TEBIS_RETURN_IF_ERROR(RefreshMap());
  }
  const RegionInfo* region = map_->FindRegion(key);
  if (region == nullptr) {
    return Status::Internal("no region owns key " + key.ToString());
  }
  PendingOp op;
  op.type = type;
  op.key = key.ToString();
  op.value = value.ToString();
  op.reply_alloc = 16;
  op.staged = true;
  op.region_id = region->region_id;
  const OpHandle handle = next_handle_++;
  BatchQueue& queue = batch_queues_[region->region_id];
  queue.handles.push_back(handle);
  queue.bytes += op.key.size() + op.value.size();
  const bool full = queue.handles.size() >= batch_size_ || queue.bytes >= batch_bytes_;
  pending_.emplace(handle, std::move(op));
  if (full) {
    TEBIS_RETURN_IF_ERROR(FlushBatchQueue(region->region_id));
  }
  return handle;
}

Status TebisClient::FlushBatchQueue(uint32_t region_id) {
  auto qit = batch_queues_.find(region_id);
  if (qit == batch_queues_.end()) {
    return Status::Ok();
  }
  std::vector<OpHandle> handles = std::move(qit->second.handles);
  batch_queues_.erase(qit);
  if (handles.empty()) {
    return Status::Ok();
  }
  // Re-issues handles[from..] through the single-op path, which owns routing,
  // retries, and failover; an op that cannot even be issued completes with
  // that error.
  auto fallback = [&](size_t from) {
    for (size_t i = from; i < handles.size(); ++i) {
      auto pit = pending_.find(handles[i]);
      if (pit == pending_.end()) {
        continue;
      }
      PendingOp& op = pit->second;
      op.staged = false;
      op.batch_id = 0;
      if (Status s = Issue(&op); !s.ok()) {
        completed_[handles[i]] = OpResult{s, ""};
        pending_.erase(pit);
      }
    }
  };
  if (handles.size() == 1) {
    // A group of one gains nothing from the batch frame; send it as the
    // single-op frame, byte-identical to an unbatched kPut/kDelete.
    fallback(0);
    return Status::Ok();
  }
  std::vector<KvBatchOp> ops;
  ops.reserve(handles.size());
  for (OpHandle h : handles) {
    PendingOp& op = pending_.at(h);
    op.staged = false;
    ops.push_back(KvBatchOp{op.type == MessageType::kDelete, Slice(op.key), Slice(op.value)});
  }
  // Route the group by its first key. Staging grouped by region under some map
  // version; if the map moved since, the server answers kFlagWrongRegion and
  // the harvest falls back to per-op re-issue, which re-routes each key.
  const RegionInfo* region = map_ == nullptr ? nullptr : map_->FindRegion(ops.front().key);
  RpcClient* client = nullptr;
  if (region != nullptr) {
    if (auto resolved = ClientFor(region->primary); resolved.ok()) {
      client = *resolved;
    }
  }
  if (client == nullptr) {
    stats_.batch_fallbacks++;
    (void)RefreshMap();
    fallback(0);
    return Status::Ok();
  }
  // Sampled per frame: the frame is the unit of work on the wire, so
  // one trace id covers the whole group.
  const TraceId frame_trace = MaybeSampleTrace();
  const uint64_t frame_start_ns = frame_trace != kNoTrace ? NowNanos() : 0;
  const std::string payload = EncodeKvBatchRequest(ops, frame_trace);
  // Success replies carry one small status per op; only failures add message
  // strings. An undersized allocation falls back to single-op re-issue.
  const size_t alloc = 64 + 48 * ops.size();
  auto request = client->SendRequest(MessageType::kKvBatch, region->region_id, payload, alloc,
                                     static_cast<uint32_t>(map_->version()));
  if (!request.ok()) {
    stats_.batch_fallbacks++;
    fallback(0);
    return Status::Ok();
  }
  const uint64_t batch_id = next_batch_id_++;
  InflightBatch batch;
  batch.server = region->primary;
  batch.request_id = *request;
  batch.region_id = region->region_id;
  batch.handles = handles;
  batch.trace = frame_trace;
  batch.trace_start_ns = frame_start_ns;
  if (frame_trace != kNoTrace) {
    for (const KvBatchOp& op : ops) {
      batch.trace_bytes += op.key.size() + op.value.size();
    }
  }
  inflight_batches_.emplace(batch_id, std::move(batch));
  for (OpHandle h : handles) {
    PendingOp& op = pending_.at(h);
    op.batch_id = batch_id;
    op.server = region->primary;
    op.attempts++;
  }
  stats_.batches_sent++;
  stats_.batched_ops += handles.size();
  return Status::Ok();
}

Status TebisClient::FlushBeforeBlocking() {
  Status first;
  while (!batch_queues_.empty()) {
    const uint32_t region_id = batch_queues_.begin()->first;
    if (Status s = FlushBatchQueue(region_id); !s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

void TebisClient::HarvestBatch(uint64_t batch_id) {
  auto bit = inflight_batches_.find(batch_id);
  if (bit == inflight_batches_.end()) {
    return;
  }
  InflightBatch batch = std::move(bit->second);
  inflight_batches_.erase(bit);
  StatusOr<RpcReply> reply = Status::Unavailable("server gone");
  if (auto client = ClientFor(batch.server); client.ok()) {
    reply = (*client)->WaitReply(batch.request_id, rpc_timeout_ns_);
  }
  std::vector<KvBatchOpStatus> statuses;
  uint64_t token_epoch = 0;
  uint64_t token_seq = 0;
  bool per_op = false;
  if (reply.ok() &&
      (reply->header.flags & (kFlagError | kFlagWrongRegion | kFlagTruncatedReply)) == 0) {
    per_op = DecodeKvBatchReply(reply->payload, &statuses, &token_epoch, &token_seq).ok() &&
             statuses.size() == batch.handles.size();
  }
  if (!per_op) {
    // The frame failed as a unit — dead server, stale map, fenced primary, or
    // an undersized reply allocation. The single-op path already owns every
    // one of those retries, so re-issue each carried write through it.
    stats_.batch_fallbacks++;
    if (!reply.ok()) {
      stats_.failover_retries++;
      (void)RefreshMap();
    } else if (reply->header.flags & kFlagWrongRegion) {
      stats_.wrong_region_retries++;
      (void)RefreshMap();
    } else if ((reply->header.flags & kFlagError) &&
               reply->payload.rfind("FailedPrecondition", 0) == 0) {
      // A fenced (deposed) primary, §3.5: nothing in the group replicated.
      stats_.failover_retries++;
      (void)RefreshMap();
    }
    for (OpHandle h : batch.handles) {
      auto pit = pending_.find(h);
      if (pit == pending_.end()) {
        continue;
      }
      PendingOp& op = pit->second;
      op.batch_id = 0;
      if (op.attempts >= kMaxAttempts) {
        completed_[h] = OpResult{Status::Unavailable("batched write failed after retries"), ""};
        pending_.erase(pit);
        continue;
      }
      if (Status s = Issue(&op); !s.ok()) {
        completed_[h] = OpResult{s, ""};
        pending_.erase(pit);
      }
    }
    return;
  }
  RecordClientSpan(batch.trace, batch.trace_start_ns, batch.trace_bytes);
  // Fold the commit token into the read-your-writes state once per group.
  RegionReadState& st = read_state_[batch.region_id];
  if (token_epoch > st.token_epoch ||
      (token_epoch == st.token_epoch && token_seq > st.token_seq)) {
    st.token_epoch = token_epoch;
    st.token_seq = token_seq;
  }
  for (size_t i = 0; i < batch.handles.size(); ++i) {
    const KvBatchOpStatus& s = statuses[i];
    Status status =
        s.code == 0 ? Status::Ok() : Status(static_cast<StatusCode>(s.code), s.message);
    completed_[batch.handles[i]] = OpResult{std::move(status), ""};
    pending_.erase(batch.handles[i]);
  }
}

StatusOr<TebisClient::OpHandle> TebisClient::GetAsync(Slice key) {
  PendingOp op;
  op.type = MessageType::kGet;
  op.key = key.ToString();
  op.reply_alloc = default_value_alloc_;
  op.trace = MaybeSampleTrace();
  if (op.trace != kNoTrace) {
    op.trace_start_ns = NowNanos();
  }
  TEBIS_RETURN_IF_ERROR(Issue(&op));
  stats_.gets++;
  const OpHandle handle = next_handle_++;
  pending_.emplace(handle, std::move(op));
  return handle;
}

StatusOr<TebisClient::OpHandle> TebisClient::DeleteAsync(Slice key) {
  if (batch_size_ > 1) {
    TEBIS_ASSIGN_OR_RETURN(OpHandle handle, StageWrite(MessageType::kDelete, key, Slice()));
    stats_.deletes++;
    return handle;
  }
  PendingOp op;
  op.type = MessageType::kDelete;
  op.key = key.ToString();
  op.reply_alloc = 16;
  op.trace = MaybeSampleTrace();
  if (op.trace != kNoTrace) {
    op.trace_start_ns = NowNanos();
  }
  TEBIS_RETURN_IF_ERROR(Issue(&op));
  stats_.deletes++;
  const OpHandle handle = next_handle_++;
  pending_.emplace(handle, std::move(op));
  return handle;
}

TebisClient::OpResult TebisClient::Complete(OpHandle handle) {
  if (auto done = completed_.find(handle); done != completed_.end()) {
    OpResult result = std::move(done->second);
    completed_.erase(done);
    return result;
  }
  auto it = pending_.find(handle);
  if (it == pending_.end()) {
    return OpResult{Status::NotFound("unknown op handle"), ""};
  }
  if (it->second.staged) {
    // Still parked in a batch queue. Push every region's group onto the wire,
    // not just this one's, so they all travel during the round trip we are
    // about to wait out.
    (void)FlushBeforeBlocking();
    it = pending_.find(handle);
  }
  if (it != pending_.end() && it->second.batch_id != 0) {
    // Rode a kKvBatch frame: harvest it. Either the per-op status lands in
    // completed_, or the fallback re-issued this op through the single-op
    // path and the loop below drives it home.
    HarvestBatch(it->second.batch_id);
    it = pending_.find(handle);
  }
  if (auto done = completed_.find(handle); done != completed_.end()) {
    OpResult result = std::move(done->second);
    completed_.erase(done);
    return result;
  }
  if (it == pending_.end()) {
    return OpResult{Status::NotFound("unknown op handle"), ""};
  }
  PendingOp& op = it->second;
  while (true) {
    auto client = ClientFor(op.server);
    StatusOr<RpcReply> reply = Status::Unavailable("server gone");
    if (client.ok()) {
      reply = (*client)->WaitReply(op.request_id, rpc_timeout_ns_);
    }
    if (!reply.ok()) {
      // The server likely failed before replying. Refresh the map and
      // re-route to the (possibly promoted) new primary (§3.5).
      stats_.failover_retries++;
      if (op.attempts >= kMaxAttempts) {
        pending_.erase(it);
        return OpResult{reply.status(), ""};
      }
      Status s = RefreshMap();
      if (s.ok()) {
        s = Issue(&op);
      }
      if (!s.ok()) {
        pending_.erase(it);
        return OpResult{s, ""};
      }
      continue;
    }
    if (reply->header.flags & kFlagWrongRegion) {
      // Stale map (§3.1): refresh and re-issue.
      stats_.wrong_region_retries++;
      if (op.attempts >= kMaxAttempts) {
        pending_.erase(it);
        return OpResult{Status::Unavailable("too many wrong-region retries"), ""};
      }
      Status s = RefreshMap();
      if (s.ok()) {
        s = Issue(&op);
      }
      if (!s.ok()) {
        pending_.erase(it);
        return OpResult{s, ""};
      }
      continue;
    }
    if (reply->header.flags & kFlagTruncatedReply) {
      // §3.4.1: grow the allocation (persistently) and retry once more.
      stats_.truncated_retries++;
      uint64_t needed = 0;
      if (Status s = DecodeTruncatedReply(reply->payload, &needed); !s.ok()) {
        pending_.erase(it);
        return OpResult{s, ""};
      }
      op.reply_alloc = needed + 64;
      if (op.type == MessageType::kGet) {
        default_value_alloc_ = std::max(default_value_alloc_, op.reply_alloc);
      }
      if (Status s = Issue(&op); !s.ok()) {
        pending_.erase(it);
        return OpResult{s, ""};
      }
      continue;
    }
    if (reply->header.flags & kFlagError) {
      // The payload carries the status string; map NotFound back.
      const std::string& message = reply->payload;
      if (op.replica && message.rfind("FailedPrecondition", 0) == 0) {
        // The replica rejected the read fence (it has not committed up to
        // the client's epoch/sequence yet). Retry against the primary,
        // which by definition satisfies any fence this client could hold.
        stats_.replica_fallbacks++;
        if (op.attempts >= kMaxAttempts) {
          pending_.erase(it);
          return OpResult{Status::Unavailable(message), ""};
        }
        op.force_primary = true;
        if (Status s = Issue(&op); !s.ok()) {
          pending_.erase(it);
          return OpResult{s, ""};
        }
        continue;
      }
      if (message.rfind("Corruption", 0) == 0 && !op.corruption_retried &&
          op.attempts < kMaxAttempts &&
          (op.type == MessageType::kGet || op.type == MessageType::kScan)) {
        // The serving replica hit rotten bytes on its device. The same
        // shape as the fenced-primary failover: flip the read to the other
        // side — a replica's corruption retries on the primary; the primary's
        // retries on a leased replica (healthy copies are byte-identical in
        // primary space, so any peer can answer). One flip only: if both
        // sides are rotten, surface the error so repair can be driven.
        stats_.corruption_retries++;
        op.corruption_retried = true;
        if (op.replica) {
          op.force_primary = true;
        } else {
          op.force_replica = true;
        }
        if (Status s = Issue(&op); !s.ok()) {
          pending_.erase(it);
          return OpResult{s, ""};
        }
        continue;
      }
      if (message.rfind("FailedPrecondition", 0) == 0) {
        // A fenced (deposed) primary, §3.5: it still answers, but its epoch
        // is stale and the write was not replicated. Re-route like a failover.
        stats_.failover_retries++;
        if (op.attempts >= kMaxAttempts) {
          pending_.erase(it);
          return OpResult{Status::Unavailable(message), ""};
        }
        Status s = RefreshMap();
        if (s.ok()) {
          s = Issue(&op);
        }
        if (!s.ok()) {
          pending_.erase(it);
          return OpResult{s, ""};
        }
        continue;
      }
      Status status = message.rfind("NotFound", 0) == 0     ? Status::NotFound(message)
                      : message.rfind("Corruption", 0) == 0 ? Status::Corruption(message)
                                                            : Status::Internal(message);
      pending_.erase(it);
      return OpResult{status, ""};
    }
    OpResult result{Status::Ok(), std::move(reply->payload)};
    if (op.replica) {
      // Unwrap the replica reply and fold the replica's visible sequence
      // into the monotonic-reads fence.
      RegionReadState& st = read_state_[op.region_id];
      uint64_t visible_seq = 0;
      if (op.type == MessageType::kGet) {
        Slice value;
        if (Status s = DecodeReplicaGetReply(result.value, &value, &visible_seq); !s.ok()) {
          pending_.erase(it);
          return OpResult{s, ""};
        }
        result.value = value.ToString();
      } else {
        std::vector<KvPair> pairs;
        if (Status s = DecodeReplicaScanReply(result.value, &pairs, &visible_seq); !s.ok()) {
          pending_.erase(it);
          return OpResult{s, ""};
        }
        // Re-encode in the primary scan-reply shape so Scan() decodes
        // uniformly regardless of which replica served.
        result.value = EncodeScanReply(pairs);
      }
      st.observed_seq = std::max(st.observed_seq, visible_seq);
    } else if (op.type == MessageType::kPut || op.type == MessageType::kDelete) {
      // Write replies carry the commit token; keep the per-region
      // high-water mark for read-your-writes fences. Absent/short payloads
      // (a pre-token server) leave the state untouched.
      uint64_t token_epoch = 0, token_seq = 0;
      if (DecodeCommitToken(result.value, &token_epoch, &token_seq).ok()) {
        RegionReadState& st = read_state_[op.region_id];
        if (token_epoch > st.token_epoch ||
            (token_epoch == st.token_epoch && token_seq > st.token_seq)) {
          st.token_epoch = token_epoch;
          st.token_seq = token_seq;
        }
      }
    }
    RecordClientSpan(op.trace, op.trace_start_ns, op.key.size() + op.value.size());
    pending_.erase(it);
    return result;
  }
}

TebisClient::OpResult TebisClient::Wait(OpHandle handle) { return Complete(handle); }

Status TebisClient::WaitAll() {
  (void)FlushBeforeBlocking();
  Status first;
  while (!pending_.empty() || !completed_.empty()) {
    const OpHandle handle =
        pending_.empty() ? completed_.begin()->first : pending_.begin()->first;
    OpResult result = Complete(handle);
    if (!result.status.ok() && !result.status.IsNotFound() && first.ok()) {
      first = result.status;
    }
  }
  return first;
}

Status TebisClient::Put(Slice key, Slice value) {
  TEBIS_ASSIGN_OR_RETURN(OpHandle handle, PutAsync(key, value));
  return Wait(handle).status;
}

StatusOr<std::string> TebisClient::Get(Slice key) {
  TEBIS_ASSIGN_OR_RETURN(OpHandle handle, GetAsync(key));
  OpResult result = Wait(handle);
  if (!result.status.ok()) {
    return result.status;
  }
  return std::move(result.value);
}

Status TebisClient::Delete(Slice key) {
  TEBIS_ASSIGN_OR_RETURN(OpHandle handle, DeleteAsync(key));
  return Wait(handle).status;
}

StatusOr<std::vector<KvPair>> TebisClient::Scan(Slice start, uint32_t limit) {
  // A range may span regions: scan region by region, following each region's
  // end key, until the limit is filled or the key space ends.
  std::vector<KvPair> out;
  std::string cursor = start.ToString();
  while (out.size() < limit) {
    PendingOp op;
    op.type = MessageType::kScan;
    op.key = cursor;
    op.limit = limit - static_cast<uint32_t>(out.size());
    op.reply_alloc = std::max<size_t>(default_value_alloc_ * op.limit / 4, 4096);
    op.trace = MaybeSampleTrace();
    if (op.trace != kNoTrace) {
      op.trace_start_ns = NowNanos();
    }
    TEBIS_RETURN_IF_ERROR(Issue(&op));
    stats_.scans++;
    const OpHandle handle = next_handle_++;
    pending_.emplace(handle, std::move(op));
    OpResult result = Complete(handle);
    if (!result.status.ok()) {
      return result.status;
    }
    std::vector<KvPair> pairs;
    TEBIS_RETURN_IF_ERROR(DecodeScanReply(result.value, &pairs));
    out.insert(out.end(), std::make_move_iterator(pairs.begin()),
               std::make_move_iterator(pairs.end()));
    // Continue into the next region, if any.
    const RegionInfo* region = map_->FindRegion(cursor);
    if (region == nullptr || region->end_key.empty()) {
      break;  // last region
    }
    cursor = region->end_key;
  }
  return out;
}

}  // namespace tebis
