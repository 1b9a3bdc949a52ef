#include "src/ycsb/sim_cluster.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <utility>

#include "src/common/clock.h"
#include "src/telemetry/request_trace.h"

namespace tebis {

SimCluster::SimCluster(const SimClusterOptions& options)
    : options_(options),
      telemetry_(std::make_unique<Telemetry>(options.trace_capacity)),
      fabric_(std::make_unique<Fabric>()),
      source_hash_(std::hash<std::string>{}("sim-cluster")) {}

namespace {

MetricLabels StoreLabels(const MetricLabels& base, const std::string& node, uint32_t region,
                         const char* role) {
  MetricLabels labels = base;
  labels.emplace_back("node", node);
  labels.emplace_back("region", std::to_string(region));
  labels.emplace_back("role", role);
  return labels;
}

// Mirrors RegionServer::InstallCommitListener: the backup owner observes
// sampled tagged writes landing in its registered buffer, accumulating the
// commit time into the writer's stage breakdown (the listener runs on the
// primary's thread, where the request-trace scope lives) and recording the
// backup_commit span under the request's id. No clearing needed here: the
// buffers die with the channels/regions, before telemetry_ (declared first).
void InstallCommitSpanListener(RegisteredBuffer* buffer, Telemetry* telemetry,
                               const std::string& node) {
  buffer->set_commit_listener([telemetry, node](TraceId trace, uint64_t /*epoch*/,
                                                uint64_t /*offset*/, size_t bytes,
                                                uint64_t start_ns, uint64_t end_ns) {
    if (RequestStageTimings* stages = CurrentRequestStages(); stages != nullptr) {
      stages->backup_commit_ns += end_ns - start_ns;
    }
    TraceBuffer* traces = telemetry->traces();
    if (traces->enabled()) {
      SpanRecord span;
      span.trace = trace;
      span.name = "backup_commit";
      span.node = node;
      span.start_ns = start_ns;
      span.end_ns = end_ns;
      span.bytes = bytes;
      traces->Record(std::move(span));
    }
  });
}

}  // namespace

StatusOr<std::unique_ptr<SimCluster>> SimCluster::Create(const SimClusterOptions& options) {
  if (options.replication_factor < 1 || options.replication_factor > options.num_servers) {
    return Status::InvalidArgument("replication factor must be in [1, num_servers]");
  }
  std::unique_ptr<SimCluster> cluster(new SimCluster(options));
  if (options.compaction_workers > 0) {
    cluster->compaction_pool_ = std::make_unique<WorkerPool>(options.compaction_workers);
    cluster->compaction_pool_->Start();
  }
  for (int i = 0; i < options.num_servers; ++i) {
    cluster->server_names_.push_back("server" + std::to_string(i));
    BlockDeviceOptions device_options = options.device_options;
    device_options.name = cluster->server_names_.back();
    TEBIS_ASSIGN_OR_RETURN(auto device, BlockDevice::Create(device_options));
    cluster->devices_.push_back(std::move(device));
  }
  TEBIS_ASSIGN_OR_RETURN(
      cluster->map_,
      RegionMap::CreateUniform(options.num_regions, "user", 10, options.key_space,
                               cluster->server_names_, options.replication_factor));

  // Size every store's page-cache stripes to the number of store instances a
  // server hosts (PR 4), like a real region server does at start.
  const size_t stores_per_server =
      (static_cast<size_t>(options.num_regions) * options.replication_factor +
       options.num_servers - 1) /
      options.num_servers;
  cluster->options_.kv_options.cache_shards = PageCache::ShardsForStores(stores_per_server);

  cluster->telemetry_->EnableHealthWatchdog();
  cluster->telemetry_->ConfigureSlowOps(options.slow_op_policy);
  for (size_t t = 0; t < kNumSlowOpTypes; ++t) {
    cluster->request_latency_[t] = cluster->telemetry_->metrics()->GetHistogram(
        "trace.request_latency_ns",
        {{"op", SlowOpTypeName(static_cast<SlowOpType>(t))}});
  }

  for (const RegionInfo& info : cluster->map_.regions()) {
    Region region;
    region.id = info.region_id;
    region.primary_node = info.primary;
    const int primary_server = static_cast<int>(info.region_id) % options.num_servers;
    KvStoreOptions primary_kv = cluster->options_.kv_options;
    primary_kv.compaction_pool = cluster->compaction_pool_.get();  // null = synchronous
    primary_kv.telemetry = cluster->telemetry_.get();
    primary_kv.telemetry_labels = StoreLabels(cluster->options_.kv_options.telemetry_labels,
                                              info.primary, info.region_id, "primary");
    TEBIS_ASSIGN_OR_RETURN(region.primary,
                           PrimaryRegion::Create(cluster->devices_[primary_server].get(),
                                                 primary_kv, options.mode));
    for (const std::string& backup_name : info.backups) {
      const int backup_server =
          static_cast<int>(std::find(cluster->server_names_.begin(),
                                     cluster->server_names_.end(), backup_name) -
                           cluster->server_names_.begin());
      // 2x a segment (PR 9): main tail mirror in [0, segment), large-value
      // tail mirror in [segment, 2*segment).
      auto buffer = cluster->fabric_->RegisterBuffer(backup_name, info.primary,
                                                     2 * options.device_options.segment_size);
      InstallCommitSpanListener(buffer.get(), cluster->telemetry_.get(), backup_name);
      KvStoreOptions backup_kv = cluster->options_.kv_options;
      backup_kv.telemetry = cluster->telemetry_.get();
      backup_kv.telemetry_labels = StoreLabels(cluster->options_.kv_options.telemetry_labels,
                                               backup_name, info.region_id, "backup");
      if (options.mode == ReplicationMode::kBuildIndex) {
        TEBIS_ASSIGN_OR_RETURN(auto backup,
                               BuildIndexBackupRegion::Create(
                                   cluster->devices_[backup_server].get(), backup_kv, buffer));
        region.primary->AddBackup(std::make_unique<LocalBackupChannel>(
            cluster->fabric_.get(), info.primary, buffer, backup.get(),
            options.channel_max_attempts));
        region.build_backups.push_back(std::move(backup));
      } else {
        TEBIS_ASSIGN_OR_RETURN(auto backup,
                               SendIndexBackupRegion::Create(
                                   cluster->devices_[backup_server].get(), backup_kv, buffer));
        region.primary->AddBackup(std::make_unique<LocalBackupChannel>(
            cluster->fabric_.get(), info.primary, buffer, backup.get(),
            options.channel_max_attempts));
        region.send_backups.push_back(std::move(backup));
      }
    }
    cluster->regions_.push_back(std::move(region));
  }
  // Device and fabric byte counts stay native (per-IoClass atomics on the hot
  // path); sample them live at scrape time instead of migrating them.
  SimCluster* raw = cluster.get();
  cluster->telemetry_->AddCollector([raw](MetricsSnapshot* snapshot) {
    for (size_t i = 0; i < raw->devices_.size(); ++i) {
      MetricSample sample;
      sample.name = "storage.device_bytes_total";
      sample.labels.emplace_back("node", raw->server_names_[i]);
      sample.kind = InstrumentKind::kGauge;
      sample.value = static_cast<int64_t>(raw->devices_[i]->stats().TotalBytes());
      snapshot->Add(std::move(sample));
    }
    MetricSample net;
    net.name = "net.fabric_bytes_total";
    net.kind = InstrumentKind::kGauge;
    net.value = static_cast<int64_t>(raw->fabric_->TotalBytes());
    snapshot->Add(std::move(net));
  });
  return cluster;
}

StatusOr<SimCluster::Region*> SimCluster::Route(Slice key) {
  const RegionInfo* info = map_.FindRegion(key);
  if (info == nullptr) {
    return Status::Internal("no region owns key " + key.ToString());
  }
  return &regions_[info->region_id];
}

TraceId SimCluster::MaybeSampleTrace() {
  const uint64_t every = options_.request_trace_sample_every;
  if (every == 0) {
    return kNoTrace;
  }
  if (sample_counter_.fetch_add(1, std::memory_order_relaxed) % every != 0) {
    return kNoTrace;
  }
  return MakeRequestTraceId(source_hash_, trace_seq_.fetch_add(1, std::memory_order_relaxed));
}

void SimCluster::ObserveOp(SlowOpType op, Slice key, const Region& region, TraceId trace,
                           uint64_t start_ns, const RequestStageTimings& stages) {
  const uint64_t end_ns = NowNanos();
  const uint64_t total_ns = end_ns - start_ns;
  if (trace != kNoTrace) {
    request_latency_[static_cast<size_t>(op)]->Record(static_cast<int64_t>(total_ns), trace);
    TraceBuffer* traces = telemetry_->traces();
    if (traces->enabled()) {
      // With direct channels there is no separate dispatch hop, so the client
      // and primary_apply spans cover the same interval; both are recorded so
      // the tree has the same shape as the RPC cluster's.
      SpanRecord apply;
      apply.trace = trace;
      apply.name = "primary_apply";
      apply.node = region.primary_node;
      apply.start_ns = start_ns;
      apply.end_ns = end_ns;
      apply.bytes = key.size();
      traces->Record(std::move(apply));
      SpanRecord client;
      client.trace = trace;
      client.name = "client";
      client.node = "client";
      client.start_ns = start_ns;
      client.end_ns = end_ns;
      client.bytes = key.size();
      traces->Record(std::move(client));
    }
  }
  telemetry_->slow_ops()->MaybeRecord(op, std::string_view(key.data(), key.size()), region.id,
                                      region.primary->epoch(), trace, total_ns, &stages, end_ns);
}

Status SimCluster::Put(Slice key, Slice value) {
  TEBIS_ASSIGN_OR_RETURN(Region * region, Route(key));
  const TraceId trace = MaybeSampleTrace();
  if (trace == kNoTrace && telemetry_->slow_ops()->threshold(SlowOpType::kPut) == 0) {
    return region->primary->Put(key, value);  // untraced: zero clock reads
  }
  ScopedRequestTrace scope(trace);
  const uint64_t start_ns = NowNanos();
  Status s = region->primary->Put(key, value);
  if (s.ok()) {
    ObserveOp(SlowOpType::kPut, key, *region, trace, start_ns, scope.stages());
  }
  return s;
}

StatusOr<std::string> SimCluster::Get(Slice key) {
  TEBIS_ASSIGN_OR_RETURN(Region * region, Route(key));
  const TraceId trace = MaybeSampleTrace();
  if (trace == kNoTrace && telemetry_->slow_ops()->threshold(SlowOpType::kGet) == 0) {
    return region->primary->Get(key);
  }
  ScopedRequestTrace scope(trace);
  const uint64_t start_ns = NowNanos();
  StatusOr<std::string> v = region->primary->Get(key);
  if (v.ok() || v.status().IsNotFound()) {
    ObserveOp(SlowOpType::kGet, key, *region, trace, start_ns, scope.stages());
  }
  return v;
}

Status SimCluster::Delete(Slice key) {
  TEBIS_ASSIGN_OR_RETURN(Region * region, Route(key));
  const TraceId trace = MaybeSampleTrace();
  if (trace == kNoTrace && telemetry_->slow_ops()->threshold(SlowOpType::kDelete) == 0) {
    return region->primary->Delete(key);
  }
  ScopedRequestTrace scope(trace);
  const uint64_t start_ns = NowNanos();
  Status s = region->primary->Delete(key);
  if (s.ok()) {
    ObserveOp(SlowOpType::kDelete, key, *region, trace, start_ns, scope.stages());
  }
  return s;
}

Status SimCluster::WriteBatch(const std::vector<KvStore::BatchOp>& ops,
                              std::vector<Status>* statuses) {
  statuses->assign(ops.size(), Status::Ok());
  // Group per owning region, preserving op order within each group — the same
  // shape the client's per-destination coalescing produces.
  std::map<Region*, std::vector<size_t>> groups;
  for (size_t i = 0; i < ops.size(); ++i) {
    TEBIS_ASSIGN_OR_RETURN(Region * region, Route(ops[i].key));
    groups[region].push_back(i);
  }
  // One sampling decision per WriteBatch call (matching the client, which
  // samples per kKvBatch frame rather than per carried op).
  const TraceId trace = MaybeSampleTrace();
  const bool timed =
      trace != kNoTrace || telemetry_->slow_ops()->threshold(SlowOpType::kBatch) != 0;
  std::optional<ScopedRequestTrace> scope;
  uint64_t start_ns = 0;
  if (timed) {
    scope.emplace(trace);
    start_ns = NowNanos();
  }
  Status first;
  for (auto& [region, indexes] : groups) {
    std::vector<KvStore::BatchOp> group;
    group.reserve(indexes.size());
    for (size_t i : indexes) {
      group.push_back(ops[i]);
    }
    std::vector<Status> group_statuses;
    Status s = region->primary->WriteBatch(group, &group_statuses);
    for (size_t k = 0; k < indexes.size(); ++k) {
      (*statuses)[indexes[k]] = group_statuses[k];
    }
    if (!s.ok() && first.ok()) {
      first = s;
    }
  }
  if (timed && !groups.empty() && first.ok()) {
    Region* front = groups.begin()->first;
    ObserveOp(SlowOpType::kBatch, ops[groups.begin()->second.front()].key, *front, trace,
              start_ns, scope->stages());
  }
  return first;
}

StatusOr<std::string> SimCluster::ReplicaGet(Slice key) {
  TEBIS_ASSIGN_OR_RETURN(Region * region, Route(key));
  const bool send_index = options_.mode == ReplicationMode::kSendIndex;
  const size_t backups =
      send_index ? region->send_backups.size() : region->build_backups.size();
  const size_t pick = replica_rr_.fetch_add(1, std::memory_order_relaxed) % (1 + backups);
  if (pick == 0) {
    return region->primary->Get(key);
  }
  uint64_t visible_seq = 0;
  if (send_index) {
    return region->send_backups[pick - 1]->Get(key, /*min_epoch=*/0, /*min_seq=*/0,
                                               &visible_seq);
  }
  return region->build_backups[pick - 1]->Get(key, /*min_epoch=*/0, /*min_seq=*/0,
                                              &visible_seq);
}

Status SimCluster::FlushAll() {
  for (auto& region : regions_) {
    TEBIS_RETURN_IF_ERROR(region.primary->FlushL0());
  }
  return Status::Ok();
}

KvHooks SimCluster::Hooks(bool fan_out_reads) {
  KvHooks hooks;
  hooks.put = [this](Slice key, Slice value) { return Put(key, value); };
  if (fan_out_reads) {
    hooks.read = [this](Slice key) {
      auto v = ReplicaGet(key);
      return v.ok() ? Status::Ok() : v.status();
    };
  } else {
    hooks.read = [this](Slice key) {
      auto v = Get(key);
      return v.ok() ? Status::Ok() : v.status();
    };
  }
  return hooks;
}

uint64_t SimCluster::TotalDeviceBytes() const {
  uint64_t total = 0;
  for (const auto& device : devices_) {
    total += device->stats().TotalBytes();
  }
  return total;
}

uint64_t SimCluster::DeviceBytes(IoClass io_class, bool reads) const {
  uint64_t total = 0;
  for (const auto& device : devices_) {
    total += reads ? device->stats().ReadBytes(io_class) : device->stats().WriteBytes(io_class);
  }
  return total;
}

ClusterCpuBreakdown SimCluster::CpuBreakdown() const {
  // One consistent registry walk; the {role} label separates primary engines
  // from Build-Index backup engines sharing the same "kv.*" instrument names.
  return CpuBreakdownFrom(telemetry_->Snapshot());
}

ClusterCpuBreakdown SimCluster::CpuBreakdownFrom(const MetricsSnapshot& snap) {
  ClusterCpuBreakdown out;
  out.insert_l0_ns = snap.Sum("kv.insert_l0_cpu_ns", "role", "primary");
  out.compaction_ns = snap.Sum("kv.compaction_cpu_ns", "role", "primary");
  out.get_ns = snap.Sum("kv.get_cpu_ns", "role", "primary");
  out.compaction_queue_wait_ns = snap.Sum("kv.compaction_queue_wait_ns", "role", "primary");
  out.compaction_merge_ns = snap.Sum("kv.compaction_merge_ns", "role", "primary");
  out.compaction_build_ns = snap.Sum("kv.compaction_build_ns", "role", "primary");
  out.compaction_ship_ns = snap.Sum("kv.compaction_ship_ns", "role", "primary");
  out.log_replication_ns = snap.Sum("repl.log_replication_cpu_ns");
  out.log_flush_in_compaction_ns = snap.Sum("repl.log_flush_in_compaction_cpu_ns");
  out.send_index_ns = snap.Sum("repl.send_index_cpu_ns");
  out.rewrite_index_ns = snap.Sum("backup.rewrite_cpu_ns");
  out.backup_insert_ns = snap.Sum("backup.insert_cpu_ns");
  out.backup_compaction_ns = snap.Sum("kv.compaction_cpu_ns", "role", "backup");
  // Values are RAW (inclusive) timings; with direct channels the calls nest:
  //   put timer        ⊃ log replication (appends + most flushes)
  //   log replication  ⊃ backup flush handling (Build-Index: L0 insert ⊃ its
  //                      own compactions)
  //   compaction timer ⊃ send index ⊃ rewrite index
  // The experiment harness peels these into exclusive Table-3 buckets.
  return out;
}

uint64_t SimCluster::TotalL0MemoryBytes() const {
  uint64_t total = 0;
  for (const auto& region : regions_) {
    total += region.primary->store()->l0_memory_bytes();
    for (const auto& backup : region.build_backups) {
      total += backup->l0_memory_bytes();
    }
    // Send-Index backups keep no L0 — the paper's memory saving.
  }
  return total;
}

uint64_t SimCluster::TotalL0BudgetKeys() const {
  uint64_t budget = 0;
  for (const auto& region : regions_) {
    budget += region.primary->store()->options().l0_max_entries;
    for (const auto& backup : region.build_backups) {
      budget += backup->store()->options().l0_max_entries;
    }
  }
  return budget;
}

uint64_t SimCluster::TotalCompactions() const {
  uint64_t total = 0;
  for (const auto& region : regions_) {
    total += region.primary->store()->stats().compactions;
    for (const auto& backup : region.build_backups) {
      total += backup->store()->stats().compactions;
    }
  }
  return total;
}

void SimCluster::AttachFaultInjector(FaultInjector* injector) {
  fabric_->set_fault_injector(injector);
  for (auto& device : devices_) {
    device->set_fault_hook(injector);
  }
}

void SimCluster::ResetTrafficCounters() {
  for (auto& device : devices_) {
    device->stats().Reset();
  }
  fabric_->ResetTraffic();
}

Status SimCluster::VerifyBackupsConsistent(const std::vector<std::string>& keys) {
  TEBIS_RETURN_IF_ERROR(FlushAll());
  for (const std::string& key : keys) {
    TEBIS_ASSIGN_OR_RETURN(Region * region, Route(key));
    auto primary_value = region->primary->Get(key);
    for (auto& backup : region->send_backups) {
      auto backup_value = backup->DebugGet(key);
      if (primary_value.ok() != backup_value.ok()) {
        return Status::Internal("backup divergence on " + key);
      }
      if (primary_value.ok() && *primary_value != *backup_value) {
        return Status::Internal("backup value mismatch on " + key);
      }
    }
    for (auto& backup : region->build_backups) {
      auto backup_value = backup->store()->Get(key);
      if (primary_value.ok() != backup_value.ok()) {
        return Status::Internal("build backup divergence on " + key);
      }
      if (primary_value.ok() && *primary_value != *backup_value) {
        return Status::Internal("build backup value mismatch on " + key);
      }
    }
  }
  return Status::Ok();
}

}  // namespace tebis
