#include "src/ycsb/sim_cluster.h"

#include <functional>
#include <map>
#include <utility>

#include "src/common/clock.h"

namespace tebis {

SimCluster::SimCluster(const SimClusterOptions& options)
    : options_(options),
      telemetry_(std::make_unique<Telemetry>(options.trace_capacity)),
      fabric_(std::make_unique<Fabric>()),
      source_hash_(std::hash<std::string>{}("sim-cluster")) {}

SimCluster::~SimCluster() {
  for (Region& region : regions_) {
    (void)region.primary->store()->WaitForBackgroundWork();
  }
}

StatusOr<std::unique_ptr<SimCluster>> SimCluster::Create(const SimClusterOptions& options) {
  if (options.replication_factor < 1 || options.replication_factor > options.num_servers) {
    return Status::InvalidArgument("replication factor must be in [1, num_servers]");
  }
  std::unique_ptr<SimCluster> cluster(new SimCluster(options));
  if (options.compaction_workers > 0) {
    cluster->compaction_pool_ = std::make_unique<WorkerPool>(options.compaction_workers);
    cluster->compaction_pool_->Start();
  }
  // Size every store's page-cache stripes to the number of store instances a
  // server hosts, like a real region server does at start.
  const size_t stores_per_server =
      (static_cast<size_t>(options.num_regions) * options.replication_factor +
       options.num_servers - 1) /
      options.num_servers;
  cluster->options_.kv_options.cache_shards = PageCache::ShardsForStores(stores_per_server);
  cluster->telemetry_->EnableHealthWatchdog();
  cluster->telemetry_->ConfigureSlowOps(options.slow_op_policy);

  std::map<std::string, RegionHost*> hosts;
  for (int i = 0; i < options.num_servers; ++i) {
    const std::string name = "server" + std::to_string(i);
    cluster->server_names_.push_back(name);
    BlockDeviceOptions device_options = options.device_options;
    device_options.name = name;
    TEBIS_ASSIGN_OR_RETURN(auto device, BlockDevice::Create(device_options));
    cluster->devices_.push_back(std::move(device));
    cluster->hosts_.push_back(std::make_unique<RegionHost>(
        name, cluster->fabric_.get(), cluster->telemetry_.get(), cluster->devices_.back().get(),
        cluster->compaction_pool_.get(), cluster->options_.kv_options, options.mode));
    hosts[name] = cluster->hosts_.back().get();
  }
  TEBIS_ASSIGN_OR_RETURN(
      cluster->map_,
      RegionMap::CreateUniform(options.num_regions, "user", 10, options.key_space,
                               cluster->server_names_, options.replication_factor));

  for (const RegionInfo& info : cluster->map_.regions()) {
    Region region;
    region.id = info.region_id;
    region.host = hosts.at(info.primary);
    // Handle locks are taken one at a time and dropped before wiring, so
    // setup never nests them in an order the serving path could invert.
    TEBIS_RETURN_IF_ERROR(region.host->OpenPrimary(region.id, /*epoch=*/0));
    {
      TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked primary,
                             region.host->Lock(region.id, RegionHost::Role::kPrimary));
      region.primary = primary->primary.get();
    }
    for (const std::string& backup_name : info.backups) {
      RegionHost* host = hosts.at(backup_name);
      TEBIS_RETURN_IF_ERROR(host->OpenBackup(region.id, /*epoch=*/0, /*writer=*/info.primary));
      std::shared_ptr<RegisteredBuffer> buffer;
      {
        TEBIS_ASSIGN_OR_RETURN(RegionHost::Locked backup,
                               host->Lock(region.id, RegionHost::Role::kBackup));
        region.backups.push_back(backup->backup.get());
        buffer = backup->replication_buffer;
      }
      region.backup_hosts.push_back(host);
      region.channel_targets.push_back(
          std::make_unique<RegionHost::ReplicationPort>(host, region.id));
      region.primary->AddBackup(std::make_unique<LocalBackupChannel>(
          cluster->fabric_.get(), info.primary, std::move(buffer),
          region.channel_targets.back().get(), options.channel_max_attempts));
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

void SimCluster::RecordClientSpan(TraceId trace, uint64_t start_ns, Slice key) {
  TraceBuffer* traces = telemetry_->traces();
  if (trace == kNoTrace || !traces->enabled()) {
    return;
  }
  SpanRecord client;
  client.trace = trace;
  client.name = "client";
  client.node = "client";
  client.start_ns = start_ns;
  client.end_ns = NowNanos();
  client.bytes = key.size();
  traces->Record(std::move(client));
}

Status SimCluster::Put(Slice key, Slice value) {
  TEBIS_ASSIGN_OR_RETURN(Region * region, Route(key));
  const TraceId trace = MaybeSampleTrace();
  const uint64_t start_ns = trace != kNoTrace ? NowNanos() : 0;  // untraced: no clock reads
  Status s = region->host->Put(region->id, key, value, trace, /*token=*/nullptr);
  if (s.ok()) {
    RecordClientSpan(trace, start_ns, key);
  }
  return s;
}

StatusOr<std::string> SimCluster::Get(Slice key) {
  TEBIS_ASSIGN_OR_RETURN(Region * region, Route(key));
  const TraceId trace = MaybeSampleTrace();
  const uint64_t start_ns = trace != kNoTrace ? NowNanos() : 0;
  StatusOr<std::string> v = region->host->Get(region->id, key, trace);
  if (v.ok() || v.status().IsNotFound()) {
    RecordClientSpan(trace, start_ns, key);
  }
  return v;
}

Status SimCluster::Delete(Slice key) {
  TEBIS_ASSIGN_OR_RETURN(Region * region, Route(key));
  const TraceId trace = MaybeSampleTrace();
  const uint64_t start_ns = trace != kNoTrace ? NowNanos() : 0;
  Status s = region->host->Delete(region->id, key, trace, /*token=*/nullptr);
  if (s.ok()) {
    RecordClientSpan(trace, start_ns, key);
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
  // One sampling decision per call; every group it sends carries the trace.
  const TraceId trace = MaybeSampleTrace();
  const uint64_t start_ns = trace != kNoTrace ? NowNanos() : 0;
  Status first;
  for (auto& [region, indexes] : groups) {
    std::vector<KvStore::BatchOp> group;
    group.reserve(indexes.size());
    for (size_t i : indexes) {
      group.push_back(ops[i]);
    }
    std::vector<Status> group_statuses;
    Status s = region->host->WriteBatch(region->id, group, &group_statuses, trace,
                                        /*token=*/nullptr);
    group_statuses.resize(indexes.size(), s);  // a fenced group fails as a unit
    for (size_t k = 0; k < indexes.size(); ++k) {
      (*statuses)[indexes[k]] = group_statuses[k];
    }
    if (!s.ok() && first.ok()) {
      first = s;
    }
  }
  if (!groups.empty() && first.ok()) {
    RecordClientSpan(trace, start_ns, ops[groups.begin()->second.front()].key);
  }
  return first;
}

StatusOr<std::string> SimCluster::ReplicaGet(Slice key) {
  TEBIS_ASSIGN_OR_RETURN(Region * region, Route(key));
  const size_t pick =
      replica_rr_.fetch_add(1, std::memory_order_relaxed) % (1 + region->backup_hosts.size());
  if (pick == 0) {
    return region->host->Get(region->id, key, kNoTrace);
  }
  uint64_t visible_seq = 0;
  return region->backup_hosts[pick - 1]->ReplicaGet(region->id, key, /*min_epoch=*/0,
                                                     /*min_seq=*/0, &visible_seq);
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
  out.send_index_ns = snap.Sum("repl.send_index_cpu_ns");
  out.rewrite_index_ns = snap.Sum("backup.rewrite_cpu_ns");
  out.backup_insert_ns = snap.Sum("backup.insert_cpu_ns");
  out.backup_compaction_ns = snap.Sum("kv.compaction_cpu_ns", "role", "backup");
  // Values are RAW (inclusive) timings; with in-process channels the calls nest:
  //   put timer        ⊃ log replication (appends + every tail flush, the
  //                      seal's included)
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
    for (const BackupRegion* backup : region.backups) {
      total += backup->l0_memory_bytes();  // 0 for Send-Index: the paper's memory saving
    }
  }
  return total;
}

uint64_t SimCluster::TotalL0BudgetKeys() const {
  // Every primary keeps an L0, and so does every Build-Index backup.
  const uint64_t stores_with_l0 =
      options_.mode == ReplicationMode::kBuildIndex
          ? static_cast<uint64_t>(regions_.size()) * options_.replication_factor
          : regions_.size();
  return stores_with_l0 * options_.kv_options.l0_max_entries;
}

uint64_t SimCluster::TotalCompactions() const {
  // Primaries and Build-Index backups: the stores that compact.
  return telemetry_->Snapshot().Sum("kv.compactions");
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
    for (BackupRegion* backup : region->backups) {
      auto backup_value = backup->DebugGet(key);
      if (primary_value.ok() != backup_value.ok()) {
        return Status::Internal("backup divergence on " + key);
      }
      if (primary_value.ok() && *primary_value != *backup_value) {
        return Status::Internal("backup value mismatch on " + key);
      }
    }
  }
  return Status::Ok();
}

}  // namespace tebis
