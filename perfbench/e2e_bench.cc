// End-to-end benchmark of the Tebis RPC serving path: TebisClient -> client
// rings -> ServerEndpoint -> RegionServer -> PrimaryRegion/KvStore ->
// doorbell -> Send-Index backups, all in one process. See perfbench/README.md
// for the workloads, the metrics and the exclusive CPU buckets.
//
//   tebis_e2e --workload load_a|run_c|run_a_open --seed N --seconds S --trace 0|1
//   tebis_e2e --mode paper_shape --seed N
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 it carries the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run. Every layer is observed from
// outside through public functions only.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_server.h"
#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/ycsb/generator.h"
#include "src/ycsb/kv_size_mix.h"
#include "src/ycsb/sim_cluster.h"
#include "src/ycsb/workload.h"

namespace tebis {
namespace perfbench {
namespace {

// --- fixed cluster shape (part of every workload's definition) -------------

constexpr int kServers = 3;
constexpr uint32_t kRegions = 8;
constexpr int kReplicationFactor = 2;
constexpr int kSpinners = 1;
constexpr int kWorkers = 2;
constexpr int kCompactionWorkers = 1;
constexpr uint64_t kSegmentBytes = 256 * 1024;
constexpr uint64_t kSectorBytes = 512;
constexpr uint64_t kL0Keys = 2048;
constexpr uint32_t kGrowthFactor = 4;
constexpr uint32_t kMaxLevels = 3;
// Every server runs one client-endpoint spinner plus one replication spinner.
constexpr int kSpinningThreads = kServers * (kSpinners + 1);

// --- workload parameters ----------------------------------------------------

constexpr uint64_t kRecords = 300000;    // keys loaded by load_a and by the preload
constexpr size_t kBatch = 16;            // client group-commit size
constexpr size_t kWindow = 64;           // writes in flight during a load
constexpr uint64_t kOpenRate = 20000;    // run_a_open offered ops/s
constexpr uint64_t kReadBackKeys = 16384; // post-load check reads per path
constexpr int kSetupReps = 3;            // set-ups (and timed phases) per run
constexpr uint64_t kSampleEvery = 16;    // traced run: 1-in-N request sampling
constexpr size_t kTraceBlock = 512;      // traced run: ops per sampling on/off block
constexpr double kGhz = 2.4;             // paper's nominal clock for cycles/op
constexpr int kQuietPolls = 5;           // quiesce: unchanged 20 ms polls in a row
constexpr size_t kValueHeader = 12;      // item id (8) + CRC32C of the body (4)

double Us(double ns) { return ns / 1e3; }

// --- self-checking values -----------------------------------------------------

// The size class is a function of the key alone, so every seed sees the same
// sizes on the same hot keys; the seed varies the order of operations and
// the value bytes.
size_t ValueBytes(uint64_t item) {
  Random rng(FnvHash64(item));
  return kMixSD.SampleValueBytes(&rng, kYcsbKeySize);
}

// [item id][CRC32C of body][body]; the body depends on the version, so an
// update writes new bytes of the same size.
std::string MakeValue(uint64_t seed, uint64_t item, uint64_t version) {
  const size_t n = std::max(ValueBytes(item), kValueHeader + 1);
  std::string v(n, '\0');
  memcpy(v.data(), &item, 8);
  Random rng(seed * 0x9E3779B97F4A7C15ull ^ FnvHash64(item) ^ (version << 32));
  for (size_t i = kValueHeader; i < n; i += 8) {
    const uint64_t word = rng.Next();
    memcpy(v.data() + i, &word, std::min<size_t>(8, n - i));
  }
  const uint32_t crc = Crc32c(v.data() + kValueHeader, n - kValueHeader);
  memcpy(v.data() + 8, &crc, 4);
  return v;
}

bool ValueMatches(uint64_t seed, uint64_t item, const std::string& v) {
  if (v.size() != std::max(ValueBytes(item), kValueHeader + 1)) {
    return false;
  }
  uint64_t id = 0;
  uint32_t crc = 0;
  memcpy(&id, v.data(), 8);
  memcpy(&crc, v.data() + 8, 4);
  return id == item && crc == Crc32c(v.data() + kValueHeader, v.size() - kValueHeader);
}

// Every key once, in a seeded uniform shuffle. (A seeded multiplier
// permutation is not enough: some multipliers keep runs of consecutive
// inserts inside one region, which fills group-commit frames faster and
// moved load throughput by a third from seed to seed.)
std::vector<uint64_t> LoadOrder(uint64_t n, uint64_t seed) {
  std::vector<uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Random rng(seed);
  for (uint64_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  return order;
}

// --- outcome accounting ---------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t stale_reads = 0;  // backup read-back: NotFound on a key the primary holds
  std::vector<std::string> examples;  // first few failures, for the run record

  void Fail(const std::string& why) {
    failed++;
    if (examples.size() < 5) {
      examples.push_back(why);
    }
  }
};

// --- percentiles ----------------------------------------------------------------

struct Percentile {
  double us = 0;
  uint64_t n = 0;
  uint64_t beyond = 0;  // samples strictly above the percentile's rank
  bool supported = false;
};

// Nearest-rank percentile of raw nanosecond samples (sorts in place).
Percentile Pct(std::vector<uint64_t>* ns, double p) {
  Percentile out;
  out.n = ns->size();
  if (ns->empty()) {
    return out;
  }
  std::sort(ns->begin(), ns->end());
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(out.n))), 1, out.n);
  out.us = Us(static_cast<double>((*ns)[rank - 1]));
  out.beyond = out.n - rank;
  out.supported = out.beyond >= 10;
  return out;
}

double Median(std::vector<double> v);

// The median over repetitions (load repetitions, preloads, or timed phases
// that each start from the same quiesced state) of each repetition's
// percentile. An open loop's tail is set by a few compaction stalls per
// phase, and now and then one phase's stalls run several times longer; the
// median keeps that phase from setting the run's number. Supported only if
// every repetition supports it.
Percentile MedianPct(std::vector<std::vector<uint64_t>> repetitions, double p) {
  Percentile out;
  std::vector<double> values;
  out.supported = true;
  out.beyond = UINT64_MAX;
  for (std::vector<uint64_t>& r : repetitions) {
    if (r.empty()) {
      continue;
    }
    const Percentile one = Pct(&r, p);
    values.push_back(one.us);
    out.n += one.n;
    out.beyond = std::min(out.beyond, one.beyond);
    out.supported = out.supported && one.supported;
  }
  if (values.empty()) {
    return Percentile();
  }
  out.us = Median(values);
  return out;
}

double Mean(const std::vector<uint64_t>& ns) {
  if (ns.empty()) {
    return 0;
  }
  return std::accumulate(ns.begin(), ns.end(), 0.0) / static_cast<double>(ns.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// --- process facts ----------------------------------------------------------------

// A field of /proc/self/status in its own unit (kB for Vm*), 0 if absent.
double ProcStatus(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0;
}

// --- the cluster ------------------------------------------------------------------

struct Shape {
  ReplicationMode mode = ReplicationMode::kSendIndex;
  // run_a_open: the page cache holds the whole dataset. Otherwise it is 25%
  // of the dataset (paper §4), split over the regions like bench_common does.
  bool cache_fits = false;
  size_t trace_capacity = 4096;  // the servers' default span ring
};

KvStoreOptions StoreOptions(const Shape& shape) {
  KvStoreOptions kv;
  kv.l0_max_entries = kL0Keys;
  kv.growth_factor = kGrowthFactor;
  kv.max_levels = kMaxLevels;
  const uint64_t dataset =
      static_cast<uint64_t>(static_cast<double>(kRecords) * kMixSD.AverageKvBytes());
  kv.cache_bytes = shape.cache_fits ? 2 * dataset / kRegions : dataset / 4 / kRegions;
  return kv;
}

BlockDeviceOptions DeviceOptions() {
  BlockDeviceOptions device;
  device.segment_size = kSegmentBytes;
  device.max_segments = 1 << 18;
  device.accounting_granularity = kSectorBytes;  // no bandwidth model
  return device;
}

class RpcCluster {
 public:
  static StatusOr<std::unique_ptr<RpcCluster>> Start(const Shape& shape) {
    std::unique_ptr<RpcCluster> c(new RpcCluster());
    RegionServerOptions options;
    options.num_spinners = kSpinners;
    options.num_workers = kWorkers;
    options.compaction_workers = kCompactionWorkers;
    options.device_options = DeviceOptions();
    options.kv_options = StoreOptions(shape);
    options.replication_mode = shape.mode;
    options.expected_regions = (kRegions * kReplicationFactor + kServers - 1) / kServers;
    options.trace_capacity = shape.trace_capacity;
    std::vector<std::string> names;
    for (int i = 0; i < kServers; ++i) {
      names.push_back("server" + std::to_string(i));
      c->servers_.push_back(
          std::make_unique<RegionServer>(&c->fabric_, &c->zk_, names.back(), options));
      TEBIS_RETURN_IF_ERROR(c->servers_.back()->Start());
      c->directory_[names.back()] = c->servers_.back().get();
    }
    c->master_ = std::make_unique<Master>(&c->zk_, "master0", c->directory_);
    TEBIS_RETURN_IF_ERROR(c->master_->Campaign());
    TEBIS_ASSIGN_OR_RETURN(RegionMap map, RegionMap::CreateUniform(kRegions, "user", 10, kRecords,
                                                                   names, kReplicationFactor));
    TEBIS_RETURN_IF_ERROR(c->master_->Bootstrap(map));
    RpcCluster* raw = c.get();
    c->client_ = std::make_unique<TebisClient>(
        &c->fabric_, "bench-client",
        [raw](const std::string& name) -> ServerEndpoint* {
          auto it = raw->directory_.find(name);
          return (it == raw->directory_.end() || it->second->crashed())
                     ? nullptr
                     : it->second->client_endpoint();
        },
        names);
    c->client_->set_rpc_timeout_ns(5'000'000'000ull);
    TEBIS_RETURN_IF_ERROR(c->client_->Connect());
    c->client_->set_batching(kBatch);
    return c;
  }

  RpcCluster(const RpcCluster&) = delete;
  RpcCluster& operator=(const RpcCluster&) = delete;
  ~RpcCluster() { Stop(); }

  // Stops every endpoint. Returns the cores the spinning threads burned over
  // the cluster's life: endpoints account spinner CPU only when they stop.
  double Stop() {
    double spin_ns = 0;
    for (auto& server : servers_) {
      server->Stop();
      spin_ns += static_cast<double>(server->client_endpoint()->spin_cpu_ns() +
                                     server->replication_endpoint()->spin_cpu_ns());
    }
    return spin_ns / static_cast<double>(NowNanos() - started_ns_);
  }

  TebisClient& client() { return *client_; }
  Fabric& fabric() { return fabric_; }
  const std::vector<std::unique_ptr<RegionServer>>& servers() const { return servers_; }
  std::shared_ptr<const RegionMap> map() const { return master_->current_map(); }

 private:
  RpcCluster() = default;

  const uint64_t started_ns_ = NowNanos();
  Fabric fabric_;
  Coordinator zk_;
  std::vector<std::unique_ptr<RegionServer>> servers_;
  std::map<std::string, RegionServer*> directory_;
  std::unique_ptr<Master> master_;
  std::unique_ptr<TebisClient> client_;
};

// --- counters, read from outside ----------------------------------------------------

// Counter name -> value, summed over the servers. "<name>@primary" and
// "<name>@backup" restrict a registry sum to one store role.
using Counters = std::map<std::string, double>;

double At(const Counters& c, const std::string& key) {
  auto it = c.find(key);
  return it == c.end() ? 0 : it->second;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [key, value] : after) {
    out[key] = value - At(before, key);
  }
  return out;
}

const char* const kPrimaryNames[] = {
    "kv.puts", "kv.gets", "kv.insert_l0_cpu_ns", "kv.compaction_cpu_ns", "kv.get_cpu_ns",
    "kv.compaction_queue_wait_ns", "kv.compaction_merge_ns", "kv.compaction_build_ns",
    "kv.compaction_ship_ns", "kv.write_stall_ns", "kv.write_slowdown_ns", "kv.filter_checks",
    "kv.filter_negatives", "kv.filter_false_positives"};
const char* const kBackupNames[] = {"kv.compaction_cpu_ns", "kv.compactions"};
const char* const kClusterNames[] = {
    "kv.compactions", "repl.log_replication_cpu_ns", "repl.log_flush_in_compaction_cpu_ns",
    "repl.send_index_cpu_ns", "repl.index_segments_shipped", "repl.index_bytes_shipped",
    "repl.flow_wait_ns", "wp.doorbells", "wp.doorbell_records", "backup.rewrite_cpu_ns",
    "backup.segments_rewritten", "backup.offsets_rewritten", "backup.insert_cpu_ns",
    "backup.records_inserted", "backup.replica_gets", "net.rpc_reply_timeouts",
    "net.rpc_send_failures"};

// Quiesce progress: what moves while compactions, index shipping and backup
// rewrites (or Build-Index backup replay) are still running.
const char* const kProgressNames[] = {"kv.compactions", "repl.index_segments_shipped",
                                      "backup.segments_rewritten", "backup.records_inserted"};

void AddRegistry(const MetricsSnapshot& snap, Counters* out) {
  for (const char* name : kPrimaryNames) {
    (*out)[std::string(name) + "@primary"] += static_cast<double>(snap.Sum(name, "role", "primary"));
  }
  for (const char* name : kBackupNames) {
    (*out)[std::string(name) + "@backup"] += static_cast<double>(snap.Sum(name, "role", "backup"));
  }
  for (const char* name : kClusterNames) {
    (*out)[name] += static_cast<double>(snap.Sum(name));
  }
}

void AddDevice(const IoStats& io, Counters* out) {
  for (int k = 0; k < kNumIoClasses; ++k) {
    const auto c = static_cast<IoClass>(k);
    (*out)[std::string("dev.read.") + IoClassName(c)] += static_cast<double>(io.ReadBytes(c));
    (*out)[std::string("dev.write.") + IoClassName(c)] += static_cast<double>(io.WriteBytes(c));
  }
  (*out)["dev.bytes"] += static_cast<double>(io.TotalBytes());
  (*out)["dev.read_ops"] += static_cast<double>(io.ReadOps());
  (*out)["dev.cache_hits"] += static_cast<double>(io.CacheHits());
  (*out)["dev.cache_misses"] += static_cast<double>(io.CacheMisses());
}

// Highest thread count any Capture saw (the run record's "threads").
double g_peak_threads = 0;

Counters Capture(RpcCluster& c) {
  g_peak_threads = std::max(g_peak_threads, ProcStatus("Threads"));
  Counters out;
  out["t_ns"] = static_cast<double>(NowNanos());
  out["proc_cpu_ns"] = static_cast<double>(ProcessCpuNanos());
  for (const auto& server : c.servers()) {
    AddRegistry(server->telemetry()->Snapshot(), &out);
    AddDevice(server->device()->stats(), &out);
    ServerEndpoint* client_ep = server->client_endpoint();
    ServerEndpoint* repl_ep = server->replication_endpoint();
    out["ep.client_frames"] += static_cast<double>(client_ep->messages_received());
    out["ep.repl_frames"] += static_cast<double>(repl_ep->messages_received());
    out["ep.polls"] += static_cast<double>(client_ep->polls_performed());
  }
  out["net.fabric_bytes"] = static_cast<double>(c.fabric().TotalBytes());
  const ClientStats& s = c.client().stats();
  out["client.ops"] = static_cast<double>(s.puts + s.gets + s.deletes + s.scans);
  out["client.batch_fallbacks"] = static_cast<double>(s.batch_fallbacks);
  out["client.retries"] = static_cast<double>(s.wrong_region_retries + s.truncated_retries +
                                              s.failover_retries + s.corruption_retries +
                                              s.replica_fallbacks);
  out["client.replica_reads"] = static_cast<double>(s.replica_reads);
  return out;
}

double Progress(const MetricsSnapshot& snap) {
  double total = 0;
  for (const char* name : kProgressNames) {
    total += static_cast<double>(snap.Sum(name));
  }
  return total;
}

// Polls `progress` every 20 ms until it stops moving for kQuietPolls polls in
// a row; returns the time of its last change. Deferred compaction therefore
// lands inside whichever window calls this.
StatusOr<uint64_t> Quiesce(const std::function<double()>& progress) {
  const uint64_t start = NowNanos();
  uint64_t last_change = start;
  double last = progress();
  int quiet = 0;
  while (quiet < kQuietPolls) {
    if (NowNanos() - start > 120'000'000'000ull) {
      return Status::Unavailable("cluster did not quiesce within 120 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double now = progress();
    if (now != last) {
      last = now;
      last_change = NowNanos();
      quiet = 0;
    } else {
      quiet++;
    }
  }
  return last_change;
}

StatusOr<uint64_t> Quiesce(RpcCluster& c) {
  return Quiesce([&c] {
    double total = 0;
    for (const auto& server : c.servers()) {
      total += Progress(server->telemetry()->Snapshot());
    }
    return total;
  });
}

// --- exclusive CPU buckets for the RPC arm (see README.md) ---------------------------

struct CpuBuckets {
  double insert_l0 = 0;
  double log_replication = 0;
  double compaction = 0;
  double send_index = 0;
  double rewrite = 0;
  double backup_insert = 0;
  double get = 0;

  double Total() const {
    return insert_l0 + log_replication + compaction + send_index + rewrite + backup_insert + get;
  }
};

double Peel(double outer, double inner) { return outer - std::min(outer, inner); }

CpuBuckets Buckets(const Counters& d) {
  CpuBuckets b;
  const double log_repl = At(d, "repl.log_replication_cpu_ns");
  const double flush_in_compaction = At(d, "repl.log_flush_in_compaction_cpu_ns");
  const double send_index = At(d, "repl.send_index_cpu_ns");
  const double backup_compaction = At(d, "kv.compaction_cpu_ns@backup");
  // Appends and tail flushes issued from the put path run on the writer
  // thread, inside the L0 insert timer.
  b.insert_l0 = Peel(At(d, "kv.insert_l0_cpu_ns@primary"), Peel(log_repl, flush_in_compaction));
  b.log_replication = log_repl;
  // Segment and end messages ship from inside the compaction timer.
  b.compaction = Peel(At(d, "kv.compaction_cpu_ns@primary"), send_index + flush_in_compaction) +
                 backup_compaction;
  b.send_index = send_index;
  // Backup work runs on the backup's replication workers: its own threads,
  // nested in no primary timer.
  b.rewrite = At(d, "backup.rewrite_cpu_ns");
  b.backup_insert = Peel(At(d, "backup.insert_cpu_ns"), backup_compaction);
  b.get = At(d, "kv.get_cpu_ns@primary");
  return b;
}

double Kcycles(double ns, double ops) { return ops > 0 ? ns * kGhz / ops / 1000.0 : 0; }

// --- load generation ----------------------------------------------------------------

// One client call (or one group-commit frame) as the benchmark saw it. A
// sampled request's "client" span lies inside exactly one unit.
struct Unit {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t ops = 0;
};

struct PhaseStats {
  std::vector<uint64_t> put_ns;  // issue -> ack (open loop: intended send -> ack)
  std::vector<uint64_t> get_ns;
  std::vector<uint64_t> lag_ns;  // open loop: actual send - intended send
  uint64_t ops = 0;
  uint64_t user_bytes = 0;  // key + value bytes written or read
  uint64_t start_ns = 0;    // first issue (open loop: first intended send)
  uint64_t end_ns = 0;      // last ack
  // Traced run: each op falls in a sampled or an unsampled block.
  std::vector<Unit> units;
  double on_ns = 0, off_ns = 0;  // summed per-op latency in each kind of block
  uint64_t on_ops = 0, off_ops = 0;
  double stage_ns = 0;  // sampled blocks: issue -> frame on the wire
  double post_ns = 0;   // sampled blocks: frame harvested -> op acked

  void Block(bool on, uint64_t ns) {
    (on ? on_ns : off_ns) += static_cast<double>(ns);
    (on ? on_ops : off_ops)++;
  }
};

// Traced runs toggle 1-in-N sampling per block of ops, so the same run gives
// both the spans and the tracing overhead. Blocks are switched on by a hash
// of their index: strict alternation would line up with the L0 fill period
// (a power-of-two number of puts) and put every compaction in the same kind
// of block.
class Sampler {
 public:
  Sampler(TebisClient* client, bool traced) : client_(client), traced_(traced) {}
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler() { client_->set_request_sampling(0); }

  bool Before(uint64_t op_index) {
    if (!traced_) {
      return false;
    }
    const bool on = (FnvHash64(op_index / kTraceBlock) & 1) != 0;
    client_->set_request_sampling(on ? kSampleEvery : 0);
    return on;
  }

 private:
  TebisClient* client_;
  bool traced_;
};

// Load A through client group commit: every key of `order` once, kWindow
// writes in flight, kBatch writes per frame. The benchmark mirrors the
// client's per-region staging to learn when each write went on the wire and
// when its frame was harvested.
void RunLoad(RpcCluster& c, const std::vector<uint64_t>& order, uint64_t seed, bool traced,
             Tally* tally, PhaseStats* out) {
  TebisClient& client = c.client();
  const std::shared_ptr<const RegionMap> map = c.map();
  struct Op {
    TebisClient::OpHandle handle = 0;
    uint64_t issue_ns = 0;
    uint32_t region = 0;
    int64_t frame = -1;
    bool on = false;
  };
  struct Frame {
    uint64_t call_ns = 0;
    uint64_t send_ns = 0;
    uint64_t harvest_ns = 0;
    uint32_t ops = 0;
  };
  std::vector<Op> ops;
  ops.reserve(order.size());
  std::vector<Frame> frames;
  std::map<uint32_t, std::vector<size_t>> staged;
  std::deque<size_t> window;
  Sampler sampler(&client, traced);

  auto flush = [&](uint32_t region, uint64_t call_ns, uint64_t send_ns) {
    std::vector<size_t>& queue = staged[region];
    if (queue.empty()) {
      return;
    }
    frames.push_back(Frame{call_ns, send_ns, 0, static_cast<uint32_t>(queue.size())});
    for (size_t i : queue) {
      ops[i].frame = static_cast<int64_t>(frames.size() - 1);
    }
    queue.clear();
  };
  auto complete = [&](size_t i) {
    Op& op = ops[i];
    const uint64_t call_ns = NowNanos();
    if (op.frame < 0) {
      flush(op.region, call_ns, call_ns);  // Wait pushes a partial group out
    }
    const TebisClient::OpResult result = client.Wait(op.handle);
    const uint64_t done = NowNanos();
    Frame& frame = frames[op.frame];
    if (frame.harvest_ns == 0) {
      frame.harvest_ns = done;
    }
    if (!result.status.ok()) {
      tally->Fail("put: " + result.status.ToString());
    }
    out->put_ns.push_back(done - op.issue_ns);
    out->end_ns = done;
    if (traced) {
      out->Block(op.on, done - op.issue_ns);
      if (op.on) {
        out->stage_ns += static_cast<double>(frame.send_ns - op.issue_ns);
        out->post_ns += static_cast<double>(done - frame.harvest_ns);
      }
    }
  };

  out->start_ns = NowNanos();
  for (size_t k = 0; k < order.size(); ++k) {
    const uint64_t item = order[k];
    const std::string key = YcsbKey(item);
    const std::string value = MakeValue(seed, item, 0);
    const bool on = sampler.Before(k);
    tally->attempted++;
    const uint64_t t0 = NowNanos();
    StatusOr<TebisClient::OpHandle> handle = client.PutAsync(key, value);
    const uint64_t t1 = NowNanos();
    if (!handle.ok()) {
      tally->Fail("put issue: " + handle.status().ToString());
      continue;
    }
    const size_t index = ops.size();
    ops.push_back(Op{*handle, t0, map->FindRegion(key)->region_id, -1, on});
    std::vector<size_t>& queue = staged[ops.back().region];
    queue.push_back(index);
    if (queue.size() >= kBatch) {
      flush(ops.back().region, t0, t1);
    }
    out->ops++;
    out->user_bytes += key.size() + value.size();
    window.push_back(index);
    if (window.size() >= kWindow) {
      complete(window.front());
      window.pop_front();
    }
  }
  while (!window.empty()) {
    complete(window.front());
    window.pop_front();
  }
  for (const Frame& frame : frames) {
    out->units.push_back(Unit{frame.call_ns, frame.harvest_ns, frame.ops});
  }
}

// One synchronous, self-checked get. Returns the bench-side span.
uint64_t CheckedGet(TebisClient& client, uint64_t seed, uint64_t item, Tally* tally,
                    PhaseStats* out, uint64_t* start_ns) {
  const std::string key = YcsbKey(item);
  tally->attempted++;
  *start_ns = NowNanos();
  StatusOr<std::string> value = client.Get(key);
  const uint64_t done = NowNanos();
  if (!value.ok()) {
    tally->Fail("get " + key + ": " + value.status().ToString());
  } else if (!ValueMatches(seed, item, *value)) {
    tally->Fail("get " + key + ": wrong value");
  } else {
    out->user_bytes += key.size() + value->size();
  }
  out->ops++;
  out->end_ns = done;
  return done - *start_ns;
}

// Reads a seeded sample of loaded keys back under `mode`. Under
// kBoundedStaleness the reads go to the leased backups, and at least one
// must be served there.
void ReadBack(RpcCluster& c, uint64_t seed, ReadMode mode, Tally* tally, PhaseStats* out) {
  TebisClient& client = c.client();
  const uint64_t replica_before = client.stats().replica_reads;
  client.set_read_mode(mode, /*staleness_bound=*/0);
  Random rng(seed + 99);
  out->start_ns = NowNanos();
  for (uint64_t i = 0; i < kReadBackKeys; ++i) {
    const uint64_t item = rng.Uniform(kRecords);
    if (mode != ReadMode::kBoundedStaleness) {
      uint64_t start = 0;
      out->get_ns.push_back(CheckedGet(client, seed, item, tally, out, &start));
      continue;
    }
    // Bounded staleness fences epochs, not sequence numbers, so a leased
    // backup may answer NotFound for a key it has not made visible yet. That
    // is a stale read, counted apart, as long as the primary holds the key.
    const std::string key = YcsbKey(item);
    tally->attempted++;
    const uint64_t start = NowNanos();
    StatusOr<std::string> value = client.Get(key);
    out->get_ns.push_back(NowNanos() - start);
    out->ops++;
    if (value.ok() && ValueMatches(seed, item, *value)) {
      out->user_bytes += key.size() + value->size();
    } else if (value.ok()) {
      tally->Fail("backup get " + key + ": wrong value");
    } else if (!value.status().IsNotFound()) {
      tally->Fail("backup get " + key + ": " + value.status().ToString());
    } else {
      client.set_read_mode(ReadMode::kPrimaryOnly);
      StatusOr<std::string> primary = client.Get(key);
      client.set_read_mode(mode, /*staleness_bound=*/0);
      if (primary.ok() && ValueMatches(seed, item, *primary)) {
        tally->stale_reads++;
      } else {
        tally->Fail("backup get " + key + ": NotFound, and the primary does not hold it");
      }
    }
  }
  client.set_read_mode(ReadMode::kPrimaryOnly);
  if (mode == ReadMode::kBoundedStaleness && client.stats().replica_reads == replica_before) {
    tally->Fail("read-back: no read was served by a backup");
  }
}

// Run C: synchronous scrambled-zipfian gets until `deadline_ns`.
void RunGets(RpcCluster& c, uint64_t seed, uint64_t deadline_ns, bool traced, Tally* tally,
             PhaseStats* out) {
  TebisClient& client = c.client();
  ScrambledZipfianGenerator zipf(kRecords);
  Random rng(seed + 7);
  Sampler sampler(&client, traced);
  out->start_ns = NowNanos();
  for (uint64_t k = 0; NowNanos() < deadline_ns; ++k) {
    const bool on = sampler.Before(k);
    uint64_t start = 0;
    const uint64_t ns = CheckedGet(client, seed, zipf.Next(&rng), tally, out, &start);
    out->get_ns.push_back(ns);
    if (traced) {
      out->Block(on, ns);
      out->units.push_back(Unit{start, start + ns, 1});
    }
  }
}

// Run A in open loop: 50% gets / 50% single-op updates at kOpenRate, timed
// from each op's intended send time.
void RunOpen(RpcCluster& c, uint64_t seed, uint64_t seconds, bool traced, Tally* tally,
             PhaseStats* out) {
  TebisClient& client = c.client();
  client.set_batching(1);
  ScrambledZipfianGenerator zipf(kRecords);
  Random rng(seed + 11);
  Sampler sampler(&client, traced);
  const uint64_t total = seconds * kOpenRate;
  const double interval_ns = 1e9 / static_cast<double>(kOpenRate);
  const uint64_t start = NowNanos() + 1'000'000;
  out->start_ns = start;
  for (uint64_t k = 0; k < total; ++k) {
    const uint64_t due = start + static_cast<uint64_t>(static_cast<double>(k) * interval_ns);
    while (NowNanos() < due) {
      std::this_thread::yield();
    }
    const bool on = sampler.Before(k);
    const bool read = rng.Uniform(100) < 50;
    const uint64_t item = zipf.Next(&rng);
    uint64_t send = 0;
    uint64_t service_ns = 0;
    if (read) {
      service_ns = CheckedGet(client, seed, item, tally, out, &send);
      out->get_ns.push_back(send + service_ns - due);
    } else {
      const std::string key = YcsbKey(item);
      const std::string value = MakeValue(seed, item, k + 1);
      tally->attempted++;
      send = NowNanos();
      const Status s = client.Put(key, value);
      const uint64_t done = NowNanos();
      if (!s.ok()) {
        tally->Fail("update " + key + ": " + s.ToString());
      }
      service_ns = done - send;
      out->put_ns.push_back(done - due);
      out->ops++;
      out->user_bytes += key.size() + value.size();
      out->end_ns = done;
    }
    out->lag_ns.push_back(send - due);
    if (traced) {
      out->Block(on, service_ns);
      out->units.push_back(Unit{send, send + service_ns, 1});
    }
  }
  client.set_batching(kBatch);
}

// --- per-layer attribution from request spans --------------------------------------

// Length of the union of `spans` clipped to [lo, hi].
uint64_t Covered(std::vector<const SpanRecord*> spans, uint64_t lo, uint64_t hi) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord* a, const SpanRecord* b) { return a->start_ns < b->start_ns; });
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (const SpanRecord* s : spans) {
    const uint64_t from = std::max(s->start_ns, cursor);
    const uint64_t to = std::min(s->end_ns, hi);
    if (to > from) {
      covered += to - from;
      cursor = to;
    }
  }
  return covered;
}

// Self time of `parents` (summed): each span minus the part its children cover.
double SelfNs(const std::vector<const SpanRecord*>& parents,
              const std::vector<const SpanRecord*>& children) {
  double self = 0;
  for (const SpanRecord* p : parents) {
    self += static_cast<double>((p->end_ns - p->start_ns) -
                                Covered(children, p->start_ns, p->end_ns));
  }
  return self;
}

// Op-weighted sums of per-layer self times over the sampled requests that
// matched a unit. The layers nest client > primary_apply > engine_apply >
// doorbell > backup_commit, so the five self times add up to the client span.
struct Layers {
  double weight = 0;
  double wire = 0;  // client span not covered by primary_apply
  double primary_self = 0;
  double engine = 0;
  double doorbell = 0;
  double commit = 0;
  double bench = 0;  // the matched units' own durations, as the benchmark timed them
  uint64_t traces = 0;
  uint64_t unmatched = 0;

  double MeanUs(double ns) const { return weight > 0 ? Us(ns / weight) : 0; }
  double SumUs() const { return MeanUs(wire + primary_self + engine + doorbell + commit); }
};

Layers Attribute(const std::vector<SpanRecord>& spans, const std::vector<Unit>& units,
                 bool writes_only) {
  struct Group {
    const SpanRecord* client = nullptr;
    std::vector<const SpanRecord*> primary, engine, doorbell, commit;
  };
  std::map<TraceId, Group> groups;
  for (const SpanRecord& s : spans) {
    if (!IsRequestTrace(s.trace)) {
      continue;
    }
    Group& g = groups[s.trace];
    if (strcmp(s.name, "client") == 0) {
      g.client = &s;
    } else if (strcmp(s.name, "primary_apply") == 0) {
      g.primary.push_back(&s);
    } else if (strcmp(s.name, "engine_apply") == 0) {
      g.engine.push_back(&s);
    } else if (strcmp(s.name, "doorbell") == 0) {
      g.doorbell.push_back(&s);
    } else if (strcmp(s.name, "backup_commit") == 0) {
      g.commit.push_back(&s);
    }
  }
  Layers out;
  for (const auto& [trace, g] : groups) {
    if (g.client == nullptr || g.primary.empty()) {
      continue;
    }
    // Units are in issue order; the one holding the span starts last at or
    // before it.
    auto it = std::upper_bound(units.begin(), units.end(), g.client->start_ns,
                               [](uint64_t t, const Unit& u) { return t < u.start_ns; });
    if (it == units.begin()) {
      continue;  // another phase's request
    }
    --it;
    if (g.client->end_ns > it->end_ns) {
      out.unmatched++;
      continue;
    }
    if (writes_only && g.engine.empty()) {
      continue;
    }
    const double w = it->ops;
    const uint64_t cs = g.client->start_ns;
    const uint64_t ce = g.client->end_ns;
    out.weight += w;
    out.traces++;
    out.wire += w * static_cast<double>((ce - cs) - Covered(g.primary, cs, ce));
    out.primary_self += w * SelfNs(g.primary, g.engine);
    out.engine += w * SelfNs(g.engine, g.doorbell);
    out.doorbell += w * SelfNs(g.doorbell, g.commit);
    out.commit += w * static_cast<double>(Covered(g.commit, cs, ce));
    out.bench += w * static_cast<double>(it->end_ns - it->start_ns);
  }
  return out;
}

std::vector<SpanRecord> CollectSpans(RpcCluster& c, Telemetry* client_plane) {
  std::vector<SpanRecord> spans = client_plane->traces()->Snapshot();
  for (const auto& server : c.servers()) {
    for (SpanRecord& s : server->telemetry()->traces()->Snapshot()) {
      spans.push_back(std::move(s));
    }
  }
  return spans;
}

// --- phases ---------------------------------------------------------------------------

// A started cluster, optionally preloaded and quiesced.
struct Prepared {
  std::unique_ptr<RpcCluster> cluster;
  PhaseStats preload;
  Counters window;  // counter deltas over the preload + quiesce
  double drain_s = 0;
  double setup_s = 0;
};

StatusOr<Prepared> Prepare(const Shape& shape, uint64_t seed, bool preload, bool traced,
                           Telemetry* client_plane, Tally* tally) {
  Prepared p;
  const uint64_t start = NowNanos();
  TEBIS_ASSIGN_OR_RETURN(p.cluster, RpcCluster::Start(shape));
  if (client_plane != nullptr) {
    p.cluster->client().set_telemetry(client_plane);
  }
  if (preload) {
    const Counters before = Capture(*p.cluster);
    RunLoad(*p.cluster, LoadOrder(kRecords, seed), seed, traced, tally, &p.preload);
    TEBIS_ASSIGN_OR_RETURN(uint64_t quiet, Quiesce(*p.cluster));
    p.drain_s = static_cast<double>(quiet - std::min(quiet, p.preload.end_ns)) / 1e9;
    p.window = Delta(before, Capture(*p.cluster));
  }
  p.setup_s = static_cast<double>(NowNanos() - start) / 1e9;
  return p;
}

// One Load A repetition on a fresh cluster, measured through the drain.
struct LoadRep {
  double setup_s = 0;
  double throughput_kops = 0;
  double kcycles_per_op = 0;
  double io_amp = 0;
  double net_amp = 0;
  double drain_s = 0;
  PhaseStats load;
  PhaseStats read_back;  // primary-path read-back (empty unless checked)
};

StatusOr<LoadRep> RunLoadRep(const Shape& shape, uint64_t seed, bool check, Tally* tally) {
  LoadRep rep;
  TEBIS_ASSIGN_OR_RETURN(Prepared p, Prepare(shape, seed, false, false, nullptr, tally));
  rep.setup_s = p.setup_s;
  RpcCluster& c = *p.cluster;
  const Counters before = Capture(c);
  RunLoad(c, LoadOrder(kRecords, seed), seed, false, tally, &rep.load);
  TEBIS_ASSIGN_OR_RETURN(uint64_t quiet, Quiesce(c));
  const Counters d = Delta(before, Capture(c));
  const double ops = static_cast<double>(rep.load.ops);
  const double bytes = static_cast<double>(rep.load.user_bytes);
  rep.throughput_kops = ops / (static_cast<double>(rep.load.end_ns - rep.load.start_ns) / 1e9) / 1e3;
  rep.kcycles_per_op = Kcycles(Buckets(d).Total(), ops);
  rep.io_amp = At(d, "dev.bytes") / bytes;
  rep.net_amp = At(d, "net.fabric_bytes") / bytes;
  rep.drain_s = static_cast<double>(quiet - std::min(quiet, rep.load.end_ns)) / 1e9;
  if (check) {
    PhaseStats replica;
    ReadBack(c, seed, ReadMode::kBoundedStaleness, tally, &replica);
    ReadBack(c, seed, ReadMode::kPrimaryOnly, tally, &rep.read_back);
  }
  return rep;
}

// --- engine-only arm ------------------------------------------------------------------

// The same op stream replayed through SimCluster's direct channels: the same
// engines and replication, no client, rings or endpoints. RPC minus engine is
// the transport's cost.
struct EngineStats {
  double put_us = 0;  // load: wall time per write of kWindow-op batches; run_a_open: per Put
  double get_us = 0;  // per Get
  double op_us = 0;   // per op of the workload's measured phase
};

StatusOr<EngineStats> ReplayEngine(const std::string& workload, uint64_t seed, uint64_t seconds,
                                   Tally* tally) {
  Shape shape;
  shape.cache_fits = workload == "run_a_open";
  SimClusterOptions options;
  options.num_servers = kServers;
  options.num_regions = kRegions;
  options.replication_factor = kReplicationFactor;
  options.compaction_workers = kCompactionWorkers;
  options.kv_options = StoreOptions(shape);
  options.device_options = DeviceOptions();
  options.key_space = kRecords;
  TEBIS_ASSIGN_OR_RETURN(std::unique_ptr<SimCluster> sim, SimCluster::Create(options));

  EngineStats out;
  const std::vector<uint64_t> order = LoadOrder(kRecords, seed);
  const uint64_t load_start = NowNanos();
  for (size_t from = 0; from < order.size(); from += kWindow) {
    std::vector<std::string> keys, values;
    std::vector<KvStore::BatchOp> batch;
    for (size_t i = from; i < std::min(order.size(), from + kWindow); ++i) {
      keys.push_back(YcsbKey(order[i]));
      values.push_back(MakeValue(seed, order[i], 0));
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      batch.push_back({keys[i], values[i], false});
    }
    std::vector<Status> statuses;
    tally->attempted += batch.size();
    (void)sim->WriteBatch(batch, &statuses);
    for (const Status& s : statuses) {
      if (!s.ok()) {
        tally->Fail("engine put: " + s.ToString());
      }
    }
  }
  out.put_us = Us(static_cast<double>(NowNanos() - load_start) / static_cast<double>(order.size()));
  TEBIS_RETURN_IF_ERROR(Quiesce([&sim] { return Progress(sim->MetricsNow()); }).status());

  auto get = [&](uint64_t item) {
    const std::string key = YcsbKey(item);
    tally->attempted++;
    const uint64_t start = NowNanos();
    StatusOr<std::string> v = sim->Get(key);
    const uint64_t ns = NowNanos() - start;
    if (!v.ok() || !ValueMatches(seed, item, *v)) {
      tally->Fail("engine get " + key);
    }
    return ns;
  };
  std::vector<uint64_t> get_ns, put_ns;
  const uint64_t deadline = NowNanos() + std::min<uint64_t>(seconds, 3) * 1'000'000'000ull;
  if (workload == "load_a") {
    Random rng(seed + 99);
    for (uint64_t i = 0; i < kReadBackKeys; ++i) {
      get_ns.push_back(get(rng.Uniform(kRecords)));
    }
  } else {
    ScrambledZipfianGenerator zipf(kRecords);
    Random rng(seed + (workload == "run_c" ? 7 : 11));
    for (uint64_t k = 0; NowNanos() < deadline; ++k) {
      if (workload == "run_c" || rng.Uniform(100) < 50) {
        get_ns.push_back(get(zipf.Next(&rng)));
        continue;
      }
      const uint64_t item = zipf.Next(&rng);
      const std::string key = YcsbKey(item);
      const std::string value = MakeValue(seed, item, k + 1);
      tally->attempted++;
      const uint64_t start = NowNanos();
      const Status s = sim->Put(key, value);
      put_ns.push_back(NowNanos() - start);
      if (!s.ok()) {
        tally->Fail("engine update: " + s.ToString());
      }
    }
  }
  out.get_us = Us(Mean(get_ns));
  if (workload == "run_a_open") {
    out.put_us = Us(Mean(put_ns));
    out.op_us = Us((Mean(put_ns) * static_cast<double>(put_ns.size()) +
                    Mean(get_ns) * static_cast<double>(get_ns.size())) /
                   static_cast<double>(put_ns.size() + get_ns.size()));
  } else {
    out.op_us = workload == "load_a" ? out.put_us : out.get_us;
  }
  return out;
}

// --- output -----------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  // Listed in BENCHMARK.json and printed in the result line. The others are
  // printed for interpretation only: zero on some workload by construction
  // (generator lag in a closed loop) or at this cluster shape (write stalls),
  // or zero on every correct run (failed_op_ratio).
  bool listed = true;
};

std::string Num(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  std::string mode = "measure";
  std::string commit = "unknown";
  uint64_t seed = 1;
  uint64_t seconds = 10;
  bool trace = false;
};

void PrintRunRecord(const Args& a, const Tally& tally, double cpu_cores,
                    const std::vector<std::pair<std::string, Percentile>>& percentiles) {
  std::string r = "{\"run_record\": {";
  r += "\"commit\": " + Quote(a.commit) + ", \"workload\": " + Quote(a.workload);
  r += ", \"seed\": " + std::to_string(a.seed) + ", \"seconds\": " + std::to_string(a.seconds);
  r += ", \"trace\": " + std::to_string(a.trace ? 1 : 0);
  r += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  r += ", \"threads\": " + Num(g_peak_threads);
  r += ", \"spinning_threads\": " + std::to_string(kSpinningThreads);
  r += ", \"proc.cpu_cores\": " + Num(cpu_cores);
  auto field = [](const char* name, uint64_t value) {
    return std::string(", \"") + name + "\": " + std::to_string(value);
  };
  r += ", \"shape\": {\"mode\": \"send_index\", \"mix\": \"SD\"" + field("servers", kServers) +
       field("regions", kRegions) + field("replication_factor", kReplicationFactor) +
       field("num_spinners", kSpinners) + field("num_workers", kWorkers) +
       field("compaction_workers", kCompactionWorkers) + field("segment_bytes", kSegmentBytes) +
       field("l0_keys", kL0Keys) + field("growth_factor", kGrowthFactor) +
       field("max_levels", kMaxLevels) + field("records", kRecords) + field("batch", kBatch) +
       field("window", kWindow) + field("open_rate", kOpenRate) + "}";
  r += ", \"attempted\": " + std::to_string(tally.attempted);
  r += ", \"failed_op_ratio\": " +
       Num(tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                     static_cast<double>(tally.attempted)
                               : 0);
  r += ", \"stale_backup_reads\": " + std::to_string(tally.stale_reads);
  r += ", \"failures\": [";
  for (size_t i = 0; i < tally.examples.size(); ++i) {
    r += (i > 0 ? ", " : "") + Quote(tally.examples[i]);
  }
  r += "], \"percentiles\": {";
  for (size_t i = 0; i < percentiles.size(); ++i) {
    const Percentile& p = percentiles[i].second;
    r += (i > 0 ? ", " : "") + Quote(percentiles[i].first) + ": {\"n\": " +
         std::to_string(p.n) + ", \"beyond\": " + std::to_string(p.beyond) +
         ", \"supported\": " + (p.supported ? "true" : "false") + "}";
  }
  r += "}}}";
  printf("%s\n", r.c_str());
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    printf("  %-40s %16s %-10s%s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str(),
           m.listed ? "" : "  (not in the result line)");
  }
}

// The last line of standard output.
void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string r = "{\"correct\": ";
  r += (tally.failed == 0 && tally.attempted > 0) ? "true" : "false";
  r += ", \"attempted\": " + std::to_string(tally.attempted);
  r += ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.listed) {
      continue;
    }
    r += (first ? "" : ", ") + Quote(m.name) + ": {\"value\": " + Num(m.value) +
         ", \"unit\": " + Quote(m.unit) + "}";
    first = false;
  }
  r += "}}";
  printf("%s\n", r.c_str());
  fflush(stdout);
}

double PeakRssMb() { return ProcStatus("VmHWM") / 1024.0; }

// --- the timed run (--trace 0) ------------------------------------------------------------

// run_c and run_a_open split the run into kSetupReps timed phases.
uint64_t PhaseSeconds(uint64_t seconds) {
  return std::max<uint64_t>(1, seconds / kSetupReps);
}

int Fatal(const Status& s) {
  fprintf(stderr, "tebis_e2e: %s\n", s.ToString().c_str());
  return 1;
}

int RunMeasured(const Args& a) {
  Tally tally;
  std::vector<double> setups;
  // Latency samples per repetition: load repetitions, preload set-ups, or
  // the one timed phase.
  std::vector<std::vector<uint64_t>> put_windows, get_windows;
  std::vector<uint64_t> lag_ns;
  double throughput = 0, kcycles = 0, io_amp = 0, net_amp = 0, cpu_cores = 0;
  if (a.workload == "load_a") {
    // Repetitions on fresh clusters until the window is used up; every
    // metric is a median over repetitions.
    std::vector<double> tput, kc, io, net;
    const uint64_t start = NowNanos();
    const uint64_t cpu_start = ProcessCpuNanos();
    do {
      StatusOr<LoadRep> rep = RunLoadRep(Shape(), a.seed, true, &tally);
      if (!rep.ok()) {
        return Fatal(rep.status());
      }
      setups.push_back(rep->setup_s);
      tput.push_back(rep->throughput_kops);
      kc.push_back(rep->kcycles_per_op);
      io.push_back(rep->io_amp);
      net.push_back(rep->net_amp);
      put_windows.push_back(std::move(rep->load.put_ns));
      get_windows.push_back(std::move(rep->read_back.get_ns));
    } while (NowNanos() - start < a.seconds * 1'000'000'000ull);
    throughput = Median(tput);
    kcycles = Median(kc);
    io_amp = Median(io);
    net_amp = Median(net);
    cpu_cores = static_cast<double>(ProcessCpuNanos() - cpu_start) /
                static_cast<double>(NowNanos() - start);
  } else {
    // Three set-ups, each followed by a timed phase of a third of the run;
    // scalar metrics are medians over phases.
    Shape shape;
    shape.cache_fits = a.workload == "run_a_open";
    const uint64_t phase_s = PhaseSeconds(a.seconds);
    std::vector<double> tput, kc, io, net, cores;
    for (int r = 0; r < kSetupReps; ++r) {
      StatusOr<Prepared> p = Prepare(shape, a.seed, true, false, nullptr, &tally);
      if (!p.ok()) {
        return Fatal(p.status());
      }
      setups.push_back(p->setup_s);
      // Run C has no writes in its phase: its put latency is the preloads'.
      if (a.workload == "run_c") {
        put_windows.push_back(std::move(p->preload.put_ns));
      }
      RpcCluster& c = *p->cluster;
      PhaseStats main;
      const Counters before = Capture(c);
      if (a.workload == "run_c") {
        RunGets(c, a.seed, NowNanos() + phase_s * 1'000'000'000ull, false, &tally, &main);
      } else {
        RunOpen(c, a.seed, phase_s, false, &tally, &main);
      }
      if (StatusOr<uint64_t> quiet = Quiesce(c); !quiet.ok()) {
        return Fatal(quiet.status());
      }
      // Amplification and cycles count the whole phase through its drain.
      const Counters d = Delta(before, Capture(c));
      const double ops = static_cast<double>(main.ops);
      tput.push_back(ops / (static_cast<double>(main.end_ns - main.start_ns) / 1e9) / 1e3);
      kc.push_back(Kcycles(Buckets(d).Total(), ops));
      io.push_back(At(d, "dev.bytes") / static_cast<double>(main.user_bytes));
      net.push_back(At(d, "net.fabric_bytes") / static_cast<double>(main.user_bytes));
      cores.push_back(At(d, "proc_cpu_ns") / At(d, "t_ns"));
      get_windows.push_back(std::move(main.get_ns));
      if (a.workload == "run_a_open") {
        put_windows.push_back(std::move(main.put_ns));
      }
      lag_ns.insert(lag_ns.end(), main.lag_ns.begin(), main.lag_ns.end());
    }
    throughput = Median(tput);
    kcycles = Median(kc);
    io_amp = Median(io);
    net_amp = Median(net);
    cpu_cores = Median(cores);
  }
  for (const auto& [name, windows] : {std::pair{"put", &put_windows}, {"get", &get_windows}}) {
    printf("%s p50/p99 us per repetition:", name);
    for (std::vector<uint64_t> w : *windows) {
      printf(" %.1f/%.1f", Pct(&w, 50).us, Pct(&w, 99).us);
    }
    printf("\n");
  }
  const Percentile put50 = MedianPct(put_windows, 50), put99 = MedianPct(put_windows, 99);
  const Percentile get50 = MedianPct(get_windows, 50), get99 = MedianPct(get_windows, 99);
  const Percentile lag50 = Pct(&lag_ns, 50), lag99 = Pct(&lag_ns, 99);
  const Percentile put999 = MedianPct(put_windows, 99.9), get999 = MedianPct(get_windows, 99.9);
  std::vector<Metric> metrics = {
      {"throughput_kops", "kops", throughput},
      {"put_p50_us", "us", put50.us},
      {"put_p99_us", "us", put99.us},
      {"get_p50_us", "us", get50.us},
      {"get_p99_us", "us", get99.us},
      {"server_kcycles_per_op", "kcycles", kcycles},
      {"io_amp", "x", io_amp},
      {"net_amp", "x", net_amp},
      {"setup_s", "s", Median(setups)},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"failed_op_ratio", "ratio",
       static_cast<double>(tally.failed) / static_cast<double>(std::max<uint64_t>(tally.attempted, 1)),
       false},
      {"put_p999_us", "us", put999.us, false},
      {"get_p999_us", "us", get999.us, false},
      {"loadgen.lag_p50_us", "us", lag50.us, false},
      {"loadgen.lag_p99_us", "us", lag99.us, false},
  };
  PrintRunRecord(a, tally, cpu_cores,
                 {{"put_p50_us", put50}, {"put_p99_us", put99}, {"get_p50_us", get50},
                  {"get_p99_us", get99}, {"put_p999_us", put999},
                  {"get_p999_us", get999}, {"loadgen.lag_p50_us", lag50},
                  {"loadgen.lag_p99_us", lag99}});
  printf("%s, seed %" PRIu64 ", %zu set-ups:\n", a.workload.c_str(), a.seed, setups.size());
  PrintMetrics(metrics);
  PrintResult(tally, metrics);
  return 0;
}

// --- the traced run (--trace 1) ---------------------------------------------------------

Counters Sum(const Counters& a, const Counters& b) {
  Counters out = a;
  for (const auto& [key, value] : b) {
    out[key] += value;
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int RunTraced(const Args& a) {
  Tally tally;
  Telemetry client_plane(1 << 17);
  Shape shape;
  shape.cache_fits = a.workload == "run_a_open";
  shape.trace_capacity = 1 << 17;
  const bool load = a.workload == "load_a";
  StatusOr<Prepared> prepared = Prepare(shape, a.seed, !load, true, &client_plane, &tally);
  if (!prepared.ok()) {
    return Fatal(prepared.status());
  }
  Prepared& p = *prepared;
  RpcCluster& c = *p.cluster;

  // Measured phase + drain.
  PhaseStats main;
  const Counters before = Capture(c);
  if (load) {
    RunLoad(c, LoadOrder(kRecords, a.seed), a.seed, true, &tally, &main);
  } else if (a.workload == "run_c") {
    RunGets(c, a.seed, NowNanos() + PhaseSeconds(a.seconds) * 1'000'000'000ull, true, &tally,
            &main);
  } else {
    RunOpen(c, a.seed, PhaseSeconds(a.seconds), true, &tally, &main);
  }
  StatusOr<uint64_t> quiet = Quiesce(c);
  if (!quiet.ok()) {
    return Fatal(quiet.status());
  }
  const Counters w_main = Delta(before, Capture(c));

  // Load A's check: read back through a leased backup and through the primary.
  Counters w_check;
  if (load) {
    const Counters check_before = Capture(c);
    PhaseStats replica, primary;
    ReadBack(c, a.seed, ReadMode::kBoundedStaleness, &tally, &replica);
    ReadBack(c, a.seed, ReadMode::kPrimaryOnly, &tally, &primary);
    w_check = Delta(check_before, Capture(c));
  }
  const Counters whole = Sum(Sum(p.window, w_main), w_check);

  const std::vector<SpanRecord> spans = CollectSpans(c, &client_plane);
  const Layers layers = Attribute(spans, main.units, false);
  // Write-path layers come from the measured phase, or from the preload when
  // the workload itself does not write (run_c).
  const bool main_writes = At(w_main, "kv.puts@primary") > 0;
  const Layers writes = Attribute(spans, main_writes ? main.units : p.preload.units, true);
  Histogram group_commit;
  for (const auto& server : c.servers()) {
    const MetricsSnapshot snapshot = server->telemetry()->Snapshot();
    for (const MetricSample& s : snapshot.samples()) {
      if (s.name == "wp.group_commit_latency_ns") {
        group_commit.Merge(s.histogram);
      }
    }
  }
  const double drain_s =
      main_writes ? static_cast<double>(*quiet - std::min(*quiet, main.end_ns)) / 1e9 : p.drain_s;
  const double spin_cores = c.Stop();
  p.cluster.reset();

  StatusOr<EngineStats> engine =
      ReplayEngine(a.workload, a.seed, PhaseSeconds(a.seconds), &tally);
  if (!engine.ok()) {
    return Fatal(engine.status());
  }

  // Per-put metrics use the window that wrote, per-get metrics the one that read.
  const Counters& w_put = main_writes ? w_main : p.window;
  const Counters& w_get = At(w_main, "kv.gets@primary") > 0 ? w_main : w_check;
  const double puts = At(w_put, "kv.puts@primary");
  const double gets = At(w_get, "kv.gets@primary");
  const double ops = At(w_main, "client.ops");
  const CpuBuckets put_cpu = Buckets(w_put);
  const double client_frames = At(w_main, "ep.client_frames");
  const double on_mean_ns = Ratio(main.on_ns, static_cast<double>(main.on_ops));
  const double off_mean_ns = Ratio(main.off_ns, static_cast<double>(main.off_ops));
  const double stage_us = Us(Ratio(main.stage_ns, static_cast<double>(main.on_ops)));
  const double post_us = Us(Ratio(main.post_ns, static_cast<double>(main.on_ops)));
  // Per-op time the RPC arm took: a pipelined load's inverse throughput, or
  // a synchronous op's mean service time.
  const double rpc_op_us =
      load ? Us(static_cast<double>(main.end_ns - main.start_ns) / static_cast<double>(main.ops))
           : Us((main.on_ns + main.off_ns) / static_cast<double>(main.on_ops + main.off_ops));
  // Layer sum against the end-to-end mean of the same ops: for a load, every
  // op of the sampled blocks (client staging and harvest are timed for each
  // op); for synchronous ops, the sampled requests' own bench spans.
  const double layer_sum_us = stage_us + layers.SumUs() + post_us;
  const double e2e_us = load ? Us(on_mean_ns) : layers.MeanUs(layers.bench);
  const double layer_sum_ratio = Ratio(layer_sum_us, e2e_us);
  auto dev_class = [&](const char* io_class) {
    return Ratio(At(w_put, std::string("dev.read.") + io_class) +
                     At(w_put, std::string("dev.write.") + io_class),
                 puts);
  };
  std::vector<uint64_t> lag_ns = main.lag_ns;
  const Percentile lag50 = Pct(&lag_ns, 50), lag99 = Pct(&lag_ns, 99);

  const std::vector<Metric> metrics = {
      {"client.ops_per_frame", "ops", Ratio(ops, client_frames)},
      {"client.batch_fallbacks", "count", At(whole, "client.batch_fallbacks")},
      {"client.retries_per_kop", "count", 1e3 * Ratio(At(whole, "client.retries"), At(whole, "client.ops"))},
      {"client.stage_us", "us", stage_us, false},
      {"client.post_us", "us", post_us, false},
      {"net.frames_per_op", "frames", Ratio(client_frames + At(w_main, "ep.repl_frames"), ops)},
      {"net.repl_frames_per_op", "frames", Ratio(At(w_put, "ep.repl_frames"), puts)},
      {"net.polls_per_frame", "polls", Ratio(At(w_main, "ep.polls"), client_frames)},
      {"net.spin_cores", "cores", spin_cores},
      {"net.fabric_bytes_per_op", "B", Ratio(At(w_main, "net.fabric_bytes"), ops)},
      {"net.rpc_reply_timeouts", "count", At(whole, "net.rpc_reply_timeouts")},
      {"net.rpc_send_failures", "count", At(whole, "net.rpc_send_failures")},
      {"net.wire_us", "us", layers.MeanUs(layers.wire)},
      {"server.primary_apply_self_us", "us", layers.MeanUs(layers.primary_self)},
      {"kv.engine_apply_us", "us", writes.MeanUs(writes.engine)},
      {"repl.doorbell_us", "us", writes.MeanUs(writes.doorbell)},
      {"repl.backup_commit_us", "us", writes.MeanUs(writes.commit)},
      {"repl.records_per_doorbell", "records", Ratio(At(w_put, "wp.doorbell_records"), At(w_put, "wp.doorbells"))},
      {"repl.group_commit_p99_us", "us", Us(static_cast<double>(group_commit.Percentile(99)))},
      {"repl.flow_wait_ms", "ms", At(w_put, "repl.flow_wait_ns") / 1e6},
      {"repl.log_replication_kcycles_per_op", "kcycles", Kcycles(put_cpu.log_replication, puts)},
      {"repl.send_index_kcycles_per_op", "kcycles", Kcycles(put_cpu.send_index, puts)},
      {"repl.index_bytes_per_op", "B", Ratio(At(w_put, "repl.index_bytes_shipped"), puts)},
      {"backup.rewrite_kcycles_per_op", "kcycles", Kcycles(put_cpu.rewrite, puts)},
      {"backup.offsets_rewritten_per_op", "offsets", Ratio(At(w_put, "backup.offsets_rewritten"), puts)},
      {"kv.insert_l0_kcycles_per_op", "kcycles", Kcycles(put_cpu.insert_l0, puts)},
      {"kv.compaction_kcycles_per_op", "kcycles", Kcycles(put_cpu.compaction, puts)},
      {"kv.compactions_per_kop", "count", 1e3 * Ratio(At(w_put, "kv.compactions"), puts)},
      {"kv.compaction_queue_wait_ms", "ms", At(w_put, "kv.compaction_queue_wait_ns@primary") / 1e6},
      {"kv.compaction_merge_ms", "ms", At(w_put, "kv.compaction_merge_ns@primary") / 1e6},
      {"kv.compaction_build_ms", "ms", At(w_put, "kv.compaction_build_ns@primary") / 1e6},
      {"kv.compaction_ship_ms", "ms", At(w_put, "kv.compaction_ship_ns@primary") / 1e6},
      {"kv.write_stall_ms", "ms", At(w_put, "kv.write_stall_ns@primary") / 1e6, false},
      {"kv.write_slowdown_ms", "ms", At(w_put, "kv.write_slowdown_ns@primary") / 1e6, false},
      {"kv.drain_s", "s", drain_s},
      {"kv.get_kcycles_per_op", "kcycles", Kcycles(At(w_get, "kv.get_cpu_ns@primary"), gets)},
      {"kv.filter_skip_ratio", "ratio", Ratio(At(w_get, "kv.filter_negatives@primary"), At(w_get, "kv.filter_checks@primary"))},
      {"kv.filter_fp_ratio", "ratio", Ratio(At(w_get, "kv.filter_false_positives@primary"),
                                            At(w_get, "kv.filter_negatives@primary") + At(w_get, "kv.filter_false_positives@primary"))},
      {"kv.cache_hit_ratio", "ratio", Ratio(At(w_get, "dev.cache_hits"), At(w_get, "dev.cache_hits") + At(w_get, "dev.cache_misses"))},
      {"dev.lookup_read_bytes_per_op", "B", Ratio(At(w_get, "dev.read.lookup"), gets)},
      {"dev.read_ops_per_get", "ops", Ratio(At(w_get, "dev.read_ops"), gets)},
      {"dev.log_flush_bytes_per_op", "B", dev_class("log_flush")},
      {"dev.compaction_read_bytes_per_op", "B", dev_class("compaction_read")},
      {"dev.compaction_write_bytes_per_op", "B", dev_class("compaction_write")},
      {"dev.index_rewrite_bytes_per_op", "B", dev_class("index_rewrite")},
      {"engine.put_us", "us", engine->put_us},
      {"engine.get_us", "us", engine->get_us},
      {"trace.overhead_pct", "%", 100.0 * (Ratio(on_mean_ns, off_mean_ns) - 1.0)},
      {"trace.layer_sum_ratio", "ratio", layer_sum_ratio},
      {"trace.transport_share", "ratio", 1.0 - Ratio(engine->op_us, rpc_op_us)},
      {"trace.requests", "count", static_cast<double>(layers.traces), false},
      {"loadgen.lag_p50_us", "us", lag50.us, false},
      {"loadgen.lag_p99_us", "us", lag99.us, false},
      {"proc.cpu_cores", "cores", Ratio(At(w_main, "proc_cpu_ns"), At(w_main, "t_ns"))},
      {"proc.threads", "count", g_peak_threads},
  };
  PrintRunRecord(a, tally, Ratio(At(w_main, "proc_cpu_ns"), At(w_main, "t_ns")),
                 {{"loadgen.lag_p50_us", lag50}, {"loadgen.lag_p99_us", lag99}});
  printf("%s traced run, seed %" PRIu64 ", %" PRIu64 " sampled requests matched (%" PRIu64
         " unmatched), layer sum %.2f us of %.2f us per op:\n",
         a.workload.c_str(), a.seed, layers.traces, layers.unmatched, layer_sum_us, e2e_us);
  PrintMetrics(metrics);
  PrintResult(tally, metrics);
  return 0;
}

// --- paper-shape check (one-off, not a gated workload) ------------------------------------

// Reruns load_a under Send-Index and Build-Index and prints the Send/Build
// ratios against the EXPERIMENTS.md Figure 7 bands for the SD mix.
int RunPaperShape(const Args& a) {
  constexpr int kReps = 3;
  struct Arm {
    const char* name;
    ReplicationMode mode;
    std::vector<double> tput, kcycles, io_amp;
  };
  Arm arms[] = {{"send_index", ReplicationMode::kSendIndex, {}, {}, {}},
                {"build_index", ReplicationMode::kBuildIndex, {}, {}, {}}};
  Tally tally;
  for (int r = 0; r < kReps; ++r) {
    for (Arm& arm : arms) {  // interleaved, so drift hits both arms alike
      Shape shape;
      shape.mode = arm.mode;
      StatusOr<LoadRep> rep = RunLoadRep(shape, a.seed + static_cast<uint64_t>(r), false, &tally);
      if (!rep.ok()) {
        return Fatal(rep.status());
      }
      arm.tput.push_back(rep->throughput_kops);
      arm.kcycles.push_back(rep->kcycles_per_op);
      arm.io_amp.push_back(rep->io_amp);
      printf("  %-11s rep %d: %.2f kops, %.3f kcycles/op, io amp %.2f\n", arm.name, r,
             rep->throughput_kops, rep->kcycles_per_op, rep->io_amp);
    }
  }
  struct Check {
    const char* name;
    double ratio, lo, hi;
  };
  const Check checks[] = {
      {"throughput (send/build)", Median(arms[0].tput) / Median(arms[1].tput), 1.10, 1.41},
      {"efficiency (build/send kcycles)", Median(arms[1].kcycles) / Median(arms[0].kcycles), 1.06,
       1.36},
      {"io amp (build/send)", Median(arms[1].io_amp) / Median(arms[0].io_amp), 1.13, 1.45},
  };
  printf("Load A over RPC, SD mix, RF=2, median of %d reps each:\n", kReps);
  std::string json = "{\"paper_shape\": {";
  for (size_t i = 0; i < 3; ++i) {
    const Check& c = checks[i];
    const bool in_band = c.ratio >= c.lo && c.ratio <= c.hi;
    printf("  %-32s %.3fx   paper band %.2f-%.2fx   %s\n", c.name, c.ratio, c.lo, c.hi,
           in_band ? "in band" : (c.ratio > c.hi ? "above band" : "below band"));
    json += (i > 0 ? ", " : "") + Quote(c.name) + ": " + Num(c.ratio);
  }
  json += "}, \"failed\": " + std::to_string(tally.failed) + "}";
  printf("%s\n", json.c_str());
  return tally.failed == 0 ? 0 : 1;
}

int Usage() {
  fprintf(stderr,
          "usage: tebis_e2e --workload load_a|run_c|run_a_open --seed N --seconds S "
          "--trace 0|1 [--commit SHA]\n"
          "       tebis_e2e --mode paper_shape [--seed N]\n");
  return 2;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      a.trace = strcmp(value, "1") == 0;
    } else if (flag == "--mode") {
      a.mode = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) {
    return Usage();
  }
  if (a.mode == "paper_shape") {
    return RunPaperShape(a);
  }
  if (a.mode != "measure" || a.seconds == 0 ||
      (a.workload != "load_a" && a.workload != "run_c" && a.workload != "run_a_open")) {
    return Usage();
  }
  return a.trace ? RunTraced(a) : RunMeasured(a);
}

}  // namespace
}  // namespace perfbench
}  // namespace tebis

int main(int argc, char** argv) { return tebis::perfbench::Main(argc, argv); }
