// Micro-benchmarks (google-benchmark) for the mechanisms the design builds
// on, including the headline ablation: rewriting a shipped index segment
// (Send-Index backup work) versus re-building the same index from sorted
// entries (what a Build-Index backup's compaction does, minus its read I/O).
//
// After the google-benchmark suites, main() runs the PR 2 pipeline comparison
// (one writer + three readers against one store, synchronous vs background
// compactions) and writes the numbers to BENCH_micro.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/lsm/btree_builder.h"
#include "src/lsm/btree_node.h"
#include "src/lsm/btree_reader.h"
#include "src/lsm/compaction.h"
#include "src/lsm/kv_store.h"
#include "src/lsm/memtable.h"
#include "src/net/message.h"
#include "src/net/worker_pool.h"
#include "src/replication/segment_map.h"
#include "src/storage/block_device.h"
#include "src/telemetry/telemetry.h"

namespace tebis {
namespace {

std::unique_ptr<BlockDevice> MakeDevice() {
  BlockDeviceOptions opts;
  opts.segment_size = 1 << 18;
  opts.max_segments = 1 << 16;
  auto dev = BlockDevice::Create(opts);
  return std::move(*dev);
}

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%010llu", static_cast<unsigned long long>(i));
  return buf;
}

// --- the ablation: rewrite vs rebuild -------------------------------------------

// Builds one leaf segment image with `entries` leaf entries.
std::string BuildLeafSegment(size_t entries) {
  std::string segment;
  std::vector<char> node(kDefaultNodeSize);
  size_t added = 0;
  uint64_t key = 0;
  while (added < entries) {
    LeafNodeBuilder builder(node.data(), node.size());
    while (!builder.Full() && added < entries) {
      builder.Add(Key(key), (key << 18) | 128, /*tombstone=*/false, KeyHash(Key(key)));
      key += 2;
      added++;
    }
    builder.Finish();
    segment.append(node.data(), node.size());
  }
  return segment;
}

void BM_IndexSegmentRewrite(benchmark::State& state) {
  // The Send-Index backup's translation (SendIndexBackupRegion::RewriteSegment):
  // the stream's flat log table, one offsets_rewritten add per segment. Every
  // entry names its own log segment, as in a shuffled load.
  const size_t entries = static_cast<size_t>(state.range(0));
  const std::string segment = BuildLeafSegment(entries);
  SegmentMap log_map;
  for (uint64_t seg = 0; seg < 2 * entries + 2; ++seg) {
    (void)log_map.Insert(seg, seg + 1000000);
  }
  const LogSegmentTable log_table(log_map, SegmentGeometry(1 << 18));
  Counter offsets_rewritten;
  auto no_index = [](uint64_t) -> StatusOr<uint64_t> {
    return Status::Internal("leaf-only segment");
  };
  std::string scratch;
  for (auto _ : state) {
    scratch = segment;
    uint64_t translated = 0;
    auto leaf_translate = [&](uint64_t offset) {
      StatusOr<uint64_t> local = log_table.Translate(offset);
      translated += local.ok();
      return local;
    };
    benchmark::DoNotOptimize(TranslateNodes(scratch.data(), scratch.size(), kDefaultNodeSize,
                                            leaf_translate, no_index));
    benchmark::DoNotOptimize(scratch.data());
    benchmark::ClobberMemory();
    offsets_rewritten.Add(translated);
  }
  if (offsets_rewritten.Value() != state.iterations() * entries) {
    state.SkipWithError("rewrite translated the wrong number of offsets");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * entries));
}
BENCHMARK(BM_IndexSegmentRewrite)->Arg(1000)->Arg(10000);

void BM_IndexSegmentRebuild(benchmark::State& state) {
  // The Build-Index equivalent: insert the same entries into a fresh leaf
  // image (in-memory sort order already given — this is the *lower bound* of
  // the backup's compaction CPU, ignoring its read I/O and merge).
  const size_t entries = static_cast<size_t>(state.range(0));
  std::vector<std::string> keys;
  std::vector<uint64_t> offsets;
  for (size_t i = 0; i < entries; ++i) {
    keys.push_back(Key(i * 2));
    offsets.push_back((static_cast<uint64_t>(i) << 18) | 128);
  }
  std::vector<char> node(kDefaultNodeSize);
  for (auto _ : state) {
    size_t added = 0;
    while (added < entries) {
      LeafNodeBuilder builder(node.data(), node.size());
      while (!builder.Full() && added < entries) {
        builder.Add(keys[added], offsets[added], /*tombstone=*/false, KeyHash(keys[added]));
        added++;
      }
      builder.Finish();
      benchmark::DoNotOptimize(node.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * entries));
}
BENCHMARK(BM_IndexSegmentRebuild)->Arg(1000)->Arg(10000);

// --- B+ tree ------------------------------------------------------------------

void BM_BTreeBulkLoad(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto device = MakeDevice();
    BTreeBuilder builder(device.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
    for (uint64_t i = 0; i < n; ++i) {
      (void)builder.Add(Key(i), i << 18, /*tombstone=*/false);
    }
    auto tree = builder.Finish();
    benchmark::DoNotOptimize(tree->root_offset);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * static_cast<int64_t>(n));
}
BENCHMARK(BM_BTreeBulkLoad)->Arg(10000)->Arg(100000);

void BM_MergeSources(benchmark::State& state) {
  // One compaction's merge and build: a 2,048-key memtable over a 6,144-key
  // level, streamed from the device, into a new level. Memtable keys take
  // every fourth slot, so each merges between level keys.
  constexpr uint64_t kMemKeys = 2048;
  constexpr uint64_t kLevelKeys = 6144;
  auto device = MakeDevice();
  Memtable memtable;
  BTreeBuilder level_builder(device.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  uint64_t mem_added = 0;
  uint64_t level_added = 0;
  for (uint64_t i = 0; mem_added < kMemKeys || level_added < kLevelKeys; ++i) {
    if (i % 4 == 3 && mem_added < kMemKeys) {
      memtable.Put(Key(i), ValueLocation{i << 18, false});
      mem_added++;
    } else if (level_added < kLevelKeys) {
      (void)level_builder.Add(Key(i), i << 18, /*tombstone=*/false);
      level_added++;
    }
  }
  auto level = level_builder.Finish();
  for (auto _ : state) {
    MemtableMergeSource mem_src(&memtable);
    LevelMergeSource level_src(device.get(), kDefaultNodeSize, *level, /*log=*/nullptr,
                               /*verifier=*/nullptr, /*cache=*/nullptr,
                               IoClass::kCompactionRead);
    (void)level_src.Init();
    BTreeBuilder builder(device.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
    MergeStageTiming timing;
    auto written = MergeSources({&mem_src, &level_src}, /*drop_tombstones=*/false, &builder,
                                &timing);
    auto tree = builder.Finish();
    if (!written.ok() || *written != kMemKeys + kLevelKeys || !tree.ok()) {
      state.SkipWithError("merge failed");
      break;
    }
    for (SegmentId seg : tree->segments) {
      (void)device->FreeSegment(seg);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * (kMemKeys + kLevelKeys)));
}
BENCHMARK(BM_MergeSources);

void BM_BTreeLookup(benchmark::State& state) {
  const uint64_t n = 100000;
  auto device = MakeDevice();
  BTreeBuilder builder(device.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  std::map<uint64_t, std::string> stored;
  for (uint64_t i = 0; i < n; ++i) {
    (void)builder.Add(Key(i), i, /*tombstone=*/false);
    stored[i] = Key(i);
  }
  auto tree = builder.Finish();
  BTreeReader reader(device.get(), nullptr, kDefaultNodeSize, *tree, IoClass::kLookup);
  FullKeyLoader loader = [&](uint64_t off, size_t) -> StatusOr<std::string> {
    return stored.at(off);
  };
  Random rng(1);
  for (auto _ : state) {
    const std::string key = Key(rng.Uniform(n));
    auto found = reader.Find(key, KeyHash(key), loader);
    benchmark::DoNotOptimize(found.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BTreeLookup);

// --- memtable -----------------------------------------------------------------

void BM_MemtableInsert(benchmark::State& state) {
  Random rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    Memtable table;
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      table.Put(Key(rng.Uniform(100000)), ValueLocation{static_cast<uint64_t>(i), false});
    }
    benchmark::DoNotOptimize(table.entries());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_MemtableInsert);

// --- message protocol -----------------------------------------------------------

void BM_MessageEncodeDecode(benchmark::State& state) {
  const size_t payload_size = static_cast<size_t>(state.range(0));
  std::string payload(payload_size, 'p');
  MessageHeader header{};
  header.payload_size = static_cast<uint32_t>(payload_size);
  header.padded_payload_size = static_cast<uint32_t>(PaddedPayloadSize(payload_size, false));
  header.type = static_cast<uint16_t>(MessageType::kPut);
  std::vector<char> buf(MessageWireSize(header.padded_payload_size));
  for (auto _ : state) {
    EncodeMessage(buf.data(), header, payload);
    MessageHeader out;
    benchmark::DoNotOptimize(TryDecodeHeader(buf.data(), &out));
    benchmark::DoNotOptimize(PayloadComplete(buf.data(), out));
    ScrubRendezvous(buf.data(), buf.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * buf.size()));
}
BENCHMARK(BM_MessageEncodeDecode)->Arg(33)->Arg(1023)->Arg(65536);

void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(128)->Arg(4096);

// --- compaction pipeline (PR 2) -------------------------------------------------
//
// The acceptance experiment: 4 client threads (1 writer + 3 readers) against a
// single store, once with synchronous compactions (the seed behavior: the
// writer blocks through every L0 flush and cascade) and once with a background
// worker pool. Readers only touch acked keys, so both runs do identical work;
// the delta is purely foreground/compaction overlap.

struct PipelineRunResult {
  double put_kops_per_sec = 0;
  double wall_seconds = 0;
  Histogram put_latency;
  uint64_t reads = 0;
  // The store's private telemetry plane at the end of the run: it holds this
  // store's instruments only, so a name's sum is the store's value.
  MetricsSnapshot metrics;
};

PipelineRunResult RunPipeline(WorkerPool* pool, uint64_t records, uint64_t l0_entries,
                              uint64_t bandwidth_mb) {
  BlockDeviceOptions dev_opts;
  dev_opts.segment_size = 1 << 18;
  dev_opts.max_segments = 1 << 17;
  // Model device bandwidth (TEBIS_BW_MB, as in the figure benches): without
  // it compaction costs no wall time and there is nothing to overlap.
  if (bandwidth_mb > 0) {
    dev_opts.cost_model.read_bandwidth_bytes_per_sec = bandwidth_mb * 1024 * 1024;
    dev_opts.cost_model.write_bandwidth_bytes_per_sec = bandwidth_mb * 1024 * 1024;
  }
  auto device_or = BlockDevice::Create(dev_opts);
  auto device = std::move(*device_or);

  KvStoreOptions opts;
  opts.l0_max_entries = l0_entries;
  opts.cache_bytes = 4 << 20;
  opts.compaction_pool = pool;
  auto store_or = KvStore::Create(device.get(), opts);
  auto store = std::move(*store_or);

  const std::string value(120, 'v');
  constexpr int kReaders = 3;
  std::atomic<uint64_t> watermark{0};  // keys [0, watermark) are acked
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  PipelineRunResult result;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Fixed-rate load, not a spin loop: unthrottled readers turn the
      // writer's CPU share into a scheduler lottery and the measurement
      // into noise (this box may have a single core).
      Random rng(100 + r);
      uint64_t local_reads = 0;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t hi = watermark.load(std::memory_order_acquire);
        if (hi == 0) {
          std::this_thread::yield();
          continue;
        }
        auto found = store->Get(Key(rng.Uniform(hi)));
        if (!found.ok()) {
          fprintf(stderr, "pipeline bench: lost key: %s\n", found.status().ToString().c_str());
          abort();
        }
        local_reads++;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      reads.fetch_add(local_reads, std::memory_order_relaxed);
    });
  }

  const uint64_t start_ns = NowNanos();
  for (uint64_t i = 0; i < records; ++i) {
    const uint64_t t0 = NowNanos();
    Status status = store->Put(Key(i), value);
    if (!status.ok()) {
      fprintf(stderr, "pipeline bench: put failed: %s\n", status.ToString().c_str());
      abort();
    }
    result.put_latency.Record(NowNanos() - t0);
    watermark.store(i + 1, std::memory_order_release);
  }
  const uint64_t wall_ns = NowNanos() - start_ns;
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) {
    reader.join();
  }

  result.wall_seconds = static_cast<double>(wall_ns) / 1e9;
  result.put_kops_per_sec = static_cast<double>(records) / 1e3 / result.wall_seconds;
  result.reads = reads.load(std::memory_order_relaxed);
  result.metrics = store->telemetry()->metrics()->Snapshot();
  store.reset();  // drains background work before the pool stops
  return result;
}

void ReportPipelineRun(const char* name, const PipelineRunResult& r) {
  printf("  %-14s %8.1f kops/s   put p50 %6.1fus p99 %6.1fus max %8.1fus   reads %8llu   "
         "bg compactions %llu   slowdowns %llu   stalls %llu\n",
         name, r.put_kops_per_sec,
         static_cast<double>(r.put_latency.Percentile(50)) / 1000.0,
         static_cast<double>(r.put_latency.Percentile(99)) / 1000.0,
         static_cast<double>(r.put_latency.max()) / 1000.0,
         static_cast<unsigned long long>(r.reads),
         static_cast<unsigned long long>(r.metrics.Sum("kv.background_compactions")),
         static_cast<unsigned long long>(r.metrics.Sum("kv.write_slowdowns")),
         static_cast<unsigned long long>(r.metrics.Sum("kv.write_stalls")));
}

void SetPipelineJson(bench::BenchJson* json, const std::string& section,
                     const PipelineRunResult& r) {
  json->Set(section, "put_kops_per_sec", r.put_kops_per_sec);
  bench::SetLatencyPercentiles(json, section, "put", r.put_latency);
  // The worst Put: the synchronous baseline pays a whole compaction cascade
  // here; the pipeline bounds it by the backpressure policy.
  json->Set(section, "put_p999_us",
            static_cast<double>(r.put_latency.Percentile(99.9)) / 1000.0);
  json->Set(section, "put_max_us", static_cast<double>(r.put_latency.max()) / 1000.0);
  json->Set(section, "reads", static_cast<double>(r.reads));
  json->Set(section, "background_compactions",
            static_cast<double>(r.metrics.Sum("kv.background_compactions")));
  json->Set(section, "write_slowdowns", static_cast<double>(r.metrics.Sum("kv.write_slowdowns")));
  json->Set(section, "write_stalls", static_cast<double>(r.metrics.Sum("kv.write_stalls")));
  json->Set(section, "compaction_queue_wait_ms",
            static_cast<double>(r.metrics.Sum("kv.compaction_queue_wait_ns")) / 1e6);
  json->Set(section, "compaction_merge_ms",
            static_cast<double>(r.metrics.Sum("kv.compaction_merge_ns")) / 1e6);
  json->Set(section, "compaction_build_ms",
            static_cast<double>(r.metrics.Sum("kv.compaction_build_ns")) / 1e6);
}

// Median of 3 runs by put throughput — single-box scheduling noise is large
// relative to the effect, so one run is not a stable record.
PipelineRunResult MedianPipelineRun(WorkerPool* pool, uint64_t records, uint64_t l0_entries,
                                    uint64_t bandwidth_mb) {
  std::vector<PipelineRunResult> runs;
  for (int i = 0; i < 3; ++i) {
    runs.push_back(RunPipeline(pool, records, l0_entries, bandwidth_mb));
  }
  std::sort(runs.begin(), runs.end(),
            [](const PipelineRunResult& a, const PipelineRunResult& b) {
              return a.put_kops_per_sec < b.put_kops_per_sec;
            });
  return runs[1];
}

void RunPipelineComparison() {
  const bench::BenchScale scale = bench::BenchScale::FromEnv();
  const uint64_t records = scale.records;
  const uint64_t l0_entries = scale.l0_entries;
  printf("\n-- compaction pipeline: 1 writer + 3 readers, %llu records, L0=%llu, %llu MB/s "
         "(median of 3) --\n",
         static_cast<unsigned long long>(records),
         static_cast<unsigned long long>(l0_entries),
         static_cast<unsigned long long>(scale.bandwidth_mb));

  const PipelineRunResult sync =
      MedianPipelineRun(nullptr, records, l0_entries, scale.bandwidth_mb);
  ReportPipelineRun("synchronous", sync);

  WorkerPool pool(2);
  pool.Start();
  const PipelineRunResult async =
      MedianPipelineRun(&pool, records, l0_entries, scale.bandwidth_mb);
  pool.Stop();
  ReportPipelineRun("background", async);

  const double speedup = async.put_kops_per_sec / sync.put_kops_per_sec;
  printf("  put-throughput speedup: %.2fx\n", speedup);

  bench::BenchJson json("micro");
  json.Set("pipeline", "records", static_cast<double>(records));
  json.Set("pipeline", "l0_entries", static_cast<double>(l0_entries));
  json.Set("pipeline", "device_bandwidth_mb", static_cast<double>(scale.bandwidth_mb));
  json.Set("pipeline", "client_threads", 4);
  json.Set("pipeline", "async_put_speedup", speedup);
  SetPipelineJson(&json, "pipeline_sync", sync);
  SetPipelineJson(&json, "pipeline_background", async);
  const std::string path = json.Write();
  if (!path.empty()) {
    printf("  wrote %s\n", path.c_str());
  }
}

// --- multiplexed shipping streams (PR 4) ----------------------------------------
//
// A replicated Send-Index cluster under a pure insert load, once with the
// replication plane serialized to one compaction at a time
// (max_background_compactions = 1, the PR 2 pipeline) and once with the
// multiplexed scheduler free to ship independent level pairs concurrently.
// Shipping throughput = index bytes shipped / wall time (load + final drain).

struct ShippingRunResult {
  double wall_seconds = 0;
  double put_kops_per_sec = 0;
  double ship_mb_per_sec = 0;
  uint64_t index_bytes_shipped = 0;
  uint64_t concurrent_peak = 0;
  uint64_t streams_opened = 0;
  uint64_t flow_wait_ns = 0;
};

ShippingRunResult RunShipping(uint32_t max_background, uint64_t records, uint64_t l0_entries,
                              uint64_t bandwidth_mb) {
  SimClusterOptions options;
  options.num_servers = 3;
  options.num_regions = 1;  // one region: all concurrency is between levels
  options.replication_factor = 3;
  options.mode = ReplicationMode::kSendIndex;
  options.compaction_workers = 3;
  options.kv_options.l0_max_entries = l0_entries;
  options.kv_options.max_background_compactions = max_background;
  // A steep cascade (f=2, six levels) keeps several disjoint level pairs
  // eligible at once; with the paper's f=4 almost every stream is an L0
  // spill and there is nothing for a second worker to overlap.
  options.kv_options.growth_factor = 2;
  options.kv_options.max_levels = 6;
  options.device_options.segment_size = 1 << 18;
  options.device_options.max_segments = 1 << 17;
  if (bandwidth_mb > 0) {
    options.device_options.cost_model.read_bandwidth_bytes_per_sec = bandwidth_mb * 1024 * 1024;
    options.device_options.cost_model.write_bandwidth_bytes_per_sec = bandwidth_mb * 1024 * 1024;
  }
  auto cluster_or = SimCluster::Create(options);
  if (!cluster_or.ok()) {
    fprintf(stderr, "shipping bench: cluster: %s\n", cluster_or.status().ToString().c_str());
    abort();
  }
  auto cluster = std::move(*cluster_or);

  const std::string value(120, 'v');
  const uint64_t start_ns = NowNanos();
  for (uint64_t i = 0; i < records; ++i) {
    Status status = cluster->Put(Key(i), value);
    if (!status.ok()) {
      fprintf(stderr, "shipping bench: put failed: %s\n", status.ToString().c_str());
      abort();
    }
  }
  // Drain: the final L0 and any in-flight background cascades finish shipping.
  if (Status status = cluster->FlushAll(); !status.ok()) {
    fprintf(stderr, "shipping bench: flush failed: %s\n", status.ToString().c_str());
    abort();
  }
  const uint64_t wall_ns = NowNanos() - start_ns;

  ShippingRunResult result;
  result.wall_seconds = static_cast<double>(wall_ns) / 1e9;
  result.put_kops_per_sec = static_cast<double>(records) / 1e3 / result.wall_seconds;
  const PrimaryRegion* region = cluster->region(0);
  const MetricsSnapshot metrics = region->telemetry()->metrics()->Snapshot();
  const MetricLabels& labels = region->telemetry_labels();
  result.index_bytes_shipped = metrics.Sum("repl.index_bytes_shipped", labels);
  result.streams_opened = metrics.Sum("repl.streams_opened", labels);
  result.flow_wait_ns = metrics.Sum("repl.flow_wait_ns", labels);
  result.ship_mb_per_sec =
      static_cast<double>(result.index_bytes_shipped) / (1024.0 * 1024.0) / result.wall_seconds;
  result.concurrent_peak = metrics.Sum("kv.concurrent_compaction_peak", labels);
  return result;
}

ShippingRunResult MedianShippingRun(uint32_t max_background, uint64_t records,
                                    uint64_t l0_entries, uint64_t bandwidth_mb) {
  std::vector<ShippingRunResult> runs;
  for (int i = 0; i < 3; ++i) {
    runs.push_back(RunShipping(max_background, records, l0_entries, bandwidth_mb));
  }
  std::sort(runs.begin(), runs.end(), [](const ShippingRunResult& a, const ShippingRunResult& b) {
    return a.ship_mb_per_sec < b.ship_mb_per_sec;
  });
  return runs[1];
}

void ReportShippingRun(const char* name, const ShippingRunResult& r) {
  printf("  %-12s %8.1f MB/s shipped   %8.1f put kops/s   wall %6.2fs   streams %llu   "
         "peak concurrency %llu   credit wait %.1fms\n",
         name, r.ship_mb_per_sec, r.put_kops_per_sec, r.wall_seconds,
         static_cast<unsigned long long>(r.streams_opened),
         static_cast<unsigned long long>(r.concurrent_peak),
         static_cast<double>(r.flow_wait_ns) / 1e6);
}

void SetShippingJson(bench::BenchJson* json, const std::string& section,
                     const ShippingRunResult& r) {
  json->Set(section, "ship_mb_per_sec", r.ship_mb_per_sec);
  json->Set(section, "put_kops_per_sec", r.put_kops_per_sec);
  json->Set(section, "wall_seconds", r.wall_seconds);
  json->Set(section, "index_bytes_shipped", static_cast<double>(r.index_bytes_shipped));
  json->Set(section, "streams_opened", static_cast<double>(r.streams_opened));
  json->Set(section, "concurrent_compaction_peak", static_cast<double>(r.concurrent_peak));
  json->Set(section, "flow_wait_ms", static_cast<double>(r.flow_wait_ns) / 1e6);
}

void RunShippingComparison() {
  const bench::BenchScale scale = bench::BenchScale::FromEnv();
  const uint64_t records = scale.records;
  const uint64_t l0_entries = scale.l0_entries;
  // The A/B isolates the replication plane, which on real hardware is
  // NIC/flash-bound. At the full TEBIS_BW_MB (400 MB/s default) the
  // single-host sim is writer-CPU-bound and both arms just measure the Put
  // loop, so run the shipping comparison with a device-bound fraction of the
  // configured bandwidth (scales with TEBIS_BW_MB; 0 still disables).
  const uint64_t ship_bandwidth_mb =
      scale.bandwidth_mb == 0 ? 0 : std::max<uint64_t>(scale.bandwidth_mb / 8, 1);
  printf("\n-- shipping streams: serialized vs multiplexed, RF=3, %llu records, L0=%llu, "
         "%llu MB/s (median of 3) --\n",
         static_cast<unsigned long long>(records),
         static_cast<unsigned long long>(l0_entries),
         static_cast<unsigned long long>(ship_bandwidth_mb));

  const ShippingRunResult serialized =
      MedianShippingRun(/*max_background=*/1, records, l0_entries, ship_bandwidth_mb);
  ReportShippingRun("serialized", serialized);

  const ShippingRunResult multiplexed =
      MedianShippingRun(/*max_background=*/0, records, l0_entries, ship_bandwidth_mb);
  ReportShippingRun("multiplexed", multiplexed);

  const double speedup = multiplexed.ship_mb_per_sec / serialized.ship_mb_per_sec;
  printf("  shipping-throughput speedup: %.2fx\n", speedup);

  bench::BenchJson json("pr4");
  json.Set("shipping", "records", static_cast<double>(records));
  json.Set("shipping", "l0_entries", static_cast<double>(l0_entries));
  json.Set("shipping", "device_bandwidth_mb", static_cast<double>(ship_bandwidth_mb));
  json.Set("shipping", "replication_factor", 3);
  json.Set("shipping", "compaction_workers", 3);
  json.Set("shipping", "multiplexed_ship_speedup", speedup);
  SetShippingJson(&json, "shipping_serialized", serialized);
  SetShippingJson(&json, "shipping_multiplexed", multiplexed);
  const std::string path = json.Write();
  if (!path.empty()) {
    printf("  wrote %s\n", path.c_str());
  }
}

// --- telemetry overhead (PR 5) --------------------------------------------------
//
// The acceptance A/B for the unified telemetry plane: the same single-store
// put loop once against a fully enabled shared plane (labelled instruments +
// span ring, the RegionServer/SimCluster configuration) and once against the
// default no-op arm (private unlabelled plane, tracing disabled). Counters
// are registry-backed in both arms — the delta isolates label resolution,
// shared-plane contention, and span recording, which must cost <= 2% put
// throughput.

struct TelemetryRunResult {
  double put_kops_per_sec = 0;
  uint64_t spans_recorded = 0;
};

TelemetryRunResult RunTelemetryArm(Telemetry* plane, uint64_t records, uint64_t l0_entries,
                                   uint64_t bandwidth_mb) {
  BlockDeviceOptions dev_opts;
  dev_opts.segment_size = 1 << 18;
  dev_opts.max_segments = 1 << 17;
  if (bandwidth_mb > 0) {
    dev_opts.cost_model.read_bandwidth_bytes_per_sec = bandwidth_mb * 1024 * 1024;
    dev_opts.cost_model.write_bandwidth_bytes_per_sec = bandwidth_mb * 1024 * 1024;
  }
  auto device_or = BlockDevice::Create(dev_opts);
  auto device = std::move(*device_or);

  KvStoreOptions opts;
  opts.l0_max_entries = l0_entries;
  opts.cache_bytes = 4 << 20;
  opts.telemetry = plane;  // null = the no-op arm (private plane, no tracing)
  if (plane != nullptr) {
    opts.telemetry_labels = {{"node", "bench"}, {"region", "0"}, {"role", "primary"}};
  }
  auto store_or = KvStore::Create(device.get(), opts);
  auto store = std::move(*store_or);

  const std::string value(120, 'v');
  const uint64_t start_ns = NowNanos();
  for (uint64_t i = 0; i < records; ++i) {
    Status status = store->Put(Key(i), value);
    if (!status.ok()) {
      fprintf(stderr, "telemetry bench: put failed: %s\n", status.ToString().c_str());
      abort();
    }
  }
  const uint64_t wall_ns = NowNanos() - start_ns;

  TelemetryRunResult result;
  result.put_kops_per_sec = static_cast<double>(records) / 1e3 /
                            (static_cast<double>(wall_ns) / 1e9);
  if (plane != nullptr) {
    result.spans_recorded = plane->traces()->Snapshot().size() + plane->traces()->dropped();
  }
  return result;
}

double MedianKops(std::vector<TelemetryRunResult> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const TelemetryRunResult& a, const TelemetryRunResult& b) {
              return a.put_kops_per_sec < b.put_kops_per_sec;
            });
  return runs[runs.size() / 2].put_kops_per_sec;
}

void RunTelemetryOverheadComparison() {
  const bench::BenchScale scale = bench::BenchScale::FromEnv();
  constexpr int kRunsPerArm = 5;
  printf("\n-- telemetry overhead: shared plane + tracing vs no-op, %llu records, L0=%llu "
         "(median of %d, interleaved) --\n",
         static_cast<unsigned long long>(scale.records),
         static_cast<unsigned long long>(scale.l0_entries), kRunsPerArm);

  // Interleave the arms so machine drift (thermal, page cache, scheduler)
  // lands on both equally instead of biasing whichever arm runs last.
  std::vector<TelemetryRunResult> off_runs, on_runs;
  uint64_t spans = 0;
  for (int i = 0; i < kRunsPerArm; ++i) {
    off_runs.push_back(
        RunTelemetryArm(nullptr, scale.records, scale.l0_entries, scale.bandwidth_mb));
    // A fresh plane per run so instrument counts don't accumulate across runs.
    Telemetry plane(/*trace_capacity=*/4096);
    on_runs.push_back(
        RunTelemetryArm(&plane, scale.records, scale.l0_entries, scale.bandwidth_mb));
    spans = on_runs.back().spans_recorded;
  }
  const double off_kops = MedianKops(off_runs);
  const double on_kops = MedianKops(on_runs);
  const double overhead_pct = (1.0 - on_kops / off_kops) * 100.0;
  printf("  no-op   %8.1f put kops/s\n", off_kops);
  printf("  enabled %8.1f put kops/s   (%llu spans recorded)\n", on_kops,
         static_cast<unsigned long long>(spans));
  printf("  put-throughput overhead: %.2f%% (budget: 2%%)\n", overhead_pct);

  bench::BenchJson json("pr5");
  json.Set("telemetry_overhead", "records", static_cast<double>(scale.records));
  json.Set("telemetry_overhead", "l0_entries", static_cast<double>(scale.l0_entries));
  json.Set("telemetry_overhead", "noop_put_kops_per_sec", off_kops);
  json.Set("telemetry_overhead", "enabled_put_kops_per_sec", on_kops);
  json.Set("telemetry_overhead", "spans_recorded", static_cast<double>(spans));
  json.Set("telemetry_overhead", "overhead_pct", overhead_pct);
  json.Set("telemetry_overhead", "budget_pct", 2.0);
  // The enabled arm's registry, emitted through the snapshot path so the
  // A/B's own instrument totals are part of the record.
  Telemetry plane(/*trace_capacity=*/4096);
  const TelemetryRunResult sample =
      RunTelemetryArm(&plane, scale.records, scale.l0_entries, scale.bandwidth_mb);
  (void)sample;
  bench::SetFromSnapshot(&json, "telemetry_enabled_registry", plane.Snapshot(), {"kv."});
  const std::string path = json.Write();
  if (!path.empty()) {
    printf("  wrote %s\n", path.c_str());
  }
}

// --- replica-read fan-out A/B (PR 6) --------------------------------------------
//
// One region at replication factor 3 on three servers (three devices), reads
// throttled by the hard-cap device cost model so the run is read-I/O-bound —
// the paper's motivating case for replica serving: a hot region whose primary
// device saturates under concurrent clients. Three client threads run Run C
// (read-only zipfian) once with seed routing (every read queues on the
// primary's device) and once fanned out over the replica set via
// SimCluster::ReplicaGet (reads rotate across all three devices).

double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void RunReplicaReadComparison() {
  const bench::BenchScale scale = bench::BenchScale::FromEnv();
  constexpr int kRunsPerArm = 3;
  // Per-device read throttle. Low enough that device time — not the CPU cost
  // of the read path — dominates an arm, so spreading reads over three
  // devices is visible in wall clock (each arm moves ~16 KB/read; at this
  // bandwidth the primary-only arm is device-bound by 2-3x over CPU).
  constexpr uint64_t kReadBandwidthMb = 12;
  // Enough client concurrency that an arm is limited by device service rate,
  // not by any one client's request latency (CPU + one device wait per read).
  constexpr int kClientThreads = 6;
  const uint64_t records = std::min<uint64_t>(scale.records, 20000);
  const uint64_t read_ops = std::min<uint64_t>(scale.ops, 2000);  // per client thread
  printf("\n-- replica read fan-out: Run C primary-only vs fanned over RF=3, %llu records, "
         "%d clients x %llu reads/arm, %llu MB/s per device hard cap (median of %d, "
         "interleaved) --\n",
         static_cast<unsigned long long>(records), kClientThreads,
         static_cast<unsigned long long>(read_ops),
         static_cast<unsigned long long>(kReadBandwidthMb), kRunsPerArm);

  SimClusterOptions options;
  options.num_servers = 3;
  options.num_regions = 1;  // one hot region: its primary device is the bottleneck
  options.replication_factor = 3;
  options.mode = ReplicationMode::kSendIndex;
  options.kv_options.l0_max_entries = scale.l0_entries;
  options.device_options.segment_size = 1 << 18;
  options.device_options.max_segments = 1 << 17;
  options.device_options.accounting_granularity = 512;
  options.device_options.cost_model.read_bandwidth_bytes_per_sec =
      kReadBandwidthMb * 1024 * 1024;
  // Hard cap: the device is a single-queue resource, so piling all three
  // clients onto the primary's device cannot exceed its bandwidth — the
  // contrast under test is which devices absorb the reads, not how many
  // threads sleep in parallel.
  options.device_options.cost_model.hard_cap = true;
  auto cluster_or = SimCluster::Create(options);
  if (!cluster_or.ok()) {
    fprintf(stderr, "replica bench: cluster: %s\n", cluster_or.status().ToString().c_str());
    abort();
  }
  auto cluster = std::move(*cluster_or);

  YcsbOptions ycsb;
  ycsb.record_count = records;
  ycsb.op_count = read_ops;
  YcsbWorkload workload(ycsb);
  if (auto load = workload.RunLoad(cluster->Hooks()); !load.ok()) {
    fprintf(stderr, "replica bench: load: %s\n", load.status().ToString().c_str());
    abort();
  }
  // Push everything to the indexed levels: both arms then read through the
  // B+-tree / value log on the device, not the in-memory L0.
  if (Status status = cluster->FlushAll(); !status.ok()) {
    fprintf(stderr, "replica bench: flush: %s\n", status.ToString().c_str());
    abort();
  }

  // Run C mutates nothing, so both arms interleave over the same settled
  // cluster and machine drift lands on both equally. Each client thread runs
  // its own independently-seeded Run C key stream.
  auto run_arm = [&](bool fan_out) {
    std::atomic<uint64_t> total_ops{0};
    const uint64_t start_ns = NowNanos();
    std::vector<std::thread> clients;
    for (int t = 0; t < kClientThreads; ++t) {
      clients.emplace_back([&, t] {
        YcsbOptions per_client = ycsb;
        per_client.seed = ycsb.seed + 1000 * (t + 1);
        YcsbWorkload client_workload(per_client);
        auto result = client_workload.RunPhase(kRunC, cluster->Hooks(fan_out));
        if (!result.ok()) {
          fprintf(stderr, "replica bench: run C: %s\n", result.status().ToString().c_str());
          abort();
        }
        total_ops.fetch_add(result->ops, std::memory_order_relaxed);
      });
    }
    for (auto& c : clients) {
      c.join();
    }
    const double seconds = static_cast<double>(NowNanos() - start_ns) / 1e9;
    return static_cast<double>(total_ops.load()) / seconds / 1000.0;
  };
  std::vector<double> primary_kops, fanout_kops;
  const MetricsSnapshot before = cluster->MetricsNow();
  for (int i = 0; i < kRunsPerArm; ++i) {
    primary_kops.push_back(run_arm(/*fan_out=*/false));
    fanout_kops.push_back(run_arm(/*fan_out=*/true));
  }
  const MetricsSnapshot after = cluster->MetricsNow();
  const double primary_only = MedianOf(primary_kops);
  const double fanned = MedianOf(fanout_kops);
  const double speedup = fanned / primary_only;
  printf("  primary-only %8.1f read kops/s\n", primary_only);
  printf("  fanned (RF3) %8.1f read kops/s\n", fanned);
  printf("  speedup: %.2fx (target: >= 1.5x)\n", speedup);

  bench::BenchJson json("pr6");
  json.Set("replica_read_fanout", "records", static_cast<double>(records));
  json.Set("replica_read_fanout", "read_ops_per_arm", static_cast<double>(read_ops));
  json.Set("replica_read_fanout", "replication_factor", 3.0);
  json.Set("replica_read_fanout", "read_bandwidth_mb_per_device",
           static_cast<double>(kReadBandwidthMb));
  json.Set("replica_read_fanout", "primary_only_read_kops_per_sec", primary_only);
  json.Set("replica_read_fanout", "fanout_read_kops_per_sec", fanned);
  json.Set("replica_read_fanout", "speedup", speedup);
  json.Set("replica_read_fanout", "target_speedup", 1.5);
  // Both arms' registry deltas through the snapshot path: the replica-get
  // counters prove the fanned arm's reads were served by the backup engines.
  bench::SetFromSnapshot(&json, "replica_read_registry", bench::DiffSnapshots(before, after),
                         {"backup.", "kv.gets", "storage."});
  const std::string path = json.Write();
  if (!path.empty()) {
    printf("  wrote %s\n", path.c_str());
  }
}

// --- bloom-filter negative-lookup A/B (PR 7) ------------------------------------
//
// Point misses are the filter's headline case: without one, a Get for an
// absent key descends every level's B+ tree before concluding NotFound — all
// device reads under the cost model — while a filter answers from memory.
// Two experiments, filters off vs on with identical data and settings:
//   1. standalone primary store, uniform misses, uncached index, hard-capped
//      read bandwidth (target: >= 2x miss throughput);
//   2. the PR 6 fanned-replica cluster (RF=3, three devices), zipfian Run C
//      plus a uniform-miss phase served by the backups' shipped filters.

struct FilterArm {
  std::unique_ptr<Telemetry> plane;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<KvStore> store;
};

FilterArm MakeFilterArm(bool filters_on, uint64_t records, uint64_t l0_entries,
                        uint64_t bandwidth_mb) {
  FilterArm arm;
  arm.plane = std::make_unique<Telemetry>(/*trace_capacity=*/0);
  BlockDeviceOptions dev_opts;
  dev_opts.segment_size = 1 << 18;
  dev_opts.max_segments = 1 << 17;
  dev_opts.accounting_granularity = 512;
  dev_opts.cost_model.read_bandwidth_bytes_per_sec = bandwidth_mb * 1024 * 1024;
  dev_opts.cost_model.hard_cap = true;
  auto device = BlockDevice::Create(dev_opts);
  if (!device.ok()) {
    fprintf(stderr, "filter bench: device: %s\n", device.status().ToString().c_str());
    abort();
  }
  arm.device = std::move(*device);
  KvStoreOptions opts;
  opts.l0_max_entries = l0_entries;
  opts.enable_filters = filters_on;
  opts.cache_bytes = 0;  // uncached: a filter-less miss pays device time every level
  opts.telemetry = arm.plane.get();
  auto store = KvStore::Create(arm.device.get(), opts);
  if (!store.ok()) {
    fprintf(stderr, "filter bench: store: %s\n", store.status().ToString().c_str());
    abort();
  }
  arm.store = std::move(*store);
  const std::string value(100, 'v');
  for (uint64_t i = 0; i < records; ++i) {
    if (Status status = arm.store->Put(YcsbKey(i), value); !status.ok()) {
      fprintf(stderr, "filter bench: load: %s\n", status.ToString().c_str());
      abort();
    }
  }
  // Push everything into the indexed levels: misses then consult real
  // on-device trees (and their filters), not the in-memory L0.
  if (Status status = arm.store->FlushL0(); !status.ok()) {
    fprintf(stderr, "filter bench: flush: %s\n", status.ToString().c_str());
    abort();
  }
  return arm;
}

void RunFilterComparison() {
  const bench::BenchScale scale = bench::BenchScale::FromEnv();
  constexpr int kRunsPerArm = 3;
  constexpr uint64_t kReadBandwidthMb = 12;  // same device model as the PR 6 A/B
  constexpr int kClientThreads = 6;
  const uint64_t records = std::min<uint64_t>(scale.records, 20000);
  const uint64_t miss_ops = std::min<uint64_t>(scale.ops, 1500);
  printf("\n-- bloom filters: uniform point misses, filters off vs on, %llu records, "
         "%llu misses/arm, %llu MB/s read cap (median of %d, interleaved) --\n",
         static_cast<unsigned long long>(records),
         static_cast<unsigned long long>(miss_ops),
         static_cast<unsigned long long>(kReadBandwidthMb), kRunsPerArm);

  // Experiment 1: standalone primary store.
  FilterArm off = MakeFilterArm(false, records, scale.l0_entries, kReadBandwidthMb);
  FilterArm on = MakeFilterArm(true, records, scale.l0_entries, kReadBandwidthMb);
  auto run_miss_arm = [&](KvStore* store, uint64_t seed) {
    Random rng(seed);
    const uint64_t start_ns = NowNanos();
    for (uint64_t i = 0; i < miss_ops; ++i) {
      auto got = store->Get(YcsbKey(records + rng.Uniform(records * 10)));
      if (got.ok() || !got.status().IsNotFound()) {
        fprintf(stderr, "filter bench: unexpected miss result\n");
        abort();
      }
    }
    const double seconds = static_cast<double>(NowNanos() - start_ns) / 1e9;
    return static_cast<double>(miss_ops) / seconds / 1000.0;
  };
  std::vector<double> off_kops, on_kops;
  const MetricsSnapshot primary_before = on.plane->Snapshot();
  for (int i = 0; i < kRunsPerArm; ++i) {
    off_kops.push_back(run_miss_arm(off.store.get(), 77 + i));
    on_kops.push_back(run_miss_arm(on.store.get(), 77 + i));
  }
  const MetricsSnapshot primary_after = on.plane->Snapshot();
  const double miss_off = MedianOf(off_kops);
  const double miss_on = MedianOf(on_kops);
  const double miss_speedup = miss_on / miss_off;
  printf("  filters off  %8.1f miss kops/s\n", miss_off);
  printf("  filters on   %8.1f miss kops/s\n", miss_on);
  printf("  speedup: %.2fx (target: >= 2x)\n", miss_speedup);

  // Experiment 2: fanned replica reads (PR 6 cluster), filters off vs on.
  // Run C reads present keys — the win comes from skipping the shallower
  // shipped levels for deep-resident keys — and the miss phase shows the
  // backups' shipped filters screening absent keys without device reads.
  const uint64_t read_ops = std::min<uint64_t>(scale.ops, 2000);  // per client thread
  printf("\n-- bloom filters: fanned replica reads (RF=3), filters off vs on, "
         "%d clients x %llu ops/arm --\n",
         kClientThreads, static_cast<unsigned long long>(read_ops));
  auto make_cluster = [&](bool filters_on) {
    SimClusterOptions options;
    options.num_servers = 3;
    options.num_regions = 1;
    options.replication_factor = 3;
    options.mode = ReplicationMode::kSendIndex;
    options.kv_options.l0_max_entries = scale.l0_entries;
    options.kv_options.enable_filters = filters_on;
    options.device_options.segment_size = 1 << 18;
    options.device_options.max_segments = 1 << 17;
    options.device_options.accounting_granularity = 512;
    options.device_options.cost_model.read_bandwidth_bytes_per_sec =
        kReadBandwidthMb * 1024 * 1024;
    options.device_options.cost_model.hard_cap = true;
    auto cluster_or = SimCluster::Create(options);
    if (!cluster_or.ok()) {
      fprintf(stderr, "filter bench: cluster: %s\n", cluster_or.status().ToString().c_str());
      abort();
    }
    auto cluster = std::move(*cluster_or);
    YcsbOptions ycsb;
    ycsb.record_count = records;
    ycsb.op_count = read_ops;
    YcsbWorkload workload(ycsb);
    if (auto load = workload.RunLoad(cluster->Hooks()); !load.ok()) {
      fprintf(stderr, "filter bench: load: %s\n", load.status().ToString().c_str());
      abort();
    }
    if (Status status = cluster->FlushAll(); !status.ok()) {
      fprintf(stderr, "filter bench: flush: %s\n", status.ToString().c_str());
      abort();
    }
    // The load's final cascade leaves a single populated device level, where
    // a present-key read has nothing to skip. Re-write a small slice so L1
    // holds it (small enough not to cascade again): reads for the ~92% of
    // keys resident in the deep level then cross L1, which is exactly what
    // the shipped filters screen out.
    KvHooks put_hooks = cluster->Hooks();
    const std::string value(100, 'v');
    for (uint64_t i = 0; i < std::min<uint64_t>(records / 10, 1500); ++i) {
      if (Status status = put_hooks.put(YcsbKey(i), value); !status.ok()) {
        fprintf(stderr, "filter bench: top-up: %s\n", status.ToString().c_str());
        abort();
      }
    }
    if (Status status = cluster->FlushAll(); !status.ok()) {
      fprintf(stderr, "filter bench: top-up flush: %s\n", status.ToString().c_str());
      abort();
    }
    return cluster;
  };
  auto cluster_off = make_cluster(false);
  auto cluster_on = make_cluster(true);
  auto run_fanned_runc = [&](SimCluster* cluster) {
    std::atomic<uint64_t> total_ops{0};
    const uint64_t start_ns = NowNanos();
    std::vector<std::thread> clients;
    for (int t = 0; t < kClientThreads; ++t) {
      clients.emplace_back([&, t] {
        YcsbOptions per_client;
        per_client.record_count = records;
        per_client.op_count = read_ops;
        per_client.seed = 42 + 1000 * (t + 1);
        YcsbWorkload client_workload(per_client);
        auto result = client_workload.RunPhase(kRunC, cluster->Hooks(/*fan_out_reads=*/true));
        if (!result.ok()) {
          fprintf(stderr, "filter bench: run C: %s\n", result.status().ToString().c_str());
          abort();
        }
        total_ops.fetch_add(result->ops, std::memory_order_relaxed);
      });
    }
    for (auto& c : clients) {
      c.join();
    }
    const double seconds = static_cast<double>(NowNanos() - start_ns) / 1e9;
    return static_cast<double>(total_ops.load()) / seconds / 1000.0;
  };
  auto run_fanned_misses = [&](SimCluster* cluster) {
    std::atomic<uint64_t> total_ops{0};
    const uint64_t start_ns = NowNanos();
    std::vector<std::thread> clients;
    for (int t = 0; t < kClientThreads; ++t) {
      clients.emplace_back([&, t] {
        KvHooks hooks = cluster->Hooks(/*fan_out_reads=*/true);
        Random rng(177 + t);
        for (uint64_t i = 0; i < read_ops; ++i) {
          Status status = hooks.read(YcsbKey(records + rng.Uniform(records * 10)));
          if (!status.ok() && !status.IsNotFound()) {
            fprintf(stderr, "filter bench: fanned miss: %s\n", status.ToString().c_str());
            abort();
          }
        }
        total_ops.fetch_add(read_ops, std::memory_order_relaxed);
      });
    }
    for (auto& c : clients) {
      c.join();
    }
    const double seconds = static_cast<double>(NowNanos() - start_ns) / 1e9;
    return static_cast<double>(total_ops.load()) / seconds / 1000.0;
  };
  // Run C rounds stay adjacent (and get two extra rounds): the filter-less
  // miss arms are slow and would smear machine drift into the Run C medians
  // if interleaved with them.
  std::vector<double> runc_off, runc_on, fanmiss_off, fanmiss_on;
  const MetricsSnapshot fanout_before = cluster_on->MetricsNow();
  for (int i = 0; i < kRunsPerArm + 2; ++i) {
    runc_off.push_back(run_fanned_runc(cluster_off.get()));
    runc_on.push_back(run_fanned_runc(cluster_on.get()));
  }
  for (int i = 0; i < kRunsPerArm; ++i) {
    fanmiss_off.push_back(run_fanned_misses(cluster_off.get()));
    fanmiss_on.push_back(run_fanned_misses(cluster_on.get()));
  }
  const MetricsSnapshot fanout_after = cluster_on->MetricsNow();
  const double fanned_runc_off = MedianOf(runc_off);
  const double fanned_runc_on = MedianOf(runc_on);
  const double fanned_miss_off = MedianOf(fanmiss_off);
  const double fanned_miss_on = MedianOf(fanmiss_on);
  printf("  Run C   filters off %8.1f  on %8.1f read kops/s  (%.2fx)\n",
         fanned_runc_off, fanned_runc_on, fanned_runc_on / fanned_runc_off);
  printf("  misses  filters off %8.1f  on %8.1f read kops/s  (%.2fx)\n",
         fanned_miss_off, fanned_miss_on, fanned_miss_on / fanned_miss_off);

  bench::BenchJson json("pr7");
  json.Set("filter_negative_lookup", "records", static_cast<double>(records));
  json.Set("filter_negative_lookup", "miss_ops_per_arm", static_cast<double>(miss_ops));
  json.Set("filter_negative_lookup", "read_bandwidth_mb", static_cast<double>(kReadBandwidthMb));
  json.Set("filter_negative_lookup", "filters_off_miss_kops_per_sec", miss_off);
  json.Set("filter_negative_lookup", "filters_on_miss_kops_per_sec", miss_on);
  json.Set("filter_negative_lookup", "speedup", miss_speedup);
  json.Set("filter_negative_lookup", "target_speedup", 2.0);
  json.Set("filter_fanout_runc", "replication_factor", 3.0);
  json.Set("filter_fanout_runc", "filters_off_read_kops_per_sec", fanned_runc_off);
  json.Set("filter_fanout_runc", "filters_on_read_kops_per_sec", fanned_runc_on);
  json.Set("filter_fanout_runc", "speedup", fanned_runc_on / fanned_runc_off);
  json.Set("filter_fanout_miss", "filters_off_read_kops_per_sec", fanned_miss_off);
  json.Set("filter_fanout_miss", "filters_on_read_kops_per_sec", fanned_miss_on);
  json.Set("filter_fanout_miss", "speedup", fanned_miss_on / fanned_miss_off);
  // Registry deltas through the snapshot path: the primary's per-level
  // kv.filter_* counters prove the standalone arm's misses were answered by
  // filters, and the cluster's backup.filter_* counters prove the fanned
  // reads were screened by the shipped blocks on the replicas.
  bench::SetFromSnapshot(&json, "filter_primary_registry",
                         bench::DiffSnapshots(primary_before, primary_after),
                         {"kv.filter_", "kv.gets", "storage."});
  bench::SetFromSnapshot(&json, "filter_fanout_registry",
                         bench::DiffSnapshots(fanout_before, fanout_after),
                         {"kv.filter_", "backup.filter_", "backup.replica_gets"});
  // Lifetime (not windowed) totals: the installs and ships happen while the
  // cluster loads, before the measurement window above opens.
  bench::SetFromSnapshot(&json, "filter_fanout_shipping", fanout_after,
                         {"backup.filter_blocks_installed", "repl.filter_"});
  const std::string path = json.Write();
  if (!path.empty()) {
    printf("  wrote %s\n", path.c_str());
  }
}

// --- background-scrub overhead A/B (PR 8) --------------------------------------
//
// One store on a worker pool; a foreground mixed get/put workload runs once
// with the device otherwise idle and once with a continuous paced background
// scrub cycling on the pool (every published index segment plus the value
// log, re-read and CRC-checked each cycle). Arms alternate on the SAME store
// within each round so machine drift and store growth land on both equally.
// Budget: the foreground workload gives up at most 5%.

struct ScrubArm {
  std::unique_ptr<Telemetry> plane;
  std::unique_ptr<BlockDevice> device;
  // Declared before the store: members destroy in reverse order, so the
  // store drains its in-flight background scrubs before the pool dies.
  std::unique_ptr<WorkerPool> pool;
  std::unique_ptr<KvStore> store;
};

ScrubArm MakeScrubArm(uint64_t records, uint64_t l0_entries) {
  ScrubArm arm;
  arm.plane = std::make_unique<Telemetry>(/*trace_capacity=*/0);
  BlockDeviceOptions dev_opts;
  dev_opts.segment_size = 1 << 18;
  dev_opts.max_segments = 1 << 17;
  dev_opts.accounting_granularity = 512;
  auto device = BlockDevice::Create(dev_opts);
  if (!device.ok()) {
    fprintf(stderr, "scrub bench: device: %s\n", device.status().ToString().c_str());
    abort();
  }
  arm.device = std::move(*device);
  // Headroom matters: the scrub is a long-running pool task, so a pool sized
  // exactly to the compaction load would lose a compaction slot to it and
  // put-slowdown throttling would amplify that into a large foreground hit.
  arm.pool = std::make_unique<WorkerPool>(4);
  arm.pool->Start();
  KvStoreOptions opts;
  opts.l0_max_entries = l0_entries;
  opts.compaction_pool = arm.pool.get();
  opts.telemetry = arm.plane.get();
  auto store = KvStore::Create(arm.device.get(), opts);
  if (!store.ok()) {
    fprintf(stderr, "scrub bench: store: %s\n", store.status().ToString().c_str());
    abort();
  }
  arm.store = std::move(*store);
  const std::string value(100, 'v');
  for (uint64_t i = 0; i < records; ++i) {
    if (Status status = arm.store->Put(YcsbKey(i), value); !status.ok()) {
      fprintf(stderr, "scrub bench: load: %s\n", status.ToString().c_str());
      abort();
    }
  }
  // Publish real on-device levels so a scrub cycle has segments to walk.
  if (Status status = arm.store->FlushL0(); !status.ok()) {
    fprintf(stderr, "scrub bench: flush: %s\n", status.ToString().c_str());
    abort();
  }
  return arm;
}

void RunScrubOverheadComparison() {
  const bench::BenchScale scale = bench::BenchScale::FromEnv();
  constexpr int kRounds = 5;
  constexpr uint64_t kMixedOps = 100000;
  // Paced so a full cycle roughly matches a measurement round — already far
  // more aggressive than a production scrub schedule relative to store size.
  // On a small machine the scrub's CRC work shares cores with the foreground,
  // so the pace is the overhead knob the operator owns.
  constexpr uint64_t kScrubBytesPerSec = 8ull << 20;
  const uint64_t records = std::min<uint64_t>(scale.records, 20000);
  printf("\n-- scrub overhead: mixed 90/10 get/put, idle vs continuous paced scrub, "
         "%llu records, %llu ops/arm, %llu MB/s scrub pace (median of %d, interleaved) --\n",
         static_cast<unsigned long long>(records),
         static_cast<unsigned long long>(kMixedOps),
         static_cast<unsigned long long>(kScrubBytesPerSec >> 20), kRounds);

  ScrubArm arm = MakeScrubArm(records, scale.l0_entries);
  const std::string value(100, 'v');
  auto run_mixed = [&](uint64_t seed) {
    Random rng(seed);
    const uint64_t start_ns = NowNanos();
    for (uint64_t i = 0; i < kMixedOps; ++i) {
      const std::string key = YcsbKey(rng.Uniform(records));
      // Get-heavy (90/10): enough put traffic to keep compactions in the
      // picture without growing the store so fast that round-to-round drift
      // swamps the effect being measured.
      if (i % 10 != 0) {
        auto got = arm.store->Get(key);
        if (!got.ok()) {
          fprintf(stderr, "scrub bench: get: %s\n", got.status().ToString().c_str());
          abort();
        }
      } else {
        if (Status status = arm.store->Put(key, value); !status.ok()) {
          fprintf(stderr, "scrub bench: put: %s\n", status.ToString().c_str());
          abort();
        }
      }
    }
    const double seconds = static_cast<double>(NowNanos() - start_ns) / 1e9;
    return static_cast<double>(kMixedOps) / seconds / 1000.0;
  };

  std::vector<double> idle_kops, scrubbing_kops;
  uint64_t scrub_cycles = 0;
  const MetricsSnapshot before = arm.plane->Snapshot();
  for (int round = 0; round < kRounds; ++round) {
    idle_kops.push_back(run_mixed(42 + round));
    // No compaction carryover between arms: each arm starts from a quiet pool.
    arm.pool->Drain();

    // Continuous background scrub: re-schedule the next cycle as each one
    // completes, then run the same workload against it.
    std::atomic<bool> stop{false};
    std::thread scrubber([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::promise<void> cycle_done;
        KvStore::ScrubOptions sopts;
        sopts.bytes_per_sec = kScrubBytesPerSec;
        Status status = arm.store->ScheduleScrub(
            sopts, [&cycle_done](const StatusOr<KvStore::ScrubReport>& report) {
              if (!report.ok() || report->corruptions_found != 0) {
                fprintf(stderr, "scrub bench: scrub cycle failed\n");
                abort();
              }
              cycle_done.set_value();
            });
        if (!status.ok()) {
          fprintf(stderr, "scrub bench: schedule: %s\n", status.ToString().c_str());
          abort();
        }
        cycle_done.get_future().wait();
        ++scrub_cycles;
      }
    });
    scrubbing_kops.push_back(run_mixed(42 + round));
    stop.store(true, std::memory_order_relaxed);
    scrubber.join();
    arm.pool->Drain();
  }
  const MetricsSnapshot after = arm.plane->Snapshot();
  const double idle = MedianOf(idle_kops);
  const double scrubbing = MedianOf(scrubbing_kops);
  const double overhead_pct = (1.0 - scrubbing / idle) * 100.0;
  printf("  scrub idle     %8.1f mixed kops/s\n", idle);
  printf("  scrub running  %8.1f mixed kops/s   (%llu full cycles)\n", scrubbing,
         static_cast<unsigned long long>(scrub_cycles));
  printf("  foreground overhead: %.2f%% (budget: 5%%)\n", overhead_pct);

  bench::BenchJson json("pr8");
  json.Set("scrub_overhead", "records", static_cast<double>(records));
  json.Set("scrub_overhead", "mixed_ops_per_arm", static_cast<double>(kMixedOps));
  json.Set("scrub_overhead", "scrub_bytes_per_sec", static_cast<double>(kScrubBytesPerSec));
  json.Set("scrub_overhead", "idle_mixed_kops_per_sec", idle);
  json.Set("scrub_overhead", "scrubbing_mixed_kops_per_sec", scrubbing);
  json.Set("scrub_overhead", "scrub_cycles", static_cast<double>(scrub_cycles));
  json.Set("scrub_overhead", "overhead_pct", overhead_pct);
  json.Set("scrub_overhead", "budget_pct", 5.0);
  // Registry delta through the snapshot path: the integrity.* counters prove
  // the scrubbing arm actually walked bytes (and found nothing on a clean
  // store); storage.* shows the extra device reads the scrub paid for.
  bench::SetFromSnapshot(&json, "scrub_registry", bench::DiffSnapshots(before, after),
                         {"integrity.", "kv.read_corruptions", "storage."});
  const std::string path = json.Write();
  if (!path.empty()) {
    printf("  wrote %s\n", path.c_str());
  }
}

// --- write-path group commit (PR 9) ---------------------------------------------
//
// The acceptance experiment: 16 client threads against a replicated cluster,
// once issuing puts one at a time (the seed path: one replication doorbell
// per record) and once shipping the same ops in groups of 16 through
// WriteBatch (one engine reservation + one coalesced doorbell per group).
// Each thread owns a contiguous key window, so a group stays within one
// region — exactly what the client's per-destination staging produces.

struct WritePathRunResult {
  double put_kops_per_sec = 0;
  Histogram op_latency;  // batched arm: every op in a group records the group's latency
};

WritePathRunResult RunWritePathArm(SimCluster* cluster, int threads, uint64_t ops_per_thread,
                                   size_t value_bytes, size_t group_size) {
  WritePathRunResult result;
  std::vector<Histogram> latencies(threads);
  std::vector<std::thread> clients;
  const uint64_t window = (1ull << 32) / static_cast<uint64_t>(threads);
  const uint64_t start_ns = NowNanos();
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      const std::string value(value_bytes, 'w');
      std::vector<std::string> keys(group_size);
      std::vector<KvStore::BatchOp> ops(group_size);
      std::vector<Status> statuses;
      const uint64_t base = static_cast<uint64_t>(t) * window;
      for (uint64_t i = 0; i < ops_per_thread; i += group_size) {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(group_size, ops_per_thread - i));
        for (size_t j = 0; j < n; ++j) {
          keys[j] = Key(base + (i + j) % window);
        }
        const uint64_t t0 = NowNanos();
        if (n == 1) {
          if (Status status = cluster->Put(keys[0], value); !status.ok()) {
            fprintf(stderr, "write-path bench: put: %s\n", status.ToString().c_str());
            abort();
          }
        } else {
          for (size_t j = 0; j < n; ++j) {
            ops[j] = {Slice(keys[j]), Slice(value), /*tombstone=*/false};
          }
          ops.resize(n);
          if (Status status = cluster->WriteBatch(ops, &statuses); !status.ok()) {
            fprintf(stderr, "write-path bench: batch: %s\n", status.ToString().c_str());
            abort();
          }
          for (const Status& s : statuses) {
            if (!s.ok()) {
              fprintf(stderr, "write-path bench: op: %s\n", s.ToString().c_str());
              abort();
            }
          }
          ops.resize(group_size);
        }
        const uint64_t elapsed = NowNanos() - t0;
        for (size_t j = 0; j < n; ++j) {
          latencies[t].Record(elapsed);
        }
      }
    });
  }
  for (auto& c : clients) {
    c.join();
  }
  const double seconds = static_cast<double>(NowNanos() - start_ns) / 1e9;
  result.put_kops_per_sec =
      static_cast<double>(ops_per_thread) * threads / seconds / 1000.0;
  for (const Histogram& h : latencies) {
    result.op_latency.Merge(h);
  }
  return result;
}

void RunWritePathComparison() {
  const bench::BenchScale scale = bench::BenchScale::FromEnv();
  constexpr int kClientThreads = 16;
  constexpr size_t kGroupSize = 16;
  constexpr int kRunsPerArm = 3;
  // S/M/L value mixes.
  struct Mix {
    const char* name;
    size_t value_bytes;
  };
  constexpr Mix kMixes[] = {{"S", 24}, {"M", 120}, {"L", 1024}};
  const uint64_t ops_per_thread =
      std::max<uint64_t>(256, std::min<uint64_t>(scale.ops, 4000));
  printf("\n-- write-path group commit: %d client threads, single-op vs groups of %zu, "
         "%llu puts/thread/arm, %llu MB/s devices (median of %d, interleaved) --\n",
         kClientThreads, kGroupSize, static_cast<unsigned long long>(ops_per_thread),
         static_cast<unsigned long long>(scale.bandwidth_mb), kRunsPerArm);

  bench::BenchJson json("pr9");
  json.Set("write_path", "client_threads", static_cast<double>(kClientThreads));
  json.Set("write_path", "group_size", static_cast<double>(kGroupSize));
  json.Set("write_path", "ops_per_thread_per_arm", static_cast<double>(ops_per_thread));
  json.Set("write_path", "device_bandwidth_mb", static_cast<double>(scale.bandwidth_mb));
  json.Set("write_path", "target_speedup", 1.5);
  double worst_speedup = 0;
  bool first_mix = true;
  for (const Mix& mix : kMixes) {
    SimClusterOptions options;
    options.num_servers = 3;
    options.num_regions = 8;
    options.replication_factor = 3;  // two backups: the doorbell path runs per backup
    options.mode = ReplicationMode::kSendIndex;
    // A roomy L0 keeps compaction cadence (identical work in both arms, and
    // PR 2's experiment) from swamping the per-record vs per-group contrast
    // this A/B isolates.
    options.kv_options.l0_max_entries = std::max<uint64_t>(scale.l0_entries, 8192);
    options.device_options.segment_size = 1 << 18;
    options.device_options.max_segments = 1 << 17;
    if (scale.bandwidth_mb > 0) {
      options.device_options.cost_model.read_bandwidth_bytes_per_sec =
          scale.bandwidth_mb * 1024 * 1024;
      options.device_options.cost_model.write_bandwidth_bytes_per_sec =
          scale.bandwidth_mb * 1024 * 1024;
    }
    // One cluster per arm (identical layout and devices), runs interleaved so
    // store growth and machine drift land on both arms equally.
    auto make_cluster = [&] {
      auto cluster_or = SimCluster::Create(options);
      if (!cluster_or.ok()) {
        fprintf(stderr, "write-path bench: cluster: %s\n",
                cluster_or.status().ToString().c_str());
        abort();
      }
      return std::move(*cluster_or);
    };
    auto single_cluster = make_cluster();
    auto batched_cluster = make_cluster();

    std::vector<double> single_kops, batched_kops;
    Histogram single_latency, batched_latency;
    const MetricsSnapshot single_before = single_cluster->MetricsNow();
    const MetricsSnapshot batched_before = batched_cluster->MetricsNow();
    for (int i = 0; i < kRunsPerArm; ++i) {
      auto single = RunWritePathArm(single_cluster.get(), kClientThreads, ops_per_thread,
                                    mix.value_bytes, /*group_size=*/1);
      single_kops.push_back(single.put_kops_per_sec);
      single_latency.Merge(single.op_latency);
      auto batched = RunWritePathArm(batched_cluster.get(), kClientThreads, ops_per_thread,
                                     mix.value_bytes, kGroupSize);
      batched_kops.push_back(batched.put_kops_per_sec);
      batched_latency.Merge(batched.op_latency);
    }
    const MetricsSnapshot single_after = single_cluster->MetricsNow();
    const MetricsSnapshot batched_after = batched_cluster->MetricsNow();

    const double single = MedianOf(single_kops);
    const double batched = MedianOf(batched_kops);
    const double speedup = batched / single;
    if (first_mix || speedup < worst_speedup) {
      worst_speedup = speedup;
      first_mix = false;
    }
    printf("  mix %s (%4zu B values): single-op %8.1f kops/s p99 %7.1fus | "
           "batched %8.1f kops/s p99 %7.1fus | speedup %.2fx\n",
           mix.name, mix.value_bytes, single,
           static_cast<double>(single_latency.Percentile(99)) / 1000.0, batched,
           static_cast<double>(batched_latency.Percentile(99)) / 1000.0, speedup);

    const std::string section = std::string("write_path_mix_") + mix.name;
    json.Set(section, "value_bytes", static_cast<double>(mix.value_bytes));
    json.Set(section, "single_put_kops_per_sec", single);
    json.Set(section, "single_put_p99_us",
             static_cast<double>(single_latency.Percentile(99)) / 1000.0);
    json.Set(section, "batched_put_kops_per_sec", batched);
    json.Set(section, "batched_put_p99_us",
             static_cast<double>(batched_latency.Percentile(99)) / 1000.0);
    json.Set(section, "speedup", speedup);
    // Registry-delta proof: the single arm's delta has zero wp.batch_groups
    // and doorbells == doorbell_records (coalesce ratio 1); the batched arm's
    // delta shows one group per WriteBatch and a ~group_size coalesce ratio.
    bench::SetFromSnapshot(&json, section + "_single_registry",
                           bench::DiffSnapshots(single_before, single_after), {"wp."});
    bench::SetFromSnapshot(&json, section + "_batched_registry",
                           bench::DiffSnapshots(batched_before, batched_after), {"wp."});
  }
  json.Set("write_path", "worst_mix_speedup", worst_speedup);
  printf("  worst-mix speedup: %.2fx (target: >= 1.5x)\n", worst_speedup);
  const std::string path = json.Write();
  if (!path.empty()) {
    printf("  wrote %s\n", path.c_str());
  }
}

// --- sampled request tracing overhead (PR 10) -----------------------------------
//
// The acceptance A/B for request-scoped tracing: the same replicated put loop
// once with sampling off (sample_every = 0 — the untraced fast path takes no
// clock reads and appends no wire bytes) and once at the default production
// rate (1 in 32 — sampled ops carry the trace through engine apply, the
// doorbell, and the backup commit listener, and land exemplars + spans).
// Sampling must cost <= 2% put throughput.

double RunRequestTracingArm(SimCluster* cluster, uint64_t ops, uint64_t value_bytes) {
  const std::string value(value_bytes, 'v');
  const uint64_t start_ns = NowNanos();
  for (uint64_t i = 0; i < ops; ++i) {
    Status status = cluster->Put(Key(i), value);
    if (!status.ok()) {
      fprintf(stderr, "tracing bench: put failed: %s\n", status.ToString().c_str());
      abort();
    }
  }
  const uint64_t wall_ns = NowNanos() - start_ns;
  return static_cast<double>(ops) / 1e3 / (static_cast<double>(wall_ns) / 1e9);
}

void RunRequestTracingComparison() {
  const bench::BenchScale scale = bench::BenchScale::FromEnv();
  constexpr int kRunsPerArm = 5;
  constexpr uint64_t kSampleEvery = 32;
  constexpr uint64_t kValueBytes = 120;
  const uint64_t ops = std::max<uint64_t>(2000, std::min<uint64_t>(scale.records, 20000));
  printf("\n-- request tracing overhead: sampling off vs 1-in-%llu, %llu replicated puts, "
         "RF=2 (median of %d, interleaved) --\n",
         static_cast<unsigned long long>(kSampleEvery),
         static_cast<unsigned long long>(ops), kRunsPerArm);

  SimClusterOptions options;
  options.num_servers = 3;
  options.num_regions = 4;
  options.replication_factor = 2;  // the doorbell + backup-commit path is on
  options.mode = ReplicationMode::kSendIndex;
  options.kv_options.l0_max_entries = std::max<uint64_t>(scale.l0_entries, 8192);
  options.device_options.segment_size = 1 << 18;
  options.device_options.max_segments = 1 << 17;
  if (scale.bandwidth_mb > 0) {
    options.device_options.cost_model.read_bandwidth_bytes_per_sec =
        scale.bandwidth_mb * 1024 * 1024;
    options.device_options.cost_model.write_bandwidth_bytes_per_sec =
        scale.bandwidth_mb * 1024 * 1024;
  }

  auto make_cluster = [&](uint64_t sample_every) {
    SimClusterOptions arm = options;
    arm.request_trace_sample_every = sample_every;
    auto cluster_or = SimCluster::Create(arm);
    if (!cluster_or.ok()) {
      fprintf(stderr, "tracing bench: cluster: %s\n",
              cluster_or.status().ToString().c_str());
      abort();
    }
    return std::move(*cluster_or);
  };
  // One long-lived cluster per arm (identical layout), runs interleaved so
  // store growth and machine drift land on both arms equally.
  auto off_cluster = make_cluster(0);
  auto on_cluster = make_cluster(kSampleEvery);

  std::vector<double> off_kops, on_kops;
  for (int i = 0; i < kRunsPerArm; ++i) {
    off_kops.push_back(RunRequestTracingArm(off_cluster.get(), ops, kValueBytes));
    on_kops.push_back(RunRequestTracingArm(on_cluster.get(), ops, kValueBytes));
  }
  const double off = MedianOf(off_kops);
  const double on = MedianOf(on_kops);
  const double overhead_pct = (1.0 - on / off) * 100.0;
  const uint64_t spans =
      on_cluster->Traces().size() + on_cluster->telemetry()->traces()->dropped();
  printf("  sampling off %8.1f put kops/s\n", off);
  printf("  1-in-%-2llu      %8.1f put kops/s   (%llu request spans recorded)\n",
         static_cast<unsigned long long>(kSampleEvery), on,
         static_cast<unsigned long long>(spans));
  printf("  put-throughput overhead: %.2f%% (budget: 2%%)\n", overhead_pct);

  bench::BenchJson json("pr10");
  json.Set("request_tracing", "ops_per_run", static_cast<double>(ops));
  json.Set("request_tracing", "sample_every", static_cast<double>(kSampleEvery));
  json.Set("request_tracing", "value_bytes", static_cast<double>(kValueBytes));
  json.Set("request_tracing", "off_put_kops_per_sec", off);
  json.Set("request_tracing", "on_put_kops_per_sec", on);
  json.Set("request_tracing", "spans_recorded", static_cast<double>(spans));
  json.Set("request_tracing", "overhead_pct", overhead_pct);
  json.Set("request_tracing", "budget_pct", 2.0);
  // The traced arm's request-facing registry: latency histogram (with
  // exemplars riding the snapshot) plus the trace.* family the scrape exposes.
  bench::SetFromSnapshot(&json, "request_tracing_registry", on_cluster->MetricsNow(),
                         {"trace."});
  const std::string path = json.Write();
  if (!path.empty()) {
    printf("  wrote %s\n", path.c_str());
  }
}

}  // namespace
}  // namespace tebis

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  // TEBIS_BENCH_ONLY=<substring> reruns a single comparison (and refreshes
  // only its BENCH_*.json) without paying for the whole suite.
  const char* only = std::getenv("TEBIS_BENCH_ONLY");
  auto enabled = [only](const char* name) {
    return only == nullptr || std::strstr(name, only) != nullptr;
  };
  if (enabled("pipeline")) tebis::RunPipelineComparison();
  if (enabled("shipping")) tebis::RunShippingComparison();
  if (enabled("telemetry")) tebis::RunTelemetryOverheadComparison();
  if (enabled("replica")) tebis::RunReplicaReadComparison();
  if (enabled("filter")) tebis::RunFilterComparison();
  if (enabled("scrub")) tebis::RunScrubOverheadComparison();
  if (enabled("write_path")) tebis::RunWritePathComparison();
  if (enabled("tracing")) tebis::RunRequestTracingComparison();
  return 0;
}
