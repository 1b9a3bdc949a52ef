// Unified telemetry plane (PR 5): registry snapshot consistency under
// concurrent shipping streams, trace-id propagation primary -> backup across
// a SimCluster compaction, span ring-buffer eviction order, the scrape RPC,
// and the chaos case — a fenced stale primary shows up in scrapes as
// repl.fence_errors / backup.epoch_rejected.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_server.h"
#include "src/lsm/kv_store.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"
#include "src/telemetry/telemetry.h"
#include "src/ycsb/sim_cluster.h"
#include "tests/metric_reader.h"

namespace tebis {
namespace {

std::string Key(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%010d", i);
  return buf;
}

// --- registry ------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameAndLabelsResolveToOneInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("kv.puts", {{"node", "s0"}, {"role", "primary"}});
  // Label order must not matter: the registry canonicalizes.
  Counter* b = registry.GetCounter("kv.puts", {{"role", "primary"}, {"node", "s0"}});
  EXPECT_EQ(a, b);
  // A different label set is a different instrument.
  Counter* c = registry.GetCounter("kv.puts", {{"node", "s1"}, {"role", "primary"}});
  EXPECT_NE(a, c);
  a->Add(3);
  c->Add(4);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Sum("kv.puts"), 7u);
  EXPECT_EQ(snap.Sum("kv.puts", "node", "s0"), 3u);
  EXPECT_EQ(snap.Sum("kv.puts", "node", "s1"), 4u);
}

TEST(MetricsRegistryTest, GaugeAndHistogramInstruments) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("repl.credits_in_flight", {{"backup", "b0"}});
  gauge->Set(10);
  gauge->Add(-3);
  gauge->SetMax(5);  // below current: no-op
  EXPECT_EQ(gauge->Value(), 7);
  gauge->SetMax(20);
  EXPECT_EQ(gauge->Value(), 20);

  HistogramInstrument* hist = registry.GetHistogram("kv.compaction_duration_ns");
  for (int i = 1; i <= 100; ++i) {
    hist->Record(static_cast<uint64_t>(i) * 1000);
  }
  MetricsSnapshot snap = registry.Snapshot();
  const MetricSample* sample = snap.Find("kv.compaction_duration_ns");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->kind, InstrumentKind::kHistogram);
  EXPECT_EQ(sample->histogram.count(), 100u);
  const MetricSample* g = snap.Find("repl.credits_in_flight", "backup", "b0");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, 20);
}

TEST(MetricsRegistryTest, SnapshotConsistentUnderConcurrentWriters) {
  // Writers hammer instruments while a reader snapshots: every snapshot value
  // must be monotonically non-decreasing (counters never go backwards or tear)
  // and the final walk must account for every increment exactly once.
  MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 50000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w] {
      Counter* mine = registry.GetCounter("test.ops", {{"writer", std::to_string(w)}});
      Counter* shared = registry.GetCounter("test.shared_ops");
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        mine->Increment();
        shared->Increment();
      }
    });
  }
  uint64_t last_total = 0;
  while (!stop.load(std::memory_order_acquire)) {
    MetricsSnapshot snap = registry.Snapshot();
    const uint64_t total = snap.Sum("test.ops");
    EXPECT_GE(total, last_total);
    EXPECT_LE(total, kWriters * kPerWriter);
    // Per-instrument atomicity: the shared counter obeys the same bounds.
    EXPECT_LE(snap.Sum("test.shared_ops"), kWriters * kPerWriter);
    last_total = total;
    if (total == kWriters * kPerWriter) {
      stop.store(true, std::memory_order_release);
    }
  }
  for (auto& writer : writers) {
    writer.join();
  }
  MetricsSnapshot final_snap = registry.Snapshot();
  EXPECT_EQ(final_snap.Sum("test.ops"), kWriters * kPerWriter);
  EXPECT_EQ(final_snap.Sum("test.shared_ops"), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(final_snap.Sum("test.ops", "writer", std::to_string(w)), kPerWriter);
  }
}

// --- label-subset reads ----------------------------------------------------------

std::unique_ptr<BlockDevice> MakeStoreDevice() {
  BlockDeviceOptions options;
  options.segment_size = 1 << 16;
  options.max_segments = 1 << 12;
  auto device = BlockDevice::Create(options);
  return std::move(*device);
}

// A store on `plane` stamped with the {node, region, role} labels a
// RegionServer would give it. No L0 spill unless the test flushes.
std::unique_ptr<KvStore> MakeLabeledStore(BlockDevice* device, Telemetry* plane,
                                          const std::string& node, int region,
                                          const std::string& role) {
  KvStoreOptions options;
  options.l0_max_entries = 1 << 20;
  options.max_levels = 3;
  options.telemetry = plane;
  options.telemetry_labels = {{"node", node}, {"region", std::to_string(region)}, {"role", role}};
  auto store = KvStore::Create(device, options);
  return std::move(*store);
}

// The value of the one series named `name` whose labels are exactly `labels`.
uint64_t SeriesValue(const MetricsSnapshot& snap, std::string_view name,
                     const MetricLabels& labels) {
  const std::string key = CanonicalMetricKey(name, labels);
  for (const MetricSample& sample : snap.samples()) {
    if (CanonicalMetricKey(sample.name, sample.labels) == key) {
      return static_cast<uint64_t>(sample.value);
    }
  }
  ADD_FAILURE() << "no series " << key;
  return 0;
}

MetricLabels With(MetricLabels labels, std::string key, std::string value) {
  labels.emplace_back(std::move(key), std::move(value));
  return labels;
}

TEST(MetricLabelReadTest, RegionLabelsPickOutOneStoreOnASharedPlane) {
  // Four stores whose labels overlap pairwise (same node, same region or same
  // role): only the full {node, region, role} set names one of them.
  Telemetry plane;
  const std::tuple<std::string, int, std::string> ids[] = {
      {"s0", 0, "primary"}, {"s0", 1, "primary"}, {"s1", 0, "primary"}, {"s0", 0, "backup"}};
  std::vector<std::unique_ptr<BlockDevice>> devices;
  std::vector<std::unique_ptr<KvStore>> stores;
  uint64_t total = 0;
  for (size_t i = 0; i < std::size(ids); ++i) {
    const auto& [node, region, role] = ids[i];
    devices.push_back(MakeStoreDevice());
    stores.push_back(MakeLabeledStore(devices.back().get(), &plane, node, region, role));
    for (size_t n = 0; n < 10 * (i + 1); ++n) {
      ASSERT_TRUE(stores.back()->Put(Key(static_cast<int>(n)), "v").ok());
    }
    total += 10 * (i + 1);
  }
  const MetricsSnapshot snap = plane.metrics()->Snapshot();
  for (size_t i = 0; i < stores.size(); ++i) {
    const MetricLabels& labels = stores[i]->options().telemetry_labels;
    EXPECT_EQ(snap.Sum("kv.puts", labels), 10 * (i + 1)) << CanonicalMetricKey("", labels);
    EXPECT_EQ(Metric(*stores[i], "kv.puts"), 10 * (i + 1));
  }
  // A subset of the labels sums every store that carries it.
  EXPECT_EQ(snap.Sum("kv.puts", {{"node", "s0"}}), 10u + 20u + 40u);
  EXPECT_EQ(snap.Sum("kv.puts", {{"region", "0"}, {"role", "primary"}}), 10u + 30u);
  EXPECT_EQ(snap.Sum("kv.puts", MetricLabels{}), total);
  EXPECT_EQ(snap.Sum("kv.puts"), total);
}

TEST(MetricLabelReadTest, ReaderFailsWhenNoSeriesCarriesTheLabels) {
  // Instruments register at construction, so a store that never counted
  // still has a zero series; a misspelt name or label has none and must not
  // read as 0.
  Telemetry plane;
  auto device = MakeStoreDevice();
  auto store = MakeLabeledStore(device.get(), &plane, "s0", 0, "primary");
  EXPECT_EQ(Metric(*store, "kv.puts"), 0u);
  EXPECT_NONFATAL_FAILURE(Metric(*store, "kv.putz"), "no series kv.putz");
  EXPECT_NONFATAL_FAILURE(ReadMetric(&plane, "kv.puts", {{"node", "s9"}}),
                          "no series kv.puts{node=s9}");
}

TEST(MetricLabelReadTest, FilterAndReadCorruptionSumsEqualTheirPerSeriesTotals) {
  // The per-level filter counters and the two kv.read_corruptions sources are
  // extra labels under the store's own; a read by the store's labels sums
  // them. A second store on the plane must not leak into the sums.
  Telemetry plane;
  auto device = MakeStoreDevice();
  auto store = MakeLabeledStore(device.get(), &plane, "s0", 0, "primary");
  auto other_device = MakeStoreDevice();
  auto other = MakeLabeledStore(other_device.get(), &plane, "s0", 1, "primary");
  const std::string value(200, 'v');
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(store->Put(Key(i), value).ok());
    ASSERT_TRUE(other->Put(Key(i), value).ok());
  }
  ASSERT_TRUE(store->FlushL0().ok());
  ASSERT_TRUE(other->FlushL0().ok());
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(store->Get(Key(1'000'000 + i)).status().IsNotFound());
    EXPECT_TRUE(other->Get(Key(2'000'000 + i)).status().IsNotFound());
  }

  // Level rot: a forced scrub quarantines L1 and every read through it
  // counts a level-sourced corruption.
  const BuiltTree& l1 = store->level(1);
  ASSERT_FALSE(l1.segments.empty());
  const std::string garbage(64, '\xa5');
  ASSERT_TRUE(device->Write(device->geometry().BaseOffset(l1.segments[0]), garbage,
                            IoClass::kOther).ok());
  ASSERT_TRUE(store->Scrub().ok());
  EXPECT_TRUE(store->Get(Key(0)).status().IsCorruption());

  // Log rot: records behind memtable entries fail their CRC on the value
  // read, a log-sourced corruption.
  for (int i = 5000; i < 5600; ++i) {
    ASSERT_TRUE(store->Put(Key(i), value).ok());
  }
  const std::vector<SegmentId> flushed = store->value_log()->flushed_segments();
  ASSERT_FALSE(flushed.empty());
  const uint64_t log_base = device->geometry().BaseOffset(flushed.back());
  for (uint64_t offset = 0; offset < device->segment_size() / 2; offset += 4096) {
    ASSERT_TRUE(device->Write(log_base + offset, garbage, IoClass::kOther).ok());
  }
  bool log_rot_seen = false;
  for (int i = 5000; i < 5600; ++i) {
    log_rot_seen = log_rot_seen || store->Get(Key(i)).status().IsCorruption();
  }
  EXPECT_TRUE(log_rot_seen);

  const MetricsSnapshot snap = plane.metrics()->Snapshot();
  const MetricLabels& labels = store->options().telemetry_labels;
  for (const char* name : {"kv.filter_checks", "kv.filter_negatives", "kv.filter_false_positives"}) {
    uint64_t per_level = 0;
    for (uint32_t level = 1; level <= store->max_levels(); ++level) {
      per_level += SeriesValue(snap, name, With(labels, "level", "L" + std::to_string(level)));
    }
    EXPECT_EQ(snap.Sum(name, labels), per_level) << name;
    EXPECT_EQ(Metric(*store, name), per_level) << name;
  }
  EXPECT_GT(SeriesValue(snap, "kv.filter_checks", With(labels, "level", "L1")), 0u);
  const uint64_t log_corruptions =
      SeriesValue(snap, "kv.read_corruptions", With(labels, "source", "value_log"));
  const uint64_t level_corruptions =
      SeriesValue(snap, "kv.read_corruptions", With(labels, "source", "level"));
  EXPECT_GT(log_corruptions, 0u);
  EXPECT_GT(level_corruptions, 0u);
  EXPECT_EQ(snap.Sum("kv.read_corruptions", labels), log_corruptions + level_corruptions);
  EXPECT_EQ(Metric(*store, "kv.read_corruptions"), log_corruptions + level_corruptions);
  // The clean neighbour counted filter probes but no corruption.
  EXPECT_GT(Metric(*other, "kv.filter_checks"), 0u);
  EXPECT_EQ(Metric(*other, "kv.read_corruptions"), 0u);
  EXPECT_EQ(store->QuarantinedLevels(), std::vector<int>{1});
}

// --- span ring buffer ----------------------------------------------------------

SpanRecord MakeSpan(uint64_t i) {
  SpanRecord span;
  span.trace = MakeTraceId(0, static_cast<uint32_t>(i));
  span.compaction_id = i;
  span.name = "claim";
  span.node = "n";
  span.start_ns = i * 100;
  span.end_ns = i * 100 + 10;
  return span;
}

TEST(TraceBufferTest, EvictsOldestFirst) {
  TraceBuffer buffer(4);
  ASSERT_TRUE(buffer.enabled());
  for (uint64_t i = 0; i < 10; ++i) {
    buffer.Record(MakeSpan(i));
  }
  std::vector<SpanRecord> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // The oldest six were overwritten; survivors come out oldest-first.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].compaction_id, 6 + i);
  }
  EXPECT_EQ(buffer.dropped(), 6u);
}

TEST(TraceBufferTest, ZeroCapacityDisablesRecording) {
  TraceBuffer buffer(0);
  EXPECT_FALSE(buffer.enabled());
  buffer.Record(MakeSpan(1));
  EXPECT_TRUE(buffer.Snapshot().empty());
  EXPECT_EQ(buffer.dropped(), 0u);
}

// --- SimCluster: snapshot vs per-object reads, trace propagation ---------------

SimClusterOptions SmallClusterOptions(int regions, int workers) {
  SimClusterOptions options;
  options.num_servers = 3;
  options.num_regions = regions;
  options.replication_factor = 3;
  options.mode = ReplicationMode::kSendIndex;
  options.compaction_workers = workers;
  options.kv_options.l0_max_entries = 128;
  options.kv_options.growth_factor = 4;
  options.kv_options.max_levels = 3;
  options.device_options.segment_size = 1 << 16;
  options.device_options.max_segments = 1 << 14;
  options.key_space = 1ull << 32;
  return options;
}

TEST(SimClusterTelemetryTest, RegistryTotalsMatchLegacyStructsUnderConcurrentStreams) {
  // Multiple regions + background workers = concurrent shipping streams all
  // updating the shared plane. After the run drains, the registry totals must
  // equal the sum of each object's own instruments, read by its labels,
  // exactly: no counter lost, none double-counted, no object's labels
  // picking up another object's series.
  auto cluster_or = SimCluster::Create(SmallClusterOptions(/*regions=*/4, /*workers=*/2));
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto cluster = std::move(*cluster_or);
  constexpr int kPuts = 2000;
  for (int i = 0; i < kPuts; ++i) {
    ASSERT_TRUE(cluster->Put(Key(i * 7919 % 100000), "value-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());

  MetricsSnapshot snap = cluster->MetricsNow();
  uint64_t object_segments = 0, object_bytes = 0, object_streams = 0, object_log_flushes = 0;
  uint64_t object_rewritten = 0, object_backup_streams = 0;
  for (int r = 0; r < cluster->num_regions(); ++r) {
    const PrimaryRegion& primary = *cluster->region(r);
    object_segments += Metric(primary, "repl.index_segments_shipped");
    object_bytes += Metric(primary, "repl.index_bytes_shipped");
    object_streams += Metric(primary, "repl.streams_opened");
    object_log_flushes += Metric(primary, "repl.log_flushes");
    for (size_t b = 0; b < cluster->num_backups(r); ++b) {
      object_rewritten += Metric(*cluster->backup(r, b), "backup.segments_rewritten");
      object_backup_streams += Metric(*cluster->backup(r, b), "backup.streams_opened");
    }
  }
  EXPECT_GT(object_segments, 0u);
  EXPECT_EQ(snap.Sum("repl.index_segments_shipped"), object_segments);
  EXPECT_EQ(snap.Sum("repl.index_bytes_shipped"), object_bytes);
  EXPECT_EQ(snap.Sum("repl.streams_opened"), object_streams);
  EXPECT_EQ(snap.Sum("repl.log_flushes"), object_log_flushes);
  EXPECT_EQ(snap.Sum("backup.segments_rewritten"), object_rewritten);
  EXPECT_EQ(snap.Sum("backup.streams_opened"), object_backup_streams);
  // The primary engines' put counters carry the whole workload, once.
  EXPECT_EQ(snap.Sum("kv.puts", "role", "primary"), static_cast<uint64_t>(kPuts));
}

// --- CPU attribution: every timer the Table 3 peel subtracts nests ------------
//
// bench_table3_breakdown turns inclusive CPU timers into exclusive buckets by
// subtracting each nested timer from the one that contains it. That is only
// sound if the nesting holds: on in-process channels, log replication runs
// inside the primary's insert timer (appends and every tail flush, the seal's
// included), index shipping inside the primary's compaction timer, and a
// Build-Index backup's compactions inside its replay timer. Checked with
// compactions inline (no pool) and on a one-worker pool.
class CpuAttributionTest
    : public ::testing::TestWithParam<std::tuple<ReplicationMode, int>> {};

TEST_P(CpuAttributionTest, EveryPeeledTimerNestsInItsParent) {
  const auto [mode, workers] = GetParam();
  SimClusterOptions options = SmallClusterOptions(/*regions=*/2, workers);
  options.mode = mode;
  options.replication_factor = 2;
  auto cluster_or = SimCluster::Create(options);
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto cluster = std::move(*cluster_or);
  const std::string value(200, 'v');
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(cluster->Put(Key(i * 7919 % 100000), value).ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());

  const ClusterCpuBreakdown cpu = cluster->CpuBreakdown();
  EXPECT_GT(cpu.log_replication_ns, 0u);
  EXPECT_GE(cpu.insert_l0_ns, cpu.log_replication_ns)
      << "kv.insert_l0_cpu_ns{primary} < repl.log_replication_cpu_ns";
  EXPECT_GE(cpu.compaction_ns, cpu.send_index_ns)
      << "kv.compaction_cpu_ns{primary} < repl.send_index_cpu_ns";
  EXPECT_GE(cpu.backup_insert_ns, cpu.backup_compaction_ns)
      << "backup.insert_cpu_ns < kv.compaction_cpu_ns{backup}";
  if (mode == ReplicationMode::kSendIndex) {
    EXPECT_GT(cpu.send_index_ns, 0u);
  } else {
    EXPECT_GT(cpu.backup_compaction_ns, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndPools, CpuAttributionTest,
    ::testing::Combine(::testing::Values(ReplicationMode::kSendIndex,
                                         ReplicationMode::kBuildIndex),
                       ::testing::Values(0, 1)),
    [](const ::testing::TestParamInfo<CpuAttributionTest::ParamType>& info) {
      const bool send = std::get<0>(info.param) == ReplicationMode::kSendIndex;
      return std::string(send ? "SendIndex" : "BuildIndex") +
             (std::get<1>(info.param) == 0 ? "Inline" : "Pool");
    });

TEST(SimClusterTelemetryTest, TraceIdPropagatesFromPrimaryToBothBackups) {
  auto cluster_or = SimCluster::Create(SmallClusterOptions(/*regions=*/1, /*workers=*/0));
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto cluster = std::move(*cluster_or);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(cluster->Put(Key(i), "value-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());

  // Group spans by (trace, compaction): one group per pipeline run.
  std::map<std::pair<TraceId, uint64_t>, std::vector<SpanRecord>> runs;
  for (const SpanRecord& span : cluster->Traces()) {
    EXPECT_NE(span.trace, kNoTrace);
    runs[{span.trace, span.compaction_id}].push_back(span);
  }
  ASSERT_FALSE(runs.empty());

  // At least one run must carry the full tree: scheduler claim -> merge/build
  // -> per-segment ship on the primary, plus rewrite + commit attached to the
  // SAME trace id by BOTH backups (each a distinct node).
  bool full_tree_found = false;
  for (const auto& [key, spans] : runs) {
    std::map<std::string, std::set<std::string>> nodes_by_name;
    for (const SpanRecord& span : spans) {
      nodes_by_name[span.name].insert(span.node);
    }
    if (nodes_by_name["claim"].size() == 1 && nodes_by_name["merge_build"].size() == 1 &&
        !nodes_by_name["ship_segment"].empty() && nodes_by_name["rewrite_segment"].size() == 2 &&
        nodes_by_name["commit"].size() == 2) {
      // Backups are different nodes than the primary.
      const std::string primary_node = *nodes_by_name["claim"].begin();
      EXPECT_EQ(nodes_by_name["rewrite_segment"].count(primary_node), 0u);
      full_tree_found = true;
    }
  }
  std::string dump;
  for (const auto& [key, spans] : runs) {
    dump += "trace " + std::to_string(key.first) + " compaction " + std::to_string(key.second) + ":";
    for (const SpanRecord& span : spans) {
      dump += " " + std::string(span.name) + "@" + span.node;
    }
    dump += "\n";
  }
  EXPECT_TRUE(full_tree_found)
      << "no compaction produced the full claim/merge_build/ship/rewrite/commit span tree\n"
      << dump;

  // The whole capture renders as chrome://tracing JSON, and the scrape
  // payload embeds it alongside the metrics snapshot.
  const std::string chrome = ChromeTraceJson(cluster->Traces());
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ship_segment\""), std::string::npos);
  EXPECT_NE(chrome.find("\"rewrite_segment\""), std::string::npos);
  const std::string scrape = cluster->ScrapeJson();
  EXPECT_NE(scrape.find("\"node\": \"sim-cluster\""), std::string::npos);
  EXPECT_NE(scrape.find("repl.index_segments_shipped"), std::string::npos);
  EXPECT_NE(scrape.find("\"commit\""), std::string::npos);
}

// --- scrape RPC ----------------------------------------------------------------

TEST(ScrapeRpcTest, ClientFetchesNodeScrapeOverWire) {
  Fabric fabric;
  Coordinator zk;
  std::map<std::string, RegionServer*> directory;
  RegionServerOptions server_options;
  server_options.device_options.segment_size = 1 << 16;
  server_options.device_options.max_segments = 1 << 14;
  server_options.kv_options.l0_max_entries = 128;
  RegionServer s0(&fabric, &zk, "s0", server_options);
  RegionServer s1(&fabric, &zk, "s1", server_options);
  ASSERT_TRUE(s0.Start().ok());
  ASSERT_TRUE(s1.Start().ok());
  directory["s0"] = &s0;
  directory["s1"] = &s1;
  Master master(&zk, "m", directory);
  ASSERT_TRUE(master.Campaign().ok());
  auto map = RegionMap::CreateUniform(1, "user", 10, 1000, {"s0", "s1"}, 2);
  ASSERT_TRUE(master.Bootstrap(*map).ok());

  TebisClient client(
      &fabric, "c",
      [&](const std::string& name) -> ServerEndpoint* {
        return directory.contains(name) ? directory[name]->client_endpoint() : nullptr;
      },
      {"s0", "s1"});
  ASSERT_TRUE(client.Connect().ok());
  // Enough writes to trip compactions so the scrape carries spans too.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(client.Put(Key(i), "value-" + std::to_string(i)).ok());
  }

  auto scrape = client.ScrapeStats("s0");
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  EXPECT_NE(scrape->find("\"node\": \"s0\""), std::string::npos);
  EXPECT_NE(scrape->find("kv.puts"), std::string::npos);
  EXPECT_NE(scrape->find("\"traceEvents\""), std::string::npos);
  // The direct accessor and the wire reply come from the same plane.
  EXPECT_EQ(*scrape, s0.ScrapeJson());
  // The other server answers independently with its own node stamp.
  auto other = client.ScrapeStats("s1");
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_NE(other->find("\"node\": \"s1\""), std::string::npos);
  s0.Stop();
  s1.Stop();
}

// --- chaos: a fenced stale primary is visible in scrapes -----------------------

TEST(ChaosScrapeTest, StalePrimaryFencingShowsInScrape) {
  // One shared plane across both ends, as a RegionServer would wire it.
  Telemetry plane(/*trace_capacity=*/256);
  BlockDeviceOptions dev_opts;
  dev_opts.segment_size = 1 << 16;
  dev_opts.max_segments = 1 << 14;
  auto primary_device_or = BlockDevice::Create(dev_opts);
  auto primary_device = std::move(*primary_device_or);
  auto backup_device_or = BlockDevice::Create(dev_opts);
  auto backup_device = std::move(*backup_device_or);
  Fabric fabric;

  KvStoreOptions primary_options;
  primary_options.l0_max_entries = 256;
  primary_options.telemetry = &plane;
  primary_options.telemetry_labels = {{"node", "p0"}, {"role", "primary"}};
  auto primary_or =
      PrimaryRegion::Create(primary_device.get(), primary_options, ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary_or.ok()) << primary_or.status().ToString();
  auto primary = std::move(*primary_or);

  KvStoreOptions backup_options;
  backup_options.l0_max_entries = 256;
  backup_options.telemetry = &plane;
  backup_options.telemetry_labels = {{"node", "b0"}, {"role", "backup"}};
  auto buffer = fabric.RegisterBuffer("b0", "p0", 1 << 16);
  auto backup_or = SendIndexBackupRegion::Create(backup_device.get(), backup_options, buffer);
  ASSERT_TRUE(backup_or.ok()) << backup_or.status().ToString();
  auto backup = std::move(*backup_or);
  primary->AddBackup(
      std::make_unique<LocalBackupChannel>(&fabric, "p0", buffer, backup.get()));

  primary->set_epoch(1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(primary->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  // The backup learns of epoch 2: this primary is now deposed. Its writes and
  // stale control traffic must be fenced — and the fencing must be visible in
  // the scrape, not just in per-object structs.
  backup->set_region_epoch(2);
  Status fenced = primary->Put("stale-key", "stale-value");
  EXPECT_TRUE(fenced.IsFailedPrecondition()) << fenced.ToString();
  LocalBackupChannel stale_channel(&fabric, "p0", buffer, backup.get());
  stale_channel.set_epoch(1);
  EXPECT_TRUE(stale_channel.Send(FlushLogMsg{}).IsFailedPrecondition());

  MetricsSnapshot snap = plane.Snapshot();
  EXPECT_GT(snap.Sum("repl.fence_errors"), 0u);
  EXPECT_GT(snap.Sum("backup.epoch_rejected"), 0u);
  EXPECT_EQ(snap.Sum("repl.fence_errors", "node", "p0"), snap.Sum("repl.fence_errors"));
  // Plane totals == the two engines' own reads by their labels, even mid-chaos.
  EXPECT_EQ(snap.Sum("repl.fence_errors"), Metric(*primary, "repl.fence_errors"));
  EXPECT_EQ(snap.Sum("backup.epoch_rejected"), Metric(*backup, "backup.epoch_rejected"));
  const std::string scrape = plane.ScrapeJson("p0");
  EXPECT_NE(scrape.find("repl.fence_errors"), std::string::npos);
  EXPECT_NE(scrape.find("backup.epoch_rejected"), std::string::npos);
}

}  // namespace
}  // namespace tebis
