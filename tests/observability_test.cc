// Cluster-wide observability (PR 10): whole-tree trace eviction, request
// trace ids and the trailing wire field, histogram exemplars and serialized
// merging, the slow-op ring, health watchdog transitions, concurrent scrapes
// vs hot-path updates, end-to-end request traces (direct channels and the
// RPC cluster), and the master's metrics federation — including the math
// (merged totals == summed per-node snapshots) and staleness under an
// unreachable node driven by the FaultInjector.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/cluster_scraper.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/kv_wire.h"
#include "src/cluster/master.h"
#include "src/cluster/region_server.h"
#include "src/cluster/stats_wire.h"
#include "src/common/histogram.h"
#include "src/telemetry/telemetry.h"
#include "src/testing/fault_injector.h"
#include "src/ycsb/sim_cluster.h"

namespace tebis {
namespace {

std::string Key(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%010d", i);
  return buf;
}

SpanRecord MakeSpan(TraceId trace, const char* name, uint64_t start_ns, uint64_t end_ns) {
  SpanRecord span;
  span.trace = trace;
  span.name = name;
  span.node = "n0";
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  return span;
}

// --- trace ids & whole-tree eviction --------------------------------------------

TEST(RequestTraceTest, RequestIdsSetBit63AndCompactionIdsDoNot) {
  const TraceId request = MakeRequestTraceId(0x1234, 7);
  EXPECT_TRUE(IsRequestTrace(request));
  EXPECT_NE(request, kNoTrace);
  const TraceId compaction = MakeTraceId(/*epoch=*/5, /*stream=*/3);
  EXPECT_FALSE(IsRequestTrace(compaction));
  // Distinct sources and sequences produce distinct ids.
  EXPECT_NE(MakeRequestTraceId(0x1234, 8), request);
  EXPECT_NE(MakeRequestTraceId(0x4321, 7), request);
}

TEST(TraceBufferTest, EvictsWholeTraceTreesNotIndividualSpans) {
  TraceBuffer buffer(/*capacity=*/6);
  const TraceId a = MakeRequestTraceId(1, 1);
  const TraceId b = MakeRequestTraceId(1, 2);
  // Tree A: three spans, interleaved with tree B's first span.
  buffer.Record(MakeSpan(a, "client", 10, 40));
  buffer.Record(MakeSpan(b, "client", 15, 45));
  buffer.Record(MakeSpan(a, "primary_apply", 11, 39));
  buffer.Record(MakeSpan(a, "engine_apply", 12, 30));
  buffer.Record(MakeSpan(b, "primary_apply", 16, 44));
  buffer.Record(MakeSpan(b, "engine_apply", 17, 43));
  ASSERT_EQ(buffer.Snapshot().size(), 6u);

  // One more span: the buffer is full, so the *whole* oldest tree (A, three
  // spans) must go — not just the single oldest span.
  const TraceId c = MakeRequestTraceId(1, 3);
  buffer.Record(MakeSpan(c, "client", 50, 60));
  std::vector<SpanRecord> spans = buffer.Snapshot();
  EXPECT_EQ(spans.size(), 4u);
  for (const SpanRecord& span : spans) {
    EXPECT_NE(span.trace, a) << "a partial tree survived eviction";
  }
  // B's tree is intact.
  size_t b_spans = 0;
  for (const SpanRecord& span : spans) {
    b_spans += span.trace == b ? 1 : 0;
  }
  EXPECT_EQ(b_spans, 3u);
  EXPECT_EQ(buffer.dropped(), 3u);
}

TEST(TraceBufferTest, DisabledBufferRecordsNothing) {
  TraceBuffer buffer(0);
  EXPECT_FALSE(buffer.enabled());
  buffer.Record(MakeSpan(MakeRequestTraceId(1, 1), "client", 1, 2));
  EXPECT_TRUE(buffer.Snapshot().empty());
}

// --- histogram merging & exemplars ----------------------------------------------

TEST(HistogramTest, SerializedMergeRoundTripsTheDistribution) {
  Histogram a;
  Histogram b;
  for (uint64_t v : {100u, 200u, 3000u, 40000u}) {
    a.Record(v);
  }
  for (uint64_t v : {150u, 2500u, 500000u}) {
    b.Record(v);
  }
  // Merge b into a through the sparse wire form, as federation does.
  Histogram merged = a;
  merged.MergeSerialized(b.count(), b.sum(), b.min(), b.max(), b.SparseBuckets());
  Histogram direct = a;
  direct.Merge(b);
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.sum(), direct.sum());
  EXPECT_EQ(merged.min(), direct.min());
  EXPECT_EQ(merged.max(), direct.max());
  EXPECT_EQ(merged.Percentile(50), direct.Percentile(50));
  EXPECT_EQ(merged.Percentile(99), direct.Percentile(99));
}

TEST(HistogramTest, CorruptSparseBucketsCannotWriteOutOfBounds) {
  Histogram h;
  h.MergeSerialized(1, 100, 100, 100, {{0xFFFFFFFFu, 1}});
  EXPECT_EQ(h.count(), 1u);  // clamped into the last bucket, no crash
}

TEST(HistogramTest, LastBucketPercentileIsClampedToObservedMax) {
  Histogram h;
  const uint64_t huge = 3'000'000'000'000'000'000ull;  // lands near the top group
  h.Record(huge);
  // The saturated bucket bound must not wrap and pull the answer to garbage;
  // the percentile is clamped to the observed max.
  EXPECT_EQ(h.Percentile(99), huge);
  EXPECT_EQ(h.max(), huge);
}

TEST(HistogramInstrumentTest, ExemplarsKeepTheMostRecentSampledTraces) {
  HistogramInstrument instrument;
  instrument.Record(100);  // unsampled: no exemplar
  EXPECT_TRUE(instrument.Exemplars().empty());
  for (uint64_t i = 1; i <= 6; ++i) {
    instrument.Record(i * 1000, MakeRequestTraceId(9, i));
  }
  std::vector<HistogramExemplar> exemplars = instrument.Exemplars();
  ASSERT_EQ(exemplars.size(), HistogramInstrument::kMaxExemplars);
  // Ring keeps the latest four, oldest first.
  EXPECT_EQ(exemplars.front().trace, MakeRequestTraceId(9, 3));
  EXPECT_EQ(exemplars.back().trace, MakeRequestTraceId(9, 6));
  EXPECT_EQ(exemplars.back().value, 6000u);
}

TEST(HistogramInstrumentTest, ExemplarsRideTheSnapshotJson) {
  Telemetry plane;
  HistogramInstrument* h =
      plane.metrics()->GetHistogram("trace.request_latency_ns", {{"op", "put"}});
  h->Record(1234, MakeRequestTraceId(2, 0));
  const std::string json = plane.Snapshot().Json();
  EXPECT_NE(json.find("_exemplars"), std::string::npos) << json;
  EXPECT_NE(json.find("@1234"), std::string::npos) << json;
}

// --- slow-op log ----------------------------------------------------------------

TEST(SlowOpLogTest, RecordsOnlyOpsOverTheirTypeThreshold) {
  SlowOpLog log(4);
  SlowOpPolicy policy;
  policy.put_ns = 1000;
  log.Configure(policy);
  EXPECT_EQ(log.threshold(SlowOpType::kPut), 1000u);
  EXPECT_EQ(log.threshold(SlowOpType::kGet), 0u);  // disabled

  EXPECT_FALSE(log.MaybeRecord(SlowOpType::kPut, "fast", 1, 1, kNoTrace, 999, nullptr, 10));
  EXPECT_FALSE(log.MaybeRecord(SlowOpType::kGet, "any", 1, 1, kNoTrace, 1u << 30, nullptr, 10));
  RequestStageTimings stages;
  stages.engine_ns = 800;
  stages.doorbell_ns = 300;
  EXPECT_TRUE(log.MaybeRecord(SlowOpType::kPut, "slow-key-0123456789abcdef", 3, 7,
                              MakeRequestTraceId(1, 1), 1500, &stages, 42));
  std::vector<SlowOpRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, SlowOpType::kPut);
  EXPECT_EQ(records[0].key_prefix.size(), SlowOpLog::kKeyPrefixBytes);
  EXPECT_EQ(records[0].region, 3u);
  EXPECT_EQ(records[0].epoch, 7u);
  EXPECT_EQ(records[0].total_ns, 1500u);
  EXPECT_EQ(records[0].stages.engine_ns, 800u);
  EXPECT_EQ(records[0].stages.doorbell_ns, 300u);
  EXPECT_TRUE(IsRequestTrace(records[0].trace));
}

TEST(SlowOpLogTest, RingWrapsAndCountsDrops) {
  SlowOpLog log(2);
  SlowOpPolicy policy;
  policy.get_ns = 1;
  log.Configure(policy);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(log.MaybeRecord(SlowOpType::kGet, Key(i), 0, 0, kNoTrace, 100 + i, nullptr, i));
  }
  EXPECT_EQ(log.total(), 5u);
  EXPECT_EQ(log.dropped(), 3u);
  std::vector<SlowOpRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  // The two survivors are the newest two.
  EXPECT_EQ(records[0].total_ns + records[1].total_ns, 103u + 104u);
}

// --- health watchdog ------------------------------------------------------------

TEST(HealthWatchdogTest, TransitionsGreenYellowRedOnWindowDeltas) {
  Telemetry plane;
  Counter* stall = plane.metrics()->GetCounter("kv.write_stall_ns");
  HealthThresholds thresholds;
  thresholds.stall_ns_yellow = 1000;
  thresholds.stall_ns_red = 100000;
  plane.EnableHealthWatchdog(thresholds);

  // First evaluation: no baseline window yet, reports green.
  MetricsSnapshot snap = plane.Snapshot();
  ASSERT_NE(snap.Find("health.node"), nullptr);
  EXPECT_EQ(snap.Find("health.node")->value, kHealthGreen);

  stall->Add(5000);  // over yellow, under red for this window
  snap = plane.Snapshot();
  EXPECT_EQ(snap.Find("health.flow_control")->value, kHealthYellow);
  EXPECT_EQ(snap.Find("health.node")->value, kHealthYellow);

  stall->Add(200000);  // over red
  snap = plane.Snapshot();
  EXPECT_EQ(snap.Find("health.flow_control")->value, kHealthRed);
  EXPECT_EQ(snap.Find("health.node")->value, kHealthRed);

  // A quiet window recovers to green — the detector looks at deltas.
  snap = plane.Snapshot();
  EXPECT_EQ(snap.Find("health.flow_control")->value, kHealthGreen);
  EXPECT_EQ(snap.Find("health.node")->value, kHealthGreen);
}

TEST(HealthWatchdogTest, QuarantinedLevelsAreAnAbsoluteRedSignal) {
  Telemetry plane;
  Gauge* quarantined = plane.metrics()->GetGauge("integrity.quarantined_levels");
  plane.EnableHealthWatchdog();
  quarantined->Set(1);
  // Red from the very first evaluation: absolute signals need no baseline.
  MetricsSnapshot snap = plane.Snapshot();
  EXPECT_EQ(snap.Find("health.integrity")->value, kHealthRed);
  EXPECT_EQ(snap.Find("health.node")->value, kHealthRed);
  quarantined->Set(0);
  snap = plane.Snapshot();
  EXPECT_EQ(snap.Find("health.integrity")->value, kHealthGreen);
}

// --- concurrent scrapes vs hot-path updates -------------------------------------

TEST(TelemetryConcurrencyTest, ScrapeJsonRacesHotPathUpdatesSafely) {
  Telemetry plane(/*trace_capacity=*/256);
  plane.EnableHealthWatchdog();
  SlowOpPolicy policy;
  policy.put_ns = 1;
  plane.ConfigureSlowOps(policy);

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&plane, w] {
      Counter* counter = plane.metrics()->GetCounter(
          "kv.write_stall_ns", {{"node", "s" + std::to_string(w)}});
      HistogramInstrument* hist = plane.metrics()->GetHistogram(
          "trace.request_latency_ns", {{"op", "put"}});
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter->Add(1);
        const TraceId trace =
            i % 16 == 0 ? MakeRequestTraceId(static_cast<uint64_t>(w), i) : kNoTrace;
        hist->Record(100 + i, trace);
        plane.slow_ops()->MaybeRecord(SlowOpType::kPut, Key(i), 0, 0, trace, 100 + i,
                                      nullptr, i);
        if (trace != kNoTrace) {
          SpanRecord span;
          span.trace = trace;
          span.name = "client";
          span.node = "s" + std::to_string(w);
          span.start_ns = static_cast<uint64_t>(i);
          span.end_ns = static_cast<uint64_t>(i) + 50;
          plane.traces()->Record(std::move(span));
        }
      }
    });
  }
  std::thread scraper([&plane, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string json = plane.ScrapeJson("racer");
      EXPECT_FALSE(json.empty());
    }
  });
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  scraper.join();

  MetricsSnapshot snap = plane.Snapshot();
  EXPECT_EQ(snap.Sum("kv.write_stall_ns"), static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  const MetricSample* hist = snap.Find("trace.request_latency_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->histogram.count(), static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(plane.slow_ops()->total(), static_cast<uint64_t>(kWriters) * kOpsPerWriter);
}

// --- trailing trace wire field --------------------------------------------------

TEST(TraceWireTest, UnsampledFramesAreByteIdenticalToTheSeedFormat) {
  // kNoTrace must append nothing: the encodings with and without the default
  // argument are the same bytes.
  EXPECT_EQ(EncodePutRequest("k", "v"), EncodePutRequest("k", "v", kNoTrace));
  const std::string unsampled = EncodePutRequest("key", "value");
  const std::string sampled = EncodePutRequest("key", "value", MakeRequestTraceId(1, 1));
  ASSERT_EQ(sampled.size(), unsampled.size() + 9);  // [u8 tag][u64 id]
  EXPECT_EQ(sampled.substr(0, unsampled.size()), unsampled);
  EXPECT_EQ(static_cast<uint8_t>(sampled[unsampled.size()]), kTraceFieldTag);
}

TEST(TraceWireTest, DecodeRecoversTheTraceAndToleratesDamage) {
  const TraceId trace = MakeRequestTraceId(3, 42);
  const std::string sampled = EncodePutRequest("key", "value", trace);
  Slice key;
  Slice value;
  TraceId decoded = kNoTrace;
  ASSERT_TRUE(DecodePutRequest(sampled, &key, &value, &decoded).ok());
  EXPECT_EQ(decoded, trace);
  EXPECT_EQ(key.ToString(), "key");
  EXPECT_EQ(value.ToString(), "value");

  // Truncating the trailing field anywhere degrades to "unsampled" without
  // failing the fields before it.
  for (size_t cut = 1; cut <= 9; ++cut) {
    decoded = trace;
    ASSERT_TRUE(DecodePutRequest(Slice(sampled.data(), sampled.size() - cut), &key, &value,
                                 &decoded)
                    .ok())
        << "cut=" << cut;
    EXPECT_EQ(decoded, kNoTrace) << "cut=" << cut;
    EXPECT_EQ(key.ToString(), "key");
  }

  // A corrupted tag byte likewise reads as unsampled.
  std::string corrupt = sampled;
  corrupt[sampled.size() - 9] = static_cast<char>(0x11);
  decoded = trace;
  ASSERT_TRUE(DecodePutRequest(corrupt, &key, &value, &decoded).ok());
  EXPECT_EQ(decoded, kNoTrace);

  // Callers that never ask for the trace still decode sampled frames.
  ASSERT_TRUE(DecodePutRequest(sampled, &key, &value).ok());
}

// --- end-to-end request trace, direct channels (SimCluster) ---------------------

SimClusterOptions TracedClusterOptions() {
  SimClusterOptions options;
  options.num_servers = 3;
  options.num_regions = 4;
  options.replication_factor = 2;
  options.kv_options.l0_max_entries = 128;
  options.device_options.segment_size = 1 << 16;
  options.device_options.max_segments = 1 << 14;
  options.request_trace_sample_every = 1;  // sample everything
  return options;
}

TEST(RequestTraceE2ETest, SampledPutBuildsOneTreeAcrossClientEngineDoorbellBackup) {
  auto cluster = SimCluster::Create(TracedClusterOptions());
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Put(Key(1), "value-1").ok());

  // Every span of the request must share one bit-63 trace id.
  std::set<TraceId> request_traces;
  std::map<std::string, int> by_name;
  for (const SpanRecord& span : (*cluster)->Traces()) {
    if (!IsRequestTrace(span.trace)) {
      continue;  // compaction pipeline spans may coexist
    }
    request_traces.insert(span.trace);
    by_name[span.name]++;
  }
  ASSERT_EQ(request_traces.size(), 1u);
  EXPECT_EQ(by_name["client"], 1);
  EXPECT_EQ(by_name["primary_apply"], 1);
  EXPECT_EQ(by_name["engine_apply"], 1);
  EXPECT_EQ(by_name["doorbell"], 1);
  // rf=2 -> one backup -> one commit span, recorded on the *backup's* behalf
  // by the commit listener (reconstructed on the backup side of the fabric).
  EXPECT_EQ(by_name["backup_commit"], 1);

  // The sampled op landed an exemplar linking the latency histogram to it.
  // Each simulated server keeps its own {node, op} histogram, like an RPC
  // server does; only the primary's holds the put.
  MetricsSnapshot snap = (*cluster)->MetricsNow();
  int put_histograms = 0;
  std::vector<std::string> exemplar_nodes;
  for (const MetricSample& sample : snap.samples()) {
    if (sample.name != "trace.request_latency_ns" || !sample.HasLabel("op", "put")) {
      continue;
    }
    ++put_histograms;
    for (const auto& exemplar : sample.exemplars) {
      EXPECT_EQ(exemplar.trace, *request_traces.begin());
      for (const auto& [key, value] : sample.labels) {
        if (key == "node") {
          exemplar_nodes.push_back(value);
        }
      }
    }
  }
  EXPECT_EQ(put_histograms, 3);  // one per server
  EXPECT_EQ(exemplar_nodes.size(), 1u);
}

TEST(RequestTraceE2ETest, StageBreakdownLandsInTheSlowOpLog) {
  SimClusterOptions options = TracedClusterOptions();
  options.slow_op_policy.put_ns = 1;  // everything is "slow"
  auto cluster = SimCluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Put(Key(2), "value-2").ok());

  std::vector<SlowOpRecord> records = (*cluster)->telemetry()->slow_ops()->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const SlowOpRecord& r = records[0];
  EXPECT_EQ(r.type, SlowOpType::kPut);
  EXPECT_TRUE(IsRequestTrace(r.trace));
  EXPECT_GT(r.total_ns, 0u);
  // Inclusive stage nesting: total covers engine, engine covers the doorbell.
  EXPECT_GT(r.stages.engine_ns, 0u);
  EXPECT_GT(r.stages.doorbell_ns, 0u);
  EXPECT_GE(r.total_ns, r.stages.engine_ns);
  EXPECT_GE(r.stages.engine_ns, r.stages.doorbell_ns);
  EXPECT_GT(r.stages.backup_commit_ns, 0u);
  // And the scrape carries the ring.
  EXPECT_NE((*cluster)->ScrapeJson().find("slow_ops"), std::string::npos);
}

TEST(RequestTraceE2ETest, UnsampledClusterRecordsNoRequestSpans) {
  SimClusterOptions options = TracedClusterOptions();
  options.request_trace_sample_every = 0;
  auto cluster = SimCluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE((*cluster)->Put(Key(i), "v").ok());
  }
  for (const SpanRecord& span : (*cluster)->Traces()) {
    EXPECT_FALSE(IsRequestTrace(span.trace));
  }
}

// --- end-to-end request trace over the RPC cluster ------------------------------

RegionServerOptions SmallServerOptions() {
  RegionServerOptions options;
  options.device_options.segment_size = 1 << 16;
  options.device_options.max_segments = 1 << 14;
  options.kv_options.l0_max_entries = 128;
  return options;
}

TEST(RequestTraceE2ETest, RpcClusterCarriesTheTraceIdThroughTheWire) {
  Fabric fabric;
  Coordinator zk;
  std::map<std::string, RegionServer*> directory;
  RegionServer s0(&fabric, &zk, "s0", SmallServerOptions());
  RegionServer s1(&fabric, &zk, "s1", SmallServerOptions());
  ASSERT_TRUE(s0.Start().ok());
  ASSERT_TRUE(s1.Start().ok());
  directory["s0"] = &s0;
  directory["s1"] = &s1;
  Master master(&zk, "m", directory);
  ASSERT_TRUE(master.Campaign().ok());
  auto map = RegionMap::CreateUniform(1, "user", 10, 1000, {"s0", "s1"}, 2);
  ASSERT_TRUE(master.Bootstrap(*map).ok());

  Telemetry client_plane(/*trace_capacity=*/64);
  TebisClient client(
      &fabric, "c",
      [&](const std::string& name) -> ServerEndpoint* {
        return directory.contains(name) ? directory[name]->client_endpoint() : nullptr;
      },
      {"s0", "s1"});
  ASSERT_TRUE(client.Connect().ok());
  client.set_request_sampling(1);
  client.set_telemetry(&client_plane);
  ASSERT_TRUE(client.Put("user0000000001", "traced").ok());

  // The client recorded its span under a request id...
  TraceId trace = kNoTrace;
  for (const SpanRecord& span : client_plane.traces()->Snapshot()) {
    if (IsRequestTrace(span.trace)) {
      EXPECT_STREQ(span.name, "client");
      trace = span.trace;
    }
  }
  ASSERT_NE(trace, kNoTrace);

  // ...and the primary reconstructed the same id from the wire field: its
  // plane holds the primary_apply/engine/doorbell spans.
  std::map<std::string, int> by_name;
  for (const SpanRecord& span : s0.telemetry()->traces()->Snapshot()) {
    if (span.trace == trace) {
      by_name[span.name]++;
    }
  }
  EXPECT_EQ(by_name["primary_apply"], 1);
  EXPECT_EQ(by_name["engine_apply"], 1);
  EXPECT_EQ(by_name["doorbell"], 1);
  // The backup owner installed the commit listener, so the backup_commit
  // span is reconstructed on *its* plane under the same trace id.
  int backup_commits = 0;
  for (const SpanRecord& span : s1.telemetry()->traces()->Snapshot()) {
    if (span.trace == trace && std::string_view(span.name) == "backup_commit") {
      ++backup_commits;
    }
  }
  EXPECT_EQ(backup_commits, 1);
  s0.Stop();
  s1.Stop();
}

// One sampled put through the RPC cluster and one through SimCluster run the
// same serving core, so they record the same set of span names under their
// trace id.
TEST(RequestTraceE2ETest, RpcAndSimClusterRecordTheSameSpanNames) {
  std::set<std::string> sim_names;
  {
    auto cluster = SimCluster::Create(TracedClusterOptions());
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE((*cluster)->Put(Key(1), "traced").ok());
    std::set<TraceId> traces;
    for (const SpanRecord& span : (*cluster)->Traces()) {
      if (IsRequestTrace(span.trace)) {
        traces.insert(span.trace);
        sim_names.insert(span.name);
      }
    }
    ASSERT_EQ(traces.size(), 1u);
  }

  Fabric fabric;
  Coordinator zk;
  std::map<std::string, RegionServer*> directory;
  RegionServer s0(&fabric, &zk, "s0", SmallServerOptions());
  RegionServer s1(&fabric, &zk, "s1", SmallServerOptions());
  ASSERT_TRUE(s0.Start().ok());
  ASSERT_TRUE(s1.Start().ok());
  directory["s0"] = &s0;
  directory["s1"] = &s1;
  Master master(&zk, "m", directory);
  ASSERT_TRUE(master.Campaign().ok());
  auto map = RegionMap::CreateUniform(1, "user", 10, 1000, {"s0", "s1"}, 2);
  ASSERT_TRUE(master.Bootstrap(*map).ok());
  Telemetry client_plane(/*trace_capacity=*/64);
  TebisClient client(
      &fabric, "c",
      [&](const std::string& name) -> ServerEndpoint* {
        return directory.contains(name) ? directory[name]->client_endpoint() : nullptr;
      },
      {"s0", "s1"});
  ASSERT_TRUE(client.Connect().ok());
  client.set_request_sampling(1);
  client.set_telemetry(&client_plane);
  ASSERT_TRUE(client.Put("user0000000001", "traced").ok());

  std::set<TraceId> traces;
  std::set<std::string> rpc_names;
  for (Telemetry* plane : {&client_plane, s0.telemetry(), s1.telemetry()}) {
    for (const SpanRecord& span : plane->traces()->Snapshot()) {
      if (IsRequestTrace(span.trace)) {
        traces.insert(span.trace);
        rpc_names.insert(span.name);
      }
    }
  }
  EXPECT_EQ(traces.size(), 1u);
  EXPECT_EQ(rpc_names, sim_names);
  EXPECT_EQ(sim_names, (std::set<std::string>{"client", "primary_apply", "engine_apply",
                                              "doorbell", "backup_commit"}));
  s0.Stop();
  s1.Stop();
}

// --- federation math ------------------------------------------------------------

// Builds a fetcher serving canned per-node planes, with a switchable outage.
struct FakeFleet {
  std::map<std::string, std::unique_ptr<Telemetry>> planes;
  std::set<std::string> unreachable;

  Telemetry* Add(const std::string& server) {
    planes[server] = std::make_unique<Telemetry>();
    return planes[server].get();
  }
  ClusterScraper::FetchFn Fetcher() {
    return [this](const std::string& server) -> StatusOr<std::string> {
      if (unreachable.contains(server)) {
        return Status::Unavailable(server + " unreachable");
      }
      Telemetry* plane = planes.at(server).get();
      return EncodeNodeScrape(server, plane->Snapshot(), plane->slow_ops()->Snapshot());
    };
  }
};

TEST(FederationTest, MergedTotalsEqualSummedPerNodeSnapshots) {
  FakeFleet fleet;
  Telemetry* s0 = fleet.Add("s0");
  Telemetry* s1 = fleet.Add("s1");
  s0->metrics()->GetCounter("kv.puts")->Add(10);
  s1->metrics()->GetCounter("kv.puts")->Add(32);
  s0->metrics()->GetGauge("kv.l0_entries")->Set(5);
  s1->metrics()->GetGauge("kv.l0_entries")->Set(7);
  s0->metrics()->GetHistogram("trace.request_latency_ns")->Record(1000,
                                                                  MakeRequestTraceId(1, 1));
  s1->metrics()->GetHistogram("trace.request_latency_ns")->Record(9000);

  ClusterScraper scraper({"s0", "s1"}, fleet.Fetcher());
  ASSERT_TRUE(scraper.ScrapeOnce().ok());

  MetricsSnapshot merged = scraper.MergedSnapshot();
  // Counter math: the merged snapshot holds both node-labeled samples and
  // their sum equals the per-node sum.
  EXPECT_EQ(merged.Sum("kv.puts"), 42u);
  EXPECT_EQ(merged.Sum("kv.puts", "node", "s0"), 10u);
  EXPECT_EQ(merged.Sum("kv.puts", "node", "s1"), 32u);
  // Gauges stay distinguishable per node instead of collapsing.
  EXPECT_EQ(merged.Find("kv.l0_entries", "node", "s0")->value, 5);
  EXPECT_EQ(merged.Find("kv.l0_entries", "node", "s1")->value, 7);

  const std::string json = scraper.ClusterJson();
  EXPECT_NE(json.find("\"kv.puts\": 42"), std::string::npos) << json;
  // Histograms merged bucket-wise: count 2, and the exemplar survived with
  // its node attribution.
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"node\": \"s0\""), std::string::npos) << json;
  EXPECT_EQ(scraper.ClusterHealth(), kHealthGreen);
}

TEST(FederationTest, UnreachableNodeKeepsLastGoodSnapshotAndGoesStale) {
  FakeFleet fleet;
  fleet.Add("s0")->metrics()->GetCounter("kv.puts")->Add(1);
  fleet.Add("s1")->metrics()->GetCounter("kv.puts")->Add(2);

  ClusterScraper scraper({"s0", "s1"}, fleet.Fetcher());
  ASSERT_TRUE(scraper.ScrapeOnce().ok());
  EXPECT_FALSE(scraper.node_state("s1").stale);

  fleet.unreachable.insert("s1");
  fleet.planes["s0"]->metrics()->GetCounter("kv.puts")->Add(9);
  ASSERT_TRUE(scraper.ScrapeOnce().ok());  // per-node outage is not an error

  ClusterScraper::NodeState state = scraper.node_state("s1");
  EXPECT_TRUE(state.stale);
  EXPECT_EQ(state.missed_scrapes, 1);
  // s1's last-good value stays in the merge; s0's refresh is picked up.
  MetricsSnapshot merged = scraper.MergedSnapshot();
  EXPECT_EQ(merged.Sum("kv.puts", "node", "s1"), 2u);
  EXPECT_EQ(merged.Sum("kv.puts", "node", "s0"), 10u);
  // Staleness forces at least yellow and is marked in the document.
  EXPECT_EQ(scraper.ClusterHealth(), kHealthYellow);
  const std::string json = scraper.ClusterJson();
  EXPECT_NE(json.find("\"stale\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stale_nodes\": 1"), std::string::npos) << json;

  fleet.unreachable.clear();
  ASSERT_TRUE(scraper.ScrapeOnce().ok());
  EXPECT_FALSE(scraper.node_state("s1").stale);
  EXPECT_EQ(scraper.ClusterHealth(), kHealthGreen);
}

// --- federation over the real RPC scrape, FaultInjector outage ------------------

TEST(FederationTest, MasterScrapesTheFleetAndMarksAFaultedNodeStale) {
  Fabric fabric;
  FaultInjector injector(/*seed=*/7);
  fabric.set_fault_injector(&injector);
  Coordinator zk;
  std::map<std::string, RegionServer*> directory;
  RegionServer s0(&fabric, &zk, "s0", SmallServerOptions());
  RegionServer s1(&fabric, &zk, "s1", SmallServerOptions());
  ASSERT_TRUE(s0.Start().ok());
  ASSERT_TRUE(s1.Start().ok());
  directory["s0"] = &s0;
  directory["s1"] = &s1;
  Master master(&zk, "m", directory);
  ASSERT_TRUE(master.Campaign().ok());
  auto map = RegionMap::CreateUniform(2, "user", 10, 1000, {"s0", "s1"}, 2);
  ASSERT_TRUE(master.Bootstrap(*map).ok());

  // Round 1: both nodes reachable over the binary kStatsScrape RPC.
  ASSERT_TRUE(master.ScrapeCluster().ok());
  ASSERT_NE(master.cluster_scraper(), nullptr);
  EXPECT_TRUE(master.cluster_scraper()->node_state("s0").ever_scraped);
  EXPECT_TRUE(master.cluster_scraper()->node_state("s1").ever_scraped);
  EXPECT_FALSE(master.cluster_scraper()->node_state("s1").stale);
  const std::string healthy = master.ClusterStatsJson();
  EXPECT_NE(healthy.find("\"health\": \"green\""), std::string::npos) << healthy;

  // s1 becomes unreachable: every RPC send to it is dropped by the injector.
  injector.HaltNode("s1");
  master.ScrapeCluster();  // the round itself proceeds; s1 just misses
  EXPECT_TRUE(master.cluster_scraper()->node_state("s1").stale);
  EXPECT_FALSE(master.cluster_scraper()->node_state("s0").stale);
  EXPECT_GE(master.cluster_scraper()->ClusterHealth(), kHealthYellow);
  const std::string degraded = master.ClusterStatsJson();
  EXPECT_NE(degraded.find("\"stale\": true"), std::string::npos) << degraded;

  injector.ReviveNode("s1");
  ASSERT_TRUE(master.ScrapeCluster().ok());
  EXPECT_FALSE(master.cluster_scraper()->node_state("s1").stale);
  s0.Stop();
  s1.Stop();
}

TEST(FederationTest, ScrapeClusterIsLeaderOnly) {
  Coordinator zk;
  Master standby(&zk, "standby", {});
  // Never campaigned: not the leader, so no scraper may be built.
  EXPECT_EQ(standby.ScrapeCluster().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(standby.cluster_scraper(), nullptr);
  EXPECT_TRUE(standby.ClusterStatsJson().empty());
}

}  // namespace
}  // namespace tebis
