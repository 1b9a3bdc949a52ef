// YCSB workloads driven through the *full* network path: TebisClient ->
// RDMA-write message protocol -> region servers -> replication. This is what
// the benchmark harness intentionally skips (single-core scheduling noise);
// here we only verify correctness, counters, and failover under a real
// workload mix.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_server.h"
#include "src/ycsb/workload.h"

namespace tebis {
namespace {

struct NetCluster {
  explicit NetCluster(uint64_t key_space = 3000) {
    RegionServerOptions options;
    options.device_options.segment_size = 1 << 16;
    options.device_options.max_segments = 1 << 16;
    options.kv_options.l0_max_entries = 256;
    options.replication_mode = ReplicationMode::kSendIndex;
    std::vector<std::string> names;
    for (int i = 0; i < 3; ++i) {
      names.push_back("server" + std::to_string(i));
      servers.push_back(std::make_unique<RegionServer>(&fabric, &zk, names.back(), options));
      EXPECT_TRUE(servers.back()->Start().ok());
      directory[names.back()] = servers.back().get();
    }
    master = std::make_unique<Master>(&zk, "m0", directory);
    EXPECT_TRUE(master->Campaign().ok());
    auto map = RegionMap::CreateUniform(4, "user", 10, key_space, names, 2);
    EXPECT_TRUE(map.ok());
    EXPECT_TRUE(master->Bootstrap(*map).ok());
    client = std::make_unique<TebisClient>(
        &fabric, "ycsb-client",
        [this](const std::string& name) -> ServerEndpoint* {
          auto it = directory.find(name);
          return (it == directory.end() || it->second->crashed())
                     ? nullptr
                     : it->second->client_endpoint();
        },
        names);
    client->set_rpc_timeout_ns(1'000'000'000ull);
    EXPECT_TRUE(client->Connect().ok());
  }

  ~NetCluster() {
    for (auto& server : servers) {
      server->Stop();
    }
  }

  KvHooks Hooks() {
    KvHooks hooks;
    hooks.put = [this](Slice key, Slice value) { return client->Put(key, value); };
    hooks.read = [this](Slice key) {
      auto v = client->Get(key);
      return v.ok() ? Status::Ok() : v.status();
    };
    return hooks;
  }

  Fabric fabric;
  Coordinator zk;
  std::vector<std::unique_ptr<RegionServer>> servers;
  std::map<std::string, RegionServer*> directory;
  std::unique_ptr<Master> master;
  std::unique_ptr<TebisClient> client;
};

TEST(ClusterYcsbTest, LoadAndRunAOverTheWire) {
  NetCluster cluster;
  YcsbOptions options;
  options.record_count = 3000;
  options.op_count = 2000;
  options.size_mix = kMixSD;
  YcsbWorkload workload(options);
  auto load = workload.RunLoad(cluster.Hooks());
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  EXPECT_EQ(load->ops, 3000u);
  auto run = workload.RunPhase(kRunA, cluster.Hooks());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Work actually crossed the wire and reached every server.
  uint64_t total_puts = 0;
  uint64_t total_compactions = 0;
  for (auto& server : cluster.servers) {
    const MetricsSnapshot snap = server->telemetry()->Snapshot();
    total_puts += snap.Sum("kv.puts", "role", "primary");
    total_compactions += snap.Sum("kv.compactions", "role", "primary");
    EXPECT_GT(server->client_endpoint()->messages_received(), 0u) << server->name();
  }
  EXPECT_GE(total_puts, 3000u);
  EXPECT_GT(total_compactions, 0u);
  EXPECT_GT(cluster.fabric.TotalBytes(), 0u);
}

TEST(ClusterYcsbTest, RunDLatestDistributionOverTheWire) {
  NetCluster cluster(1500);
  YcsbOptions options;
  options.record_count = 1500;
  options.op_count = 1500;
  YcsbWorkload workload(options);
  ASSERT_TRUE(workload.RunLoad(cluster.Hooks()).ok());
  auto run = workload.RunPhase(kRunD, cluster.Hooks());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(workload.inserted(), 1500u);  // D inserted new keys
}

// YCSB B/C/D with reads fanned out across replicas (PR 6). The per-replica
// read counters live on the backup engines — a server that merely proxied a
// replica read to its primary would answer kFlagWrongRegion instead — so
// their scrape-visible sum equaling the client's replica-read count proves
// the replicas actually served.
TEST(ClusterYcsbTest, ReadFanOutAcrossReplicasBCD) {
  // 6000 records over 4 regions pushes every region past its L1 capacity
  // (256 * 4), so the backups hold two shipped levels — which is what makes
  // the filter-negative assertion below meaningful: a replica get for an
  // L2-resident key is screened out of L1 by the shipped filter.
  NetCluster cluster(6000);
  cluster.client->set_read_mode(ReadMode::kBoundedStaleness, /*staleness_bound=*/0);
  YcsbOptions options;
  options.record_count = 6000;
  options.op_count = 1200;
  YcsbWorkload workload(options);
  ASSERT_TRUE(workload.RunLoad(cluster.Hooks()).ok());
  for (const WorkloadSpec& spec : {kRunB, kRunC, kRunD}) {
    auto run = workload.RunPhase(spec, cluster.Hooks());
    ASSERT_TRUE(run.ok()) << spec.name << ": " << run.status().ToString();
  }
  const ClientStats& stats = cluster.client->stats();
  EXPECT_GT(stats.replica_reads, 0u);
  // Every replica attempt (including fence rejects, which also increment the
  // backup counters before rejecting) is visible in the servers' stats
  // scrapes, and their sum matches the client's count exactly.
  uint64_t replica_gets = 0;
  uint64_t backup_filter_negatives = 0;
  int serving_backups = 0;
  for (auto& server : cluster.servers) {
    const MetricsSnapshot snapshot = server->telemetry()->Snapshot();
    const uint64_t served = snapshot.Sum("backup.replica_gets");
    replica_gets += served;
    serving_backups += served > 0 ? 1 : 0;
    backup_filter_negatives += snapshot.Sum("backup.filter_negatives");
    auto scrape = cluster.client->ScrapeStats(server->name());
    ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
    EXPECT_NE(scrape->find("backup.replica_gets"), std::string::npos) << server->name();
  }
  EXPECT_EQ(replica_gets, stats.replica_reads);
  // Shipped filters worked on the replica read path (PR 7): gets for keys
  // resident in deeper shipped levels are screened out of the shallower
  // levels by the primary-built filters.
  EXPECT_GT(backup_filter_negatives, 0u);
  // The fan-out spread over more than one backup (every server hosts backup
  // regions under the uniform map, so all of them should have served).
  EXPECT_GE(serving_backups, 2);
}

// Read-your-writes mode over the wire: the run-D insert stream immediately
// re-reads its own inserts through replicas; the commit-token fence makes
// that safe, falling back to the primary when a replica is behind.
TEST(ClusterYcsbTest, ReadYourWritesSurvivesRunD) {
  NetCluster cluster(1500);
  cluster.client->set_read_mode(ReadMode::kReadYourWrites);
  YcsbOptions options;
  options.record_count = 1500;
  options.op_count = 1500;
  YcsbWorkload workload(options);
  ASSERT_TRUE(workload.RunLoad(cluster.Hooks()).ok());
  auto run = workload.RunPhase(kRunD, cluster.Hooks());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(workload.inserted(), 1500u);
  const ClientStats& stats = cluster.client->stats();
  EXPECT_GT(stats.replica_reads, 0u);
  // Fallbacks are bounded by replica attempts; each one still completed.
  EXPECT_LE(stats.replica_fallbacks, stats.replica_reads);
}

TEST(ClusterYcsbTest, WorkloadSurvivesMidRunCrash) {
  NetCluster cluster(2000);
  YcsbOptions options;
  options.record_count = 2000;
  YcsbWorkload workload(options);
  ASSERT_TRUE(workload.RunLoad(cluster.Hooks()).ok());
  // Crash one server, then run an update-heavy phase; the client must retry
  // through the new map without surfacing errors.
  cluster.servers[0]->Crash();
  options.op_count = 1000;
  auto run = workload.RunPhase(kRunA, cluster.Hooks());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(cluster.client->stats().map_refreshes, 0u);
}

}  // namespace
}  // namespace tebis
