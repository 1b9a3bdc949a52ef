// A full Tebis cluster over the simulated RDMA fabric: three region servers,
// a master, the coordinator, and a client talking through the RDMA-write
// message protocol (spinning threads, worker pools, region map routing).
// Shows Send-Index replication happening underneath and the client's
// transparent handling of a large value (reply-allocation round trip).
//
//   ./build/examples/replicated_cluster
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_server.h"
#include "src/common/logging.h"

using namespace tebis;

int main() {
  SetLogLevel(LogLevel::kWarn);
  Fabric fabric;
  Coordinator zk;

  printf("== Tebis replicated cluster ==\n\n");

  // Three region servers, each with its own simulated NVMe device.
  RegionServerOptions options;
  options.device_options.segment_size = 64 * 1024;
  options.device_options.max_segments = 1 << 16;
  options.kv_options.l0_max_entries = 512;
  options.replication_mode = ReplicationMode::kSendIndex;
  std::vector<std::unique_ptr<RegionServer>> servers;
  std::map<std::string, RegionServer*> directory;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(
        std::make_unique<RegionServer>(&fabric, &zk, "server" + std::to_string(i), options));
    if (Status s = servers.back()->Start(); !s.ok()) {
      fprintf(stderr, "start: %s\n", s.ToString().c_str());
      return 1;
    }
    directory[servers.back()->name()] = servers.back().get();
  }
  printf("started 3 region servers (2 spinning threads + 8 workers each)\n");

  // The master bootstraps 6 regions with 2-way replication: every server is
  // primary for two regions and backup for two others.
  Master master(&zk, "master0", directory);
  (void)master.Campaign();
  auto map = RegionMap::CreateUniform(6, "user", 10, 1000000, {"server0", "server1", "server2"},
                                      /*replication_factor=*/2);
  if (Status s = master.Bootstrap(*map); !s.ok()) {
    fprintf(stderr, "bootstrap: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("master bootstrapped 6 regions, 2-way Send-Index replication\n");
  for (const auto& region : master.current_map()->regions()) {
    printf("  region %u [%s, %s): primary=%s backups=%s\n", region.region_id,
           region.start_key.empty() ? "-inf" : region.start_key.c_str(),
           region.end_key.empty() ? "+inf" : region.end_key.c_str(), region.primary.c_str(),
           region.backups[0].c_str());
  }

  // A client connects, caches the region map, and issues pipelined ops.
  TebisClient client(
      &fabric, "client0",
      [&](const std::string& name) -> ServerEndpoint* {
        auto it = directory.find(name);
        return (it == directory.end() || it->second->crashed()) ? nullptr
                                                                : it->second->client_endpoint();
      },
      {"server0", "server1", "server2"});
  if (Status s = client.Connect(); !s.ok()) {
    fprintf(stderr, "connect: %s\n", s.ToString().c_str());
    return 1;
  }

  printf("\nwriting 9000 keys through the RDMA-write protocol...\n");
  for (int i = 0; i < 9000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "user%010d", i * 333 % 1000000);
    if (Status s = client.Put(key, "value-" + std::to_string(i)); !s.ok()) {
      fprintf(stderr, "put: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  // Reads that came back other than the demo expects; main exits non-zero
  // if any did.
  int misses = 0;
  auto value = client.Get("user0000000000");
  printf("get user0000000000 -> %s\n",
         value.ok() ? value->c_str() : ("MISS (" + value.status().ToString() + ")").c_str());
  misses += value.ok() ? 0 : 1;

  // A value too large for the default reply allocation: the server replies
  // with the needed size and the client retries (paper section 3.4.1).
  std::string big(8000, 'X');
  (void)client.Put("user0000000777", big);
  auto big_read = client.Get("user0000000777");
  const bool intact = big_read.ok() && *big_read == big;
  printf("8000-byte value read back: %s (%llu truncation retries)\n",
         intact ? "intact" : "BROKEN", (unsigned long long)client.stats().truncated_retries);
  misses += intact ? 0 : 1;

  // What the cluster did underneath.
  printf("\ncluster internals:\n");
  for (auto& server : servers) {
    const MetricsSnapshot snap = server->telemetry()->Snapshot();
    printf("  %s: %llu puts, %llu compactions, rewrite cpu %.1f ms, shipped %.1f KB\n",
           server->name().c_str(), (unsigned long long)snap.Sum("kv.puts", "role", "primary"),
           (unsigned long long)snap.Sum("kv.compactions", "role", "primary"),
           static_cast<double>(snap.Sum("backup.rewrite_cpu_ns", "role", "backup")) / 1e6,
           static_cast<double>(snap.Sum("repl.index_bytes_shipped", "role", "primary")) / 1024.0);
  }
  printf("  fabric: %.1f KB moved\n", static_cast<double>(fabric.TotalBytes()) / 1024.0);

  for (auto& server : servers) {
    server->Stop();
  }
  printf("\ndone.\n");
  return misses == 0 ? 0 : 1;
}
