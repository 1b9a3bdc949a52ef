// Interactive shell over a replicated Tebis cluster — the kind of tool a
// downstream user pokes the system with. Commands:
//   put <key> <value>      get <key>          del <key>
//   scan <start> <n>       stats              regions
//   crash <server>         fill <n>           help / quit
//
//   ./build/examples/tebis_shell
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
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
    (void)servers.back()->Start();
    directory[servers.back()->name()] = servers.back().get();
  }
  Master master(&zk, "master0", directory);
  (void)master.Campaign();
  auto map = RegionMap::CreateUniform(6, "", 10, 10000000000ull,
                                      {"server0", "server1", "server2"}, 2);
  if (Status s = master.Bootstrap(*map); !s.ok()) {
    fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
    return 1;
  }
  TebisClient client(
      &fabric, "shell",
      [&](const std::string& name) -> ServerEndpoint* {
        auto it = directory.find(name);
        return (it == directory.end() || it->second->crashed()) ? nullptr
                                                                : it->second->client_endpoint();
      },
      {"server0", "server1", "server2"});
  client.set_rpc_timeout_ns(500'000'000ull);
  (void)client.Connect();

  printf("Tebis shell — 3 servers, 6 regions, 2-way Send-Index replication.\n");
  printf("Keys are 10-digit decimal strings (e.g. 0000000042). Type 'help'.\n\n");

  std::string line;
  while (true) {
    printf("tebis> ");
    fflush(stdout);
    if (!std::getline(std::cin, line)) {
      break;
    }
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) {
      continue;
    }
    if (cmd == "quit" || cmd == "exit") {
      break;
    }
    if (cmd == "help") {
      printf("  put <key> <value> | get <key> | del <key> | scan <start> <n>\n");
      printf("  fill <n>          | stats     | regions   | crash <server> | quit\n");
    } else if (cmd == "put") {
      std::string key, value;
      in >> key >> value;
      Status s = client.Put(key, value);
      printf("%s\n", s.ToString().c_str());
    } else if (cmd == "get") {
      std::string key;
      in >> key;
      auto v = client.Get(key);
      printf("%s\n", v.ok() ? v->c_str() : v.status().ToString().c_str());
    } else if (cmd == "del") {
      std::string key;
      in >> key;
      printf("%s\n", client.Delete(key).ToString().c_str());
    } else if (cmd == "scan") {
      std::string start;
      uint32_t n = 10;
      in >> start >> n;
      auto pairs = client.Scan(start, n);
      if (!pairs.ok()) {
        printf("%s\n", pairs.status().ToString().c_str());
        continue;
      }
      for (const auto& kv : *pairs) {
        printf("  %s = %s\n", kv.key.c_str(), kv.value.c_str());
      }
      printf("(%zu results)\n", pairs->size());
    } else if (cmd == "fill") {
      uint64_t n = 1000;
      in >> n;
      uint64_t ok = 0;
      for (uint64_t i = 0; i < n; ++i) {
        char key[32];
        snprintf(key, sizeof(key), "%010llu", static_cast<unsigned long long>(i * 7919 % n));
        if (client.Put(key, "fill-" + std::to_string(i)).ok()) {
          ok++;
        }
      }
      printf("inserted %llu keys\n", static_cast<unsigned long long>(ok));
    } else if (cmd == "stats") {
      for (auto& server : servers) {
        if (server->crashed()) {
          printf("  %s: CRASHED\n", server->name().c_str());
          continue;
        }
        const MetricsSnapshot snap = server->telemetry()->Snapshot();
        printf("  %s: puts=%llu gets=%llu compactions=%llu shipped=%.1fKB\n",
               server->name().c_str(), (unsigned long long)snap.Sum("kv.puts", "role", "primary"),
               (unsigned long long)snap.Sum("kv.gets", "role", "primary"),
               (unsigned long long)snap.Sum("kv.compactions", "role", "primary"),
               static_cast<double>(snap.Sum("repl.index_bytes_shipped", "role", "primary")) /
                   1024.0);
      }
      printf("  fabric: %.1f KB, client retries: wrong-region=%llu truncated=%llu\n",
             static_cast<double>(fabric.TotalBytes()) / 1024.0,
             (unsigned long long)client.stats().wrong_region_retries,
             (unsigned long long)client.stats().truncated_retries);
    } else if (cmd == "regions") {
      auto current = master.current_map();
      for (const auto& region : current->regions()) {
        printf("  region %u [%s, %s) primary=%s backups=", region.region_id,
               region.start_key.empty() ? "-inf" : region.start_key.c_str(),
               region.end_key.empty() ? "+inf" : region.end_key.c_str(),
               region.primary.c_str());
        for (const auto& backup : region.backups) {
          printf("%s ", backup.c_str());
        }
        printf("\n");
      }
    } else if (cmd == "crash") {
      std::string name;
      in >> name;
      auto it = directory.find(name);
      if (it == directory.end()) {
        printf("unknown server\n");
      } else {
        it->second->Crash();
        printf("%s crashed; master reassigned its regions\n", name.c_str());
      }
    } else {
      printf("unknown command (try 'help')\n");
    }
  }
  for (auto& server : servers) {
    server->Stop();
  }
  return 0;
}
