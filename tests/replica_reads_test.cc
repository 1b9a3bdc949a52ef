// Read-replica serving (PR 6): backups answer gets/scans from their shipped
// (Send-Index) or rebuilt (Build-Index) indexes, fenced by the region's
// committed epoch and commit sequence. These suites drive concurrent writers
// and replica readers through the full client -> message protocol -> backup
// engine path, record every operation in a history, and check the advertised
// consistency properties:
//
//   - read-your-writes: a client never reads data older than its own last
//     acked write (kReadYourWrites mode carries the commit token);
//   - monotonic reads: per client, observed versions never go backwards even
//     while rotating across replicas (the observed-sequence fence);
//   - no future/torn data: a read never observes a value that was not yet
//     written, a half-applied value, or bytes from a half-shipped stream.
//
// The chaos suite replays the same checks during a fenced-primary failover
// and against a backup left with a half-shipped compaction stream (the PR 4
// abort path). Failing seeds replay exactly with TEBIS_CHAOS_SEED=<n>.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_server.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"
#include "src/telemetry/telemetry.h"
#include "tests/metric_reader.h"

namespace tebis {
namespace {

constexpr size_t kSegmentSize = 1 << 16;

std::string Key(uint64_t n) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%010llu", static_cast<unsigned long long>(n));
  return std::string(buf);
}

// Values carry their version in a parseable envelope; any read that returns
// bytes outside this shape is torn data.
std::string VersionedValue(uint64_t version) {
  return "v" + std::to_string(version) + "-payload-" + std::string(32, 'x');
}

bool ParseVersion(const std::string& value, uint64_t* version) {
  if (value.size() < 2 || value[0] != 'v') {
    return false;
  }
  char* end = nullptr;
  *version = strtoull(value.c_str() + 1, &end, 10);
  if (end == nullptr || *end != '-') {
    return false;
  }
  return value == VersionedValue(*version);
}

uint64_t ChaosSeed(uint64_t fallback) {
  if (const char* env = std::getenv("TEBIS_CHAOS_SEED")) {
    return strtoull(env, nullptr, 10);
  }
  return fallback;
}

// --- history-recording consistency checker ---------------------------------
//
// Every operation logs (op, key, version, logical begin/end timestamps); the
// checker replays the log after the run. Timestamps come from one global
// logical clock, so "acked before the read began" and "started before the
// read ended" are exact, not wall-clock approximations.

class History {
 public:
  uint64_t Tick() { return clock_.fetch_add(1, std::memory_order_relaxed); }

  void RecordWrite(const std::string& key, uint64_t version, uint64_t ts_begin,
                   uint64_t ts_end) {
    std::lock_guard<std::mutex> lock(mutex_);
    writes_[key].push_back({version, ts_begin, ts_end});
  }

  void RecordRead(int reader, const std::string& key, bool not_found, uint64_t version,
                  uint64_t ts_begin, uint64_t ts_end) {
    std::lock_guard<std::mutex> lock(mutex_);
    reads_.push_back({reader, key, not_found, version, ts_begin, ts_end});
  }

  size_t read_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reads_.size();
  }

  // Returns human-readable violations; empty = the run is consistent within
  // the guarantees the read modes advertise.
  std::vector<std::string> Check() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> violations;
    // Per (reader, key) high-water mark for the monotonic-reads check. Each
    // reader is a single thread issuing synchronous ops, so its reads appear
    // in the log in program order and one forward pass suffices.
    std::map<std::pair<int, std::string>, uint64_t> monotonic;
    for (const auto& read : reads_) {
      uint64_t floor = 0;  // newest version acked before the read began
      uint64_t ceil = 0;   // newest version whose write started before the read ended
      auto it = writes_.find(read.key);
      if (it != writes_.end()) {
        for (const auto& write : it->second) {
          if (write.ts_end < read.ts_begin) {
            floor = std::max(floor, write.version);
          }
          if (write.ts_begin < read.ts_end) {
            ceil = std::max(ceil, write.version);
          }
        }
      }
      if (read.not_found) {
        if (floor > 0) {
          violations.push_back("reader " + std::to_string(read.reader) + " got NotFound for " +
                               read.key + " but v" + std::to_string(floor) +
                               " was acked before the read began");
        }
        continue;
      }
      if (read.version < floor) {
        violations.push_back("reader " + std::to_string(read.reader) + " read stale v" +
                             std::to_string(read.version) + " of " + read.key + " (v" +
                             std::to_string(floor) + " was acked before the read began)");
      }
      if (read.version > ceil) {
        violations.push_back("reader " + std::to_string(read.reader) + " read future v" +
                             std::to_string(read.version) + " of " + read.key +
                             " (newest write started before read end: v" +
                             std::to_string(ceil) + ")");
      }
      uint64_t& seen = monotonic[{read.reader, read.key}];
      if (read.version < seen) {
        violations.push_back("reader " + std::to_string(read.reader) + " went backwards on " +
                             read.key + ": v" + std::to_string(seen) + " then v" +
                             std::to_string(read.version));
      }
      seen = std::max(seen, read.version);
    }
    return violations;
  }

 private:
  struct WriteRec {
    uint64_t version;
    uint64_t ts_begin;
    uint64_t ts_end;
  };
  struct ReadRec {
    int reader;
    std::string key;
    bool not_found;
    uint64_t version;
    uint64_t ts_begin;
    uint64_t ts_end;
  };

  std::atomic<uint64_t> clock_{1};
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<WriteRec>> writes_;
  std::vector<ReadRec> reads_;
};

// --- full-cluster fixture ---------------------------------------------------

struct ReplicaCluster {
  explicit ReplicaCluster(int replication_factor = 3, uint64_t key_space = 4000,
                          ReplicationMode mode = ReplicationMode::kSendIndex) {
    RegionServerOptions options;
    options.device_options.segment_size = kSegmentSize;
    options.device_options.max_segments = 1 << 16;
    options.kv_options.l0_max_entries = 256;
    options.replication_mode = mode;
    for (int i = 0; i < 3; ++i) {
      names.push_back("server" + std::to_string(i));
      servers.push_back(std::make_unique<RegionServer>(&fabric, &zk, names.back(), options));
      EXPECT_TRUE(servers.back()->Start().ok());
      directory[names.back()] = servers.back().get();
    }
    master = std::make_unique<Master>(&zk, "m0", directory);
    EXPECT_TRUE(master->Campaign().ok());
    auto map = RegionMap::CreateUniform(2, "user", 10, key_space, names, replication_factor);
    EXPECT_TRUE(map.ok());
    EXPECT_TRUE(master->Bootstrap(*map).ok());
  }

  ~ReplicaCluster() {
    for (auto& server : servers) {
      server->Stop();
    }
  }

  // One client per thread (a TebisClient is single-threaded by contract).
  // Servers listed in `avoid_` resolve to null — models clients learning a
  // deposed server is dead even though its process keeps running.
  std::unique_ptr<TebisClient> MakeClient(const std::string& name) {
    auto client = std::make_unique<TebisClient>(
        &fabric, name,
        [this](const std::string& server) -> ServerEndpoint* {
          if (server == avoided()) {
            return nullptr;
          }
          auto it = directory.find(server);
          return (it == directory.end() || it->second->crashed())
                     ? nullptr
                     : it->second->client_endpoint();
        },
        names);
    client->set_rpc_timeout_ns(1'000'000'000ull);
    EXPECT_TRUE(client->Connect().ok());
    return client;
  }

  void Avoid(size_t server_index) { avoid_.store(server_index, std::memory_order_release); }
  std::string avoided() const {
    const size_t i = avoid_.load(std::memory_order_acquire);
    return i < names.size() ? names[i] : std::string();
  }

  uint64_t SumMetric(const char* name) {
    uint64_t total = 0;
    for (auto& server : servers) {
      total += server->telemetry()->Snapshot().Sum(name);
    }
    return total;
  }

  Fabric fabric;
  Coordinator zk;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<RegionServer>> servers;
  std::map<std::string, RegionServer*> directory;
  std::unique_ptr<Master> master;
  std::atomic<size_t> avoid_{~size_t{0}};
};

// One writer thread per key stripe (kReadYourWrites — it re-reads its own
// keys through replicas) plus reader threads in both replica modes that
// rotate across leased backups.
void RunHistoryWorkload(ReplicaCluster* cluster, History* history, int num_writers,
                        int num_readers, int versions_per_writer, int reads_per_reader) {
  constexpr uint64_t kStripe = 1000;  // writer w owns keys [w*kStripe, w*kStripe+kKeys)
  constexpr uint64_t kKeys = 8;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < num_writers; ++w) {
    threads.emplace_back([&, w] {
      auto client = cluster->MakeClient("writer" + std::to_string(w));
      client->set_read_mode(ReadMode::kReadYourWrites);
      for (int v = 1; v <= versions_per_writer && !failed.load(); ++v) {
        const std::string key = Key(w * kStripe + (v % kKeys));
        const uint64_t begin = history->Tick();
        Status s = client->Put(key, VersionedValue(v));
        if (!s.ok()) {
          ADD_FAILURE() << "writer put " << key << ": " << s.ToString();
          failed.store(true);
          return;
        }
        history->RecordWrite(key, v, begin, history->Tick());
        // Read-your-writes probe: immediately re-read, possibly via a replica.
        if (v % 4 == 0) {
          const uint64_t rbegin = history->Tick();
          auto value = client->Get(key);
          const uint64_t rend = history->Tick();
          uint64_t version = 0;
          if (value.ok() && !ParseVersion(*value, &version)) {
            ADD_FAILURE() << "writer read of " << key << " returned torn bytes";
            failed.store(true);
            return;
          }
          history->RecordRead(/*reader=*/1000 + w, key, !value.ok(), version, rbegin, rend);
        }
      }
    });
  }
  for (int r = 0; r < num_readers; ++r) {
    threads.emplace_back([&, r] {
      auto client = cluster->MakeClient("reader" + std::to_string(r));
      // Half the readers demand the current epoch with bounded staleness 0,
      // half carry read-your-writes fences; both must stay monotonic.
      if (r % 2 == 0) {
        client->set_read_mode(ReadMode::kBoundedStaleness, /*staleness_bound=*/0);
      } else {
        client->set_read_mode(ReadMode::kReadYourWrites);
      }
      uint64_t x = 88172645463325252ull + r;  // xorshift, thread-local stream
      for (int i = 0; i < reads_per_reader && !failed.load(); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const int w = static_cast<int>(x % num_writers);
        const std::string key = Key(w * kStripe + (x >> 8) % kKeys);
        const uint64_t begin = history->Tick();
        auto value = client->Get(key);
        const uint64_t end = history->Tick();
        if (!value.ok() && !value.status().IsNotFound()) {
          ADD_FAILURE() << "reader get " << key << ": " << value.status().ToString();
          failed.store(true);
          return;
        }
        uint64_t version = 0;
        if (value.ok() && !ParseVersion(*value, &version)) {
          ADD_FAILURE() << "reader get " << key << " returned torn bytes: " << *value;
          failed.store(true);
          return;
        }
        history->RecordRead(r, key, !value.ok(), version, begin, end);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

TEST(ReplicaReadsTest, ConcurrentHistoryIsConsistentSendIndex) {
  ReplicaCluster cluster(/*replication_factor=*/3);
  History history;
  RunHistoryWorkload(&cluster, &history, /*num_writers=*/2, /*num_readers=*/3,
                     /*versions_per_writer=*/220, /*reads_per_reader=*/220);
  ASSERT_GE(history.read_count(), 200u);
  const std::vector<std::string> violations = history.Check();
  for (const auto& v : violations) {
    ADD_FAILURE() << v;
  }
  EXPECT_TRUE(violations.empty());
  // Replicas actually served reads (counters live on the backup engines, so
  // proxied reads would not move them).
  EXPECT_GT(cluster.SumMetric("backup.replica_gets"), 0u);
}

TEST(ReplicaReadsTest, ConcurrentHistoryIsConsistentBuildIndex) {
  ReplicaCluster cluster(/*replication_factor=*/3, /*key_space=*/4000,
                         ReplicationMode::kBuildIndex);
  History history;
  RunHistoryWorkload(&cluster, &history, /*num_writers=*/2, /*num_readers=*/2,
                     /*versions_per_writer=*/200, /*reads_per_reader=*/150);
  const std::vector<std::string> violations = history.Check();
  for (const auto& v : violations) {
    ADD_FAILURE() << v;
  }
  EXPECT_TRUE(violations.empty());
  EXPECT_GT(cluster.SumMetric("backup.replica_gets"), 0u);
}

TEST(ReplicaReadsTest, PrimaryOnlyModeNeverTouchesReplicas) {
  ReplicaCluster cluster;
  auto client = cluster.MakeClient("c0");
  // Default mode: seed-identical routing — zero replica traffic.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client->Put(Key(i), VersionedValue(1)).ok());
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client->Get(Key(i)).ok());
  }
  EXPECT_EQ(client->stats().replica_reads, 0u);
  EXPECT_EQ(cluster.SumMetric("backup.replica_gets"), 0u);
  EXPECT_EQ(cluster.SumMetric("backup.replica_scans"), 0u);
}

TEST(ReplicaReadsTest, ReplicaScanMergesInFlightAndShippedData) {
  ReplicaCluster cluster;
  auto writer = cluster.MakeClient("w0");
  // Enough keys to trip L0 flushes (indexed levels on the backup) plus a
  // fresh unflushed suffix that only exists in the RDMA buffers.
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(writer->Put(Key(i), VersionedValue(i + 1)).ok());
  }
  auto reader = cluster.MakeClient("r0");
  reader->set_read_mode(ReadMode::kReadYourWrites);
  // Warm the reader's commit token with one write so the scan is RYW-fenced.
  ASSERT_TRUE(reader->Put(Key(0), VersionedValue(9001)).ok());
  auto pairs = reader->Scan(Key(0), 40);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  ASSERT_EQ(pairs->size(), 40u);
  for (size_t i = 0; i < pairs->size(); ++i) {
    EXPECT_EQ((*pairs)[i].key, Key(i));
    uint64_t version = 0;
    ASSERT_TRUE(ParseVersion((*pairs)[i].value, &version)) << (*pairs)[i].key;
    EXPECT_EQ(version, i == 0 ? 9001u : i + 1);
  }
  EXPECT_GT(cluster.SumMetric("backup.replica_scans"), 0u);
}

// Direct engine probe: the fence rejects a replica that is behind the
// requested epoch or commit sequence, with the reject counters attributing
// the reason.
TEST(ReplicaReadsTest, FenceRejectsStaleEpochAndSequence) {
  Fabric fabric;
  BlockDeviceOptions dev_options;
  dev_options.segment_size = kSegmentSize;
  dev_options.max_segments = 1 << 16;
  auto primary_device = BlockDevice::Create(dev_options);
  ASSERT_TRUE(primary_device.ok());
  auto backup_device = BlockDevice::Create(dev_options);
  ASSERT_TRUE(backup_device.ok());
  KvStoreOptions opts;
  opts.l0_max_entries = 128;
  auto primary_or =
      PrimaryRegion::Create(primary_device->get(), opts, ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary_or.ok());
  auto primary = std::move(*primary_or);
  auto buffer = fabric.RegisterBuffer("backup0", "primary0", kSegmentSize);
  auto backup_or = SendIndexBackupRegion::Create(backup_device->get(), opts, buffer);
  ASSERT_TRUE(backup_or.ok());
  auto backup = std::move(*backup_or);
  primary->AddBackup(std::make_unique<LocalBackupChannel>(&fabric, "primary0", buffer,
                                                          backup.get()));
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(primary->Put(Key(i), VersionedValue(i + 1)).ok());
  }
  uint64_t visible_seq = 0;
  auto ok = backup->Get(Key(7), /*min_epoch=*/0, /*min_seq=*/0, &visible_seq);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  uint64_t version = 0;
  ASSERT_TRUE(ParseVersion(*ok, &version));
  EXPECT_EQ(version, 8u);
  EXPECT_GT(visible_seq, 0u);
  // A fence at the replica's exact visible sequence is satisfiable.
  auto at_fence = backup->Get(Key(7), 0, visible_seq, &visible_seq);
  EXPECT_TRUE(at_fence.ok());
  // Beyond it: FailedPrecondition, attributed to the sequence fence.
  auto ahead = backup->Get(Key(7), 0, visible_seq + 1000, nullptr);
  ASSERT_FALSE(ahead.ok());
  EXPECT_TRUE(ahead.status().IsFailedPrecondition()) << ahead.status().ToString();
  // Epoch fence: the replica sits at its bootstrap epoch; demand a future one.
  auto future_epoch = backup->Get(Key(7), /*min_epoch=*/99, 0, nullptr);
  ASSERT_FALSE(future_epoch.ok());
  EXPECT_TRUE(future_epoch.status().IsFailedPrecondition());
  EXPECT_EQ(Metric(*backup, "backup.read_rejects_seq"), 1u);
  EXPECT_EQ(Metric(*backup, "backup.read_rejects_epoch"), 1u);
  // Every attempt counted, including the rejected ones.
  EXPECT_EQ(Metric(*backup, "backup.replica_gets"), 4u);
}

// --- chaos: replica reads during a fenced-primary failover -------------------

TEST(ReplicaReadsChaosTest, ReadsStayConsistentAcrossFencedFailover) {
  const uint64_t seed = ChaosSeed(11);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " — replay with TEBIS_CHAOS_SEED=" +
               std::to_string(seed));
  ReplicaCluster cluster(/*replication_factor=*/3);
  History history;
  auto writer = cluster.MakeClient("w0");
  writer->set_read_mode(ReadMode::kReadYourWrites);
  for (int v = 1; v <= 60; ++v) {
    const std::string key = Key(v % 16);
    const uint64_t begin = history.Tick();
    ASSERT_TRUE(writer->Put(key, VersionedValue(v)).ok());
    history.RecordWrite(key, v, begin, history.Tick());
  }
  // Depose a server chosen by the seed: the failure detector fires, the
  // master promotes replacements under a bumped epoch, and the deposed
  // server keeps running with its stale configuration. Clients treat it as
  // dead (Avoid) — its replication traffic is epoch-fenced regardless, and a
  // reachable-but-deposed primary serving unfenced primary-path reads is the
  // lease-expiry problem DESIGN.md scopes out.
  const size_t victim = seed % cluster.servers.size();
  cluster.servers[victim]->DropCoordinatorSession();
  cluster.Avoid(victim);
  // Concurrent replica reads race the failover. Every result must be either
  // committed-epoch data (checker bounds) or an internal retry; never torn
  // bytes, never a fenced-off pre-epoch value.
  std::thread reader_thread([&] {
    auto reader = cluster.MakeClient("r0");
    reader->set_read_mode(ReadMode::kReadYourWrites);
    uint64_t x = seed * 2654435761ull + 1;
    for (int i = 0; i < 240; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::string key = Key(x % 16);
      const uint64_t begin = history.Tick();
      auto value = reader->Get(key);
      const uint64_t end = history.Tick();
      if (!value.ok() && !value.status().IsNotFound()) {
        continue;  // mid-failover unavailability is allowed; wrong data is not
      }
      uint64_t version = 0;
      if (value.ok() && !ParseVersion(*value, &version)) {
        ADD_FAILURE() << "torn read of " << key << " during failover: " << *value;
        return;
      }
      history.RecordRead(0, key, !value.ok(), version, begin, end);
    }
  });
  // Writes continue through the failover (the client retries through fresh
  // maps). A write that surfaces an error is NOT recorded as committed.
  for (int v = 61; v <= 160; ++v) {
    const std::string key = Key(v % 16);
    const uint64_t begin = history.Tick();
    Status s = writer->Put(key, VersionedValue(v));
    if (!s.ok()) {
      continue;
    }
    history.RecordWrite(key, v, begin, history.Tick());
  }
  reader_thread.join();
  const std::vector<std::string> violations = history.Check();
  for (const auto& v : violations) {
    ADD_FAILURE() << v;
  }
  EXPECT_TRUE(violations.empty());
  // The failover actually happened: the victim is no longer a primary, and
  // its read leases were revoked with the detach.
  auto map = cluster.master->current_map();
  ASSERT_NE(map, nullptr);
  for (const auto& region : map->regions()) {
    EXPECT_NE(region.primary, cluster.names[victim]);
    EXPECT_FALSE(region.HasReadLease(cluster.names[victim]));
  }
}

// --- chaos: reads against a backup holding a half-shipped stream -------------

std::unique_ptr<BlockDevice> MakeDevice() {
  BlockDeviceOptions options;
  options.segment_size = kSegmentSize;
  options.max_segments = 1 << 16;
  auto device = BlockDevice::Create(options);
  EXPECT_TRUE(device.ok());
  return std::move(*device);
}

// Forwards everything to the wrapped in-process channel, but starts failing
// index-segment shipments after a seeded budget — leaving the backup with an
// open stream whose tree never commits (the abort path). Records the
// primary's filter bytes of every level whose compaction end landed.
class HalfShipChannel : public BackupChannel {
 public:
  // `ships` is owned by the test: the primary destroys the channel when it
  // detaches the struck-out backup, so the counter (and `committed_filters`,
  // dst level -> filter bytes) must outlive us.
  HalfShipChannel(std::unique_ptr<LocalBackupChannel> inner, uint64_t allowed_ships,
                  std::atomic<uint64_t>* ships, std::map<int, std::string>* committed_filters)
      : inner_(std::move(inner)),
        allowed_ships_(allowed_ships),
        ships_(ships),
        committed_filters_(committed_filters) {}

  Status RdmaWriteLog(uint64_t offset, Slice bytes) override {
    inner_->set_epoch(epoch());
    return inner_->RdmaWriteLog(offset, bytes);
  }
  const std::string& backup_name() const override { return inner_->backup_name(); }

 protected:
  Status Deliver(const ReplicationMessage& msg) override {
    if (std::holds_alternative<IndexSegmentMsg>(msg) &&
        ships_->fetch_add(1, std::memory_order_relaxed) >= allowed_ships_) {
      return Status::Unavailable("injected mid-ship drop");
    }
    const auto* end = std::get_if<CompactionEndMsg>(&msg);
    if (end != nullptr && ships_->load(std::memory_order_relaxed) >= allowed_ships_) {
      return Status::Unavailable("injected end drop after mid-ship failure");
    }
    inner_->set_epoch(epoch());
    Status status = inner_->Send(msg);
    if (status.ok() && end != nullptr && end->tree.filter != nullptr) {
      (*committed_filters_)[static_cast<int>(end->dst_level)] = *end->tree.filter;
    }
    return status;
  }

 private:
  std::unique_ptr<LocalBackupChannel> inner_;
  const uint64_t allowed_ships_;
  std::atomic<uint64_t>* const ships_;
  std::map<int, std::string>* const committed_filters_;
};

TEST(ReplicaReadsChaosTest, HalfShippedStreamNeverLeaksIntoReads) {
  const uint64_t seed = ChaosSeed(3);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " — replay with TEBIS_CHAOS_SEED=" +
               std::to_string(seed));
  Fabric fabric;
  auto primary_device = MakeDevice();
  auto backup_device = MakeDevice();
  KvStoreOptions opts;
  opts.l0_max_entries = 128;
  opts.growth_factor = 2;
  opts.max_levels = 3;
  auto primary_or =
      PrimaryRegion::Create(primary_device.get(), opts, ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary_or.ok());
  auto primary = std::move(*primary_or);
  auto buffer = fabric.RegisterBuffer("backup0", "primary0", kSegmentSize);
  auto backup_or = SendIndexBackupRegion::Create(backup_device.get(), opts, buffer);
  ASSERT_TRUE(backup_or.ok());
  auto backup = std::move(*backup_or);
  // The seeded budget lets a few segments of some compaction land before the
  // stream stalls; different seeds cut the stream at different points.
  std::atomic<uint64_t> ships{0};
  std::map<int, std::string> committed_filters;
  auto channel = std::make_unique<HalfShipChannel>(
      std::make_unique<LocalBackupChannel>(&fabric, "primary0", buffer, backup.get()),
      /*allowed_ships=*/2 + seed % 5, &ships, &committed_filters);
  ReplicationPolicy policy;
  policy.max_consecutive_failures = 1;  // strike out on the first drop
  primary->set_replication_policy(policy);
  primary->AddBackup(std::move(channel));

  // `backup_floor` is the committed state just before the put whose
  // compaction struck the replica out: every earlier record was fanned out
  // synchronously, so the backup must serve at least these versions.
  std::map<std::string, uint64_t> committed;
  std::map<std::string, uint64_t> backup_floor;
  uint64_t version = 0;
  for (int i = 0; i < 1200; ++i) {
    const std::string key = Key(i % 300);
    if (Metric(*primary, "repl.backups_detached") == 0) {
      backup_floor = committed;
    }
    ++version;
    ASSERT_TRUE(primary->Put(key, VersionedValue(version)).ok());
    committed[key] = version;
  }
  ASSERT_TRUE(primary->FlushL0().ok());
  ASSERT_GT(ships.load(), 0u);
  // The drop struck the replica out: the primary detached it mid-stream and
  // kept serving (degraded mode).
  ASSERT_EQ(Metric(*primary, "repl.backups_detached"), 1u);
  ASSERT_FALSE(backup_floor.empty());

  // Every replica read must now return data the primary committed — from
  // flushed segments and previously committed levels — never bytes from the
  // half-shipped tree, never torn values, never a version that was not yet
  // acked at the detach point.
  for (const auto& [key, floor] : backup_floor) {
    uint64_t visible_seq = 0;
    auto value = backup->Get(key, /*min_epoch=*/0, /*min_seq=*/0, &visible_seq);
    ASSERT_TRUE(value.ok()) << key << ": " << value.status().ToString();
    uint64_t got = 0;
    ASSERT_TRUE(ParseVersion(*value, &got)) << key << " returned torn bytes";
    EXPECT_GE(got, floor) << key;
    EXPECT_LE(got, committed[key]) << key;
  }
  // Every level the backup committed carries the primary's exact filter
  // bytes: the filter block rides the same channel as the index segments.
  int committed_levels = 0;
  for (uint32_t l = 1; l <= opts.max_levels; ++l) {
    const BuiltTree& level = backup->level(l);
    if (level.empty()) {
      continue;
    }
    ++committed_levels;
    ASSERT_EQ(committed_filters.count(static_cast<int>(l)), 1u) << "level " << l;
    ASSERT_NE(level.filter, nullptr) << "level " << l << " lost its shipped filter";
    EXPECT_EQ(*level.filter, committed_filters[static_cast<int>(l)]) << "level " << l;
  }
  EXPECT_GT(committed_levels, 0);
  // The half-shipped stream is still open on the backup — its tree never
  // committed, so it is invisible to every read above.
  EXPECT_GE(backup->active_streams(), 1u);
  // A later promotion aborts it; the promoted store serves only committed
  // data (same floor/ceiling bounds through the new primary engine).
  auto promoted = backup->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_GT(Metric(*backup, "backup.streams_aborted"), 0u);
  auto new_primary = PrimaryRegion::CreateFromStore(
      backup_device.get(), ReplicationMode::kSendIndex, std::move(*promoted));
  ASSERT_TRUE(new_primary.ok());
  for (const auto& [key, floor] : backup_floor) {
    auto value = (*new_primary)->Get(key);
    ASSERT_TRUE(value.ok()) << key << ": " << value.status().ToString();
    uint64_t got = 0;
    ASSERT_TRUE(ParseVersion(*value, &got)) << key << " returned torn bytes after promotion";
    EXPECT_GE(got, floor) << key;
    EXPECT_LE(got, committed[key]) << key;
  }
}

}  // namespace
}  // namespace tebis
