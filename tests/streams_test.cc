// Multiplexed shipping streams (PR 4): compactions of disjoint level pairs
// run concurrently on the background pool and each ships on its own stream.
// This suite proves the concurrency (a gated observer holds one compaction
// mid-ship until a second one begins), checks cross-stream consistency on the
// full replication plane, and exercises the failure matrix: transient
// per-stream faults retried through idempotent handlers, a halted backup
// detached by per-stream strikes while the survivors commit, and promotion
// aborting every half-shipped stream.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/lsm/index_codec.h"
#include "src/lsm/kv_store.h"
#include "src/net/worker_pool.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"
#include "src/testing/fault_injector.h"
#include "src/ycsb/sim_cluster.h"
#include "tests/metric_reader.h"

namespace tebis {
namespace {

constexpr uint64_t kSegmentSize = 1 << 16;

std::string Key(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k-%07d", i);
  return buf;
}

std::string Value(int i) { return "value-" + std::to_string(i) + std::string(48, 'v'); }

// Keys in the SimCluster's range-partitioned "user" space.
std::string UserKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%010llu", static_cast<unsigned long long>(i));
  return buf;
}

std::unique_ptr<BlockDevice> MakeDevice() {
  BlockDeviceOptions opts;
  opts.segment_size = kSegmentSize;
  opts.max_segments = 1 << 16;
  auto dev = BlockDevice::Create(opts);
  EXPECT_TRUE(dev.ok());
  return std::move(*dev);
}

KvStoreOptions DeepOptions() {
  KvStoreOptions opts;
  opts.l0_max_entries = 128;
  opts.growth_factor = 2;
  opts.max_levels = 4;
  return opts;
}

// --- the concurrency proof --------------------------------------------------
//
// Holds the first deep (src >= 2) compaction hostage in the middle of its
// shipping callbacks until an L0 spill *begins*. The deep job owns levels
// {2, 3} (or {3, 4}); an L0 spill owns {0, 1} — disjoint, so a scheduler that
// claims per-level ownership dispatches the spill while the deep job is still
// blocked in here, and the begin arrives before the timeout. A serialized
// pipeline can never overlap them and times out.
class GateObserver : public CompactionObserver {
 public:
  void OnCompactionBegin(const CompactionInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (info.src_level == 0) {
      ++l0_begins_;
      cv_.notify_all();
    }
  }

  void OnIndexSegment(const CompactionInfo& info, int /*tree_level*/, SegmentId /*segment*/,
                      Slice /*bytes*/, uint32_t /*crc*/) override {
    if (info.src_level < 2) {
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (done_) {
      return;
    }
    const uint64_t seen = l0_begins_;
    overlapped_ =
        cv_.wait_for(lock, std::chrono::seconds(30), [&] { return l0_begins_ > seen; });
    done_ = true;
  }

  bool done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }
  bool overlapped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return overlapped_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t l0_begins_ = 0;
  bool done_ = false;
  bool overlapped_ = false;
};

TEST(ShippingStreamsTest, DisjointLevelPairsCompactConcurrently) {
  auto device = MakeDevice();
  WorkerPool pool(3);
  pool.Start();
  KvStoreOptions opts = DeepOptions();
  opts.compaction_pool = &pool;
  auto store_or = KvStore::Create(device.get(), opts);
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<KvStore> store = std::move(*store_or);

  GateObserver gate;
  store->set_compaction_observer(&gate);

  // Distinct keys so every level keeps growing and deep compactions recur;
  // stop as soon as the gate has resolved (plus a little settling room).
  for (int i = 0; i < 12000 && !gate.done(); ++i) {
    ASSERT_TRUE(store->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(store->WaitForBackgroundWork().ok());
  store->set_compaction_observer(nullptr);

  ASSERT_TRUE(gate.done()) << "no deep (src >= 2) compaction ever ran";
  EXPECT_TRUE(gate.overlapped())
      << "an L0 spill never began while a deep compaction was mid-ship";
  EXPECT_GE(Metric(*store, "kv.concurrent_compaction_peak"), 2u);

  // The interleaved compactions must not have corrupted anything.
  auto report = store->CheckIntegrity();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (int i : {0, 17, 5000, 11000}) {
    auto value = store->Get(Key(i));
    if (value.ok()) {
      EXPECT_EQ(*value, Value(i));
    } else {
      EXPECT_TRUE(value.status().IsNotFound());  // loop may have ended early
    }
  }
  pool.Stop();
}

// --- full-plane consistency under multiplexed streams -----------------------

TEST(ShippingStreamsTest, MultiplexedShippingKeepsBackupsConsistent) {
  SimClusterOptions options;
  options.num_servers = 3;
  options.num_regions = 4;
  options.replication_factor = 2;
  options.mode = ReplicationMode::kSendIndex;
  options.compaction_workers = 3;
  options.kv_options.l0_max_entries = 128;
  options.kv_options.growth_factor = 2;
  options.kv_options.max_levels = 3;
  options.device_options.segment_size = kSegmentSize;
  options.device_options.max_segments = 1 << 16;
  options.key_space = 8192;
  auto cluster_or = SimCluster::Create(options);
  ASSERT_TRUE(cluster_or.ok());
  auto cluster = std::move(*cluster_or);
  for (int r = 0; r < cluster->num_regions(); ++r) {
    cluster->region(r)->set_stream_flow_pool(4 * kSegmentSize);
  }

  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 6000; ++i) {
    keys.push_back(UserKey(i));
    ASSERT_TRUE(cluster->Put(keys.back(), Value(static_cast<int>(i))).ok());
  }
  Status consistent = cluster->VerifyBackupsConsistent(keys);
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();

  uint64_t streams_opened = 0, background = 0;
  for (int r = 0; r < cluster->num_regions(); ++r) {
    streams_opened += Metric(*cluster->region(r), "repl.streams_opened");
    background += Metric(*cluster->region(r)->store(), "kv.background_compactions");
  }
  EXPECT_GE(streams_opened, 8u);
  EXPECT_GE(background, 1u);

  // Shipping has quiesced, so every segment's credit came back to its
  // backup's flow controller.
  int credit_gauges = 0;
  const MetricsSnapshot metrics = cluster->MetricsNow();
  for (const MetricSample& sample : metrics.samples()) {
    if (sample.name == "repl.credits_in_flight") {
      ++credit_gauges;
      EXPECT_EQ(sample.value, 0) << "credits still in flight after quiesce";
    }
  }
  EXPECT_EQ(credit_gauges,
            static_cast<int>(options.num_regions) * (options.replication_factor - 1));
}

// --- transient per-stream faults are absorbed by retries --------------------

TEST(ShippingStreamsTest, TransientStreamFaultsAreRetried) {
  SimClusterOptions options;
  options.num_servers = 3;
  options.num_regions = 2;
  options.replication_factor = 2;
  options.mode = ReplicationMode::kSendIndex;
  options.compaction_workers = 2;
  options.kv_options.l0_max_entries = 128;
  options.kv_options.growth_factor = 2;
  options.kv_options.max_levels = 3;
  options.device_options.segment_size = kSegmentSize;
  options.device_options.max_segments = 1 << 16;
  options.key_space = 8192;
  options.channel_max_attempts = 3;
  // Declared before the cluster so its destructor runs after the cluster has
  // joined its compaction workers — they call into the injector on every op.
  FaultInjector injector(/*seed=*/4242);
  auto cluster_or = SimCluster::Create(options);
  ASSERT_TRUE(cluster_or.ok());
  auto cluster = std::move(*cluster_or);

  // One lost request and one lost acknowledgment on each half of a stream's
  // lifecycle. Ack-lost retries re-deliver an already-applied message, so
  // this doubles as the handler-idempotency check (begin dedup by stream,
  // end dedup through last_completed_).
  injector.FailNth(FaultSite::kReplCompactionBeginSend, 0);
  injector.FailNth(FaultSite::kReplIndexSegmentSend, 1);
  injector.FailNth(FaultSite::kReplIndexSegmentAck, 2);
  injector.FailNth(FaultSite::kReplCompactionEndAck, 0);
  cluster->AttachFaultInjector(&injector);

  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 4000; ++i) {
    keys.push_back(UserKey(i));
    ASSERT_TRUE(cluster->Put(keys.back(), Value(static_cast<int>(i))).ok());
  }
  Status consistent = cluster->VerifyBackupsConsistent(keys);
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
  EXPECT_EQ(injector.stats().TotalInjected(), 4u);  // every rule fired once
  cluster->AttachFaultInjector(nullptr);
}

// --- a killed backup detaches; the surviving replica keeps committing -------

TEST(ShippingStreamsTest, HaltedBackupDetachesWhileSurvivorCommits) {
  SimClusterOptions options;
  options.num_servers = 3;
  options.num_regions = 1;  // primary on server0, backups on server1/server2
  options.replication_factor = 3;
  options.mode = ReplicationMode::kSendIndex;
  options.compaction_workers = 2;
  options.kv_options.l0_max_entries = 128;
  options.kv_options.growth_factor = 2;
  options.kv_options.max_levels = 3;
  options.device_options.segment_size = kSegmentSize;
  options.device_options.max_segments = 1 << 16;
  options.key_space = 8192;
  // Declared before the cluster so its destructor runs after the cluster has
  // joined its compaction workers — they call into the injector on every op.
  FaultInjector injector(/*seed=*/7);
  auto cluster_or = SimCluster::Create(options);
  ASSERT_TRUE(cluster_or.ok());
  auto cluster = std::move(*cluster_or);

  ReplicationPolicy policy;
  policy.max_consecutive_failures = 2;
  cluster->region(0)->set_replication_policy(policy);
  ASSERT_EQ(cluster->region(0)->num_backups(), 2u);

  cluster->AttachFaultInjector(&injector);

  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 500; ++i) {
    keys.push_back(UserKey(i));
    ASSERT_TRUE(cluster->Put(keys.back(), Value(static_cast<int>(i))).ok());
  }

  // Kill one backup mid-run: every fabric write and control message touching
  // it now fails, striking out whatever stream (or the data plane) hits it.
  injector.HaltNode("server1");
  uint64_t i = 500;
  for (; i < 4000; ++i) {
    // Tolerated: the parked replication error surfaces on writes until the
    // health policy drops the dead replica. Only keys whose Put succeeded
    // are checked against the survivor below.
    if (cluster->Put(UserKey(i), Value(static_cast<int>(i))).ok()) {
      keys.push_back(UserKey(i));
    }
    if (Metric(*cluster->region(0), "repl.backups_detached") >= 1) {
      break;
    }
  }
  ASSERT_GE(Metric(*cluster->region(0), "repl.backups_detached"), 1u)
      << "halted backup was never detached";
  EXPECT_EQ(cluster->region(0)->num_backups(), 1u);

  // Degraded mode: compactions that raced the detach may each surface one
  // parked error on a later write, so tolerate Puts until the plane drains
  // (a streak of clean writes), then demand that every write succeeds.
  int consecutive_ok = 0;
  for (int spin = 0; spin < 2000 && consecutive_ok < 50; ++spin) {
    ++i;
    if (cluster->Put(UserKey(i), Value(static_cast<int>(i))).ok()) {
      keys.push_back(UserKey(i));
      ++consecutive_ok;
    } else {
      consecutive_ok = 0;
    }
  }
  ASSERT_GE(consecutive_ok, 50) << "writes never stabilized after the detach";
  for (uint64_t j = i + 1; j < i + 301; ++j) {
    keys.push_back(UserKey(j));
    ASSERT_TRUE(cluster->Put(keys.back(), Value(static_cast<int>(j))).ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());

  // The survivor must hold every key the primary holds — the dead replica's
  // stream failures never blocked or corrupted the healthy stream.
  size_t survivors = 0;
  for (size_t b = 0; b < cluster->num_backups(0); ++b) {
    BackupRegion* backup = cluster->backup(0, b);
    if (backup->rdma_buffer()->owner() == "server1") {
      continue;  // the halted replica is stale by design
    }
    survivors++;
    for (const std::string& key : keys) {
      auto primary_value = cluster->region(0)->Get(key);
      ASSERT_TRUE(primary_value.ok()) << key;
      auto backup_value = backup->DebugGet(key);
      ASSERT_TRUE(backup_value.ok()) << key << ": " << backup_value.status().ToString();
      EXPECT_EQ(*primary_value, *backup_value) << key;
    }
  }
  EXPECT_EQ(survivors, 1u);
  cluster->AttachFaultInjector(nullptr);
}

// --- teardown: a primary destroyed mid-compaction drains it first ----------

// Holds the first compaction begin until released. The gate lives outside
// the channel: the region owns (and destroys) the channel.
struct BeginGate {
  std::mutex mu;
  std::condition_variable cv;
  bool reached = false;
  bool open = false;
};

class GatedBeginChannel : public BackupChannel {
 public:
  explicit GatedBeginChannel(BeginGate* gate) : gate_(gate) {}

  Status RdmaWriteLog(uint64_t, Slice) override { return Status::Ok(); }
  const std::string& backup_name() const override { return name_; }

 protected:
  Status Deliver(const ReplicationMessage& msg) override {
    if (std::holds_alternative<CompactionBeginMsg>(msg)) {
      std::unique_lock<std::mutex> lock(gate_->mu);
      gate_->reached = true;
      gate_->cv.notify_all();
      gate_->cv.wait(lock, [&] { return gate_->open; });
    }
    return Status::Ok();
  }

 private:
  const std::string name_ = "gated-backup";
  BeginGate* gate_;
};

// The background compaction calls back into the region's stream table and
// backup set until it finishes. Destroying the region while it is parked
// mid-fan-out must wait for it; tearing that state down first is a
// use-after-free (visible under ASan when the job resumes).
TEST(ShippingStreamsTest, DestroyingPrimaryDrainsInFlightCompaction) {
  auto device = MakeDevice();
  WorkerPool pool(1);
  pool.Start();
  KvStoreOptions opts = DeepOptions();
  opts.compaction_pool = &pool;
  auto primary_or = PrimaryRegion::Create(device.get(), opts, ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary_or.ok());
  std::unique_ptr<PrimaryRegion> primary = std::move(*primary_or);
  BeginGate gate;
  primary->AddBackup(std::make_unique<GatedBeginChannel>(&gate));

  // One memtable's worth seals L0 and dispatches its compaction, which then
  // parks in the gate. Stop there: further puts could stall behind it.
  for (int i = 0; i <= static_cast<int>(opts.l0_max_entries); ++i) {
    ASSERT_TRUE(primary->Put(Key(i), Value(i)).ok());
  }
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    ASSERT_TRUE(gate.cv.wait_for(lock, std::chrono::seconds(30), [&] { return gate.reached; }))
        << "no compaction began";
  }
  std::atomic<bool> destroyed{false};
  std::thread destroyer([&] {
    primary.reset();
    destroyed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(destroyed.load()) << "destructor returned with a compaction in flight";
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.open = true;
  }
  gate.cv.notify_all();
  destroyer.join();
  EXPECT_TRUE(destroyed.load());
}

// --- per-stream strikes: a mid-ship failure detaches only that replica ------

// Counters live outside the channel: detaching the replica destroys the
// channel (the region owns it), but the test still wants the totals after.
class MidShipFailChannel : public BackupChannel {
 public:
  MidShipFailChannel(std::atomic<uint64_t>* ship_calls, std::atomic<StreamId>* last_stream)
      : ship_calls_(ship_calls), last_stream_(last_stream) {}

  Status RdmaWriteLog(uint64_t, Slice) override { return Status::Ok(); }
  const std::string& backup_name() const override { return name_; }

 protected:
  Status Deliver(const ReplicationMessage& msg) override {
    const auto* segment = std::get_if<IndexSegmentMsg>(&msg);
    if (segment == nullptr) {
      return Status::Ok();
    }
    last_stream_->store(segment->stream_id, std::memory_order_relaxed);
    ship_calls_->fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected mid-ship drop");
  }

 private:
  const std::string name_ = "flaky-backup";
  std::atomic<uint64_t>* ship_calls_;
  std::atomic<StreamId>* last_stream_;
};

TEST(ShippingStreamsTest, MidShipFailureDetachesOnlyThatReplica) {
  Fabric fabric;
  auto primary_device = MakeDevice();
  auto backup_device = MakeDevice();
  KvStoreOptions opts;
  opts.l0_max_entries = 128;
  opts.growth_factor = 2;
  opts.max_levels = 3;
  auto primary_or = PrimaryRegion::Create(primary_device.get(), opts, ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary_or.ok());
  auto primary = std::move(*primary_or);
  auto buffer = fabric.RegisterBuffer("good-backup", "primary0", kSegmentSize);
  auto backup_or = SendIndexBackupRegion::Create(backup_device.get(), opts, buffer);
  ASSERT_TRUE(backup_or.ok());
  auto backup = std::move(*backup_or);
  primary->AddBackup(std::make_unique<LocalBackupChannel>(&fabric, "primary0", buffer,
                                                          backup.get()));
  std::atomic<uint64_t> ship_calls{0};
  std::atomic<StreamId> last_stream{kNoStream};
  primary->AddBackup(std::make_unique<MidShipFailChannel>(&ship_calls, &last_stream));

  ReplicationPolicy policy;
  policy.max_consecutive_failures = 1;
  primary->set_replication_policy(policy);

  std::mutex mu;
  std::string detached_name;
  StreamId detached_stream = kNoStream;
  primary->set_detach_listener([&](const std::string& name, uint64_t, StreamId stream) {
    std::lock_guard<std::mutex> lock(mu);
    detached_name = name;
    detached_stream = stream;
  });

  // With max_consecutive_failures = 1 the flaky replica strikes out on its
  // first dropped segment, so no client write ever surfaces the error.
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(primary->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(primary->FlushL0().ok());

  EXPECT_GE(ship_calls.load(), 1u);
  EXPECT_EQ(Metric(*primary, "repl.backups_detached"), 1u);
  EXPECT_EQ(primary->num_backups(), 1u);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(detached_name, "flaky-backup");
    // The strike that triggered the detach was on a shipping stream, not the
    // data plane — the whole point of per-stream accounting.
    EXPECT_LT(detached_stream, kMaxShippingStreams);
    EXPECT_EQ(last_stream.load(), detached_stream);
  }

  // The healthy replica committed every stream the flaky one dropped.
  for (int i = 0; i < 1500; ++i) {
    auto primary_value = primary->Get(Key(i));
    ASSERT_TRUE(primary_value.ok());
    auto backup_value = backup->DebugGet(Key(i));
    ASSERT_TRUE(backup_value.ok()) << Key(i) << ": " << backup_value.status().ToString();
    EXPECT_EQ(*primary_value, *backup_value);
  }
}

// --- the seal-time L0 boundary travels with the begin -----------------------
//
// The primary seals its tail on the writer thread, but the L0 job's begin
// leaves later, from the pool. With the only worker held busy, the writer
// flushes another tail segment between the seal and the begin; that
// segment's records belong to the next memtable, not to the new L1. The
// backup must keep them in its unindexed suffix (replay starts at the
// primary's seal-time boundary, not at the count it sees on arrival), or
// they vanish from its reads until the next L0 compaction commits.
TEST(ShippingStreamsTest, SealTimeL0BoundaryKeepsPostSealFlushesReadable) {
  Random rng(18);
  Fabric fabric;
  auto primary_device = MakeDevice();
  auto backup_device = MakeDevice();
  WorkerPool pool(1);
  pool.Start();
  KvStoreOptions opts;
  opts.l0_max_entries = 64;
  // Declared before the primary so it outlives the primary's final drain.
  auto buffer = fabric.RegisterBuffer("backup0", "primary0", kSegmentSize);
  auto backup_or = SendIndexBackupRegion::Create(backup_device.get(), opts, buffer);
  ASSERT_TRUE(backup_or.ok());
  auto backup = std::move(*backup_or);
  opts.compaction_pool = &pool;
  auto primary_or = PrimaryRegion::Create(primary_device.get(), opts, ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary_or.ok());
  auto primary = std::move(*primary_or);
  primary->AddBackup(
      std::make_unique<LocalBackupChannel>(&fabric, "primary0", buffer, backup.get()));

  // Occupies the only worker so the sealed L0 job queues behind it. The gate
  // also opens on scope exit, so a failed assertion cannot leave the
  // primary's final drain waiting on a held worker.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    void Open() {
      {
        std::lock_guard<std::mutex> lock(mu);
        open = true;
      }
      cv.notify_all();
    }
  };
  auto gate = std::make_shared<Gate>();
  struct OpenOnExit {
    std::shared_ptr<Gate> gate;
    ~OpenOnExit() { gate->Open(); }
  } open_on_exit{gate};
  pool.DispatchLongRunning([gate] {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&gate] { return gate->open; });
  });

  ValueLog* log = primary->store()->value_log();
  std::vector<std::string> values;
  auto put = [&]() {
    const int i = static_cast<int>(values.size());
    values.push_back(rng.Bytes(rng.UniformRange(1500, 2500)));
    return primary->Put(Key(i), values.back());
  };
  // The put that fills L0 seals it; its boundary is the flushed count then.
  for (uint64_t i = 0; i < opts.l0_max_entries; ++i) {
    ASSERT_TRUE(put().ok());
  }
  const size_t boundary = log->flushed_segment_count();
  // Write until one more tail segment flushes, plus a few records that stay
  // in the tail; all of them land in the next memtable.
  while (log->flushed_segment_count() == boundary) {
    ASSERT_TRUE(put().ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(put().ok());
  }
  ASSERT_LT(values.size(), 2 * opts.l0_max_entries) << "a second seal would stall the writer";

  gate->Open();
  ASSERT_TRUE(primary->store()->WaitForBackgroundWork().ok());
  EXPECT_EQ(Metric(*primary->store(), "kv.compactions"), 1u);
  EXPECT_EQ(backup->replay_from(), boundary);
  for (size_t i = 0; i < values.size(); ++i) {
    auto got = backup->Get(Key(static_cast<int>(i)), 0, 0, nullptr);
    ASSERT_TRUE(got.ok()) << Key(static_cast<int>(i)) << ": " << got.status().ToString();
    EXPECT_EQ(*got, values[i]);
  }
  primary.reset();
  pool.Stop();
}

// --- promotion aborts every half-shipped stream -----------------------------

TEST(ShippingStreamsTest, PromoteAbortsActiveStreams) {
  Fabric fabric;
  auto primary_device = MakeDevice();
  auto backup_device = MakeDevice();
  KvStoreOptions opts = DeepOptions();
  auto primary_or = PrimaryRegion::Create(primary_device.get(), opts, ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary_or.ok());
  auto primary = std::move(*primary_or);
  auto buffer = fabric.RegisterBuffer("backup0", "primary0", kSegmentSize);
  auto backup_or = SendIndexBackupRegion::Create(backup_device.get(), opts, buffer);
  ASSERT_TRUE(backup_or.ok());
  auto backup = std::move(*backup_or);
  primary->AddBackup(std::make_unique<LocalBackupChannel>(&fabric, "primary0", buffer,
                                                          backup.get()));

  for (int i = 0; i < 700; ++i) {
    ASSERT_TRUE(primary->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(primary->FlushL0().ok());

  // Open two concurrent rewrite state machines by hand, as if two compactions
  // were mid-ship when the primary died.
  auto begin = [&](uint64_t id, uint32_t src, uint32_t dst, StreamId stream) {
    return backup->Handle(CompactionBeginMsg{
        .compaction_id = id, .src_level = src, .dst_level = dst, .stream_id = stream});
  };
  ASSERT_TRUE(begin(801, 1, 2, /*stream=*/5).ok());
  // One stream carries one compaction at a time.
  EXPECT_TRUE(begin(802, 3, 4, 5).IsFailedPrecondition());
  // Streams may not own overlapping level pairs.
  EXPECT_TRUE(begin(803, 2, 3, 6).IsFailedPrecondition());
  ASSERT_TRUE(begin(804, 3, 4, 6).ok());
  EXPECT_EQ(backup->active_streams(), 2u);
  // A begin retry (lost ack) is idempotent.
  ASSERT_TRUE(begin(801, 1, 2, 5).ok());
  EXPECT_EQ(backup->active_streams(), 2u);
  // A segment tagged with a stream that carries a different compaction is
  // rejected before any rewrite work.
  const std::string junk(256, 'x');
  const std::string wire = EncodeIndexSegment(junk, opts.node_size);
  EXPECT_TRUE(backup
                  ->Handle(IndexSegmentMsg{.compaction_id = 999,
                                           .dst_level = 2,
                                           .primary_segment = 77,
                                           .data = Slice(wire),
                                           .stream_id = 5,
                                           .payload_crc = Crc32c(junk.data(), junk.size())})
                  .IsFailedPrecondition());

  auto promoted_or = backup->Promote();
  ASSERT_TRUE(promoted_or.ok()) << promoted_or.status().ToString();
  EXPECT_EQ(Metric(*backup, "backup.streams_aborted"), 2u);
  EXPECT_EQ(backup->active_streams(), 0u);

  // The promoted engine serves the full replicated dataset.
  std::unique_ptr<KvStore> promoted = std::move(*promoted_or);
  for (int i = 0; i < 700; ++i) {
    auto value = promoted->Get(Key(i));
    ASSERT_TRUE(value.ok()) << Key(i) << ": " << value.status().ToString();
    EXPECT_EQ(*value, Value(i));
  }
}

}  // namespace
}  // namespace tebis
