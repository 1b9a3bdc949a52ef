// Multi-threaded engine tests (PR 2): one writer plus concurrent readers
// while L0 flushes and level cascades run on a background worker pool. These
// are the suites meant to run under TEBIS_SANITIZE=thread (see tools/check.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/lsm/kv_store.h"
#include "src/net/fabric.h"
#include "src/net/worker_pool.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"
#include "src/ycsb/sim_cluster.h"
#include "tests/metric_reader.h"

namespace tebis {
namespace {

std::unique_ptr<BlockDevice> MakeDevice(uint64_t segment_size = 1 << 16,
                                        uint64_t max_segments = 8192) {
  BlockDeviceOptions opts;
  opts.segment_size = segment_size;
  opts.max_segments = max_segments;
  auto dev = BlockDevice::Create(opts);
  EXPECT_TRUE(dev.ok());
  return std::move(*dev);
}

// Zero-pads numbers so lexicographic order == numeric order.
std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(i));
  return buf;
}

std::string Value(uint64_t i) { return "value-" + std::to_string(i); }

TEST(ConcurrencyTest, ReadersSeeEveryAckedKeyDuringBackgroundCompactions) {
  auto dev = MakeDevice();
  WorkerPool pool(2);
  pool.Start();

  KvStoreOptions opts;
  opts.l0_max_entries = 512;
  opts.cache_bytes = 1 << 18;
  opts.compaction_pool = &pool;
  auto store_or = KvStore::Create(dev.get(), opts);
  ASSERT_TRUE(store_or.ok());
  KvStore* store = store_or->get();

  constexpr uint64_t kKeys = 20000;
  // Readers only query keys below the watermark: those puts have returned, so
  // the exact value must be visible no matter which snapshot the reader gets.
  std::atomic<uint64_t> watermark{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (uint64_t i = 0; i < kKeys; ++i) {
      Status s = store->Put(Key(i), Value(i));
      if (!s.ok()) {
        failed.store(true);
        return;
      }
      watermark.store(i + 1, std::memory_order_release);
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      uint64_t x = 88172645463325252ull + r;  // xorshift, thread-local stream
      while (watermark.load(std::memory_order_acquire) < kKeys) {
        const uint64_t high = watermark.load(std::memory_order_acquire);
        if (high == 0) {
          std::this_thread::yield();
          continue;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t i = x % high;
        auto got = store->Get(Key(i));
        if (!got.ok() || *got != Value(i)) {
          failed.store(true);
          return;
        }
      }
    });
  }

  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(store->WaitForBackgroundWork().ok());

  EXPECT_GT(Metric(*store, "kv.background_compactions"), 0u);
  EXPECT_GT(Metric(*store, "kv.compactions"), 0u);
  // Spot-check after the pipeline drains.
  for (uint64_t i = 0; i < kKeys; i += 997) {
    auto got = store->Get(Key(i));
    ASSERT_TRUE(got.ok()) << Key(i);
    EXPECT_EQ(*got, Value(i));
  }
  store_or->reset();
  pool.Stop();
}

// A published level's SegmentVerifier is shared by every reader of it: Gets
// settle verdicts on first touch, forced scrubs re-check every segment, and
// background compactions re-check each input segment they stream. All three
// run at once here; every acked key reads back and no clean segment is ever
// judged bad.
TEST(ConcurrencyTest, ScrubAndGetsShareVerifiersWithStreamingCompactions) {
  auto dev = MakeDevice();
  WorkerPool pool(2);
  pool.Start();

  KvStoreOptions opts;
  opts.l0_max_entries = 512;
  opts.cache_bytes = 1 << 18;
  opts.compaction_pool = &pool;
  auto store_or = KvStore::Create(dev.get(), opts);
  ASSERT_TRUE(store_or.ok());
  KvStore* store = store_or->get();

  constexpr uint64_t kKeys = 8000;
  std::atomic<uint64_t> watermark{0};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> scrubs{0};

  std::thread writer([&] {
    for (uint64_t i = 0; i < kKeys; ++i) {
      if (!store->Put(Key(i), Value(i)).ok()) {
        failed.store(true);
        return;
      }
      watermark.store(i + 1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t x = 88172645463325252ull + r;
      while (watermark.load(std::memory_order_acquire) < kKeys && !failed.load()) {
        const uint64_t high = watermark.load(std::memory_order_acquire);
        if (high == 0) {
          std::this_thread::yield();
          continue;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t i = x % high;
        auto got = store->Get(Key(i));
        if (!got.ok() || *got != Value(i)) {
          failed.store(true);
          return;
        }
      }
    });
  }
  std::thread scrubber([&] {
    do {
      auto report = store->Scrub();
      if (!report.ok() || report->corruptions_found != 0 || !report->quarantined_levels.empty()) {
        failed.store(true);
        return;
      }
      scrubs.fetch_add(1, std::memory_order_relaxed);
    } while (watermark.load(std::memory_order_acquire) < kKeys && !failed.load());
  });

  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  scrubber.join();
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(store->WaitForBackgroundWork().ok());
  EXPECT_GT(scrubs.load(), 0u);
  EXPECT_GT(Metric(*store, "kv.background_compactions"), 0u);
  EXPECT_GT(dev->stats().ReadBytes(IoClass::kCompactionRead), 0u);
  EXPECT_TRUE(store->QuarantinedLevels().empty());
  auto last = store->Scrub();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->corruptions_found, 0u);
  for (uint64_t i = 0; i < kKeys; i += 97) {
    auto got = store->Get(Key(i));
    ASSERT_TRUE(got.ok()) << Key(i);
    EXPECT_EQ(*got, Value(i));
  }
  store_or->reset();
  pool.Stop();
}

TEST(ConcurrencyTest, ScansSeeCompleteSnapshotsAcrossLevelPublication) {
  auto dev = MakeDevice();
  WorkerPool pool(2);
  pool.Start();

  KvStoreOptions opts;
  opts.l0_max_entries = 256;
  opts.compaction_pool = &pool;
  auto store_or = KvStore::Create(dev.get(), opts);
  ASSERT_TRUE(store_or.ok());
  KvStore* store = store_or->get();

  constexpr uint64_t kKeys = 400;
  constexpr int kRounds = 24;
  // Round 0 installs every key; later rounds overwrite them. Any scan that
  // starts after round 0 must see *exactly* the full key set — a hole or a
  // duplicate means a reader caught the memtable swap or a level swap
  // half-applied.
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(store->Put(Key(i), Value(0)).ok());
  }

  std::atomic<bool> writing{true};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (int round = 1; round < kRounds; ++round) {
      for (uint64_t i = 0; i < kKeys; ++i) {
        if (!store->Put(Key(i), "round-" + std::to_string(round)).ok()) {
          failed.store(true);
          writing.store(false);
          return;
        }
      }
    }
    writing.store(false);
  });

  std::vector<std::thread> scanners;
  for (int r = 0; r < 2; ++r) {
    scanners.emplace_back([&] {
      while (writing.load(std::memory_order_acquire)) {
        auto scan = store->Scan(Key(0), kKeys + 10);
        if (!scan.ok() || scan->size() != kKeys) {
          failed.store(true);
          return;
        }
        for (uint64_t i = 0; i < kKeys; ++i) {
          if ((*scan)[i].key != Key(i)) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }

  writer.join();
  for (auto& t : scanners) {
    t.join();
  }
  EXPECT_FALSE(failed.load());
  ASSERT_TRUE(store->WaitForBackgroundWork().ok());
  store_or->reset();
  pool.Stop();
}

// The Send-Index backup's counterpart: replica Get / Scan / DebugGet and a
// backup Scrub race the installs of shipped levels (compaction end frees the
// replaced level's segments). After round 0 is indexed, every scan must see
// exactly the full key set, every get and level-only DebugGet must find
// each key, and the scrub must find no rot in levels it races.
TEST(ConcurrencyTest, BackupReadsAndScrubSeeCompleteLevelsAcrossShippedInstalls) {
  constexpr uint64_t kSegmentSize = 1 << 16;
  auto primary_dev = MakeDevice(kSegmentSize);
  auto backup_dev = MakeDevice(kSegmentSize);
  WorkerPool pool(2);
  pool.Start();
  Fabric fabric;

  KvStoreOptions opts;
  opts.l0_max_entries = 128;
  opts.compaction_pool = &pool;
  auto primary_or = PrimaryRegion::Create(primary_dev.get(), opts, ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary_or.ok());
  PrimaryRegion* primary = primary_or->get();
  auto buffer = fabric.RegisterBuffer("backup0", "primary0", kSegmentSize);
  KvStoreOptions backup_opts = opts;
  backup_opts.compaction_pool = nullptr;
  auto backup_or = SendIndexBackupRegion::Create(backup_dev.get(), backup_opts, buffer);
  ASSERT_TRUE(backup_or.ok());
  SendIndexBackupRegion* backup = backup_or->get();
  primary->AddBackup(std::make_unique<LocalBackupChannel>(&fabric, "primary0", buffer, backup));

  constexpr uint64_t kKeys = 300;
  constexpr int kRounds = 20;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(primary->Put(Key(i), Value(0)).ok());
  }
  ASSERT_TRUE(primary->FlushL0().ok());

  std::atomic<bool> writing{true};
  std::atomic<bool> failed{false};
  std::mutex failure_mutex;
  std::string failure;
  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(failure_mutex);
    if (failure.empty()) {
      failure = what;
    }
    failed.store(true);
  };

  std::thread writer([&] {
    for (int round = 1; round < kRounds && !failed.load(); ++round) {
      for (uint64_t i = 0; i < kKeys; ++i) {
        Status put = primary->Put(Key(i), "round-" + std::to_string(round));
        if (!put.ok()) {
          fail("put: " + put.ToString());
          break;
        }
      }
    }
    writing.store(false);
  });

  std::vector<std::thread> readers;
  readers.emplace_back([&] {
    while (writing.load(std::memory_order_acquire)) {
      auto scan = backup->Scan(Key(0), kKeys + 10, /*min_epoch=*/0, /*min_seq=*/0, nullptr);
      if (!scan.ok() || scan->size() != kKeys) {
        fail("scan: " + (scan.ok() ? std::to_string(scan->size()) + " keys"
                                   : scan.status().ToString()));
        return;
      }
      for (uint64_t i = 0; i < kKeys; ++i) {
        if ((*scan)[i].key != Key(i)) {
          fail("scan: hole at " + Key(i));
          return;
        }
      }
    }
  });
  readers.emplace_back([&] {
    for (uint64_t n = 0; writing.load(std::memory_order_acquire); ++n) {
      const std::string key = Key(n * 7 % kKeys);
      auto got = backup->Get(key, /*min_epoch=*/0, /*min_seq=*/0, nullptr);
      auto indexed = backup->DebugGet(key);
      if (!got.ok() || !indexed.ok()) {
        fail("get " + key + ": " + got.status().ToString() + " / " +
             indexed.status().ToString());
        return;
      }
    }
  });
  readers.emplace_back([&] {
    while (writing.load(std::memory_order_acquire)) {
      auto report = backup->Scrub();
      if (!report.ok() || report->corruptions_found != 0) {
        fail("scrub: " + (report.ok() ? std::to_string(report->corruptions_found) + " found"
                                      : report.status().ToString()));
        return;
      }
    }
  });

  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_FALSE(failed.load()) << failure;
  ASSERT_TRUE(primary->store()->WaitForBackgroundWork().ok());
  primary_or->reset();
  pool.Stop();
}

// Observer that throttles index shipping, so the background flush is slower
// than the writer and the backpressure bands engage.
class SlowShippingObserver : public CompactionObserver {
 public:
  void OnIndexSegment(const CompactionInfo& info, int tree_level, SegmentId segment,
                      Slice bytes, uint32_t crc) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
};

// The device itself: reads race a writer that frees, reallocates and
// rewrites the one segment they read. Each read returns one whole image —
// a generation's uniform fill, or zeros between a reallocation and its first
// write — or fails because the segment is unallocated; never a mix, and
// never bytes from a freed image (ASan) or a racing copy (TSan).
TEST(ConcurrencyTest, DeviceReadsRacingFreeAndRewriteSeeWholeImages) {
  constexpr uint64_t kSegmentSize = 4096;
  auto dev = MakeDevice(kSegmentSize, 4);
  auto first = dev->AllocateSegment();
  ASSERT_TRUE(first.ok());
  const SegmentId segment = *first;
  const uint64_t base = dev->geometry().BaseOffset(segment);
  ASSERT_TRUE(dev->Write(base, std::string(kSegmentSize, '\x01'), IoClass::kOther).ok());

  constexpr int kGenerations = 20000;
  std::atomic<int> reading{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> filled_reads{0};
  std::thread writer([&] {
    while (reading.load() < 2) {
      std::this_thread::yield();
    }
    for (int gen = 2; gen < kGenerations; ++gen) {
      if (gen % 2 == 0) {
        // Free and reallocate: the free list hands the same segment back.
        ASSERT_TRUE(dev->FreeSegment(segment).ok());
        auto again = dev->AllocateSegment();
        ASSERT_TRUE(again.ok());
        ASSERT_EQ(*again, segment);
      }
      // Odd generations overwrite the live image in place.
      const std::string fill(kSegmentSize, static_cast<char>(1 + gen % 250));
      ASSERT_TRUE(dev->Write(base, fill, IoClass::kOther).ok());
    }
    done = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::string buf(kSegmentSize, '\0');
      reading++;
      while (!done) {
        Status read = dev->Read(base, buf.size(), buf.data(), IoClass::kOther);
        if (!read.ok()) {
          ASSERT_EQ(read.code(), StatusCode::kInvalidArgument) << read.ToString();
          ASSERT_NE(read.ToString().find("unallocated"), std::string::npos) << read.ToString();
          continue;
        }
        const size_t mixed = buf.find_first_not_of(buf[0]);
        ASSERT_EQ(mixed, std::string::npos)
            << "torn read: byte 0 is " << int(buf[0]) << ", byte " << mixed << " is "
            << int(buf[mixed]);
        filled_reads += buf[0] != 0 ? 1 : 0;
      }
    });
  }
  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_GT(filled_reads.load(), 0u);
}

TEST(ConcurrencyTest, BackpressureEngagesWhenFlushFallsBehind) {
  auto dev = MakeDevice();
  WorkerPool pool(1);
  pool.Start();

  KvStoreOptions opts;
  opts.l0_max_entries = 256;
  opts.compaction_pool = &pool;
  opts.slowdown_sleep_us = 50;
  auto store_or = KvStore::Create(dev.get(), opts);
  ASSERT_TRUE(store_or.ok());
  KvStore* store = store_or->get();
  SlowShippingObserver observer;
  store->set_compaction_observer(&observer);

  constexpr uint64_t kKeys = 4000;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(store->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(store->WaitForBackgroundWork().ok());

  EXPECT_GT(Metric(*store, "kv.write_slowdowns") + Metric(*store, "kv.write_stalls"), 0u)
      << "writer never hit the slowdown or stall band";
  // The active L0 never grows past the hard-stop bound.
  EXPECT_LE(store->l0_entries(), 2 * opts.l0_max_entries + opts.l0_max_entries);

  for (uint64_t i = 0; i < kKeys; i += 271) {
    auto got = store->Get(Key(i));
    ASSERT_TRUE(got.ok()) << Key(i);
    EXPECT_EQ(*got, Value(i));
  }
  store_or->reset();
  pool.Stop();
}

TEST(ConcurrencyTest, SendIndexReplicationStaysConsistentWithBackgroundCompactions) {
  SimClusterOptions opts;
  opts.num_servers = 3;
  opts.num_regions = 4;
  opts.replication_factor = 2;
  opts.mode = ReplicationMode::kSendIndex;
  opts.compaction_workers = 2;
  opts.kv_options.l0_max_entries = 512;
  auto cluster_or = SimCluster::Create(opts);
  ASSERT_TRUE(cluster_or.ok());
  SimCluster* cluster = cluster_or->get();

  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 6000; ++i) {
    keys.push_back(Key(i * 7919 % (1ull << 31)));
    ASSERT_TRUE(cluster->Put(keys.back(), Value(i)).ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());
  EXPECT_TRUE(cluster->VerifyBackupsConsistent(keys).ok());
}

}  // namespace
}  // namespace tebis
