// Quickstart: a single-node Tebis/Kreon engine — put, get, scan, delete —
// plus a peek at the LSM internals (levels, compactions, value log).
//
//   ./build/examples/quickstart
#include <cstdio>
#include <string>
#include <vector>

#include "src/lsm/kv_store.h"
#include "src/storage/block_device.h"

using namespace tebis;

namespace {

// Reads that came back other than the demo expects; main exits non-zero if
// any did.
int misses = 0;

// A read's value, or "MISS (<status>)" counted as a miss.
std::string Shown(const StatusOr<std::string>& read) {
  if (read.ok()) {
    return *read;
  }
  ++misses;
  return "MISS (" + read.status().ToString() + ")";
}

}  // namespace

int main() {
  // A simulated NVMe device with 64 KB segments (the paper uses 2 MB; small
  // segments keep this demo snappy).
  BlockDeviceOptions device_options;
  device_options.segment_size = 64 * 1024;
  device_options.max_segments = 1 << 16;
  auto device = BlockDevice::Create(device_options);
  if (!device.ok()) {
    fprintf(stderr, "device: %s\n", device.status().ToString().c_str());
    return 1;
  }

  KvStoreOptions options;
  options.l0_max_entries = 1024;  // small L0 so the demo compacts
  options.growth_factor = 4;
  options.max_levels = 3;
  auto store = KvStore::Create(device->get(), options);
  if (!store.ok()) {
    fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
    return 1;
  }

  printf("== Tebis quickstart ==\n\n");

  // Basic puts and gets.
  (void)(*store)->Put("city:paris", "2.1M");
  (void)(*store)->Put("city:athens", "660K");
  (void)(*store)->Put("city:heraklion", "180K");  // where Tebis was built
  printf("get city:heraklion -> %s\n", Shown((*store)->Get("city:heraklion")).c_str());

  // Overwrites keep the newest version; deletes hide keys.
  (void)(*store)->Put("city:paris", "2.2M");
  (void)(*store)->Delete("city:athens");
  printf("get city:paris     -> %s (after overwrite)\n",
         Shown((*store)->Get("city:paris")).c_str());
  const Status athens = (*store)->Get("city:athens").status();
  printf("get city:athens    -> %s (after delete)\n", athens.ToString().c_str());
  if (!athens.IsNotFound()) {
    ++misses;
  }

  // Load enough data to trigger L0 spills and level compactions.
  printf("\nLoading 10000 keys...\n");
  for (int i = 0; i < 10000; ++i) {
    char key[32], value[32];
    snprintf(key, sizeof(key), "user%010d", i);
    snprintf(value, sizeof(value), "profile-%d", i);
    if (Status s = (*store)->Put(key, value); !s.ok()) {
      fprintf(stderr, "put: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // Ordered scans merge L0 with every on-device level.
  auto scan = (*store)->Scan("user0000004997", 4);
  printf("scan from user0000004997:\n");
  if (!scan.ok() || scan->size() != 4) {
    ++misses;
  }
  for (const auto& kv : scan.ok() ? *scan : std::vector<KvPair>{}) {
    printf("  %s -> %s\n", kv.key.c_str(), kv.value.c_str());
  }

  // A look inside the LSM: the store's counters live in its telemetry
  // plane, under its labels — the instruments a scrape exports.
  const MetricsSnapshot metrics = (*store)->telemetry()->metrics()->Snapshot();
  const MetricLabels& labels = (*store)->options().telemetry_labels;
  printf("\nLSM internals:\n");
  printf("  puts=%llu  compactions=%llu  L0 entries=%llu\n",
         (unsigned long long)metrics.Sum("kv.puts", labels),
         (unsigned long long)metrics.Sum("kv.compactions", labels),
         (unsigned long long)(*store)->l0_entries());
  for (uint32_t level = 1; level <= options.max_levels; ++level) {
    const BuiltTree& tree = (*store)->level(level);
    printf("  L%u: %llu entries, height %u, %zu segments\n", level,
           (unsigned long long)tree.num_entries, tree.height, tree.segments.size());
  }
  printf("  value log: %zu flushed segments + in-memory tail\n",
         (*store)->value_log()->flushed_segments().size());
  printf("  device traffic: %s\n", (*device)->stats().Summary().c_str());

  // Durability: checkpoint to a file-backed device, "crash", recover.
  printf("\nDurability demo (checkpoint -> restart -> recover):\n");
  const std::string image = "/tmp/tebis_quickstart.img";
  SegmentId superblock;
  {
    BlockDeviceOptions durable_options = device_options;
    durable_options.backing_file = image;
    auto durable_device = BlockDevice::Create(durable_options);
    KvStoreOptions durable_store_options = options;
    durable_store_options.auto_checkpoint = true;
    auto durable = KvStore::Create(durable_device->get(), durable_store_options);
    for (int i = 0; i < 2000; ++i) {
      (void)(*durable)->Put("durable:" + std::to_string(i), "survives-restarts");
    }
    (void)(*durable)->value_log()->FlushTail();
    superblock = *(*durable)->Checkpoint();
    printf("  wrote 2000 keys, checkpoint in segment %llu, process 'dies'...\n",
           (unsigned long long)superblock);
  }  // device + store destroyed; only the file remains
  {
    BlockDeviceOptions reopen_options = device_options;
    reopen_options.backing_file = image;
    reopen_options.reopen_existing = true;
    auto durable_device = BlockDevice::Create(reopen_options);
    KvStoreOptions durable_store_options = options;
    durable_store_options.auto_checkpoint = true;
    auto recovered = KvStore::Recover(durable_device->get(), durable_store_options, superblock);
    if (!recovered.ok()) {
      fprintf(stderr, "recover: %s\n", recovered.status().ToString().c_str());
      return 1;
    }
    printf("  recovered store get durable:1999 -> %s\n",
           Shown((*recovered)->Get("durable:1999")).c_str());
  }
  return misses == 0 ? 0 : 1;
}
