// A guided tour of the paper's core mechanism (§3.3): watch a compaction on
// the primary ship its pre-built B+ tree segment by segment, and the backup
// rewrite device offsets through its log and index maps — then verify the
// backup serves the exact same data from its own device without ever having
// compacted, and promote it.
//
//   ./build/examples/index_shipping_tour
#include <cstdio>
#include <string>

#include "src/net/fabric.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"

using namespace tebis;

namespace {

std::unique_ptr<BlockDevice> MakeDevice() {
  BlockDeviceOptions options;
  options.segment_size = 64 * 1024;
  options.max_segments = 1 << 16;
  auto device = BlockDevice::Create(options);
  return std::move(*device);
}

// Reads that came back other than the tour expects; main exits non-zero if
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
  printf("== Send-Index shipping tour ==\n\n");

  Fabric fabric;
  auto primary_device = MakeDevice();
  auto backup_device = MakeDevice();

  KvStoreOptions options;
  options.l0_max_entries = 1024;
  options.max_levels = 3;

  auto primary_or = PrimaryRegion::Create(primary_device.get(), options,
                                          ReplicationMode::kSendIndex);
  auto primary = std::move(*primary_or);
  auto buffer = fabric.RegisterBuffer("backup0", "primary0", 64 * 1024);
  auto backup_or = SendIndexBackupRegion::Create(backup_device.get(), options, buffer);
  auto backup = std::move(*backup_or);
  primary->AddBackup(std::make_unique<LocalBackupChannel>(&fabric, "primary0", buffer,
                                                          backup.get()));

  printf("step 1: 5000 puts — every record RDMA-written into the backup's buffer,\n");
  printf("        every full tail segment flushed and added to the backup log map\n");
  for (int i = 0; i < 5000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "user%010d", i);
    (void)primary->Put(key, "value-" + std::to_string(i));
  }
  printf("        log map now has %zu <primary seg, backup seg> entries (%zu bytes)\n",
         backup->log_map().size(), backup->log_map().MemoryBytes());

  printf("\nstep 2: force the L0 compaction — the primary merges, builds L1 bottom-up\n");
  printf("        and ships each sealed index segment; the backup rewrites offsets\n");
  (void)primary->FlushL0();
  // Each side counts in its own telemetry plane, under its own labels.
  const MetricsSnapshot shipped = primary->telemetry()->metrics()->Snapshot();
  const MetricsSnapshot rewritten = backup->telemetry()->metrics()->Snapshot();
  printf("        shipped %llu segments (%.1f KB); backup rewrote %llu offsets\n",
         (unsigned long long)shipped.Sum("repl.index_segments_shipped",
                                         primary->telemetry_labels()),
         static_cast<double>(shipped.Sum("repl.index_bytes_shipped",
                                         primary->telemetry_labels())) / 1024.0,
         (unsigned long long)rewritten.Sum("backup.offsets_rewritten",
                                           backup->telemetry_labels()));

  printf("\nstep 3: the backup never compacted, yet serves the data from its device:\n");
  for (int i : {0, 2499, 4999}) {
    char key[32];
    snprintf(key, sizeof(key), "user%010d", i);
    printf("        backup get %s -> %s\n", key, Shown(backup->DebugGet(key)).c_str());
  }
  printf("        backup compaction reads: %llu bytes (Build-Index would pay these)\n",
         (unsigned long long)backup_device->stats().ReadBytes(IoClass::kCompactionRead));
  printf("        backup L0 memory: %llu bytes (the paper's 2x saving)\n",
         (unsigned long long)backup->l0_memory_bytes());

  printf("\nstep 4: the primary \"dies\"; promote the backup (replays the log tail\n");
  printf("        to rebuild L0, adopts the rewritten levels as-is)\n");
  auto promoted = backup->Promote();
  if (!promoted.ok()) {
    fprintf(stderr, "promotion failed: %s\n", promoted.status().ToString().c_str());
    return 1;
  }
  printf("        new primary get user0000004999 -> %s\n",
         Shown((*promoted)->Get("user0000004999")).c_str());
  (void)(*promoted)->Put("user0000005000", "written-after-promotion");
  printf("        new primary accepts writes: %s\n",
         Shown((*promoted)->Get("user0000005000")).c_str());

  printf("\nnetwork cost of all this: %.1f KB over the fabric (the Send-Index trade)\n",
         static_cast<double>(fabric.TotalBytes()) / 1024.0);
  printf("\ndone.\n");
  return misses == 0 ? 0 : 1;
}
