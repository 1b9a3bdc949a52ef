// Deterministic, seed-driven fault injection for the simulated Tebis stack.
//
// One FaultInjector is shared by every instrumented layer of a test cluster:
//
//   * the RDMA fabric — every one-sided write (data plane and message
//     protocol) passes through OnFabricWrite, where node halts, pair
//     partitions, failed queue pairs, and probabilistic drops apply;
//   * the block device — BlockDevice consults the BlockDeviceFaultHook
//     interface on every transfer (EIO on the Nth write, torn/partial segment
//     writes, crash-point snapshots of the memory image);
//   * the replication control plane — LocalBackupChannel brackets each
//     protocol message with OnSite(<send site>) / OnSite(<ack site>), so a
//     test can lose exactly the Nth flush-ack, or kill the primary the moment
//     a given index segment ships;
//   * the RPC client — SendRequest consults the kRpcSend site.
//
// Determinism: all scheduling state (per-site event counters, the seeded
// xorshift RNG behind probabilistic rules) lives inside the injector, so the
// same seed + the same rules + the same driven operation sequence replays the
// exact same fault schedule. history() exposes the fired faults for
// schedule-equality assertions, and stats() counts exactly which faults fired.
#ifndef TEBIS_TESTING_FAULT_INJECTOR_H_
#define TEBIS_TESTING_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/storage/block_device.h"

namespace tebis {

// Every instrumented event belongs to one of these sites. Per-site event
// indices are 0-based and count every *observed* event, fired or not.
enum class FaultSite : int {
  kFabricWrite = 0,          // one-sided RDMA write into a registered buffer
  kRpcSend,                  // RpcClient writing a request into the server ring
  kDeviceWrite,              // block-device segment write (stats only; rules
  kDeviceRead,               //   are per-device, see FailNthDeviceWrite etc.)
  kReplFlushSend,            // primary -> backup FlushLog control message
  kReplFlushAck,             // backup -> primary FlushLog acknowledgment
  kReplCompactionBeginSend,  // primary -> backup compaction begin
  kReplIndexSegmentSend,     // primary -> backup shipped index segment
  kReplIndexSegmentAck,      // backup -> primary index segment acknowledgment
  kReplCompactionEndSend,    // primary -> backup compaction end (root install)
  kReplCompactionEndAck,     // backup -> primary compaction end acknowledgment
  kReplTrimSend,             // primary -> backup GC trim
  kReplFilterBlockSend,      // primary -> backup shipped filter block
  kReplFilterBlockAck,       // backup -> primary filter block acknowledgment
  kNumSites,
};

inline constexpr int kNumFaultSites = static_cast<int>(FaultSite::kNumSites);

const char* FaultSiteName(FaultSite site);

struct FaultInjectorStats {
  uint64_t seen[kNumFaultSites] = {};      // events observed per site
  uint64_t injected[kNumFaultSites] = {};  // failures injected per site
  uint64_t partition_drops = 0;            // events blocked by a partition
  uint64_t halted_drops = 0;               // events blocked by a halted node
  uint64_t qp_drops = 0;                   // events blocked by a failed QP
  uint64_t delays_injected = 0;
  uint64_t torn_writes = 0;
  uint64_t crash_snapshots = 0;
  uint64_t corruptions = 0;  // bit-rot flips burned into a device image

  uint64_t TotalInjected() const;
};

// One fault that actually fired, in firing order — the reproducible "fault
// schedule" of a run.
struct FiredFault {
  FaultSite site = FaultSite::kNumSites;
  uint64_t event_index = 0;  // per-site, 0-based
  std::string detail;

  bool operator==(const FiredFault& other) const {
    return site == other.site && event_index == other.event_index && detail == other.detail;
  }
};

class FaultInjector : public BlockDeviceFaultHook {
 public:
  explicit FaultInjector(uint64_t seed = 0);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  uint64_t seed() const { return seed_; }

  // --- rule installation ---------------------------------------------------
  // All one-shot rules ("Nth") fire at the event whose 0-based per-site index
  // equals `n`, then disarm.

  // The nth event at `site` fails with `code`.
  void FailNth(FaultSite site, uint64_t n, StatusCode code = StatusCode::kUnavailable);

  // Every event at `site` fails with probability `p` (seeded RNG).
  void FailWithProbability(FaultSite site, double p,
                           StatusCode code = StatusCode::kUnavailable);

  // Every event at `site` is delayed by `delay_micros` with probability `p`
  // (models a stalled backup; the event itself succeeds).
  void DelayWithProbability(FaultSite site, double p, uint64_t delay_micros);

  // Crash model: the nth event at `site` FAILS and `node` halts — every later
  // event touching the node is dropped (the node died before processing it).
  void CrashAtNth(FaultSite site, uint64_t n, const std::string& node);

  // Crash model: the nth event at `site` SUCCEEDS, then `node` halts — "the
  // ack was received, then the node died".
  void HaltAfterNth(FaultSite site, uint64_t n, const std::string& node);

  void HaltNode(const std::string& node);
  void ReviveNode(const std::string& node);
  bool IsHalted(const std::string& node) const;

  // Slow-not-dead (§3.5): every control-plane event touching `node` is
  // delayed by `delay_micros`, but one-sided fabric writes stay fast — a
  // stalled CPU with a healthy NIC. The node's heartbeat survives while its
  // replication control calls blow their deadlines, which is exactly the case
  // the primary's per-replica health policy must catch.
  void StallNode(const std::string& node, uint64_t delay_micros);
  void UnstallNode(const std::string& node);
  bool IsStalled(const std::string& node) const;

  // Symmetric network partition between two nodes (until Heal).
  void Partition(const std::string& a, const std::string& b);
  void Heal(const std::string& a, const std::string& b);

  // Fails one direction of one connection: every RDMA write by `writer` into
  // buffers owned by `owner` is dropped (until restored).
  void FailQueuePair(const std::string& owner, const std::string& writer);
  void RestoreQueuePair(const std::string& owner, const std::string& writer);

  // Device rules, keyed by BlockDeviceOptions::name and the device's own
  // 0-based write/read sequence numbers.
  void FailNthDeviceWrite(const std::string& device, uint64_t n,
                          StatusCode code = StatusCode::kIoError);
  void FailNthDeviceRead(const std::string& device, uint64_t n,
                         StatusCode code = StatusCode::kIoError);
  // The nth write applies only its first `keep_bytes` bytes, then fails.
  void TearNthDeviceWrite(const std::string& device, uint64_t n, size_t keep_bytes);
  // Clones the device image immediately before the nth write (retrieve via
  // BlockDevice::TakeCrashSnapshot) — the on-flash state at a crash point.
  void ArmCrashSnapshot(const std::string& device, uint64_t n);

  // Bit-rot: the nth read of `device` burns `bits` seeded-random
  // single-bit flips into the bytes the read covers — persistent damage to the
  // stored image, so the read (and every later one) returns corrupt bytes.
  // The flipped offsets/masks land in history() for replay assertions.
  void CorruptNthDeviceRead(const std::string& device, uint64_t n, int bits = 1);
  // Bit-rot at a known location: on the *next* read of `device` (whatever its
  // target), burn `bits` seeded-random flips into [offset, offset+len) of the
  // image — latent damage planted independently of what is being read.
  void FlipBitsInRange(const std::string& device, uint64_t offset, uint64_t len, int bits = 1);

  // Removes every rule, partition, failed QP, and halted node; per-site
  // counters, stats, and history are preserved.
  void ClearRules();

  // --- hook entry points ---------------------------------------------------

  // Fabric data plane: called by RegisteredBuffer on every one-sided write.
  Status OnFabricWrite(const std::string& writer, const std::string& owner);

  // Generic control-plane site (RPC sends, replication protocol messages).
  Status OnSite(FaultSite site, const std::string& from, const std::string& to);

  // BlockDeviceFaultHook:
  WriteDecision OnDeviceWrite(const std::string& device, uint64_t write_seq) override;
  ReadDecision OnDeviceRead(const std::string& device, uint64_t read_seq, uint64_t offset,
                            size_t n) override;

  // --- observability -------------------------------------------------------

  // True once any CrashAtNth/HaltAfterNth rule tripped.
  bool crash_fired() const;
  FaultInjectorStats stats() const;
  std::vector<FiredFault> history() const;

 private:
  struct SiteRule {
    enum class Kind { kFailNth, kFailProb, kDelayProb, kCrashNth, kHaltAfterNth };
    Kind kind;
    uint64_t n = 0;
    double p = 0;
    StatusCode code = StatusCode::kUnavailable;
    std::string node;          // kCrashNth / kHaltAfterNth
    uint64_t delay_micros = 0;
    bool consumed = false;
  };

  struct DeviceRule {
    enum class Kind { kFailWrite, kFailRead, kTearWrite, kSnapshot, kCorruptRead, kFlipRange };
    Kind kind;
    std::string device;
    uint64_t n = 0;
    StatusCode code = StatusCode::kIoError;
    size_t keep_bytes = 0;
    // kCorruptRead / kFlipRange: how many bits to flip, and (kFlipRange) the
    // image range the flips must land in. kFlipRange fires on the device's
    // next read regardless of `n`.
    int bits = 1;
    uint64_t offset = 0;
    uint64_t len = 0;
    bool consumed = false;
  };

  static std::pair<std::string, std::string> PairKey(const std::string& a, const std::string& b);
  void RecordFired(FaultSite site, uint64_t event_index, std::string detail);
  // Delay owed to stall rules for an endpoint/connection name (must hold
  // mutex_). Matches the stalled server name at component boundaries.
  uint64_t StallDelayForLocked(const std::string& name) const;

  const uint64_t seed_;

  mutable std::mutex mutex_;
  Random rng_;
  std::vector<SiteRule> site_rules_[kNumFaultSites];
  std::vector<DeviceRule> device_rules_;
  std::set<std::string> halted_;
  std::map<std::string, uint64_t> stalled_;  // node -> control-plane delay us
  std::set<std::pair<std::string, std::string>> partitions_;  // normalized pairs
  std::set<std::pair<std::string, std::string>> failed_qps_;  // (owner, writer)
  bool crash_fired_ = false;
  FaultInjectorStats stats_;
  std::vector<FiredFault> history_;
};

}  // namespace tebis

#endif  // TEBIS_TESTING_FAULT_INJECTOR_H_
