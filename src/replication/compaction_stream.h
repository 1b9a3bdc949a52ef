// Multiplexed shipping streams. The engine can run several
// compactions of one region concurrently as long as their level pairs are
// disjoint (L0->L1 alongside L2->L3, ...). Each in-flight compaction is
// assigned a small dense *stream id*; every control message it emits —
// compaction begin, shipped index segments, compaction end — carries that id,
// so a Send-Index backup can run one rewrite state machine per stream and the
// flow controller can meter each stream's share of the replication buffer.
#ifndef TEBIS_REPLICATION_COMPACTION_STREAM_H_
#define TEBIS_REPLICATION_COMPACTION_STREAM_H_

#include <cstdint>

namespace tebis {

// Identifies one shipping stream within a region. Stream ids are dense and
// reused: the primary allocates the smallest free id at compaction begin and
// releases it at compaction end, so ids stay in [0, kMaxShippingStreams).
using StreamId = uint32_t;

// Carried by control messages not tied to any compaction: data-plane log
// flushes issued by the writer thread, trims, replay-start markers.
inline constexpr StreamId kNoStream = 0xffffffffu;

// Upper bound on concurrently open streams per region. Disjoint level pairs
// bound real concurrency at (max_levels + 1) / 2, so 8 covers every engine
// configuration the repo uses; it also sets the credit split of the shared
// replication buffer (StreamFlowController).
inline constexpr uint32_t kMaxShippingStreams = 8;

// Smallest-free-first id allocator. Not internally synchronized — the primary
// drives it under its region lock.
class StreamIdAllocator {
 public:
  // Returns kNoStream when every id is taken (the caller falls back to a
  // hashed id; with the level-ownership guard this cannot happen in practice).
  StreamId Acquire() {
    for (StreamId s = 0; s < kMaxShippingStreams; ++s) {
      if ((busy_ & (1u << s)) == 0) {
        busy_ |= 1u << s;
        return s;
      }
    }
    return kNoStream;
  }

  void Release(StreamId s) {
    if (s < kMaxShippingStreams) {
      busy_ &= ~(1u << s);
    }
  }

 private:
  uint32_t busy_ = 0;
};

}  // namespace tebis

#endif  // TEBIS_REPLICATION_COMPACTION_STREAM_H_
