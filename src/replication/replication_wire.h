// Wire encodings of the replication control messages, shared by the
// primary-side channels and the backup-side region server. Every control
// message is one alternative of ReplicationMessage and goes through one codec
// pair, so the in-process channel and the RPC path run the same decoder.
#ifndef TEBIS_REPLICATION_REPLICATION_WIRE_H_
#define TEBIS_REPLICATION_REPLICATION_WIRE_H_

#include <string>
#include <variant>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/btree_builder.h"
#include "src/net/message.h"
#include "src/net/wire.h"
#include "src/replication/compaction_stream.h"
#include "src/storage/segment.h"

namespace tebis {

// Every control message carries the replication epoch (configuration
// generation) of the sending primary. Backups reject messages whose epoch is
// older than their own, fencing traffic from a deposed primary (§3.5).
// Every field is always encoded, so any strict prefix of a valid message
// fails to decode.
struct FlushLogMsg {
  uint64_t epoch = 0;
  SegmentId primary_segment = 0;
  // Primary's commit sequence as of this flush: the backup's read path
  // derives its visible sequence from the highest commit_seq it has absorbed.
  uint64_t commit_seq = 0;
  // Bytes the primary's seal wrote: the tail's used prefix plus the 4-byte
  // pad marker. The backup persists exactly this much of its buffer; a
  // value below 4 or above the segment size is rejected.
  uint64_t tail_bytes = 0;
};

// Compaction-plane messages carry their shipping stream id so the backup can
// run one rewrite state machine per stream. Log flushes are data plane and
// stream-less.
struct CompactionBeginMsg {
  uint64_t epoch = 0;
  uint64_t compaction_id = 0;
  uint32_t src_level = 0;
  uint32_t dst_level = 0;
  StreamId stream_id = 0;
  // For src_level == 0: the primary's flushed-segment count when it sealed
  // the tail for this compaction — the first segment the new L1 does not
  // cover, and where promotion replay starts once the compaction commits.
  // Segments flushed after the seal hold records of the next memtable. Same
  // index space as SetReplayStartMsg. 0 for level-to-level compactions.
  uint64_t l0_boundary = 0;
};

struct IndexSegmentMsg {
  uint64_t epoch = 0;
  uint64_t compaction_id = 0;
  uint32_t dst_level = 0;
  uint32_t tree_level = 0;
  SegmentId primary_segment = 0;
  // The segment's wire form, EncodeIndexSegment of the used prefix the
  // builder wrote (index_codec.h); a view into the payload.
  Slice data{};
  StreamId stream_id = 0;
  // CRC32C of the *decoded* segment, the builder's SegmentChecksum: the
  // backup decodes `data` and rejects a segment mangled in flight before
  // rewriting any pointer.
  uint32_t payload_crc = 0;
};

// Bloom filter block for the level a compaction is producing: the primary's
// exact serialized bytes, shipped between the last index segment and
// CompactionEnd so the backup installs them with the published tree.
struct FilterBlockMsg {
  uint64_t epoch = 0;
  uint64_t compaction_id = 0;
  uint32_t dst_level = 0;
  Slice data{};  // view into the payload (serialized filter block)
  StreamId stream_id = 0;
};

struct CompactionEndMsg {
  uint64_t epoch = 0;
  uint64_t compaction_id = 0;
  uint32_t src_level = 0;
  uint32_t dst_level = 0;
  // The primary's tree description: root, height, segments and their
  // checksums, which the backup keeps to serve (and validate) repair fetches
  // in primary space. The wire form omits the filter (FilterBlockMsg).
  BuiltTree tree{};
  StreamId stream_id = 0;
};

// GC coordination (paper §4: backups "only perform the trim").
struct TrimLogMsg {
  uint64_t epoch = 0;
  uint32_t segments = 0;
};

// Recovery/full sync: the flushed-log segment that starts the un-indexed
// suffix, i.e. where L0 replay begins if this backup is promoted (§3.5).
struct SetReplayStartMsg {
  uint64_t epoch = 0;
  uint64_t flushed_segment_index = 0;
};

// The replication control plane (§3.2–§3.3): everything a primary sends a
// backup besides the one-sided log writes.
using ReplicationMessage =
    std::variant<FlushLogMsg, CompactionBeginMsg, IndexSegmentMsg, FilterBlockMsg,
                 CompactionEndMsg, TrimLogMsg, SetReplayStartMsg>;

// The RPC request type each alternative travels as.
MessageType ReplicationMessageType(const ReplicationMessage& msg);

inline uint64_t ReplicationMessageEpoch(const ReplicationMessage& msg) {
  return std::visit([](const auto& m) { return m.epoch; }, msg);
}

// The payload bytes of `msg`. Decoded slices view into `payload`, which must
// outlive the decoded message. Decoding a type that is not a replication
// request fails with Internal.
std::string EncodeReplicationMessage(const ReplicationMessage& msg);
StatusOr<ReplicationMessage> DecodeReplicationMessage(MessageType type, Slice payload);

// Visitor built from lambdas, one per alternative.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

// The backup side of the control plane. Both backup engines implement it: the
// region server hands it every decoded request, the in-process channel every
// message it round-trips through the codec.
class ReplicationMessageHandler {
 public:
  // Rejects a message stamped with a stale epoch (FailedPrecondition, §3.5
  // fencing), then applies it. Safe to call concurrently from different
  // shipping streams.
  virtual Status Handle(const ReplicationMessage& msg) = 0;

 protected:
  ~ReplicationMessageHandler() = default;
};

// Online repair. A replica with a quarantined level asks any peer at the same
// epoch for the good bytes of one index segment, addressed in primary space:
// (level, seg_index) — the position within the level's segment list — names
// identical bytes on every replica (§3.3 byte identity). Peer-to-peer, not
// part of the primary's control plane.
struct RepairFetchMsg {
  uint64_t epoch = 0;
  uint32_t level = 0;
  uint64_t seg_index = 0;
};

// The peer's reply: the checksummed used prefix of that segment, in primary
// space, plus the CRC the requester verifies before installing.
struct RepairSegmentMsg {
  uint64_t epoch = 0;
  uint32_t level = 0;
  uint64_t seg_index = 0;
  uint32_t crc = 0;  // CRC32C of data
  Slice data;        // view into the payload
};

std::string EncodeRepairFetch(const RepairFetchMsg& msg);
Status DecodeRepairFetch(Slice payload, RepairFetchMsg* out);

std::string EncodeRepairSegment(const RepairSegmentMsg& msg);
Status DecodeRepairSegment(Slice payload, RepairSegmentMsg* out);

}  // namespace tebis

#endif  // TEBIS_REPLICATION_REPLICATION_WIRE_H_
