// Tebis wire format (paper §3.4.2): every message is a 128 B header plus a
// variable-size payload padded to a multiple of the header size. The receiver
// detects arrival without interrupts by polling two rendezvous points: a magic
// word in the last four bytes of the header, and (when a payload is present)
// another in the last four bytes of the padded payload area.
#ifndef TEBIS_NET_MESSAGE_H_
#define TEBIS_NET_MESSAGE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>

#include "src/common/slice.h"
#include "src/common/status.h"

namespace tebis {

inline constexpr size_t kMessageHeaderSize = 128;
inline constexpr uint32_t kRendezvousMagic = 0x54454249;  // "TEBI"

enum class MessageType : uint16_t {
  kNoop = 0,  // ring filler (§3.4.2 case b)
  kNoopReply,
  kPut,
  kPutReply,
  kGet,
  kGetReply,
  kDelete,
  kDeleteReply,
  kScan,
  kScanReply,
  // Replication control plane (§3.2 / §3.3).
  kFlushLog,
  kFlushLogReply,
  kIndexSegment,
  kIndexSegmentReply,
  kCompactionBegin,
  kCompactionBeginReply,
  kCompactionEnd,
  kCompactionEndReply,
  kLogTrim,
  kLogTrimReply,
  // Build-Index baseline: backup rebuilds from raw log segments.
  kReplicaBuildSegment,
  kReplicaBuildSegmentReply,
  // Cluster management.
  kGetRegionMap,
  kGetRegionMapReply,
  // Recovery/full-sync: tells a backup where L0 replay starts (§3.5).
  kSetReplayStart,
  kSetReplayStartReply,
  // Admin scrape: server-wide telemetry (metrics snapshot + recent
  // pipeline spans) as JSON. Region-independent, like kGetRegionMap.
  kStatsScrape,
  kStatsScrapeReply,
  // Read-replica serving: gets/scans answered by a leased backup over
  // its shipped (or rebuilt) index, fenced by the region's committed epoch.
  kReplicaGet,
  kReplicaGetReply,
  kReplicaScan,
  kReplicaScanReply,
  // Shipped bloom filters: the level filter block a Send-Index
  // primary ships between the last index segment and CompactionEnd.
  kFilterBlock,
  kFilterBlockReply,
  // Online repair: a replica with a quarantined level re-fetches the
  // good verbatim segment bytes from any peer at the same epoch. kRepairFetch
  // is the request; kRepairSegment is its reply, carrying the bytes.
  kRepairFetch,
  kRepairSegment,
  // Write-path group commit: one frame carrying N put/delete ops; the
  // reply carries one status per op plus the commit token of the group.
  kKvBatch,
  kKvBatchReply,
};

const char* MessageTypeName(MessageType type);

// Header flags.
inline constexpr uint16_t kFlagTruncatedReply = 0x1;  // reply did not fit (§3.4.1)
inline constexpr uint16_t kFlagWrongRegion = 0x2;     // client must refresh its map
inline constexpr uint16_t kFlagError = 0x4;           // payload carries a status message

// Fixed-layout header. Stored in the first kMessageHeaderSize bytes of every
// message; the magic at the tail doubles as the arrival rendezvous.
struct MessageHeader {
  uint32_t payload_size;         // meaningful payload bytes
  uint32_t padded_payload_size;  // payload area incl. padding (multiple of 128)
  uint16_t type;
  uint16_t flags;
  uint32_t region_id;
  uint64_t request_id;
  uint64_t reply_offset;      // where the server writes the reply (§3.4.1)
  uint32_t reply_alloc_size;  // bytes the client reserved for the reply
  uint32_t map_version;       // client's region-map version
  char reserved[84];
  uint32_t magic;  // kRendezvousMagic once the header has fully arrived
};
static_assert(sizeof(MessageHeader) == kMessageHeaderSize);

// Padded payload area for `payload_size` bytes. A 4-byte end-rendezvous always
// fits because we round up (payload + 4) — except for empty payloads, which
// have no payload area at all (NOOPs) or a minimal one (everything else, so
// that every KV message is at least 256 B on the wire, §4).
size_t PaddedPayloadSize(size_t payload_size, bool allow_empty);

// Total wire size of a message.
inline size_t MessageWireSize(size_t padded_payload) {
  return kMessageHeaderSize + padded_payload;
}

// Writes a complete message into `dst` using release stores for the
// rendezvous words so a polling reader never observes a torn message.
// `dst` must have room for MessageWireSize(padded).
void EncodeMessage(char* dst, const MessageHeader& header, Slice payload);

// Polls `src` for a complete message. Returns false if the header rendezvous
// (or, for payload-bearing messages, the payload rendezvous) has not fired
// yet. On success copies the header out.
bool TryDecodeHeader(const char* src, MessageHeader* out);

// True once the payload-end rendezvous for this header has fired.
bool PayloadComplete(const char* msg, const MessageHeader& header);

// Zeroes the rendezvous words a future header/payload could alias in
// [msg, msg+wire_size) — the spinning thread's "zero only possible header
// locations" optimization (§3.4.2).
void ScrubRendezvous(char* msg, size_t wire_size);

}  // namespace tebis

#endif  // TEBIS_NET_MESSAGE_H_
