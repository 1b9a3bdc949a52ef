// Client <-> region-server payload encodings for KV operations.
#ifndef TEBIS_CLUSTER_KV_WIRE_H_
#define TEBIS_CLUSTER_KV_WIRE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/kv_store.h"
#include "src/net/wire.h"
#include "src/telemetry/trace.h"

namespace tebis {

// Trailing request-trace field. Requests append
// [u8 kTraceFieldTag][u64 trace id] after their fixed fields only when the op
// is sampled, so unsampled frames stay byte-identical to the seed format
// (decoders always tolerated trailing bytes; kKvBatch's strict check parses
// the field before rejecting leftovers).
inline constexpr uint8_t kTraceFieldTag = 0xA7;

// Appends the field to `w` when trace != kNoTrace; a no-op otherwise.
void AppendTraceField(WireWriter* w, TraceId trace);

// Consumes a trailing trace field at the reader's position if one is present.
// Returns kNoTrace when the field is absent, truncated, or corrupt — a
// damaged trace field degrades to "unsampled", never to a decode failure for
// the fields that precede it.
TraceId ReadTraceField(WireReader* r);

std::string EncodePutRequest(Slice key, Slice value, TraceId trace = kNoTrace);
Status DecodePutRequest(Slice payload, Slice* key, Slice* value, TraceId* trace = nullptr);

// get & delete share the shape
std::string EncodeKeyRequest(Slice key, TraceId trace = kNoTrace);
Status DecodeKeyRequest(Slice payload, Slice* key, TraceId* trace = nullptr);

std::string EncodeScanRequest(Slice start, uint32_t limit, TraceId trace = kNoTrace);
Status DecodeScanRequest(Slice payload, Slice* start, uint32_t* limit,
                         TraceId* trace = nullptr);

std::string EncodeScanReply(const std::vector<KvPair>& pairs);
Status DecodeScanReply(Slice payload, std::vector<KvPair>* pairs);

// Truncated replies (§3.4.1) carry only the size the client must allocate.
std::string EncodeTruncatedReply(uint64_t needed_payload_bytes);
Status DecodeTruncatedReply(Slice payload, uint64_t* needed_payload_bytes);

// Read-replica requests carry a read fence: the serving replica must
// have committed at least {min_epoch, min_seq} or reject the read with
// FailedPrecondition — the read-path twin of stale-write fencing.
std::string EncodeReplicaGetRequest(Slice key, uint64_t min_epoch, uint64_t min_seq);
Status DecodeReplicaGetRequest(Slice payload, Slice* key, uint64_t* min_epoch,
                               uint64_t* min_seq);

std::string EncodeReplicaScanRequest(Slice start, uint32_t limit, uint64_t min_epoch,
                                     uint64_t min_seq);
Status DecodeReplicaScanRequest(Slice payload, Slice* start, uint32_t* limit,
                                uint64_t* min_epoch, uint64_t* min_seq);

// Replica replies carry the serving replica's visible sequence so the client
// can maintain monotonic reads while rotating across replicas.
std::string EncodeReplicaGetReply(Slice value, uint64_t visible_seq);
Status DecodeReplicaGetReply(Slice payload, Slice* value, uint64_t* visible_seq);

std::string EncodeReplicaScanReply(const std::vector<KvPair>& pairs, uint64_t visible_seq);
Status DecodeReplicaScanReply(Slice payload, std::vector<KvPair>* pairs,
                              uint64_t* visible_seq);

// Write replies carry the commit token (epoch, sequence) the write reached on
// the primary; read-your-writes clients fold it into their read fence.
std::string EncodeCommitToken(uint64_t epoch, uint64_t seq);
Status DecodeCommitToken(Slice payload, uint64_t* epoch, uint64_t* seq);

// Write-path group commit: a kKvBatch frame carries N puts/deletes the
// client coalesced for one destination (server, region); the server applies
// them as one group commit and answers one status per op plus the commit
// token the *group* reached. Clients running batch_size=1 never emit this
// frame — their wire bytes stay identical to the single-op messages above.
struct KvBatchOp {
  bool tombstone = false;  // false = put, true = delete
  Slice key;
  Slice value;  // empty for deletes
};

// Per-op outcome in a kKvBatchReply. `code` travels as the numeric StatusCode
// so the client can reconstruct the exact status; `message` only accompanies
// failures.
struct KvBatchOpStatus {
  uint32_t code = 0;  // StatusCode as wire integer; 0 = ok
  std::string message;
};

std::string EncodeKvBatchRequest(const std::vector<KvBatchOp>& ops, TraceId trace = kNoTrace);
Status DecodeKvBatchRequest(Slice payload, std::vector<KvBatchOp>* ops,
                            TraceId* trace = nullptr);

std::string EncodeKvBatchReply(const std::vector<KvBatchOpStatus>& statuses, uint64_t epoch,
                               uint64_t seq);
Status DecodeKvBatchReply(Slice payload, std::vector<KvBatchOpStatus>* statuses,
                          uint64_t* epoch, uint64_t* seq);

}  // namespace tebis

#endif  // TEBIS_CLUSTER_KV_WIRE_H_
