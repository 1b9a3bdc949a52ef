#include "src/replication/replication_wire.h"

namespace tebis {

namespace {

void Write(WireWriter* w, const FlushLogMsg& msg) {
  w->U64(msg.epoch).U64(msg.primary_segment).U64(msg.commit_seq).U64(msg.tail_bytes);
}

Status Read(WireReader* r, FlushLogMsg* out) {
  TEBIS_RETURN_IF_ERROR(r->U64(&out->epoch));
  TEBIS_RETURN_IF_ERROR(r->U64(&out->primary_segment));
  TEBIS_RETURN_IF_ERROR(r->U64(&out->commit_seq));
  return r->U64(&out->tail_bytes);
}

void Write(WireWriter* w, const CompactionBeginMsg& msg) {
  w->U64(msg.epoch).U64(msg.compaction_id).U32(msg.src_level).U32(msg.dst_level);
  w->U32(msg.stream_id).U64(msg.l0_boundary);
}

Status Read(WireReader* r, CompactionBeginMsg* out) {
  TEBIS_RETURN_IF_ERROR(r->U64(&out->epoch));
  TEBIS_RETURN_IF_ERROR(r->U64(&out->compaction_id));
  TEBIS_RETURN_IF_ERROR(r->U32(&out->src_level));
  TEBIS_RETURN_IF_ERROR(r->U32(&out->dst_level));
  TEBIS_RETURN_IF_ERROR(r->U32(&out->stream_id));
  return r->U64(&out->l0_boundary);
}

void Write(WireWriter* w, const IndexSegmentMsg& msg) {
  w->U64(msg.epoch)
      .U64(msg.compaction_id)
      .U32(msg.dst_level)
      .U32(msg.tree_level)
      .U64(msg.primary_segment)
      .Bytes(msg.data)
      .U32(msg.stream_id)
      .U32(msg.payload_crc);
}

Status Read(WireReader* r, IndexSegmentMsg* out) {
  TEBIS_RETURN_IF_ERROR(r->U64(&out->epoch));
  TEBIS_RETURN_IF_ERROR(r->U64(&out->compaction_id));
  TEBIS_RETURN_IF_ERROR(r->U32(&out->dst_level));
  TEBIS_RETURN_IF_ERROR(r->U32(&out->tree_level));
  TEBIS_RETURN_IF_ERROR(r->U64(&out->primary_segment));
  TEBIS_RETURN_IF_ERROR(r->BytesView(&out->data));
  TEBIS_RETURN_IF_ERROR(r->U32(&out->stream_id));
  return r->U32(&out->payload_crc);
}

void Write(WireWriter* w, const FilterBlockMsg& msg) {
  w->U64(msg.epoch).U64(msg.compaction_id).U32(msg.dst_level).Bytes(msg.data);
  w->U32(msg.stream_id);
}

Status Read(WireReader* r, FilterBlockMsg* out) {
  TEBIS_RETURN_IF_ERROR(r->U64(&out->epoch));
  TEBIS_RETURN_IF_ERROR(r->U64(&out->compaction_id));
  TEBIS_RETURN_IF_ERROR(r->U32(&out->dst_level));
  TEBIS_RETURN_IF_ERROR(r->BytesView(&out->data));
  return r->U32(&out->stream_id);
}

void Write(WireWriter* w, const CompactionEndMsg& msg) {
  w->U64(msg.epoch).U64(msg.compaction_id).U32(msg.src_level).U32(msg.dst_level);
  w->U64(msg.tree.root_offset).U16(msg.tree.height).U64(msg.tree.num_entries);
  w->U64(msg.tree.bytes_written);
  w->U32(static_cast<uint32_t>(msg.tree.segments.size()));
  for (SegmentId seg : msg.tree.segments) {
    w->U64(seg);
  }
  w->U32(msg.stream_id);
  w->U32(static_cast<uint32_t>(msg.tree.seg_checksums.size()));
  for (const SegmentChecksum& sc : msg.tree.seg_checksums) {
    w->U32(sc.crc).U32(sc.length);
  }
}

Status Read(WireReader* r, CompactionEndMsg* out) {
  TEBIS_RETURN_IF_ERROR(r->U64(&out->epoch));
  TEBIS_RETURN_IF_ERROR(r->U64(&out->compaction_id));
  TEBIS_RETURN_IF_ERROR(r->U32(&out->src_level));
  TEBIS_RETURN_IF_ERROR(r->U32(&out->dst_level));
  TEBIS_RETURN_IF_ERROR(r->U64(&out->tree.root_offset));
  TEBIS_RETURN_IF_ERROR(r->U16(&out->tree.height));
  TEBIS_RETURN_IF_ERROR(r->U64(&out->tree.num_entries));
  TEBIS_RETURN_IF_ERROR(r->U64(&out->tree.bytes_written));
  uint32_t n;
  TEBIS_RETURN_IF_ERROR(r->U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t seg;
    TEBIS_RETURN_IF_ERROR(r->U64(&seg));
    out->tree.segments.push_back(seg);
  }
  TEBIS_RETURN_IF_ERROR(r->U32(&out->stream_id));
  uint32_t num_checksums;
  TEBIS_RETURN_IF_ERROR(r->U32(&num_checksums));
  if (num_checksums != n) {
    return Status::Corruption("CompactionEnd segment-checksum count mismatch");
  }
  for (uint32_t i = 0; i < num_checksums; ++i) {
    SegmentChecksum sc;
    TEBIS_RETURN_IF_ERROR(r->U32(&sc.crc));
    TEBIS_RETURN_IF_ERROR(r->U32(&sc.length));
    out->tree.seg_checksums.push_back(sc);
  }
  return Status::Ok();
}

void Write(WireWriter* w, const TrimLogMsg& msg) { w->U64(msg.epoch).U32(msg.segments); }

Status Read(WireReader* r, TrimLogMsg* out) {
  TEBIS_RETURN_IF_ERROR(r->U64(&out->epoch));
  return r->U32(&out->segments);
}

void Write(WireWriter* w, const SetReplayStartMsg& msg) {
  w->U64(msg.epoch).U64(msg.flushed_segment_index);
}

Status Read(WireReader* r, SetReplayStartMsg* out) {
  TEBIS_RETURN_IF_ERROR(r->U64(&out->epoch));
  return r->U64(&out->flushed_segment_index);
}

template <typename Msg>
StatusOr<ReplicationMessage> DecodeAs(Slice payload) {
  WireReader r(payload);
  Msg msg;
  TEBIS_RETURN_IF_ERROR(Read(&r, &msg));
  return ReplicationMessage(std::move(msg));
}

}  // namespace

MessageType ReplicationMessageType(const ReplicationMessage& msg) {
  return std::visit(Overloaded{
                        [](const FlushLogMsg&) { return MessageType::kFlushLog; },
                        [](const CompactionBeginMsg&) { return MessageType::kCompactionBegin; },
                        [](const IndexSegmentMsg&) { return MessageType::kIndexSegment; },
                        [](const FilterBlockMsg&) { return MessageType::kFilterBlock; },
                        [](const CompactionEndMsg&) { return MessageType::kCompactionEnd; },
                        [](const TrimLogMsg&) { return MessageType::kLogTrim; },
                        [](const SetReplayStartMsg&) { return MessageType::kSetReplayStart; },
                    },
                    msg);
}

std::string EncodeReplicationMessage(const ReplicationMessage& msg) {
  WireWriter w;
  std::visit([&w](const auto& m) { Write(&w, m); }, msg);
  return w.str();
}

StatusOr<ReplicationMessage> DecodeReplicationMessage(MessageType type, Slice payload) {
  switch (type) {
    case MessageType::kFlushLog:
      return DecodeAs<FlushLogMsg>(payload);
    case MessageType::kCompactionBegin:
      return DecodeAs<CompactionBeginMsg>(payload);
    case MessageType::kIndexSegment:
      return DecodeAs<IndexSegmentMsg>(payload);
    case MessageType::kFilterBlock:
      return DecodeAs<FilterBlockMsg>(payload);
    case MessageType::kCompactionEnd:
      return DecodeAs<CompactionEndMsg>(payload);
    case MessageType::kLogTrim:
      return DecodeAs<TrimLogMsg>(payload);
    case MessageType::kSetReplayStart:
      return DecodeAs<SetReplayStartMsg>(payload);
    default:
      return Status::Internal("bad replication op");
  }
}

std::string EncodeRepairFetch(const RepairFetchMsg& msg) {
  WireWriter w;
  w.U64(msg.epoch).U32(msg.level).U64(msg.seg_index);
  return w.str();
}

Status DecodeRepairFetch(Slice payload, RepairFetchMsg* out) {
  WireReader r(payload);
  TEBIS_RETURN_IF_ERROR(r.U64(&out->epoch));
  TEBIS_RETURN_IF_ERROR(r.U32(&out->level));
  return r.U64(&out->seg_index);
}

std::string EncodeRepairSegment(const RepairSegmentMsg& msg) {
  WireWriter w;
  w.U64(msg.epoch).U32(msg.level).U64(msg.seg_index).U32(msg.crc).Bytes(msg.data);
  return w.str();
}

Status DecodeRepairSegment(Slice payload, RepairSegmentMsg* out) {
  WireReader r(payload);
  TEBIS_RETURN_IF_ERROR(r.U64(&out->epoch));
  TEBIS_RETURN_IF_ERROR(r.U32(&out->level));
  TEBIS_RETURN_IF_ERROR(r.U64(&out->seg_index));
  TEBIS_RETURN_IF_ERROR(r.U32(&out->crc));
  return r.BytesView(&out->data);
}

}  // namespace tebis
