#include "src/lsm/manifest.h"

#include "src/common/crc32.h"
#include "src/net/wire.h"

namespace tebis {

std::string Manifest::Encode() const {
  WireWriter w;
  w.U32(kManifestMagic).U32(kManifestVersion);
  w.U32(static_cast<uint32_t>(levels.size()));
  for (const BuiltTree& tree : levels) {
    w.U64(tree.root_offset).U16(tree.height).U64(tree.num_entries).U64(tree.bytes_written);
    w.U32(static_cast<uint32_t>(tree.segments.size()));
    for (SegmentId seg : tree.segments) {
      w.U64(seg);
    }
    // Per-level filter block, empty when the tree carries none.
    w.Bytes(tree.filter != nullptr ? Slice(*tree.filter) : Slice());
    // Per-segment checksums, one per segment.
    w.U32(static_cast<uint32_t>(tree.seg_checksums.size()));
    for (const SegmentChecksum& sc : tree.seg_checksums) {
      w.U32(sc.crc).U32(sc.length);
    }
  }
  w.U32(static_cast<uint32_t>(log_flushed_segments.size()));
  for (SegmentId seg : log_flushed_segments) {
    w.U64(seg);
  }
  w.U64(l0_replay_from);
  std::string body = w.str();
  // Trailing CRC over the body so a torn checkpoint write is detected.
  WireWriter footer;
  footer.U32(Crc32c(body.data(), body.size()));
  return body + footer.str();
}

StatusOr<Manifest> Manifest::Decode(Slice data) {
  if (data.size() < 12) {
    return Status::Corruption("manifest too small");
  }
  const size_t body_size = data.size() - 4;
  WireReader crc_reader(Slice(data.data() + body_size, 4));
  uint32_t stored_crc;
  TEBIS_RETURN_IF_ERROR(crc_reader.U32(&stored_crc));
  if (Crc32c(data.data(), body_size) != stored_crc) {
    return Status::Corruption("manifest crc mismatch");
  }
  WireReader r(Slice(data.data(), body_size));
  uint32_t magic, version;
  TEBIS_RETURN_IF_ERROR(r.U32(&magic));
  TEBIS_RETURN_IF_ERROR(r.U32(&version));
  if (magic != kManifestMagic) {
    return Status::Corruption("bad manifest magic");
  }
  if (version < kMinManifestVersion || version > kManifestVersion) {
    return Status::InvalidArgument("unsupported manifest version " + std::to_string(version));
  }
  Manifest manifest;
  uint32_t num_levels;
  TEBIS_RETURN_IF_ERROR(r.U32(&num_levels));
  for (uint32_t i = 0; i < num_levels; ++i) {
    BuiltTree tree;
    TEBIS_RETURN_IF_ERROR(r.U64(&tree.root_offset));
    TEBIS_RETURN_IF_ERROR(r.U16(&tree.height));
    TEBIS_RETURN_IF_ERROR(r.U64(&tree.num_entries));
    TEBIS_RETURN_IF_ERROR(r.U64(&tree.bytes_written));
    uint32_t num_segments;
    TEBIS_RETURN_IF_ERROR(r.U32(&num_segments));
    for (uint32_t s = 0; s < num_segments; ++s) {
      uint64_t seg;
      TEBIS_RETURN_IF_ERROR(r.U64(&seg));
      tree.segments.push_back(seg);
    }
    std::string filter;
    TEBIS_RETURN_IF_ERROR(r.Bytes(&filter));
    if (!filter.empty()) {
      tree.filter = std::make_shared<const std::string>(std::move(filter));
    }
    uint32_t num_checksums;
    TEBIS_RETURN_IF_ERROR(r.U32(&num_checksums));
    if (num_checksums != num_segments) {
      return Status::Corruption("manifest segment-checksum count mismatch");
    }
    for (uint32_t s = 0; s < num_checksums; ++s) {
      SegmentChecksum sc;
      TEBIS_RETURN_IF_ERROR(r.U32(&sc.crc));
      TEBIS_RETURN_IF_ERROR(r.U32(&sc.length));
      tree.seg_checksums.push_back(sc);
    }
    manifest.levels.push_back(std::move(tree));
  }
  uint32_t num_log_segments;
  TEBIS_RETURN_IF_ERROR(r.U32(&num_log_segments));
  for (uint32_t s = 0; s < num_log_segments; ++s) {
    uint64_t seg;
    TEBIS_RETURN_IF_ERROR(r.U64(&seg));
    manifest.log_flushed_segments.push_back(seg);
  }
  TEBIS_RETURN_IF_ERROR(r.U64(&manifest.l0_replay_from));
  return manifest;
}

}  // namespace tebis
