#include "src/replication/segment_map.h"

namespace tebis {

Status SegmentMap::Insert(SegmentId primary, SegmentId backup) {
  auto [it, inserted] = entries_.emplace(primary, backup);
  if (!inserted) {
    return Status::AlreadyExists("segment " + std::to_string(primary) + " already mapped");
  }
  return Status::Ok();
}

StatusOr<SegmentId> SegmentMap::Lookup(SegmentId primary) const {
  auto it = entries_.find(primary);
  if (it == entries_.end()) {
    return LogSegmentTable::Unmapped(primary);
  }
  return it->second;
}

StatusOr<SegmentId> SegmentMap::GetOrReserve(
    SegmentId primary, const std::function<StatusOr<SegmentId>()>& allocate) {
  auto it = entries_.find(primary);
  if (it != entries_.end()) {
    return it->second;
  }
  TEBIS_ASSIGN_OR_RETURN(SegmentId local, allocate());
  entries_.emplace(primary, local);
  return local;
}

void SegmentMap::Serialize(WireWriter* w) const {
  w->U32(static_cast<uint32_t>(entries_.size()));
  for (const auto& [primary, backup] : entries_) {
    w->U64(primary);
    w->U64(backup);
  }
}

StatusOr<SegmentMap> SegmentMap::Deserialize(WireReader* r) {
  uint32_t n;
  TEBIS_RETURN_IF_ERROR(r->U32(&n));
  SegmentMap map;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t primary, backup;
    TEBIS_RETURN_IF_ERROR(r->U64(&primary));
    TEBIS_RETURN_IF_ERROR(r->U64(&backup));
    TEBIS_RETURN_IF_ERROR(map.Insert(primary, backup));
  }
  return map;
}

StatusOr<SegmentMap> SegmentMap::Invert() const {
  SegmentMap inverted;
  for (const auto& [key, value] : entries_) {
    TEBIS_RETURN_IF_ERROR(inverted.Insert(value, key));
  }
  return inverted;
}

StatusOr<SegmentMap> SegmentMap::RekeyForNewPrimary(const SegmentMap& new_primary_map) const {
  SegmentMap rekeyed;
  for (const auto& [old_primary, mine] : entries_) {
    auto new_primary = new_primary_map.Lookup(old_primary);
    if (!new_primary.ok()) {
      continue;  // the new primary never had this segment; unreachable from it
    }
    TEBIS_RETURN_IF_ERROR(rekeyed.Insert(*new_primary, mine));
  }
  return rekeyed;
}

LogSegmentTable::LogSegmentTable(const SegmentMap& map, SegmentGeometry geometry)
    : geometry_(geometry) {
  if (map.empty()) {
    return;
  }
  local_.assign(map.entries().rbegin()->first + 1, kInvalidSegment);
  for (const auto& [primary, local] : map.entries()) {
    local_[primary] = local;
  }
}

Status LogSegmentTable::Unmapped(SegmentId primary) {
  return Status::NotFound("no mapping for primary segment " + std::to_string(primary));
}

}  // namespace tebis
