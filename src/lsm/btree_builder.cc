#include "src/lsm/btree_builder.h"

#include <cstring>
#include <optional>

#include "src/common/crc32.h"
#include "src/lsm/bloom_filter.h"

namespace tebis {

// Per-tree-level build state: one in-progress node and one in-progress
// segment stream.
struct BTreeBuilder::LevelState {
  LevelState(size_t node_size, uint64_t segment_size)
      : node_buf(std::make_unique<char[]>(node_size)),
        segment_buf(std::make_unique<char[]>(segment_size)) {}

  std::unique_ptr<char[]> node_buf;
  std::optional<LeafNodeBuilder> leaf;    // level 0 only
  std::optional<IndexNodeBuilder> index;  // levels >= 1 only
  std::string first_key;                  // pivot of the in-progress node

  std::unique_ptr<char[]> segment_buf;
  SegmentId segment = kInvalidSegment;
  uint64_t segment_pos = 0;

  uint64_t nodes_completed = 0;
  uint64_t last_node_offset = kInvalidOffset;
};

Status CheckLeafAddressable(const BlockDevice* device) {
  if (device->max_segments() > (kLeafOffsetMask + 1) / device->segment_size()) {
    return Status::InvalidArgument(
        "device of " + std::to_string(device->max_segments()) + " x " +
        std::to_string(device->segment_size()) + " B segments exceeds the 2^" +
        std::to_string(kLeafOffsetBits) + " B that leaf entries address");
  }
  return Status::Ok();
}

BTreeBuilder::BTreeBuilder(BlockDevice* device, size_t node_size, IoClass io_class,
                           SegmentSink* sink)
    : device_(device), node_size_(node_size), io_class_(io_class), sink_(sink) {}

BTreeBuilder::~BTreeBuilder() = default;

void BTreeBuilder::EnableFilter(uint32_t bits_per_key) {
  filter_builder_ = std::make_unique<BloomFilterBuilder>(bits_per_key);
}

BTreeBuilder::LevelState& BTreeBuilder::Level(size_t level) {
  while (levels_.size() <= level) {
    auto state = std::make_unique<LevelState>(node_size_, device_->segment_size());
    if (levels_.empty()) {
      state->leaf.emplace(state->node_buf.get(), node_size_);
    } else {
      state->index.emplace(state->node_buf.get(), node_size_);
    }
    levels_.push_back(std::move(state));
  }
  return *levels_[level];
}

Status BTreeBuilder::Add(Slice key, uint64_t log_offset, bool tombstone) {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  if (key.empty() || key.size() > kMaxKeySize) {
    return Status::InvalidArgument("bad key size");
  }
  if (log_offset > kLeafOffsetMask) {
    return Status::InvalidArgument("log offset exceeds the leaf entry's 48 bits");
  }
  if (!last_key_.empty() && Slice(last_key_).Compare(key) >= 0) {
    return Status::InvalidArgument("keys must be strictly ascending");
  }
  LevelState& leaves = Level(0);
  if (leaves.leaf->count() == 0) {
    leaves.first_key = key.ToString();
  }
  // One hash per key feeds both the leaf tag and the filter fingerprint.
  const uint64_t key_hash = KeyHash(key);
  leaves.leaf->Add(key, log_offset, tombstone, key_hash);
  if (filter_builder_ != nullptr) {
    filter_builder_->AddKey(key, key_hash);
  }
  num_entries_++;
  last_key_ = key.ToString();
  if (leaves.leaf->Full()) {
    TEBIS_RETURN_IF_ERROR(CompleteLeafNode());
  }
  return Status::Ok();
}

Status BTreeBuilder::PlaceNode(size_t level, const char* node, uint64_t* offset_out) {
  LevelState& state = Level(level);
  const uint64_t seg_size = device_->segment_size();
  if (state.segment == kInvalidSegment || state.segment_pos + node_size_ > seg_size) {
    if (state.segment != kInvalidSegment) {
      TEBIS_RETURN_IF_ERROR(FlushStream(level));
    }
    TEBIS_ASSIGN_OR_RETURN(state.segment, device_->AllocateSegment());
    segments_.push_back(state.segment);
    state.segment_pos = 0;
  }
  memcpy(state.segment_buf.get() + state.segment_pos, node, node_size_);
  *offset_out = device_->geometry().BaseOffset(state.segment) | state.segment_pos;
  state.segment_pos += node_size_;
  return Status::Ok();
}

Status BTreeBuilder::FlushStream(size_t level) {
  LevelState& state = *levels_[level];
  if (state.segment == kInvalidSegment || state.segment_pos == 0) {
    return Status::Ok();
  }
  const uint64_t base = device_->geometry().BaseOffset(state.segment);
  Slice bytes(state.segment_buf.get(), state.segment_pos);
  TEBIS_RETURN_IF_ERROR(device_->Write(base, bytes, io_class_));
  bytes_written_ += state.segment_pos;
  const uint32_t crc = Crc32c(bytes.data(), bytes.size());
  seg_crcs_[state.segment] = SegmentChecksum{crc, static_cast<uint32_t>(bytes.size())};
  if (sink_ != nullptr) {
    sink_->OnSegmentComplete(static_cast<int>(level), state.segment, bytes, crc);
  }
  state.segment = kInvalidSegment;
  state.segment_pos = 0;
  return Status::Ok();
}

Status BTreeBuilder::CompleteLeafNode() {
  LevelState& leaves = *levels_[0];
  leaves.leaf->Finish();
  uint64_t offset;
  TEBIS_RETURN_IF_ERROR(PlaceNode(0, leaves.node_buf.get(), &offset));
  leaves.nodes_completed++;
  leaves.last_node_offset = offset;
  const std::string pivot = leaves.first_key;
  leaves.leaf->Reset();
  leaves.first_key.clear();
  return AddPivot(1, pivot, offset);
}

Status BTreeBuilder::AddPivot(size_t level, Slice key, uint64_t child_offset) {
  LevelState& state = Level(level);
  if (state.index->count() > 0 && state.index->WouldOverflow(key.size())) {
    TEBIS_RETURN_IF_ERROR(CompleteIndexNode(level));
  }
  if (state.index->count() == 0) {
    state.first_key = key.ToString();
  }
  state.index->Add(key, child_offset);
  return Status::Ok();
}

Status BTreeBuilder::CompleteIndexNode(size_t level) {
  LevelState& state = *levels_[level];
  state.index->Finish(static_cast<uint16_t>(level));
  uint64_t offset;
  TEBIS_RETURN_IF_ERROR(PlaceNode(level, state.node_buf.get(), &offset));
  state.nodes_completed++;
  state.last_node_offset = offset;
  const std::string pivot = state.first_key;
  state.index->Reset();
  state.first_key.clear();
  return AddPivot(level + 1, pivot, offset);
}

StatusOr<BuiltTree> BTreeBuilder::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  finished_ = true;

  BuiltTree tree;
  if (num_entries_ == 0) {
    tree.segments = segments_;
    return tree;
  }

  // Complete the partial leaf node, then ascend: at each level, if the level
  // below produced a single node, that node is the root; otherwise complete
  // this level's partial node and continue up. Completing a node at level l
  // always pushes a pivot into level l+1, so the walk terminates.
  if (levels_[0]->leaf->count() > 0) {
    TEBIS_RETURN_IF_ERROR(CompleteLeafNode());
  }
  size_t level = 1;
  while (true) {
    const LevelState& below = *levels_[level - 1];
    if (below.nodes_completed == 1) {
      tree.root_offset = below.last_node_offset;
      tree.height = static_cast<uint16_t>(level - 1);
      break;
    }
    if (Level(level).index->count() > 0) {
      TEBIS_RETURN_IF_ERROR(CompleteIndexNode(level));
    }
    level++;
  }

  // Flush partial segments leaf-level-first so a backup sees children before
  // parents whenever possible (it tolerates the opposite via reservations).
  for (size_t l = 0; l < levels_.size(); ++l) {
    TEBIS_RETURN_IF_ERROR(FlushStream(l));
  }

  // Segments above the root level were never used (streams there may have
  // allocated nothing); drop unused allocations is not needed because streams
  // only allocate when a node is placed.
  tree.num_entries = num_entries_;
  tree.segments = segments_;
  tree.bytes_written = bytes_written_;
  // Every segment in segments_ was flushed exactly once, so the checksum map
  // covers them all; assemble in segments_ order (parallel vectors).
  tree.seg_checksums.reserve(segments_.size());
  for (SegmentId segment : segments_) {
    auto it = seg_crcs_.find(segment);
    if (it == seg_crcs_.end()) {
      return Status::Internal("segment " + std::to_string(segment) + " missing checksum");
    }
    tree.seg_checksums.push_back(it->second);
  }
  if (filter_builder_ != nullptr && filter_builder_->num_keys() > 0) {
    tree.filter = std::make_shared<const std::string>(filter_builder_->Finish());
  }
  return tree;
}

}  // namespace tebis
