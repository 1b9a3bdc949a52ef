#include "src/lsm/btree_reader.h"

#include "src/lsm/segment_verifier.h"

namespace tebis {

BTreeReader::BTreeReader(BlockDevice* device, PageCache* cache, size_t node_size,
                         const BuiltTree& tree, IoClass io_class, SegmentVerifier* verifier)
    : device_(device),
      cache_(cache),
      node_size_(node_size),
      tree_(tree),
      io_class_(io_class),
      verifier_(verifier) {}

Status BTreeReader::ReadNode(uint64_t offset, std::string* buf) const {
  if (verifier_ != nullptr) {
    TEBIS_RETURN_IF_ERROR(verifier_->VerifyForOffset(offset, io_class_));
  }
  buf->resize(node_size_);
  if (cache_ != nullptr) {
    return cache_->Read(offset, node_size_, buf->data(), io_class_);
  }
  return device_->Read(offset, node_size_, buf->data(), io_class_);
}

StatusOr<LeafEntry> BTreeReader::Find(Slice key, uint64_t key_hash,
                                       const FullKeyLoader& full_key) const {
  if (tree_.empty()) {
    return Status::NotFound();
  }
  std::string node;
  uint64_t offset = tree_.root_offset;
  for (uint16_t h = tree_.height; h > 0; --h) {
    TEBIS_RETURN_IF_ERROR(ReadNode(offset, &node));
    IndexNodeView view(node.data(), node_size_);
    if (!view.IsValid()) {
      return Status::Corruption("expected index node");
    }
    offset = view.child(view.FindChild(key));
  }
  TEBIS_RETURN_IF_ERROR(ReadNode(offset, &node));
  LeafNodeView leaf(node.data(), node_size_);
  if (!leaf.IsValid()) {
    return Status::Corruption("expected leaf node");
  }
  TEBIS_ASSIGN_OR_RETURN(uint32_t i, leaf.Find(key, key_hash, full_key));
  return leaf.entry(i);
}

// --- BTreeIterator ----------------------------------------------------------

BTreeIterator::BTreeIterator(const BTreeReader* reader) : reader_(reader) {}

Status BTreeIterator::DescendToLeaf(uint64_t offset, bool leftmost, Slice seek_key,
                                    const FullKeyLoader* full_key) {
  for (uint16_t h = reader_->tree_.height; h > 0; --h) {
    Frame frame;
    TEBIS_RETURN_IF_ERROR(reader_->ReadNode(offset, &frame.node));
    IndexNodeView view(frame.node.data(), reader_->node_size_);
    if (!view.IsValid()) {
      return Status::Corruption("expected index node");
    }
    frame.index = leftmost ? 0 : view.FindChild(seek_key);
    offset = view.child(frame.index);
    stack_.push_back(std::move(frame));
  }
  TEBIS_RETURN_IF_ERROR(reader_->ReadNode(offset, &leaf_.node));
  LeafNodeView view(leaf_.node.data(), reader_->node_size_);
  if (!view.IsValid()) {
    return Status::Corruption("expected leaf node");
  }
  if (leftmost) {
    leaf_.index = 0;
  } else {
    TEBIS_ASSIGN_OR_RETURN(leaf_.index, view.LowerBound(seek_key, *full_key));
  }
  return Status::Ok();
}

Status BTreeIterator::LoadEntry() {
  LeafNodeView view(leaf_.node.data(), reader_->node_size_);
  if (leaf_.index < view.num_entries()) {
    current_entry_ = view.entry(leaf_.index);
    valid_ = true;
    return Status::Ok();
  }
  return Advance();
}

Status BTreeIterator::SeekToFirst() {
  stack_.clear();
  valid_ = false;
  if (reader_->tree_.empty()) {
    return Status::Ok();
  }
  TEBIS_RETURN_IF_ERROR(DescendToLeaf(reader_->tree_.root_offset, /*leftmost=*/true, Slice(),
                                      /*full_key=*/nullptr));
  return LoadEntry();
}

Status BTreeIterator::Seek(Slice key, const FullKeyLoader& full_key) {
  stack_.clear();
  valid_ = false;
  if (reader_->tree_.empty()) {
    return Status::Ok();
  }
  TEBIS_RETURN_IF_ERROR(
      DescendToLeaf(reader_->tree_.root_offset, /*leftmost=*/false, key, &full_key));
  return LoadEntry();
}

// Moves to the next leaf by popping exhausted frames and descending leftmost.
Status BTreeIterator::Advance() {
  valid_ = false;
  while (!stack_.empty()) {
    Frame& top = stack_.back();
    IndexNodeView view(top.node.data(), reader_->node_size_);
    if (top.index + 1 < view.num_entries()) {
      top.index++;
      uint64_t offset = view.child(top.index);
      // Descend leftmost through the remaining height.
      const size_t depth_below = reader_->tree_.height - stack_.size();
      for (size_t d = 0; d < depth_below; ++d) {
        Frame frame;
        TEBIS_RETURN_IF_ERROR(reader_->ReadNode(offset, &frame.node));
        IndexNodeView inner(frame.node.data(), reader_->node_size_);
        if (!inner.IsValid()) {
          return Status::Corruption("expected index node");
        }
        frame.index = 0;
        offset = inner.child(0);
        stack_.push_back(std::move(frame));
      }
      TEBIS_RETURN_IF_ERROR(reader_->ReadNode(offset, &leaf_.node));
      LeafNodeView leaf_view(leaf_.node.data(), reader_->node_size_);
      if (!leaf_view.IsValid()) {
        return Status::Corruption("expected leaf node");
      }
      leaf_.index = 0;
      if (leaf_view.num_entries() == 0) {
        continue;  // defensive: skip empty leaves
      }
      current_entry_ = leaf_view.entry(0);
      valid_ = true;
      return Status::Ok();
    }
    stack_.pop_back();
  }
  return Status::Ok();  // exhausted
}

Status BTreeIterator::Next() {
  if (!valid_) {
    return Status::FailedPrecondition("Next on invalid iterator");
  }
  leaf_.index++;
  LeafNodeView view(leaf_.node.data(), reader_->node_size_);
  if (leaf_.index < view.num_entries()) {
    current_entry_ = view.entry(leaf_.index);
    return Status::Ok();
  }
  return Advance();
}

}  // namespace tebis
