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

Status BTreeReader::ReadSegment(SegmentId segment, std::string* out) const {
  if (verifier_ != nullptr) {
    if (std::optional<size_t> idx = verifier_->IndexOf(segment)) {
      return verifier_->ReadSegment(*idx, io_class_, out);
    }
  }
  out->resize(device_->segment_size());
  return device_->Read(device_->geometry().BaseOffset(segment), out->size(), out->data(),
                       io_class_);
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

BTreeIterator::BTreeIterator(const BTreeReader* reader)
    : reader_(reader), buffers_(reader->tree_.height + 1u) {}

StatusOr<const char*> BTreeIterator::LoadNode(uint16_t height, uint64_t offset) {
  HeightBuffer& buf = buffers_[height];
  if (reader_->cache_ != nullptr) {
    TEBIS_RETURN_IF_ERROR(reader_->ReadNode(offset, &buf.bytes));
    return buf.bytes.data();
  }
  const SegmentGeometry& geometry = reader_->device_->geometry();
  const SegmentId segment = geometry.SegmentOf(offset);
  if (segment != buf.segment) {
    buf.segment = kInvalidSegment;  // until the read below succeeds
    TEBIS_RETURN_IF_ERROR(reader_->ReadSegment(segment, &buf.bytes));
    buf.segment = segment;
  }
  const uint64_t in_segment = geometry.OffsetInSegment(offset);
  if (in_segment + reader_->node_size_ > buf.bytes.size()) {
    return Status::Corruption("node @" + std::to_string(offset) +
                              " lies past its segment's checksummed prefix");
  }
  return buf.bytes.data() + in_segment;
}

Status BTreeIterator::DescendToLeaf(uint64_t offset, bool leftmost, Slice seek_key,
                                    const FullKeyLoader* full_key) {
  for (uint16_t h = reader_->tree_.height; h > 0; --h) {
    Frame frame;
    TEBIS_ASSIGN_OR_RETURN(frame.node, LoadNode(h, offset));
    IndexNodeView view(frame.node, reader_->node_size_);
    if (!view.IsValid()) {
      return Status::Corruption("expected index node");
    }
    frame.index = leftmost ? 0 : view.FindChild(seek_key);
    offset = view.child(frame.index);
    stack_.push_back(frame);
  }
  TEBIS_ASSIGN_OR_RETURN(leaf_.node, LoadNode(0, offset));
  LeafNodeView view(leaf_.node, reader_->node_size_);
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
  LeafNodeView view(leaf_.node, reader_->node_size_);
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
    IndexNodeView view(top.node, reader_->node_size_);
    if (top.index + 1 < view.num_entries()) {
      top.index++;
      uint64_t offset = view.child(top.index);
      // Descend leftmost through the remaining height.
      for (size_t h = reader_->tree_.height - stack_.size(); h > 0; --h) {
        Frame frame;
        TEBIS_ASSIGN_OR_RETURN(frame.node, LoadNode(static_cast<uint16_t>(h), offset));
        IndexNodeView inner(frame.node, reader_->node_size_);
        if (!inner.IsValid()) {
          return Status::Corruption("expected index node");
        }
        frame.index = 0;
        offset = inner.child(0);
        stack_.push_back(frame);
      }
      TEBIS_ASSIGN_OR_RETURN(leaf_.node, LoadNode(0, offset));
      LeafNodeView leaf_view(leaf_.node, reader_->node_size_);
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
  LeafNodeView view(leaf_.node, reader_->node_size_);
  if (leaf_.index < view.num_entries()) {
    current_entry_ = view.entry(leaf_.index);
    return Status::Ok();
  }
  return Advance();
}

}  // namespace tebis
