#include "src/lsm/compaction.h"

#include "src/common/clock.h"

namespace tebis {

// --- MemtableMergeSource -----------------------------------------------------

MemtableMergeSource::MemtableMergeSource(const Memtable* table, Slice start)
    : it_(table->NewIterator()) {
  if (start.empty()) {
    it_.SeekToFirst();
  } else {
    it_.Seek(start);
  }
  Load();
}

void MemtableMergeSource::Load() {
  valid_ = it_.Valid();
  if (valid_) {
    entry_.key = it_.key().ToString();
    entry_.log_offset = it_.location().log_offset;
    entry_.tombstone = it_.location().tombstone;
  }
}

Status MemtableMergeSource::Next() {
  it_.Next();
  Load();
  return Status::Ok();
}

// --- LevelMergeSource ----------------------------------------------------------

LevelMergeSource::LevelMergeSource(BlockDevice* device, size_t node_size, const BuiltTree& tree,
                                   const ValueLog* log, SegmentVerifier* verifier,
                                   PageCache* cache, IoClass io_class)
    : reader_(device, cache, node_size, tree, io_class, verifier),
      it_(&reader_),
      log_(log),
      cache_(cache),
      io_class_(io_class) {}

Status LevelMergeSource::Init(Slice start) {
  if (start.empty()) {
    TEBIS_RETURN_IF_ERROR(it_.SeekToFirst());
  } else {
    FullKeyLoader loader = [this](uint64_t off, size_t key_size) -> StatusOr<std::string> {
      std::string key;
      TEBIS_RETURN_IF_ERROR(log_->ReadKey(off, key_size, &key, nullptr, cache_, io_class_));
      return key;
    };
    TEBIS_RETURN_IF_ERROR(it_.Seek(start, loader));
  }
  return Load();
}

Status LevelMergeSource::Load() {
  valid_ = it_.Valid();
  if (!valid_) {
    return Status::Ok();
  }
  const LeafEntry& e = it_.entry();
  entry_.log_offset = e.log_offset();
  entry_.tombstone = e.tombstone();
  if (e.key_inline()) {
    entry_.key = e.inline_key().ToString();
    return Status::Ok();
  }
  // Merging needs total key order, so a key longer than the leaf prefix
  // comes from the log — read amplification the paper attributes to
  // compaction. The log's tombstone flag rides along in the same read and
  // must agree with the leaf's.
  bool log_tombstone = false;
  TEBIS_RETURN_IF_ERROR(log_->ReadKey(e.log_offset(), e.key_size(), &entry_.key, &log_tombstone,
                                      cache_, io_class_));
  if (log_tombstone != entry_.tombstone) {
    return Status::Corruption("leaf tombstone flag disagrees with log record on device " +
                              log_->device()->name() + " @" + std::to_string(e.log_offset()));
  }
  return Status::Ok();
}

Status LevelMergeSource::Next() {
  TEBIS_RETURN_IF_ERROR(it_.Next());
  return Load();
}

// --- MergeIterator ---------------------------------------------------------------

MergeIterator::MergeIterator(std::vector<MergeSource*> sources) : sources_(std::move(sources)) {
  Pick();
}

void MergeIterator::Pick() {
  // The smallest key; on ties the lowest source index (newest) wins.
  current_ = -1;
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (!sources_[i]->Valid()) {
      continue;
    }
    if (current_ < 0 ||
        Slice(sources_[i]->entry().key).Compare(Slice(sources_[current_]->entry().key)) < 0) {
      current_ = static_cast<int>(i);
    }
  }
}

Status MergeIterator::Next() {
  key_.assign(entry().key);
  for (MergeSource* src : sources_) {
    while (src->Valid() && Slice(src->entry().key) == Slice(key_)) {
      TEBIS_RETURN_IF_ERROR(src->Next());
    }
  }
  Pick();
  return Status::Ok();
}

// --- MergeSources ---------------------------------------------------------------

StatusOr<uint64_t> MergeSources(std::vector<MergeSource*> sources, bool drop_tombstones,
                                BTreeBuilder* builder, MergeStageTiming* timing) {
  // One staged winner: its key lives in `arena` at [key_begin, key_begin + key_size).
  struct Staged {
    size_t key_begin;
    size_t key_size;
    uint64_t log_offset;
    bool tombstone;
  };
  std::string arena;
  std::vector<Staged> run;
  run.reserve(kMergeRunLength);
  uint64_t written = 0;
  MergeStageTiming local;
  const uint64_t* sink_ns = timing != nullptr ? timing->sink_ns : nullptr;
  // Winners move in runs, and the clock is read only when the loop switches
  // stage: the merge stage picks up to kMergeRunLength winners and advances
  // the sources (with their log/level reads), copying keys into the arena;
  // the build stage feeds the run to the builder, less the time its sink
  // spends shipping completed segments.
  uint64_t mark = NowNanos();
  MergeIterator merged(std::move(sources));
  while (true) {
    arena.clear();
    run.clear();
    while (merged.Valid() && run.size() < kMergeRunLength) {
      const MergeEntry& winner = merged.entry();
      if (!winner.tombstone || !drop_tombstones) {
        run.push_back(
            Staged{arena.size(), winner.key.size(), winner.log_offset, winner.tombstone});
        arena.append(winner.key);
      }
      TEBIS_RETURN_IF_ERROR(merged.Next());
    }
    const uint64_t merged_ns = NowNanos();
    local.merge_ns += merged_ns - mark;
    if (run.empty()) {
      break;
    }
    const uint64_t sink_before = sink_ns != nullptr ? *sink_ns : 0;
    for (const Staged& w : run) {
      TEBIS_RETURN_IF_ERROR(builder->Add(Slice(arena.data() + w.key_begin, w.key_size),
                                         w.log_offset, w.tombstone));
    }
    written += run.size();
    mark = NowNanos();
    const uint64_t shipped_ns = sink_ns != nullptr ? *sink_ns - sink_before : 0;
    local.build_ns += mark - merged_ns - shipped_ns;
  }
  if (timing != nullptr) {
    timing->merge_ns += local.merge_ns;
    timing->build_ns += local.build_ns;
  }
  return written;
}

}  // namespace tebis
