#include "src/replication/send_index_backup.h"

#include <cstring>

#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/lsm/bloom_filter.h"
#include "src/lsm/btree_node.h"
#include "src/lsm/compaction.h"
#include "src/lsm/index_codec.h"

namespace tebis {

StatusOr<std::unique_ptr<SendIndexBackupRegion>> SendIndexBackupRegion::Create(
    BlockDevice* device, const KvStoreOptions& options,
    std::shared_ptr<RegisteredBuffer> rdma_buffer) {
  TEBIS_RETURN_IF_ERROR(CheckRdmaBuffer(device, rdma_buffer.get()));
  TEBIS_RETURN_IF_ERROR(CheckLeafAddressable(device));
  std::unique_ptr<SendIndexBackupRegion> backup(new SendIndexBackupRegion(
      device, options, std::move(rdma_buffer), std::vector<BuiltTree>(options.max_levels + 1)));
  TEBIS_ASSIGN_OR_RETURN(backup->log_, ValueLog::Create(device));
  return backup;
}

StatusOr<std::unique_ptr<SendIndexBackupRegion>> SendIndexBackupRegion::CreateFromParts(
    BlockDevice* device, const KvStoreOptions& options,
    std::shared_ptr<RegisteredBuffer> rdma_buffer, std::unique_ptr<ValueLog> log,
    std::vector<BuiltTree> levels, SegmentMap log_map,
    std::vector<SegmentId> primary_flush_order, size_t replay_from) {
  TEBIS_RETURN_IF_ERROR(CheckRdmaBuffer(device, rdma_buffer.get()));
  if (levels.size() != options.max_levels + 1) {
    return Status::InvalidArgument("levels vector must have max_levels+1 entries");
  }
  TEBIS_RETURN_IF_ERROR(CheckLeafAddressable(device));
  // Levels carried over from the demoted primary stay verified on this
  // node's read path. Their bytes are OLD-primary space though, so origins_
  // stays empty: they cannot serve primary-space repair interchange until the
  // new primary ships them afresh.
  std::unique_ptr<SendIndexBackupRegion> backup(
      new SendIndexBackupRegion(device, options, std::move(rdma_buffer), std::move(levels)));
  backup->log_ = std::move(log);
  backup->log_map_ = std::move(log_map);
  backup->primary_flush_order_ = std::move(primary_flush_order);
  backup->replay_from_ = replay_from;
  return backup;
}

SendIndexBackupRegion::SendIndexBackupRegion(BlockDevice* device, const KvStoreOptions& options,
                                             std::shared_ptr<RegisteredBuffer> rdma_buffer,
                                             std::vector<BuiltTree> levels)
    : BackupRegion(device, options, std::move(rdma_buffer)),
      levels_(std::move(levels)),
      verifiers_(levels_.size()),
      origins_(levels_.size()) {
  InitTelemetry();
  for (size_t i = 0; i < levels_.size(); ++i) {
    InstallVerifierLocked(static_cast<int>(i));
  }
}

void SendIndexBackupRegion::InitTelemetry() {
  node_name_ = NodeLabel(options_.telemetry_labels);
  MetricsRegistry* reg = telemetry()->metrics();
  const MetricLabels& l = options_.telemetry_labels;
  counters_.rewrite_cpu_ns = reg->GetCounter("backup.rewrite_cpu_ns", l);
  counters_.segments_rewritten = reg->GetCounter("backup.segments_rewritten", l);
  counters_.offsets_rewritten = reg->GetCounter("backup.offsets_rewritten", l);
  counters_.streams_opened = reg->GetCounter("backup.streams_opened", l);
  counters_.streams_aborted = reg->GetCounter("backup.streams_aborted", l);
  counters_.filter_blocks_installed = reg->GetCounter("backup.filter_blocks_installed", l);
  counters_.filters = FilterCounters{reg->GetCounter("backup.filter_checks", l),
                                     reg->GetCounter("backup.filter_negatives", l),
                                     reg->GetCounter("backup.filter_false_positives", l)};
  counters_.segments_crc_rejected = reg->GetCounter("backup.segments_crc_rejected", l);
  counters_.integrity = RegisterIntegrityCounters(reg, l);
  counters_.repair_serves = reg->GetCounter("integrity.repair_serves", l);
  counters_.read_corruptions = reg->GetCounter("backup.read_corruptions", l);
}

void SendIndexBackupRegion::RecordSpan(const CompactionStream& stream, const char* name,
                                       uint64_t start_ns, uint64_t end_ns,
                                       uint64_t bytes) const {
  TraceBuffer* traces = telemetry()->traces();
  if (stream.trace == kNoTrace || !traces->enabled()) {
    return;
  }
  SpanRecord span;
  span.trace = stream.trace;
  span.compaction_id = stream.id;
  span.name = name;
  span.node = node_name_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.src_level = stream.src_level;
  span.dst_level = stream.dst_level;
  span.bytes = bytes;
  traces->Record(std::move(span));
}

size_t SendIndexBackupRegion::active_streams() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return streams_.size();
}

void SendIndexBackupRegion::set_replay_from(size_t flushed_segment_index) {
  std::lock_guard<std::shared_mutex> lock(state_mutex_);
  replay_from_ = flushed_segment_index;
}

size_t SendIndexBackupRegion::replay_from() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return replay_from_;
}

Status SendIndexBackupRegion::HandleIndexMessage(const ReplicationMessage& msg) {
  return std::visit(
      Overloaded{
          [this](const CompactionBeginMsg& m) {
            return HandleCompactionBegin(m.compaction_id, static_cast<int>(m.src_level),
                                         static_cast<int>(m.dst_level), m.stream_id,
                                         m.l0_boundary);
          },
          [this](const IndexSegmentMsg& m) {
            return HandleIndexSegment(m.compaction_id, m.primary_segment, m.data, m.stream_id,
                                      m.payload_crc);
          },
          [this](const FilterBlockMsg& m) {
            return HandleFilterBlock(m.compaction_id, m.data, m.stream_id);
          },
          [this](const CompactionEndMsg& m) {
            return HandleCompactionEnd(m.compaction_id, static_cast<int>(m.src_level),
                                       static_cast<int>(m.dst_level), m.tree, m.stream_id);
          },
          [this](const SetReplayStartMsg& m) {
            set_replay_from(m.flushed_segment_index);
            return Status::Ok();
          },
          // Log flushes and trims: BackupRegion::Handle applies them itself.
          [](const auto&) { return Status::Internal("log-plane message reached the engine"); },
      },
      msg);
}

Status SendIndexBackupRegion::HandleCompactionBegin(uint64_t compaction_id, int src_level,
                                                    int dst_level, StreamId stream,
                                                    uint64_t l0_boundary) {
  std::lock_guard<std::shared_mutex> lock(state_mutex_);
  auto it = streams_.find(stream);
  if (it != streams_.end()) {
    if (it->second->id == compaction_id) {
      return Status::Ok();  // duplicate delivery
    }
    return Status::FailedPrecondition("stream busy with another compaction on backup");
  }
  auto done = last_completed_.find(stream);
  if (done != last_completed_.end() && done->second == compaction_id) {
    return Status::Ok();  // retry of an already-completed compaction
  }
  // Level-ownership guard, backup side: the primary's scheduler only ships
  // disjoint level pairs concurrently; a violation here means corrupted or
  // misrouted control traffic.
  for (const auto& [sid, active] : streams_) {
    if (active->src_level == src_level || active->src_level == dst_level ||
        active->dst_level == src_level || active->dst_level == dst_level) {
      return Status::FailedPrecondition("stream levels overlap an active stream");
    }
  }
  if (l0_boundary > log_->flushed_segments().size()) {
    // The primary flushes every segment below its seal-time boundary before
    // the begin leaves it; a larger one means this replica missed a flush.
    return Status::InvalidArgument("L0 boundary beyond the replicated log");
  }
  auto fresh = std::make_shared<CompactionStream>();
  fresh->id = compaction_id;
  fresh->src_level = src_level;
  fresh->dst_level = dst_level;
  fresh->l0_boundary = l0_boundary;
  fresh->log_table = LogSegmentTable(log_map_, device_->geometry());
  // Same trace id the primary derived for this compaction: epoch and stream
  // ride on every shipped message, so both ends compute it independently.
  fresh->trace = MakeTraceId(region_epoch(), stream);
  streams_[stream] = std::move(fresh);
  counters_.streams_opened->Increment();
  return Status::Ok();
}

Status SendIndexBackupRegion::RewriteSegment(CompactionStream* stream, char* bytes,
                                             size_t size) {
  // Leaf entries point into the value log: translate through the stream's
  // log table (strict — the referenced segment must have been flushed
  // before the compaction began, which the primary guarantees by flushing the
  // tail before compacting). Index children point into other index segments:
  // translate through the stream's index map, reserving a local segment on
  // first sight (forward references).
  uint64_t translated = 0;
  auto log_translate = [stream, &translated](uint64_t offset) {
    StatusOr<uint64_t> local = stream->log_table.Translate(offset);
    translated += local.ok();
    return local;
  };
  auto index_translate = [this, stream, &translated](uint64_t offset) -> StatusOr<uint64_t> {
    TEBIS_ASSIGN_OR_RETURN(
        SegmentId local,
        stream->index_map.GetOrReserve(device_->geometry().SegmentOf(offset),
                                       [this] { return device_->AllocateSegment(); }));
    ++translated;
    return device_->geometry().Translate(offset, local);
  };
  Status status = TranslateNodes(bytes, size, options_.node_size, log_translate, index_translate);
  counters_.offsets_rewritten->Add(translated);
  return status;
}

Status SendIndexBackupRegion::HandleIndexSegment(uint64_t compaction_id,
                                                 SegmentId primary_segment, Slice encoded,
                                                 StreamId stream, uint32_t payload_crc) {
  // Decode into the rewrite's scratch copy and verify the decoded bytes
  // before any pointer is rewritten: a segment mangled in flight must never
  // be installed.
  uint64_t cpu_ns = 0;
  const uint64_t rewrite_start_ns = NowNanos();
  std::string scratch;
  Status verified = [&]() -> Status {
    ScopedCpuTimer timer(&cpu_ns);
    Status decoded =
        DecodeIndexSegment(encoded, options_.node_size, device_->segment_size(), &scratch);
    if (decoded.ok() && Crc32c(scratch.data(), scratch.size()) != payload_crc) {
      decoded = Status::Corruption("decoded bytes fail the wire checksum");
    }
    return decoded;
  }();
  counters_.rewrite_cpu_ns->Add(cpu_ns);
  cpu_ns = 0;
  if (!verified.ok()) {
    counters_.segments_crc_rejected->Increment();
    return Status::Corruption("shipped index segment " + std::to_string(primary_segment) +
                              ": " + verified.ToString());
  }
  std::shared_ptr<CompactionStream> s;
  {
    std::lock_guard<std::shared_mutex> lock(state_mutex_);
    auto it = streams_.find(stream);
    if (it == streams_.end() || it->second->id != compaction_id) {
      return Status::FailedPrecondition("index segment for unknown compaction");
    }
    s = it->second;
  }
  // The rewrite — the CPU-heavy part — runs under the stream's own lock only,
  // so concurrent streams rewrite in parallel.
  std::lock_guard<std::mutex> work(s->mutex);
  if (s->aborted) {
    return Status::FailedPrecondition("stream aborted by promotion");
  }
  Status status = [&]() -> Status {
    ScopedCpuTimer timer(&cpu_ns);
    // Allocate (or claim the reserved) local segment for this primary segment.
    TEBIS_ASSIGN_OR_RETURN(
        SegmentId local,
        s->index_map.GetOrReserve(primary_segment,
                                  [this] { return device_->AllocateSegment(); }));
    // Rewrite the scratch copy, then one large local write.
    TEBIS_RETURN_IF_ERROR(RewriteSegment(s.get(), scratch.data(), scratch.size()));
    TEBIS_RETURN_IF_ERROR(device_->Write(device_->geometry().BaseOffset(local), Slice(scratch),
                                         IoClass::kIndexRewrite));
    // Fingerprint the LOCAL bytes just written: the matching CompactionEnd
    // installs these as the level's checksums, so the backup's read path and
    // scrubber verify exactly what this rewrite produced.
    s->local_crcs[primary_segment] = SegmentChecksum{
        Crc32c(scratch.data(), scratch.size()), static_cast<uint32_t>(scratch.size())};
    return Status::Ok();
  }();
  counters_.rewrite_cpu_ns->Add(cpu_ns);
  if (status.ok()) {
    counters_.segments_rewritten->Increment();
    RecordSpan(*s, "rewrite_segment", rewrite_start_ns, NowNanos(), scratch.size());
  }
  return status;
}

Status SendIndexBackupRegion::HandleFilterBlock(uint64_t compaction_id, Slice bytes,
                                                StreamId stream) {
  std::shared_ptr<CompactionStream> s;
  {
    std::lock_guard<std::shared_mutex> lock(state_mutex_);
    auto it = streams_.find(stream);
    if (it == streams_.end() || it->second->id != compaction_id) {
      auto done = last_completed_.find(stream);
      if (done != last_completed_.end() && done->second == compaction_id) {
        return Status::Ok();  // duplicate delivery: already installed
      }
      return Status::FailedPrecondition("filter block for unknown compaction");
    }
    s = it->second;
  }
  // Validate before staging: the CRC catches fabric corruption here, once,
  // so the read path can probe the installed bytes without re-checksumming.
  BloomFilterView view;
  TEBIS_RETURN_IF_ERROR(BloomFilterView::Parse(bytes, &view));
  std::lock_guard<std::mutex> work(s->mutex);
  if (s->aborted) {
    return Status::FailedPrecondition("stream aborted by promotion");
  }
  s->pending_filter.assign(bytes.data(), bytes.size());
  return Status::Ok();
}

Status SendIndexBackupRegion::FreeTree(const BuiltTree& tree) {
  for (SegmentId seg : tree.segments) {
    TEBIS_RETURN_IF_ERROR(device_->FreeSegment(seg));
  }
  return Status::Ok();
}

Status SendIndexBackupRegion::HandleCompactionEnd(uint64_t compaction_id, int src_level,
                                                  int dst_level, const BuiltTree& primary_tree,
                                                  StreamId stream) {
  std::lock_guard<std::shared_mutex> lock(state_mutex_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    auto done = last_completed_.find(stream);
    if (done != last_completed_.end() && done->second == compaction_id) {
      return Status::Ok();  // duplicate delivery: already installed
    }
    return Status::FailedPrecondition("compaction end for unknown compaction");
  }
  if (it->second->id != compaction_id) {
    return Status::FailedPrecondition("compaction end for unknown compaction");
  }
  std::shared_ptr<CompactionStream> s = it->second;
  // Lock order state_mutex_ -> stream mutex; serializes against a straggling
  // in-flight rewrite on the same stream.
  std::lock_guard<std::mutex> work(s->mutex);
  uint64_t cpu_ns = 0;
  const uint64_t commit_start_ns = NowNanos();
  Status status = [&]() -> Status {
    ScopedCpuTimer timer(&cpu_ns);
    BuiltTree local_tree;
    local_tree.height = primary_tree.height;
    local_tree.num_entries = primary_tree.num_entries;
    local_tree.bytes_written = primary_tree.bytes_written;
    if (!s->pending_filter.empty()) {
      // The primary's exact filter bytes: fingerprints are offset-free, so the
      // block installs verbatim and both replicas answer probes identically.
      local_tree.filter = std::make_shared<const std::string>(std::move(s->pending_filter));
      counters_.filter_blocks_installed->Increment();
    }
    if (!primary_tree.empty()) {
      // Translate the root (§3.3: "each backup translates to the root offset
      // of its storage space using its index map") and the segment list.
      TEBIS_ASSIGN_OR_RETURN(
          SegmentId root_seg,
          s->index_map.Lookup(device_->geometry().SegmentOf(primary_tree.root_offset)));
      local_tree.root_offset = device_->geometry().Translate(primary_tree.root_offset, root_seg);
      for (SegmentId seg : primary_tree.segments) {
        TEBIS_ASSIGN_OR_RETURN(SegmentId local, s->index_map.Lookup(seg));
        local_tree.segments.push_back(local);
      }
      if (primary_tree.segments.size() != s->index_map.size()) {
        return Status::Corruption("reserved index segments never shipped");
      }
    }
    if (primary_tree.seg_checksums.size() != primary_tree.segments.size()) {
      return Status::Corruption("CompactionEnd segment-checksum count mismatch");
    }
    // Install the LOCAL checksums recorded at rewrite time, in the primary's
    // segment order. A rewrite is in place, so each segment keeps the length
    // the primary fingerprinted.
    for (size_t i = 0; i < local_tree.segments.size(); ++i) {
      auto crc = s->local_crcs.find(primary_tree.segments[i]);
      if (crc == s->local_crcs.end()) {
        return Status::Corruption("reserved index segment never rewritten");
      }
      if (crc->second.length != primary_tree.seg_checksums[i].length) {
        return Status::Corruption("rewritten index segment length differs from the primary's");
      }
      local_tree.seg_checksums.push_back(crc->second);
    }
    // Retire inputs exactly like the primary did.
    if (src_level >= 1) {
      TEBIS_RETURN_IF_ERROR(FreeTree(levels_[src_level]));
      levels_[src_level] = BuiltTree{};
      InstallVerifierLocked(src_level);
      origins_[src_level] = LevelOrigin{};
    } else {
      // L0 -> L1 finished: everything below the primary's seal-time
      // boundary is indexed. Segments flushed after the seal hold records of
      // the next memtable and stay in the unindexed suffix.
      replay_from_ = s->l0_boundary;
    }
    TEBIS_RETURN_IF_ERROR(FreeTree(levels_[dst_level]));
    levels_[dst_level] = local_tree;
    InstallVerifierLocked(dst_level);
    PublishQuarantineLocked();  // a replaced quarantined level no longer counts
    // Retain the level's primary-space identity for repair interchange.
    origins_[dst_level] = LevelOrigin{primary_tree.segments, primary_tree.seg_checksums};
    return Status::Ok();
  }();
  counters_.rewrite_cpu_ns->Add(cpu_ns);
  if (status.ok()) {
    RecordSpan(*s, "commit", commit_start_ns, NowNanos());
    streams_.erase(stream);  // the index map is only valid during the compaction
    last_completed_[stream] = compaction_id;
  }
  return status;
}

Status SendIndexBackupRegion::PrepareTrimLocked(size_t segments) {
  if (!streams_.empty()) {
    return Status::FailedPrecondition("trim during active shipping streams");
  }
  replay_from_ = replay_from_ >= segments ? replay_from_ - segments : 0;
  return Status::Ok();
}

StatusOr<std::unique_ptr<KvStore>> SendIndexBackupRegion::ReleaseStore() {
  // Abort every half-shipped stream: free the local segments it allocated and
  // keep the previous (consistent) levels. A rewrite handler still in flight
  // holds its stream's mutex; taking it here makes the abort wait for the
  // rewrite to drain, and the aborted flag fails any later traffic cleanly.
  size_t replay_from;
  {
    std::lock_guard<std::shared_mutex> lock(state_mutex_);
    for (auto& [sid, s] : streams_) {
      std::lock_guard<std::mutex> work(s->mutex);
      s->aborted = true;
      for (const auto& [primary, local] : s->index_map.entries()) {
        TEBIS_RETURN_IF_ERROR(device_->FreeSegment(local));
      }
      counters_.streams_aborted->Increment();
    }
    streams_.clear();
    replay_from = replay_from_;
  }

  std::vector<SegmentId> replay_segments(log_->flushed_segments().begin() +
                                             static_cast<long>(replay_from),
                                         log_->flushed_segments().end());

  TEBIS_ASSIGN_OR_RETURN(std::unique_ptr<KvStore> store,
                         KvStore::CreateFromParts(device_, options_, std::move(log_),
                                                  std::move(levels_)));

  // Rebuild L0: replay flushed segments newer than the last L0 compaction
  // (existing offsets, no re-append).
  for (SegmentId seg : replay_segments) {
    TEBIS_RETURN_IF_ERROR(store->value_log()->ForEachRecordIn(
        seg, IoClass::kRecovery, [&](const LogRecord& rec) {
          return store->ReplayRecord(rec.key, rec.offset, rec.tombstone);
        }));
  }
  return store;
}

// --- replica read path ----------------------------------------------------

Status SendIndexBackupRegion::ForEachUnindexedLocked(
    const std::function<Status(const LogRecord&)>& fn) {
  const std::vector<SegmentId> flushed = log_->FlushedSegmentsSnapshot();
  for (size_t i = replay_from_; i < flushed.size(); ++i) {
    Status status = log_->ForEachRecordIn(flushed[i], IoClass::kLookup, fn);
    if (status.IsCorruption()) {
      counters_.read_corruptions->Increment();
    }
    TEBIS_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

StatusOr<LogRecord> SendIndexBackupRegion::FindUnindexedLocked(Slice key) {
  LogRecord newest;
  bool found = false;
  TEBIS_RETURN_IF_ERROR(ForEachUnindexedLocked([&](const LogRecord& rec) {
    if (Slice(rec.key) == key) {
      newest = rec;
      found = true;
    }
    return Status::Ok();
  }));
  if (!found) {
    return Status::NotFound();
  }
  return newest;
}

StatusOr<std::string> SendIndexBackupRegion::ReadLevelValue(Slice key, uint64_t log_offset) {
  LogRecord rec;
  Status read = log_->ReadIndexedRecord(log_offset, key, &rec, nullptr, IoClass::kLookup);
  if (read.IsCorruption()) {
    counters_.read_corruptions->Increment();
  }
  TEBIS_RETURN_IF_ERROR(read);
  return std::move(rec.value);
}

StatusOr<std::string> SendIndexBackupRegion::GetFromLevelsLocked(Slice key) {
  FullKeyLoader loader = LookupKeyLoader(log_.get(), /*cache=*/nullptr);
  const uint64_t key_hash = KeyHash(key);
  for (uint32_t i = 1; i <= options_.max_levels; ++i) {
    auto found = ProbeLevel(device_, options_.node_size, /*cache=*/nullptr, levels_[i],
                            verifiers_[i].get(), key, key_hash, loader, counters_.filters);
    if (found.ok()) {
      if (found->tombstone()) {
        return Status::NotFound();
      }
      return ReadLevelValue(key, found->log_offset());
    }
    if (!found.status().IsNotFound()) {
      if (found.status().IsCorruption()) {
        counters_.read_corruptions->Increment();
        PublishQuarantineLocked();
      }
      return found.status();
    }
  }
  return Status::NotFound();
}

StatusOr<std::string> SendIndexBackupRegion::GetBelowBufferLocked(Slice key) {
  auto unindexed = FindUnindexedLocked(key);
  if (unindexed.ok()) {
    if (unindexed->tombstone) {
      return Status::NotFound();
    }
    return std::move(unindexed->value);
  }
  if (!unindexed.status().IsNotFound()) {
    return unindexed.status();
  }
  return GetFromLevelsLocked(key);
}

StatusOr<std::vector<KvPair>> SendIndexBackupRegion::ScanBelowBufferLocked(
    std::map<std::string, LogRecord> overlay, Slice start, size_t limit) {
  // The unindexed suffix (oldest first, so later writes win) is older than
  // every buffered record: merge() moves in only the keys the buffer lacks.
  std::map<std::string, LogRecord> unindexed;
  TEBIS_RETURN_IF_ERROR(ForEachUnindexedLocked([&unindexed](const LogRecord& rec) {
    unindexed[rec.key] = rec;
    return Status::Ok();
  }));
  overlay.merge(unindexed);

  std::vector<MergeSource*> sources;
  std::vector<std::unique_ptr<LevelMergeSource>> levels;
  for (uint32_t i = 1; i <= options_.max_levels; ++i) {
    if (levels_[i].empty()) {
      continue;
    }
    auto src = std::make_unique<LevelMergeSource>(device_, options_.node_size, levels_[i],
                                                  log_.get(), verifiers_[i].get(),
                                                  /*cache=*/nullptr, IoClass::kLookup);
    TEBIS_RETURN_IF_ERROR(src->Init(start));
    sources.push_back(src.get());
    levels.push_back(std::move(src));
  }
  return ScanOverOverlay(overlay, start, limit, sources, [this](const MergeEntry& winner) {
    return ReadLevelValue(winner.key, winner.log_offset);
  });
}

StatusOr<std::string> SendIndexBackupRegion::DebugGet(Slice key) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return GetFromLevelsLocked(key);
}

// --- integrity: scrub / online repair ---------------------------------

void SendIndexBackupRegion::InstallVerifierLocked(int level) {
  const BuiltTree& tree = levels_[level];
  verifiers_[level] = std::make_shared<SegmentVerifier>(device_, tree.segments, tree.seg_checksums,
                                                        "L" + std::to_string(level));
}

std::vector<int> SendIndexBackupRegion::QuarantinedLevels() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return QuarantinedLevelsLocked();
}

std::vector<int> SendIndexBackupRegion::QuarantinedLevelsLocked() const {
  std::vector<int> out;
  for (uint32_t i = 1; i <= options_.max_levels; ++i) {
    if (verifiers_[i]->quarantined()) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

void SendIndexBackupRegion::PublishQuarantineLocked() {
  counters_.integrity.quarantined_levels->Set(
      static_cast<int64_t>(QuarantinedLevelsLocked().size()));
}

StatusOr<KvStore::ScrubReport> SendIndexBackupRegion::Scrub(
    const KvStore::ScrubOptions& options) {
  // The verifier snapshot (shared_ptr) outlives the pass; the pin keeps each
  // segment allocated while it is read, since a level install frees the
  // segments of the level it replaces.
  std::vector<std::shared_ptr<SegmentVerifier>> held;
  {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    held = verifiers_;
  }
  std::vector<SegmentVerifier*> verifiers;
  for (const auto& verifier : held) {
    verifiers.push_back(verifier.get());
  }
  return PacedScrub(device_, verifiers, *log_, options, counters_.integrity,
                    [this](int level, const SegmentVerifier* verifier,
                           const std::function<void()>& verify) {
                      std::shared_lock<std::shared_mutex> lock(state_mutex_);
                      if (verifiers_[level].get() != verifier) {
                        return false;
                      }
                      verify();
                      return true;
                    });
}

StatusOr<std::string> SendIndexBackupRegion::ServeRepairFetch(uint32_t level,
                                                              uint64_t seg_index,
                                                              uint32_t* crc_out) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  if (level < 1 || level > options_.max_levels) {
    return Status::InvalidArgument("repair fetch for nonexistent level");
  }
  const BuiltTree& tree = levels_[level];
  const LevelOrigin& origin = origins_[level];
  if (origin.primary_segments.size() != tree.segments.size()) {
    return Status::FailedPrecondition("no primary-space origin retained for level " +
                                      std::to_string(level));
  }
  // Read and self-check the LOCAL bytes first: a corrupt donor must never
  // propagate its rot to the repairing replica.
  TEBIS_ASSIGN_OR_RETURN(std::string bytes,
                         ReadSegmentVerified(device_, tree, static_cast<int>(level), seg_index));
  // Reverse-rewrite back into primary space: invert the log map for leaf
  // offsets, and pair the level's local/primary segment lists for index
  // children (a tree's children only ever point at its own segments).
  TEBIS_ASSIGN_OR_RETURN(SegmentMap inverse_log, log_map_.Invert());
  SegmentMap inverse_index;
  for (size_t j = 0; j < tree.segments.size(); ++j) {
    TEBIS_RETURN_IF_ERROR(inverse_index.Insert(tree.segments[j], origin.primary_segments[j]));
  }
  auto leaf_translate = [&](uint64_t offset) -> StatusOr<uint64_t> {
    TEBIS_ASSIGN_OR_RETURN(SegmentId primary,
                           inverse_log.Lookup(device_->geometry().SegmentOf(offset)));
    return device_->geometry().Translate(offset, primary);
  };
  auto index_translate = [&](uint64_t offset) -> StatusOr<uint64_t> {
    TEBIS_ASSIGN_OR_RETURN(SegmentId primary,
                           inverse_index.Lookup(device_->geometry().SegmentOf(offset)));
    return device_->geometry().Translate(offset, primary);
  };
  TEBIS_RETURN_IF_ERROR(TranslateNodes(bytes.data(), bytes.size(), options_.node_size,
                                       leaf_translate, index_translate));
  // The reconstruction must be bit-identical to what the primary built (§3.3
  // byte identity) — prove it against the retained primary checksum.
  const SegmentChecksum& primary_sum = origin.primary_checksums[seg_index];
  if (!MatchesChecksum(Slice(bytes), primary_sum)) {
    return Status::Corruption("reverse-rewritten repair bytes for segment " +
                              std::to_string(seg_index) + " of L" + std::to_string(level) +
                              " do not match the primary checksum");
  }
  if (crc_out != nullptr) {
    *crc_out = primary_sum.crc;
  }
  counters_.repair_serves->Increment();
  return bytes;
}

Status SendIndexBackupRegion::RepairQuarantinedLevels(const KvStore::SegmentFetcher& fetch) {
  for (uint32_t level = 1; level <= options_.max_levels; ++level) {
    // Collect the level's bad segments under the shared lock, then fetch with
    // NO lock held: the fetcher typically calls into a peer replica, and two
    // replicas repairing from each other must not entangle their state locks
    // (lock-order inversion).
    std::vector<size_t> bad;
    SegmentVerifier* observed = nullptr;
    {
      std::shared_lock<std::shared_mutex> rlock(state_mutex_);
      SegmentVerifier* verifier = verifiers_[level].get();
      if (!verifier->quarantined()) {
        continue;
      }
      if (origins_[level].primary_segments.size() != levels_[level].segments.size()) {
        return Status::FailedPrecondition("no primary-space origin retained for quarantined L" +
                                          std::to_string(level));
      }
      observed = verifier;
      bad = verifier->BadSegments();
    }
    std::vector<std::pair<size_t, std::string>> fetched;
    fetched.reserve(bad.size());
    for (size_t idx : bad) {
      counters_.integrity.repair_fetches->Increment();
      TEBIS_ASSIGN_OR_RETURN(std::string bytes, fetch(static_cast<int>(level), idx));
      fetched.emplace_back(idx, std::move(bytes));
    }

    // Exclusive: repair mutates level bytes the shared-lock read path trusts.
    // A level republished while unlocked carries a fresh verifier — the
    // fetched bytes no longer apply, and the ship already installed verified
    // bytes, so skip them.
    std::lock_guard<std::shared_mutex> lock(state_mutex_);
    SegmentVerifier* verifier = verifiers_[level].get();
    if (verifier != observed) {
      continue;
    }
    const BuiltTree& tree = levels_[level];
    const LevelOrigin& origin = origins_[level];
    // Forward maps, primary -> local: the current log map for leaf offsets
    // (a superset of the shipping-time snapshot — trims only drop segments no
    // level references) and the paired segment lists for index children.
    SegmentMap forward_index;
    for (size_t j = 0; j < tree.segments.size(); ++j) {
      TEBIS_RETURN_IF_ERROR(forward_index.Insert(origin.primary_segments[j], tree.segments[j]));
    }
    auto leaf_translate = [&](uint64_t offset) -> StatusOr<uint64_t> {
      TEBIS_ASSIGN_OR_RETURN(SegmentId local,
                             log_map_.Lookup(device_->geometry().SegmentOf(offset)));
      return device_->geometry().Translate(offset, local);
    };
    auto index_translate = [&](uint64_t offset) -> StatusOr<uint64_t> {
      TEBIS_ASSIGN_OR_RETURN(SegmentId local,
                             forward_index.Lookup(device_->geometry().SegmentOf(offset)));
      return device_->geometry().Translate(offset, local);
    };
    for (auto& [idx, bytes] : fetched) {
      if (!MatchesChecksum(Slice(bytes), origin.primary_checksums[idx])) {
        return Status::Corruption("repair fetch for segment " + std::to_string(idx) + " of L" +
                                  std::to_string(level) +
                                  " returned bytes that fail the expected checksum");
      }
      TEBIS_RETURN_IF_ERROR(TranslateNodes(bytes.data(), bytes.size(), options_.node_size,
                                           leaf_translate, index_translate));
      if (!MatchesChecksum(Slice(bytes), tree.seg_checksums[idx])) {
        return Status::Corruption("rewritten repair bytes for segment " + std::to_string(idx) +
                                  " of L" + std::to_string(level) +
                                  " do not match the local checksum");
      }
      TEBIS_RETURN_IF_ERROR(
          InstallRepairedSegment(device_, /*cache=*/nullptr, verifier, idx, Slice(bytes)));
      counters_.integrity.corruptions_repaired->Increment();
    }
    PublishQuarantineLocked();
  }
  return Status::Ok();
}

}  // namespace tebis
