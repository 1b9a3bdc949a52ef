#include "src/lsm/level_read.h"

#include <chrono>
#include <thread>

#include "src/common/clock.h"
#include "src/lsm/bloom_filter.h"
#include "src/lsm/btree_reader.h"

namespace tebis {

FullKeyLoader LookupKeyLoader(const ValueLog* log, PageCache* cache) {
  return [log, cache](uint64_t off, size_t key_size) -> StatusOr<std::string> {
    std::string key;
    TEBIS_RETURN_IF_ERROR(log->ReadKey(off, key_size, &key, nullptr, cache, IoClass::kLookup));
    return key;
  };
}

StatusOr<LeafEntry> ProbeLevel(BlockDevice* device, size_t node_size, PageCache* cache,
                               const BuiltTree& tree, SegmentVerifier* verifier, Slice key,
                               uint64_t key_hash, const FullKeyLoader& loader,
                               const FilterCounters& counters) {
  if (tree.empty()) {
    return Status::NotFound();
  }
  // Filter gate: skip the level's tree descent entirely on a definite
  // negative. A backup probes the primary's exact filter bytes, so a skip
  // there matches a skip on the primary.
  bool filter_said_maybe = false;
  if (tree.filter != nullptr) {
    BloomFilterView view;
    if (BloomFilterView::Parse(Slice(*tree.filter), &view, /*verify_crc=*/false).ok()) {
      counters.checks->Increment();
      if (!view.MayContainHash(key_hash)) {
        counters.negatives->Increment();
        return Status::NotFound();
      }
      filter_said_maybe = true;
    }
  }
  BTreeReader reader(device, cache, node_size, tree, IoClass::kLookup, verifier);
  StatusOr<LeafEntry> found = reader.Find(key, key_hash, loader);
  if (filter_said_maybe && !found.ok() && found.status().IsNotFound()) {
    counters.false_positives->Increment();
  }
  return found;
}

IntegrityCounters RegisterIntegrityCounters(MetricsRegistry* registry,
                                            const MetricLabels& labels) {
  IntegrityCounters c;
  c.scrub_bytes = registry->GetCounter("integrity.scrub_bytes", labels);
  c.corruptions_found = registry->GetCounter("integrity.corruptions_found", labels);
  c.corruptions_repaired = registry->GetCounter("integrity.corruptions_repaired", labels);
  c.repair_fetches = registry->GetCounter("integrity.repair_fetches", labels);
  c.quarantined_levels = registry->GetGauge("integrity.quarantined_levels", labels);
  return c;
}

StatusOr<ScrubReport> PacedScrub(BlockDevice* device, const std::vector<SegmentVerifier*>& levels,
                                 const ValueLog& log, const ScrubOptions& options,
                                 const IntegrityCounters& counters, const ScrubPin& pin) {
  ScrubReport report;
  const double burst = static_cast<double>(device->segment_size());
  double tokens = burst;
  uint64_t last_refill_ns = NowNanos();
  // Charges `bytes` just read; sleeps off any debt at the configured rate.
  auto read_and_pace = [&](uint64_t bytes) {
    report.bytes_scrubbed += bytes;
    if (options.bytes_per_sec == 0 || bytes == 0) {
      return;
    }
    const uint64_t now = NowNanos();
    tokens += static_cast<double>(now - last_refill_ns) *
              static_cast<double>(options.bytes_per_sec) / 1e9;
    last_refill_ns = now;
    if (tokens > burst) {
      tokens = burst;
    }
    tokens -= static_cast<double>(bytes);
    if (tokens >= 0) {
      return;
    }
    const uint64_t sleep_ns =
        static_cast<uint64_t>(-tokens * 1e9 / static_cast<double>(options.bytes_per_sec));
    std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
    tokens = 0;
  };

  // Levels: force re-verification through each level's shared verifier, so
  // damage that landed after a read cached an ok verdict is still caught.
  for (size_t level = 1; level < levels.size(); ++level) {
    SegmentVerifier* verifier = levels[level];
    const size_t bad_before = verifier->BadSegments().size();
    for (size_t idx = 0; idx < verifier->segments().size(); ++idx) {
      Status checked;
      const auto verify = [&] {
        checked = verifier->VerifySegment(idx, IoClass::kScrub, /*force=*/true);
      };
      if (pin == nullptr) {
        verify();
      } else if (!pin(static_cast<int>(level), verifier, verify)) {
        break;  // replaced mid-scrub: the next pass verifies its successor
      }
      if (!checked.ok() && !checked.IsCorruption()) {
        return checked;  // an I/O failure, not rot — the scrub cannot continue
      }
      read_and_pace(verifier->checksums()[idx].length);
    }
    const size_t bad_after = verifier->BadSegments().size();
    if (bad_after > bad_before) {
      report.corruptions_found += bad_after - bad_before;
    }
    if (verifier->quarantined()) {
      report.quarantined_levels.push_back(static_cast<int>(level));
    }
  }

  // Value log: every flushed segment parses end to end with valid record
  // CRCs. A segment that vanishes mid-scrub (GC trim) is skipped — its
  // liveness already moved to the tail.
  if (options.include_value_log) {
    for (SegmentId seg : log.FlushedSegmentsSnapshot()) {
      uint64_t read = 0;
      Status parsed = log.ForEachRecordIn(
          seg, IoClass::kScrub, [](const LogRecord&) { return Status::Ok(); }, &read);
      read_and_pace(read);  // the sealed prefix the walk read, not the whole segment
      if (parsed.IsCorruption()) {
        report.corruptions_found++;
      }
    }
  }

  counters.scrub_bytes->Add(report.bytes_scrubbed);
  counters.corruptions_found->Add(report.corruptions_found);
  counters.quarantined_levels->Set(static_cast<int64_t>(report.quarantined_levels.size()));
  return report;
}

StatusOr<std::string> ReadSegmentVerified(BlockDevice* device, const BuiltTree& tree, int level,
                                          size_t seg_index) {
  const std::string name = "L" + std::to_string(level);
  if (seg_index >= tree.segments.size()) {
    return Status::InvalidArgument("segment index out of range for " + name);
  }
  std::string bytes;
  TEBIS_ASSIGN_OR_RETURN(bool matched, ReadAndMatch(device, tree.segments[seg_index],
                                                    tree.seg_checksums[seg_index],
                                                    IoClass::kScrub, &bytes));
  if (!matched) {
    return Status::Corruption("repair source segment " + std::to_string(seg_index) + " of " +
                              name + " on device " + device->name() +
                              " fails its own checksum");
  }
  return bytes;
}

Status InstallRepairedSegment(BlockDevice* device, PageCache* cache, SegmentVerifier* verifier,
                              size_t idx, Slice bytes) {
  const SegmentId seg = verifier->segments()[idx];
  TEBIS_RETURN_IF_ERROR(device->Write(device->geometry().BaseOffset(seg), bytes, IoClass::kScrub));
  if (cache != nullptr) {
    cache->InvalidateSegment(seg);  // stale pages may hold the rotten bytes
  }
  verifier->ResetSegment(idx);
  return verifier->VerifySegment(idx, IoClass::kScrub, /*force=*/true);
}

}  // namespace tebis
