// Randomized adversarial tests: malformed wire input must fail cleanly,
// allocators must match reference models, and merge/iteration invariants must
// hold under arbitrary interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/kv_wire.h"
#include "src/cluster/region_map.h"
#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/lsm/bloom_filter.h"
#include "src/lsm/btree_builder.h"
#include "src/lsm/btree_reader.h"
#include "src/lsm/compaction.h"
#include "src/lsm/index_codec.h"
#include "src/lsm/manifest.h"
#include "src/lsm/value_log.h"
#include "src/net/message.h"
#include "src/net/ring_allocator.h"
#include "src/replication/replication_wire.h"
#include "src/storage/block_device.h"

namespace tebis {
namespace {

std::unique_ptr<BlockDevice> MakeDevice() {
  BlockDeviceOptions opts;
  opts.segment_size = 1 << 16;
  opts.max_segments = 1 << 16;
  auto dev = BlockDevice::Create(opts);
  EXPECT_TRUE(dev.ok());
  return std::move(*dev);
}

// --- wire decoders never crash or over-read on garbage -------------------------

class WireFuzzTest : public testing::TestWithParam<uint64_t> {};

constexpr MessageType kReplicationTypes[] = {
    MessageType::kFlushLog,    MessageType::kCompactionBegin, MessageType::kIndexSegment,
    MessageType::kFilterBlock, MessageType::kCompactionEnd,   MessageType::kLogTrim,
    MessageType::kSetReplayStart,
};

// One random instance of every ReplicationMessage alternative; `data` backs
// the payload slices.
std::vector<ReplicationMessage> RandomReplicationMessages(Random* rng, const std::string& data) {
  const auto u32 = [rng] { return static_cast<uint32_t>(rng->Next()); };
  BuiltTree tree;
  tree.root_offset = rng->Next();
  tree.height = static_cast<uint16_t>(1 + rng->Uniform(4));
  tree.num_entries = rng->Uniform(1000);
  tree.bytes_written = rng->Next();
  // One checksum per segment, as every tree carries.
  for (uint64_t i = 0, n = rng->Uniform(6); i < n; ++i) {
    tree.segments.push_back(rng->Next());
    tree.seg_checksums.push_back({u32(), static_cast<uint32_t>(1 + rng->Uniform(1 << 16))});
  }
  return {
      FlushLogMsg{rng->Next(), rng->Next(), rng->Next(), rng->Next()},
      CompactionBeginMsg{rng->Next(), rng->Next(), u32(), u32(), u32(), rng->Next()},
      IndexSegmentMsg{rng->Next(), rng->Next(), u32(), u32(), rng->Next(), Slice(data), u32(),
                      Crc32c(data.data(), data.size())},
      FilterBlockMsg{rng->Next(), rng->Next(), u32(), Slice(data), u32()},
      CompactionEndMsg{rng->Next(), rng->Next(), u32(), u32(), tree, u32()},
      TrimLogMsg{rng->Next(), u32()},
      SetReplayStartMsg{rng->Next(), rng->Next()},
  };
}

TEST_P(WireFuzzTest, RandomBytesFailCleanly) {
  Random rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    std::string junk = rng.Bytes(rng.Uniform(200));
    // Each decoder either succeeds (fine — random bytes can be valid) or
    // returns an error. Either way: no crash, no UB.
    Slice key, value, start;
    uint32_t limit;
    (void)DecodePutRequest(junk, &key, &value);
    (void)DecodeKeyRequest(junk, &key);
    (void)DecodeScanRequest(junk, &start, &limit);
    std::vector<KvPair> pairs;
    (void)DecodeScanReply(junk, &pairs);
    for (MessageType type : kReplicationTypes) {
      (void)DecodeReplicationMessage(type, junk);
    }
    RepairFetchMsg fetch;
    (void)DecodeRepairFetch(junk, &fetch);
    RepairSegmentMsg repair;
    (void)DecodeRepairSegment(junk, &repair);
    std::string segment;
    (void)DecodeIndexSegment(junk, kDefaultNodeSize, 1 << 16, &segment);
    BloomFilterView view;
    (void)BloomFilterView::Parse(junk, &view);
    (void)RegionMap::Deserialize(junk);
    std::vector<KvBatchOp> batch_ops;
    (void)DecodeKvBatchRequest(junk, &batch_ops);
    std::vector<KvBatchOpStatus> batch_statuses;
    uint64_t epoch, seq;
    (void)DecodeKvBatchReply(junk, &batch_statuses, &epoch, &seq);
  }
}

// --- trailing trace-id wire field (PR 10) --------------------------------------

// The optional [tag][u64] suffix must never turn damage into a crash or a
// misparse: truncating or corrupting it degrades the frame to "unsampled"
// (trace == kNoTrace) with every payload field before it intact, and frames
// encoded without a trace are byte-identical to the pre-tracing format.
TEST_P(WireFuzzTest, TraceFieldDamageDegradesToUnsampled) {
  Random rng(GetParam() + 900);
  for (int i = 0; i < 500; ++i) {
    const std::string key_bytes = rng.Bytes(1 + rng.Uniform(40));
    const std::string value_bytes = rng.Bytes(rng.Uniform(200));
    const TraceId trace = MakeRequestTraceId(rng.Uniform(1 << 15), rng.Uniform(1 << 20));

    // Unsampled frames carry no suffix at all.
    const std::string bare = EncodePutRequest(key_bytes, value_bytes);
    ASSERT_EQ(bare, EncodePutRequest(key_bytes, value_bytes, kNoTrace));
    const std::string tagged = EncodePutRequest(key_bytes, value_bytes, trace);
    ASSERT_EQ(tagged.size(), bare.size() + 9);

    // Intact frame round-trips the id.
    Slice key, value;
    TraceId decoded = kNoTrace;
    ASSERT_TRUE(DecodePutRequest(tagged, &key, &value, &decoded).ok());
    ASSERT_EQ(decoded, trace);

    // Truncate anywhere inside the suffix: decode still succeeds, reads as
    // unsampled, and the payload fields are untouched.
    const size_t cut = 1 + rng.Uniform(9);
    decoded = trace;
    ASSERT_TRUE(DecodePutRequest(Slice(tagged.data(), tagged.size() - cut), &key, &value,
                                 &decoded)
                    .ok());
    EXPECT_EQ(decoded, kNoTrace);
    EXPECT_EQ(key.ToString(), key_bytes);
    EXPECT_EQ(value.ToString(), value_bytes);

    // Corrupt one byte of the suffix: a flipped tag reads as unsampled, a
    // flipped id byte reads as a different id — either way decode succeeds
    // and the payload survives.
    std::string corrupt = tagged;
    const size_t victim = bare.size() + rng.Uniform(9);
    corrupt[victim] = static_cast<char>(corrupt[victim] ^ (1 + rng.Uniform(255)));
    ASSERT_TRUE(DecodePutRequest(corrupt, &key, &value, &decoded).ok());
    EXPECT_EQ(key.ToString(), key_bytes);
    if (static_cast<uint8_t>(corrupt[bare.size()]) != kTraceFieldTag) {
      EXPECT_EQ(decoded, kNoTrace);
    }

    // Callers that never ask for the trace still accept tagged frames.
    ASSERT_TRUE(DecodePutRequest(tagged, &key, &value).ok());
    EXPECT_EQ(value.ToString(), value_bytes);
  }
}

TEST_P(WireFuzzTest, TraceFieldRoundTripsOnEveryRequestKind) {
  Random rng(GetParam() + 950);
  for (int i = 0; i < 300; ++i) {
    const TraceId trace = MakeRequestTraceId(rng.Uniform(1 << 15), rng.Uniform(1 << 20));
    const std::string key_bytes = rng.Bytes(1 + rng.Uniform(40));

    Slice key, start;
    uint32_t limit;
    TraceId decoded;

    decoded = kNoTrace;
    const std::string key_frame = EncodeKeyRequest(key_bytes, trace);
    ASSERT_TRUE(DecodeKeyRequest(key_frame, &key, &decoded).ok());
    EXPECT_EQ(decoded, trace);
    EXPECT_EQ(key.ToString(), key_bytes);
    EXPECT_EQ(EncodeKeyRequest(key_bytes), EncodeKeyRequest(key_bytes, kNoTrace));

    decoded = kNoTrace;
    const uint32_t want_limit = 1 + rng.Uniform(100);
    const std::string scan_frame = EncodeScanRequest(key_bytes, want_limit, trace);
    ASSERT_TRUE(DecodeScanRequest(scan_frame, &start, &limit, &decoded).ok());
    EXPECT_EQ(decoded, trace);
    EXPECT_EQ(limit, want_limit);
    EXPECT_EQ(EncodeScanRequest(key_bytes, want_limit),
              EncodeScanRequest(key_bytes, want_limit, kNoTrace));

    std::vector<std::pair<std::string, std::string>> backing;
    const size_t n = 1 + rng.Uniform(8);
    for (size_t k = 0; k < n; ++k) {
      backing.emplace_back(rng.Bytes(1 + rng.Uniform(20)), rng.Bytes(rng.Uniform(60)));
    }
    std::vector<KvBatchOp> ops;
    for (size_t k = 0; k < n; ++k) {
      ops.push_back(
          KvBatchOp{rng.Uniform(4) == 0, Slice(backing[k].first), Slice(backing[k].second)});
    }
    const std::string batch = EncodeKvBatchRequest(ops, trace);
    std::vector<KvBatchOp> out;
    decoded = kNoTrace;
    ASSERT_TRUE(DecodeKvBatchRequest(batch, &out, &decoded).ok());
    EXPECT_EQ(decoded, trace);
    ASSERT_EQ(out.size(), n);
    EXPECT_EQ(EncodeKvBatchRequest(ops), EncodeKvBatchRequest(ops, kNoTrace));

    // A torn batch frame still fails outright even when a trace suffix is
    // present — the suffix never excuses missing ops.
    const size_t cut = 10 + rng.Uniform(batch.size() - 10);
    if (cut < batch.size() - 9) {
      out.clear();
      EXPECT_FALSE(DecodeKvBatchRequest(Slice(batch.data(), cut), &out).ok());
    }
  }
}

// --- batched kv frames (PR 9) round-trip and reject damage ---------------------

TEST_P(WireFuzzTest, KvBatchRequestRoundTrips) {
  Random rng(GetParam() + 600);
  for (int i = 0; i < 300; ++i) {
    // Own the backing bytes for the encode's Slices.
    std::vector<std::pair<std::string, std::string>> backing;
    const size_t n = 1 + rng.Uniform(24);
    for (size_t k = 0; k < n; ++k) {
      backing.emplace_back(rng.Bytes(1 + rng.Uniform(40)), rng.Bytes(rng.Uniform(300)));
    }
    std::vector<KvBatchOp> ops;
    for (size_t k = 0; k < n; ++k) {
      ops.push_back(KvBatchOp{rng.Uniform(4) == 0, Slice(backing[k].first),
                              Slice(backing[k].second)});
    }
    const std::string encoded = EncodeKvBatchRequest(ops);
    std::vector<KvBatchOp> out;
    ASSERT_TRUE(DecodeKvBatchRequest(encoded, &out).ok());
    ASSERT_EQ(out.size(), ops.size());
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(out[k].tombstone, ops[k].tombstone);
      EXPECT_EQ(out[k].key.ToString(), backing[k].first);
      if (!ops[k].tombstone) {
        EXPECT_EQ(out[k].value.ToString(), backing[k].second);
      }
    }
    // Any strict prefix (a torn frame) must fail, never yield a short batch.
    const size_t cut = rng.Uniform(encoded.size());
    out.clear();
    EXPECT_FALSE(DecodeKvBatchRequest(Slice(encoded.data(), cut), &out).ok());
  }
}

TEST_P(WireFuzzTest, KvBatchReplyRoundTripsAndTruncationFails) {
  Random rng(GetParam() + 700);
  for (int i = 0; i < 300; ++i) {
    const size_t n = 1 + rng.Uniform(24);
    std::vector<KvBatchOpStatus> statuses;
    for (size_t k = 0; k < n; ++k) {
      KvBatchOpStatus s;
      if (rng.Uniform(3) == 0) {
        s.code = 1 + rng.Uniform(10);
        s.message = rng.Bytes(rng.Uniform(60));
      }
      statuses.push_back(std::move(s));
    }
    const uint64_t epoch = rng.Next();
    const uint64_t seq = rng.Next();
    const std::string encoded = EncodeKvBatchReply(statuses, epoch, seq);
    std::vector<KvBatchOpStatus> out;
    uint64_t out_epoch = 0, out_seq = 0;
    ASSERT_TRUE(DecodeKvBatchReply(encoded, &out, &out_epoch, &out_seq).ok());
    ASSERT_EQ(out.size(), statuses.size());
    EXPECT_EQ(out_epoch, epoch);
    EXPECT_EQ(out_seq, seq);
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(out[k].code, statuses[k].code);
      EXPECT_EQ(out[k].message, statuses[k].message);
    }
    const size_t cut = rng.Uniform(encoded.size());
    out.clear();
    EXPECT_FALSE(DecodeKvBatchReply(Slice(encoded.data(), cut), &out, &out_epoch, &out_seq).ok());
  }
}

TEST_P(WireFuzzTest, CorruptKvBatchFramesNeverMisparse) {
  // Flipped bytes in a valid batch frame either fail to decode or still
  // decode into a structurally bounded batch (framing lengths keep every
  // slice inside the payload) — never a crash or over-read.
  Random rng(GetParam() + 800);
  std::vector<std::pair<std::string, std::string>> backing;
  for (int k = 0; k < 8; ++k) {
    backing.emplace_back("key" + std::to_string(k), rng.Bytes(64));
  }
  std::vector<KvBatchOp> ops;
  for (auto& [key, value] : backing) {
    ops.push_back(KvBatchOp{false, Slice(key), Slice(value)});
  }
  const std::string encoded = EncodeKvBatchRequest(ops);
  for (int i = 0; i < 500; ++i) {
    std::string corrupt = encoded;
    corrupt[rng.Uniform(corrupt.size())] ^= static_cast<char>(1 + rng.Uniform(255));
    std::vector<KvBatchOp> out;
    if (DecodeKvBatchRequest(corrupt, &out).ok()) {
      for (const KvBatchOp& op : out) {
        // Every decoded slice must lie inside the corrupt buffer.
        EXPECT_GE(op.key.data(), corrupt.data());
        EXPECT_LE(op.key.data() + op.key.size(), corrupt.data() + corrupt.size());
        EXPECT_GE(op.value.data(), corrupt.data());
        EXPECT_LE(op.value.data() + op.value.size(), corrupt.data() + corrupt.size());
      }
    }
  }
}

TEST_P(WireFuzzTest, TruncatedValidMessagesFail) {
  Random rng(GetParam() + 100);
  for (int i = 0; i < 100; ++i) {
    const std::string data = rng.Bytes(rng.Uniform(64));
    for (const ReplicationMessage& msg : RandomReplicationMessages(&rng, data)) {
      const MessageType type = ReplicationMessageType(msg);
      const std::string encoded = EncodeReplicationMessage(msg);
      ASSERT_TRUE(DecodeReplicationMessage(type, encoded).ok()) << MessageTypeName(type);
      // Every field is on the wire, so every strict prefix must fail.
      for (size_t cut = 0; cut < encoded.size(); ++cut) {
        EXPECT_FALSE(DecodeReplicationMessage(type, Slice(encoded.data(), cut)).ok())
            << MessageTypeName(type) << " decoded from a " << cut << "-byte prefix";
      }
    }
  }
}

TEST_P(WireFuzzTest, TruncatedRepairMessagesFail) {
  Random rng(GetParam() + 400);
  for (int i = 0; i < 500; ++i) {
    RepairFetchMsg fetch{};
    fetch.epoch = 1 + rng.Uniform(1u << 20);
    fetch.level = 1 + rng.Uniform(7);
    fetch.seg_index = rng.Uniform(64);
    std::string encoded = EncodeRepairFetch(fetch);
    RepairFetchMsg fetch_out{};
    EXPECT_FALSE(
        DecodeRepairFetch(Slice(encoded.data(), rng.Uniform(encoded.size())), &fetch_out).ok());

    RepairSegmentMsg seg{};
    seg.epoch = fetch.epoch;
    seg.level = fetch.level;
    seg.seg_index = fetch.seg_index;
    std::string payload = rng.Bytes(1 + rng.Uniform(300));
    seg.crc = Crc32c(payload.data(), payload.size());
    seg.data = payload;
    encoded = EncodeRepairSegment(seg);
    RepairSegmentMsg seg_out{};
    EXPECT_FALSE(
        DecodeRepairSegment(Slice(encoded.data(), rng.Uniform(encoded.size())), &seg_out).ok());
  }
}

TEST_P(WireFuzzTest, CorruptedRepairSegmentsFailCrcVerification) {
  // Bit flips anywhere in an encoded RepairSegment either break the framing
  // (decode fails) or surface as a CRC mismatch the requester checks before
  // installing the bytes — corrupt repair data never installs silently.
  Random rng(GetParam() + 500);
  RepairSegmentMsg msg{};
  msg.epoch = 7;
  msg.level = 2;
  msg.seg_index = 3;
  std::string payload = rng.Bytes(4096);
  msg.crc = Crc32c(payload.data(), payload.size());
  msg.data = payload;
  const std::string encoded = EncodeRepairSegment(msg);
  for (int i = 0; i < 300; ++i) {
    std::string corrupt = encoded;
    corrupt[rng.Uniform(corrupt.size())] ^= static_cast<char>(1 << rng.Uniform(8));
    RepairSegmentMsg out{};
    Status s = DecodeRepairSegment(corrupt, &out);
    if (!s.ok()) continue;
    const bool fields_intact = out.epoch == msg.epoch && out.level == msg.level &&
                               out.seg_index == msg.seg_index;
    const uint32_t actual = Crc32c(out.data.data(), out.data.size());
    // The flip landed somewhere: either a header field changed (the repair
    // path cross-checks those against the request) or the data/crc disagree.
    EXPECT_TRUE(!fields_intact || actual != out.crc);
  }
}

TEST_P(WireFuzzTest, TruncatedFilterBlocksFail) {
  Random rng(GetParam() + 200);
  for (int i = 0; i < 500; ++i) {
    FilterBlockMsg msg{};
    msg.epoch = rng.Next();
    msg.compaction_id = rng.Next();
    msg.dst_level = 1 + rng.Uniform(7);
    msg.stream_id = rng.Uniform(8);
    std::string payload = rng.Bytes(1 + rng.Uniform(300));
    msg.data = payload;
    std::string encoded = EncodeReplicationMessage(msg);
    const size_t cut = rng.Uniform(encoded.size());
    EXPECT_FALSE(
        DecodeReplicationMessage(MessageType::kFilterBlock, Slice(encoded.data(), cut)).ok());
  }
}

TEST_P(WireFuzzTest, CorruptedFilterBlocksFailCrc) {
  // A valid serialized filter with any single bit flipped must be rejected by
  // the install-time CRC check — shipped filter bytes are trusted afterwards.
  Random rng(GetParam() + 300);
  BloomFilterBuilder builder;
  for (int i = 0; i < 500; ++i) {
    builder.AddKey(rng.Bytes(8 + rng.Uniform(24)));
  }
  const std::string block = builder.Finish();
  BloomFilterView view;
  ASSERT_TRUE(BloomFilterView::Parse(block, &view).ok());
  for (int i = 0; i < 300; ++i) {
    std::string corrupt = block;
    corrupt[rng.Uniform(corrupt.size())] ^= static_cast<char>(1 << rng.Uniform(8));
    EXPECT_FALSE(BloomFilterView::Parse(corrupt, &view).ok());
  }
}

// --- shipped index segments: the decoder never trusts the wire -----------------

constexpr size_t kFuzzNodeSize = 512;
constexpr size_t kFuzzSegmentSize = 1 << 16;

// Index segments a builder emits over random keys (inline, tied long
// prefixes, tombstones), plus one holding every node kind the codec tells
// apart: canonical, raw, zero and a short trailing node.
std::vector<std::string> FuzzIndexSegments(Random* rng) {
  struct Sink : SegmentSink {
    void OnSegmentComplete(int, SegmentId, Slice bytes, uint32_t) override {
      segments.push_back(bytes.ToString());
    }
    std::vector<std::string> segments;
  } sink;
  const std::string pools[] = {"", "user", "tenant-0042/ob/"};
  std::set<std::string> keys;
  while (keys.size() < 200) {
    std::string key = pools[rng->Uniform(3)] + std::to_string(rng->Uniform(1000000));
    key += rng->Bytes(rng->Uniform(8));
    keys.insert(key.substr(0, kMaxKeySize));
  }
  auto dev = MakeDevice();
  BTreeBuilder builder(dev.get(), kFuzzNodeSize, IoClass::kCompactionWrite, &sink);
  for (const std::string& key : keys) {
    EXPECT_TRUE(builder.Add(key, rng->Uniform(1ull << 40), rng->OneIn(4)).ok());
  }
  EXPECT_TRUE(builder.Finish().ok());
  std::string odd_leaf = sink.segments.front().substr(0, kFuzzNodeSize);
  odd_leaf.back() = '\x5a';
  sink.segments.push_back(sink.segments.front().substr(0, kFuzzNodeSize) + odd_leaf +
                          std::string(kFuzzNodeSize, '\0') + rng->Bytes(37));
  return std::move(sink.segments);
}

// Damaged wire bytes either fail with Corruption or decode, within the
// segment bound, to bytes whose CRC is not the payload's.
void ExpectRejectedOrCrcMismatch(Slice wire, uint32_t payload_crc) {
  std::string out;
  const Status s = DecodeIndexSegment(wire, kFuzzNodeSize, kFuzzSegmentSize, &out);
  if (!s.ok()) {
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    return;
  }
  EXPECT_LE(out.size(), kFuzzSegmentSize);
  EXPECT_NE(Crc32c(out.data(), out.size()), payload_crc);
}

TEST_P(WireFuzzTest, IndexSegmentDecoderRejectsRandomBytes) {
  Random rng(GetParam() + 1100);
  const std::vector<std::string> segments = FuzzIndexSegments(&rng);
  const uint32_t crc = Crc32c(segments[0].data(), segments[0].size());
  for (int i = 0; i < 2000; ++i) {
    std::string junk = rng.Bytes(rng.Uniform(300));
    if (rng.OneIn(2)) {
      // A plausible size and a leaf or index tag reach the node decoders.
      const char head[] = {'\x80', static_cast<char>(1 + rng.Uniform(8)),
                           static_cast<char>(2 + rng.Uniform(2))};
      junk.insert(0, head, sizeof(head));
    }
    ExpectRejectedOrCrcMismatch(junk, crc);
  }
}

TEST_P(WireFuzzTest, IndexSegmentDecoderRejectsEveryTruncation) {
  Random rng(GetParam() + 1200);
  for (const std::string& segment : FuzzIndexSegments(&rng)) {
    const std::string wire = EncodeIndexSegment(segment, kFuzzNodeSize);
    std::string out;
    ASSERT_TRUE(DecodeIndexSegment(wire, kFuzzNodeSize, kFuzzSegmentSize, &out).ok());
    ASSERT_TRUE(out == segment);
    // The decoder consumes every byte of a valid encoding, so every strict
    // prefix runs out of input.
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      const Status s =
          DecodeIndexSegment(Slice(wire.data(), cut), kFuzzNodeSize, kFuzzSegmentSize, &out);
      EXPECT_TRUE(s.IsCorruption()) << cut << "-byte prefix: " << s.ToString();
    }
  }
}

TEST_P(WireFuzzTest, IndexSegmentDecoderRejectsSingleByteFlips) {
  Random rng(GetParam() + 1300);
  for (const std::string& segment : FuzzIndexSegments(&rng)) {
    const std::string wire = EncodeIndexSegment(segment, kFuzzNodeSize);
    const uint32_t crc = Crc32c(segment.data(), segment.size());
    for (size_t pos = 0; pos < wire.size(); ++pos) {
      std::string corrupt = wire;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 + rng.Uniform(255)));
      ExpectRejectedOrCrcMismatch(corrupt, crc);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, testing::Values(1, 2, 3));

// --- checksummed manifests reject damage, never misparse -----------------------

TEST(ManifestFuzzTest, CorruptedV4ManifestsAreRejected) {
  Random rng(77);
  Manifest m;
  m.levels.resize(3);
  for (uint32_t lvl = 1; lvl < 3; ++lvl) {
    BuiltTree& tree = m.levels[lvl];
    tree.root_offset = rng.Next();
    tree.height = 2;
    tree.num_entries = rng.Uniform(5000);
    for (int s = 0; s < 4; ++s) {
      tree.segments.push_back(rng.Uniform(1 << 12));
      tree.seg_checksums.push_back(
          {static_cast<uint32_t>(rng.Next()), static_cast<uint32_t>(1 + rng.Uniform(1 << 16))});
    }
  }
  m.log_flushed_segments = {9, 10, 11};
  m.l0_replay_from = 1;
  const std::string encoded = m.Encode();

  auto intact = Manifest::Decode(encoded);
  ASSERT_TRUE(intact.ok());
  ASSERT_EQ(intact->levels[1].seg_checksums.size(), 4u);

  // Single-bit damage anywhere must be caught by the manifest CRC.
  for (int i = 0; i < 500; ++i) {
    std::string corrupt = encoded;
    corrupt[rng.Uniform(corrupt.size())] ^= static_cast<char>(1 << rng.Uniform(8));
    EXPECT_FALSE(Manifest::Decode(corrupt).ok());
  }
  // So must any strict prefix (torn checkpoint write).
  for (int i = 0; i < 300; ++i) {
    EXPECT_FALSE(Manifest::Decode(Slice(encoded.data(), rng.Uniform(encoded.size()))).ok());
  }
  // And random garbage never crashes the decoder.
  for (int i = 0; i < 500; ++i) {
    (void)Manifest::Decode(rng.Bytes(rng.Uniform(400)));
  }
}

// --- corrupted log segments are rejected, not misparsed --------------------------

TEST(LogFuzzTest, CorruptedSegmentImagesFailCleanly) {
  auto dev = MakeDevice();
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  Random rng(7);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*log)->Append("key" + std::to_string(i), rng.Bytes(rng.Uniform(100)), false)
                    .ok());
  }
  ASSERT_TRUE((*log)->FlushTail().ok());
  std::string image(1 << 16, 0);
  uint64_t base = dev->geometry().BaseOffset((*log)->flushed_segments()[0]);
  ASSERT_TRUE(dev->Read(base, image.size(), image.data(), IoClass::kOther).ok());

  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = image;
    // Flip a handful of random bytes.
    for (int f = 0; f < 3; ++f) {
      corrupted[rng.Uniform(corrupted.size())] ^= static_cast<char>(1 + rng.Uniform(255));
    }
    int records = 0;
    Status s = ValueLog::ForEachRecord(corrupted, base, [&](const LogRecord& rec) {
      records++;
      return Status::Ok();
    });
    // Either the walk stops cleanly at the corruption (error) or the flips
    // hit padding/values whose CRC still covers them... any record that WAS
    // delivered must have had a valid CRC, so we only check no crash and
    // bounded output.
    EXPECT_LE(records, 200);
    (void)s;
  }
}

// --- ring allocator vs reference model -------------------------------------------

TEST(RingFuzzTest, MatchesReferenceModel) {
  // Model: the ring is correct iff (a) all live regions are disjoint,
  // (b) allocations advance strictly sequentially mod capacity, (c) a filler
  // is demanded exactly when the tail gap cannot fit the request.
  constexpr size_t kCapacity = 8192;
  Random rng(13);
  for (int round = 0; round < 20; ++round) {
    RingAllocator ring(kCapacity);
    std::deque<std::pair<size_t, size_t>> live;  // offset, size
    size_t expected_next = 0;
    for (int op = 0; op < 3000; ++op) {
      if (live.size() < 12 && rng.Uniform(3) != 0) {
        const size_t n = 128 * (1 + rng.Uniform(6));
        auto a = ring.Allocate(n);
        if (a.status == RingAllocator::AllocStatus::kNeedWrap) {
          ASSERT_EQ(a.tail_gap, kCapacity - expected_next);
          auto filler = ring.Allocate(a.tail_gap);
          ASSERT_EQ(filler.status, RingAllocator::AllocStatus::kOk);
          ASSERT_EQ(filler.offset, expected_next);
          live.emplace_back(filler.offset, a.tail_gap);
          expected_next = 0;
          a = ring.Allocate(n);
        }
        if (a.status == RingAllocator::AllocStatus::kOk) {
          ASSERT_EQ(a.offset, expected_next) << "allocation must be sequential";
          // Disjointness with every live region.
          for (const auto& [off, size] : live) {
            const bool overlap = a.offset < off + size && off < a.offset + n;
            ASSERT_FALSE(overlap) << "overlap at " << a.offset;
          }
          live.emplace_back(a.offset, n);
          expected_next = (a.offset + n) % kCapacity;
        }
      } else if (!live.empty()) {
        const size_t idx = rng.Uniform(live.size());
        ring.Free(live[idx].first);
        live.erase(live.begin() + static_cast<long>(idx));
      }
    }
  }
}

// --- merge invariants under many random sources ----------------------------------

TEST(MergeFuzzTest, KWayMergeKeepsNewestAndSorts) {
  Random rng(21);
  for (int round = 0; round < 10; ++round) {
    // Build 2-5 memtables, newest first; track the expected winner per key.
    const int num_sources = 2 + static_cast<int>(rng.Uniform(4));
    std::vector<std::unique_ptr<Memtable>> tables;
    std::map<std::string, uint64_t> expected;
    for (int s = 0; s < num_sources; ++s) {
      tables.push_back(std::make_unique<Memtable>());
      for (int i = 0; i < 300; ++i) {
        char key[32];
        snprintf(key, sizeof(key), "k%06llu", (unsigned long long)rng.Uniform(500));
        const uint64_t offset = (static_cast<uint64_t>(s) << 32) | rng.Uniform(1 << 20);
        tables[s]->Put(key, ValueLocation{offset, false});
        // Newest source (lowest index) wins: only record if no newer source
        // already claimed this key.
        ValueLocation probe;
        bool newer_has_it = false;
        for (int t = 0; t < s; ++t) {
          if (tables[t]->Get(key, &probe)) {
            newer_has_it = true;
            break;
          }
        }
        if (!newer_has_it) {
          // The LAST put of this source for this key wins within the source.
          expected[key] = offset;
        }
      }
    }
    auto dev = MakeDevice();
    BTreeBuilder builder(dev.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
    std::vector<std::unique_ptr<MemtableMergeSource>> sources;
    std::vector<MergeSource*> raw;
    for (auto& table : tables) {
      sources.push_back(std::make_unique<MemtableMergeSource>(table.get()));
      raw.push_back(sources.back().get());
    }
    auto written = MergeSources(raw, false, &builder);
    ASSERT_TRUE(written.ok());
    EXPECT_EQ(*written, expected.size());
    auto tree = builder.Finish();
    ASSERT_TRUE(tree.ok());
    // Iterate: sorted, and every entry matches the expected winner.
    BTreeReader reader(dev.get(), nullptr, kDefaultNodeSize, *tree, IoClass::kLookup);
    BTreeIterator it(&reader);
    ASSERT_TRUE(it.SeekToFirst().ok());
    auto want = expected.begin();
    while (it.Valid()) {
      ASSERT_NE(want, expected.end());
      EXPECT_EQ(it.entry().log_offset(), want->second) << want->first;
      ++want;
      ASSERT_TRUE(it.Next().ok());
    }
    EXPECT_EQ(want, expected.end());
  }
}

// --- message header detection never fires on random garbage ---------------------

TEST(MessageFuzzTest, GarbageRarelyDecodesAndNeverCrashes) {
  Random rng(31);
  std::vector<char> buf(4096);
  int detections = 0;
  for (int i = 0; i < 5000; ++i) {
    for (auto& b : buf) {
      b = static_cast<char>(rng.Next());
    }
    MessageHeader header;
    if (TryDecodeHeader(buf.data(), &header)) {
      detections++;  // needs the exact 32-bit magic: ~1 in 4 billion
      (void)PayloadComplete(buf.data(), header);
    }
  }
  EXPECT_LE(detections, 1);
}

}  // namespace
}  // namespace tebis
