#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/net/fabric.h"
#include "src/net/message.h"
#include "src/net/ring_allocator.h"
#include "src/net/rpc_client.h"
#include "src/net/server_endpoint.h"
#include "src/net/wire.h"
#include "src/net/worker_pool.h"

namespace tebis {
namespace {

// --- message format -------------------------------------------------------

TEST(MessageTest, HeaderIs128Bytes) {
  EXPECT_EQ(sizeof(MessageHeader), kMessageHeaderSize);
}

TEST(MessageTest, PaddedPayloadRules) {
  // Non-empty payloads round up to header multiples with room for the end
  // rendezvous.
  EXPECT_EQ(PaddedPayloadSize(1, false), 128u);
  EXPECT_EQ(PaddedPayloadSize(124, false), 128u);
  EXPECT_EQ(PaddedPayloadSize(125, false), 256u);  // 125+4 > 128
  EXPECT_EQ(PaddedPayloadSize(128, false), 256u);
  // Empty payloads: minimum one block for KV messages (256 B min message),
  // zero for NOOP fillers.
  EXPECT_EQ(PaddedPayloadSize(0, false), 128u);
  EXPECT_EQ(PaddedPayloadSize(0, true), 0u);
}

TEST(MessageTest, EncodeDecodeRoundTrip) {
  std::string payload = "the payload bytes";
  MessageHeader h{};
  h.payload_size = static_cast<uint32_t>(payload.size());
  h.padded_payload_size = static_cast<uint32_t>(PaddedPayloadSize(payload.size(), false));
  h.type = static_cast<uint16_t>(MessageType::kPut);
  h.region_id = 7;
  h.request_id = 42;
  h.reply_offset = 4096;
  h.reply_alloc_size = 256;

  std::vector<char> buf(MessageWireSize(h.padded_payload_size), 0);
  MessageHeader out;
  EXPECT_FALSE(TryDecodeHeader(buf.data(), &out));  // nothing there yet
  EncodeMessage(buf.data(), h, payload);
  ASSERT_TRUE(TryDecodeHeader(buf.data(), &out));
  ASSERT_TRUE(PayloadComplete(buf.data(), out));
  EXPECT_EQ(out.payload_size, payload.size());
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.region_id, 7u);
  EXPECT_EQ(std::string(buf.data() + kMessageHeaderSize, out.payload_size), payload);
}

TEST(MessageTest, ScrubPreventsRedetection) {
  MessageHeader h{};
  h.payload_size = 0;
  h.padded_payload_size = 128;
  h.type = static_cast<uint16_t>(MessageType::kPutReply);
  std::vector<char> buf(MessageWireSize(h.padded_payload_size), 0);
  EncodeMessage(buf.data(), h, Slice());
  MessageHeader out;
  ASSERT_TRUE(TryDecodeHeader(buf.data(), &out));
  ScrubRendezvous(buf.data(), MessageWireSize(h.padded_payload_size));
  EXPECT_FALSE(TryDecodeHeader(buf.data(), &out));
  // The payload-area rendezvous position is also scrubbed.
  EXPECT_FALSE(PayloadComplete(buf.data(), h));
}

TEST(MessageTest, AllTypesHaveNames) {
  std::set<std::string> names;
  for (int t = 0; t <= static_cast<int>(MessageType::kSetReplayStartReply); ++t) {
    names.insert(MessageTypeName(static_cast<MessageType>(t)));
  }
  EXPECT_FALSE(names.contains("?"));
  EXPECT_EQ(names.size(), static_cast<size_t>(MessageType::kSetReplayStartReply) + 1);
}

// --- wire codec ------------------------------------------------------------

TEST(WireTest, WriterReaderRoundTrip) {
  WireWriter w;
  w.U8(7).U16(300).U32(70000).U64(1ull << 40).Bytes("hello");
  WireReader r(w.slice());
  uint8_t a;
  uint16_t b;
  uint32_t c;
  uint64_t d;
  std::string s;
  ASSERT_TRUE(r.U8(&a).ok());
  ASSERT_TRUE(r.U16(&b).ok());
  ASSERT_TRUE(r.U32(&c).ok());
  ASSERT_TRUE(r.U64(&d).ok());
  ASSERT_TRUE(r.Bytes(&s).ok());
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 300);
  EXPECT_EQ(c, 70000u);
  EXPECT_EQ(d, 1ull << 40);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, TruncationDetected) {
  WireWriter w;
  w.U32(5);  // claims 5 bytes follow, none do
  WireReader r(w.slice());
  std::string s;
  EXPECT_TRUE(r.Bytes(&s).IsCorruption());
  WireReader r2(Slice("ab", 2));
  uint32_t v;
  EXPECT_TRUE(r2.U32(&v).IsCorruption());
}

TEST(WireTest, BytesViewZeroCopy) {
  WireWriter w;
  w.Bytes("view me");
  WireReader r(w.slice());
  Slice v;
  ASSERT_TRUE(r.BytesView(&v).ok());
  EXPECT_EQ(v.ToString(), "view me");
  EXPECT_EQ(v.data(), w.str().data() + 4);  // no copy
}

// --- ring allocator -----------------------------------------------------------

TEST(RingAllocatorTest, SequentialAllocFree) {
  RingAllocator ring(1024);
  auto a = ring.Allocate(256);
  auto b = ring.Allocate(256);
  ASSERT_EQ(a.status, RingAllocator::AllocStatus::kOk);
  ASSERT_EQ(b.status, RingAllocator::AllocStatus::kOk);
  EXPECT_EQ(a.offset, 0u);
  EXPECT_EQ(b.offset, 256u);
  ring.Free(a.offset);
  ring.Free(b.offset);
  EXPECT_TRUE(ring.Empty());
}

TEST(RingAllocatorTest, FullWhenExhausted) {
  RingAllocator ring(512);
  ASSERT_EQ(ring.Allocate(256).status, RingAllocator::AllocStatus::kOk);
  ASSERT_EQ(ring.Allocate(256).status, RingAllocator::AllocStatus::kOk);
  EXPECT_EQ(ring.Allocate(128).status, RingAllocator::AllocStatus::kFull);
}

TEST(RingAllocatorTest, NeedWrapReportsTailGap) {
  RingAllocator ring(1024);
  auto a = ring.Allocate(768);
  ASSERT_EQ(a.status, RingAllocator::AllocStatus::kOk);
  auto c = ring.Allocate(128);  // 768..896
  ASSERT_EQ(c.status, RingAllocator::AllocStatus::kOk);
  ring.Free(a.offset);          // [0, 768) free again
  auto d = ring.Allocate(256);  // tail gap is 128 (896..1024): wrap needed
  ASSERT_EQ(d.status, RingAllocator::AllocStatus::kNeedWrap);
  EXPECT_EQ(d.tail_gap, 128u);
  // Fill the gap (the NOOP), then the wrap allocation succeeds at offset 0.
  auto filler = ring.Allocate(128);
  ASSERT_EQ(filler.status, RingAllocator::AllocStatus::kOk);
  EXPECT_EQ(filler.offset, 896u);
  auto e = ring.Allocate(256);
  ASSERT_EQ(e.status, RingAllocator::AllocStatus::kOk);
  EXPECT_EQ(e.offset, 0u);
}

TEST(RingAllocatorTest, WritePositionPersistsWhenDrained) {
  // The receiver's rendezvous advances strictly sequentially, so allocations
  // must continue from the previous tail even after the ring fully drains.
  RingAllocator ring(1024);
  auto a = ring.Allocate(256);
  ASSERT_EQ(a.status, RingAllocator::AllocStatus::kOk);
  EXPECT_EQ(a.offset, 0u);
  ring.Free(a.offset);
  auto b = ring.Allocate(256);
  ASSERT_EQ(b.status, RingAllocator::AllocStatus::kOk);
  EXPECT_EQ(b.offset, 256u);  // NOT reset to 0
}

TEST(RingAllocatorTest, OutOfOrderFreesReclaimFifo) {
  RingAllocator ring(1024);
  auto a = ring.Allocate(128);
  auto b = ring.Allocate(128);
  auto c = ring.Allocate(128);
  ASSERT_EQ(c.status, RingAllocator::AllocStatus::kOk);
  ring.Free(c.offset);  // out of order: no space reclaimed yet
  ring.Free(b.offset);
  EXPECT_EQ(ring.live_regions(), 3u);  // all still tracked (a blocks reclaim)
  ring.Free(a.offset);
  EXPECT_TRUE(ring.Empty());
}

TEST(RingAllocatorTest, WrapStressNeverCorrupts) {
  RingAllocator ring(4096);
  Random rng(3);
  std::deque<size_t> live;
  for (int i = 0; i < 20000; ++i) {
    if (live.size() < 8 && rng.Uniform(2) == 0) {
      const size_t n = 128 * (1 + rng.Uniform(4));
      auto a = ring.Allocate(n);
      if (a.status == RingAllocator::AllocStatus::kNeedWrap) {
        auto filler = ring.Allocate(a.tail_gap);
        ASSERT_EQ(filler.status, RingAllocator::AllocStatus::kOk);
        live.push_back(filler.offset);
        a = ring.Allocate(n);
      }
      if (a.status == RingAllocator::AllocStatus::kOk) {
        live.push_back(a.offset);
      }
    } else if (!live.empty()) {
      // Free a random live region (out-of-order).
      size_t idx = rng.Uniform(live.size());
      ring.Free(live[idx]);
      live.erase(live.begin() + static_cast<long>(idx));
    }
  }
  while (!live.empty()) {
    ring.Free(live.front());
    live.pop_front();
  }
  EXPECT_TRUE(ring.Empty());
}

// --- fabric ----------------------------------------------------------------

TEST(FabricTest, RdmaWriteMovesBytesAndAccounts) {
  Fabric fabric;
  auto buf = fabric.RegisterBuffer("backup0", "primary0", 4096);
  std::string data = "replicated log record";
  ASSERT_TRUE(buf->RdmaWrite(100, data).ok());
  EXPECT_EQ(std::string(buf->data() + 100, data.size()), data);
  EXPECT_EQ(fabric.BytesSent("primary0"), data.size() + kWireOverheadPerWrite);
  EXPECT_EQ(fabric.BytesReceived("backup0"), data.size() + kWireOverheadPerWrite);
  EXPECT_EQ(fabric.TotalBytes(), data.size() + kWireOverheadPerWrite);
}

TEST(FabricTest, WritePastRegionRejected) {
  Fabric fabric;
  auto buf = fabric.RegisterBuffer("a", "b", 128);
  std::string data(100, 'x');
  EXPECT_FALSE(buf->RdmaWrite(64, data).ok());
}

TEST(FabricTest, ResetTrafficZeroes) {
  Fabric fabric;
  auto buf = fabric.RegisterBuffer("a", "b", 128);
  ASSERT_TRUE(buf->RdmaWrite(0, "x").ok());
  fabric.ResetTraffic();
  EXPECT_EQ(fabric.TotalBytes(), 0u);
  EXPECT_EQ(fabric.BytesSent("b"), 0u);
}

TEST(FabricTest, ConcurrentWritersAccountEveryByte) {
  // Writers on separate buffers account concurrently; no write may be lost
  // from the per-node or the total counters.
  Fabric fabric;
  constexpr int kWriters = 4;
  constexpr int kWrites = 5000;
  std::vector<std::shared_ptr<RegisteredBuffer>> buffers;
  for (int w = 0; w < kWriters; ++w) {
    // Two writers share each owner, so owner counters see concurrent adds.
    buffers.push_back(
        fabric.RegisterBuffer("owner" + std::to_string(w % 2), "writer" + std::to_string(w), 4096));
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string data(static_cast<size_t>(w + 1), 'x');
      for (int i = 0; i < kWrites; ++i) {
        ASSERT_TRUE(buffers[w]->RdmaWrite(0, data).ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t expected = 0;
  uint64_t per_owner[2] = {0, 0};
  for (int w = 0; w < kWriters; ++w) {
    const uint64_t sent = kWrites * (static_cast<uint64_t>(w + 1) + kWireOverheadPerWrite);
    EXPECT_EQ(fabric.BytesSent("writer" + std::to_string(w)), sent);
    per_owner[w % 2] += sent;
    expected += sent;
  }
  EXPECT_EQ(fabric.BytesReceived("owner0"), per_owner[0]);
  EXPECT_EQ(fabric.BytesReceived("owner1"), per_owner[1]);
  EXPECT_EQ(fabric.TotalBytes(), expected);
}

// --- worker pool ----------------------------------------------------------------

TEST(WorkerPoolTest, ExecutesDispatchedTasks) {
  WorkerPool pool(4);
  pool.Start();
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Dispatch([&count] { count++; });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.tasks_executed(), 100u);
  pool.Stop();
}

TEST(WorkerPoolTest, WorkersSleepWhenIdle) {
  WorkerPool pool(2);
  pool.Start();
  // Workers go to sleep once they have been idle past the threshold. A fixed
  // sleep races worker scheduling on a loaded host (flaky under sanitizers),
  // so poll with a generous deadline instead.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((!pool.IsSleeping(0) || !pool.IsSleeping(1)) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pool.IsSleeping(0));
  EXPECT_TRUE(pool.IsSleeping(1));
  // A dispatch wakes one up and the task runs.
  std::atomic<bool> ran{false};
  pool.Dispatch([&ran] { ran = true; });
  pool.Drain();
  EXPECT_TRUE(ran.load());
  pool.Stop();
}

TEST(WorkerPoolTest, DrainWaitsForPoppedTask) {
  // Drain must not return between a worker popping a task and running it.
  WorkerPool pool(2);
  pool.Start();
  for (int i = 0; i < 10000; ++i) {
    // Shared, so a task that outlives a failed iteration writes live memory.
    auto ran = std::make_shared<std::atomic<bool>>(false);
    pool.Dispatch([ran] { ran->store(true, std::memory_order_release); });
    pool.Drain();
    ASSERT_TRUE(ran->load(std::memory_order_acquire)) << "iteration " << i;
  }
  pool.Stop();
}

TEST(WorkerPoolTest, StickyDispatchPrefersSameWorker) {
  WorkerPool pool(4);
  // Not started: tasks pile up in queues so we can observe placement.
  for (int i = 0; i < 10; ++i) {
    pool.Dispatch([] {});
  }
  // All ten landed on one worker (threshold is 64).
  int nonempty = 0;
  for (int w = 0; w < 4; ++w) {
    nonempty += pool.QueueDepth(w) > 0 ? 1 : 0;
  }
  EXPECT_EQ(nonempty, 1);
}

TEST(WorkerPoolTest, OverflowSpillsToNextWorker) {
  WorkerPool pool(4);
  for (size_t i = 0; i < kWorkerQueueThreshold + 10; ++i) {
    pool.Dispatch([] {});
  }
  int nonempty = 0;
  for (int w = 0; w < 4; ++w) {
    nonempty += pool.QueueDepth(w) > 0 ? 1 : 0;
  }
  EXPECT_EQ(nonempty, 2);
}

// --- end-to-end RPC -----------------------------------------------------------

class EchoServerTest : public testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ServerEndpoint>(&fabric_, "server0", /*spinners=*/1,
                                               /*workers=*/2);
    server_->set_handler([this](const MessageHeader& header, std::string payload,
                                ReplyContext ctx) {
      handled_++;
      // Echo the payload back, uppercase type+1 convention.
      const auto reply_type = static_cast<MessageType>(header.type + 1);
      if (!ctx.ReplyFits(payload.size())) {
        WireWriter w;
        w.U32(static_cast<uint32_t>(payload.size()));
        Status s = ctx.SendReply(reply_type, kFlagTruncatedReply, w.slice());
        ASSERT_TRUE(s.ok()) << s.ToString();
        return;
      }
      Status s = ctx.SendReply(reply_type, 0, payload);
      ASSERT_TRUE(s.ok()) << s.ToString();
    });
    server_->Start();
  }

  void TearDown() override { server_->Stop(); }

  Fabric fabric_;
  std::unique_ptr<ServerEndpoint> server_;
  std::atomic<int> handled_{0};
};

TEST_F(EchoServerTest, SingleCallRoundTrip) {
  RpcClient client(&fabric_, "client0", server_.get());
  auto reply = client.Call(MessageType::kPut, 3, "ping", 64);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->payload, "ping");
  EXPECT_EQ(static_cast<MessageType>(reply->header.type), MessageType::kPutReply);
  EXPECT_EQ(reply->header.region_id, 3u);
  EXPECT_EQ(handled_.load(), 1);
}

TEST_F(EchoServerTest, ManyOutstandingRequestsCompleteOutOfOrder) {
  RpcClient client(&fabric_, "client0", server_.get());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    auto id = client.SendRequest(MessageType::kPut, 0, "msg" + std::to_string(i), 64);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  for (int i = 0; i < 64; ++i) {
    auto reply = client.WaitReply(ids[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->payload, "msg" + std::to_string(i));
  }
}

TEST_F(EchoServerTest, RingWrapWithNoopFiller) {
  // Small rings force many wraps; the protocol must keep working.
  RpcClient client(&fabric_, "client0", server_.get(), /*buffer_size=*/4096);
  for (int i = 0; i < 500; ++i) {
    std::string payload(1 + (i % 700), 'a' + (i % 26));
    auto reply = client.Call(MessageType::kPut, 0, payload, 900);
    ASSERT_TRUE(reply.ok()) << "iteration " << i << ": " << reply.status().ToString();
    ASSERT_EQ(reply->payload, payload) << "iteration " << i;
  }
}

TEST_F(EchoServerTest, VariableSizeMessages) {
  RpcClient client(&fabric_, "client0", server_.get());
  Random rng(5);
  for (int i = 0; i < 100; ++i) {
    std::string payload = rng.Bytes(1 + rng.Uniform(8000));
    auto reply = client.Call(MessageType::kGet, 0, payload, 9000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->payload, payload);
  }
}

TEST_F(EchoServerTest, TruncatedReplyFlagWhenAllocTooSmall) {
  RpcClient client(&fabric_, "client0", server_.get());
  std::string big(5000, 'z');
  auto reply = client.Call(MessageType::kGet, 0, big, /*reply_payload_alloc=*/100);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->header.flags & kFlagTruncatedReply);
  WireReader r(Slice(reply->payload));
  uint32_t needed;
  ASSERT_TRUE(r.U32(&needed).ok());
  EXPECT_EQ(needed, big.size());
  // Retry with the advertised allocation succeeds (the §3.4.1 round trip).
  auto retry = client.Call(MessageType::kGet, 0, big, needed + 16);
  ASSERT_TRUE(retry.ok());
  EXPECT_FALSE(retry->header.flags & kFlagTruncatedReply);
  EXPECT_EQ(retry->payload, big);
}

TEST_F(EchoServerTest, TwoClientsShareServer) {
  RpcClient a(&fabric_, "clientA", server_.get());
  RpcClient b(&fabric_, "clientB", server_.get());
  auto ra = a.Call(MessageType::kPut, 1, "from-a", 64);
  auto rb = b.Call(MessageType::kPut, 2, "from-b", 64);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->payload, "from-a");
  EXPECT_EQ(rb->payload, "from-b");
}

TEST_F(EchoServerTest, ConcurrentClientThreads) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RpcClient client(&fabric_, "client" + std::to_string(t), server_.get());
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string payload = "t" + std::to_string(t) + "i" + std::to_string(i);
        auto reply = client.Call(MessageType::kPut, 0, payload, 128);
        if (!reply.ok() || reply->payload != payload) {
          failures++;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(handled_.load(), kThreads * kOpsPerThread);
}

TEST_F(EchoServerTest, NetworkTrafficAccountedBothWays) {
  RpcClient client(&fabric_, "client0", server_.get());
  fabric_.ResetTraffic();
  auto reply = client.Call(MessageType::kPut, 0, "abc", 64);
  ASSERT_TRUE(reply.ok());
  // Request: >= 256B message + overhead. Reply likewise.
  EXPECT_GE(fabric_.BytesSent("client0"), 256u + kWireOverheadPerWrite);
  EXPECT_GE(fabric_.BytesSent("server0"), 256u + kWireOverheadPerWrite);
  EXPECT_EQ(fabric_.BytesReceived("server0"), fabric_.BytesSent("client0"));
}

TEST_F(EchoServerTest, MinimumMessageSizeIs256Bytes) {
  RpcClient client(&fabric_, "client0", server_.get());
  fabric_.ResetTraffic();
  auto reply = client.Call(MessageType::kPut, 0, "x", 1);
  ASSERT_TRUE(reply.ok());
  // One request and one reply, each exactly 256 B + overhead.
  EXPECT_EQ(fabric_.BytesSent("client0"), 256 + kWireOverheadPerWrite);
  EXPECT_EQ(fabric_.BytesSent("server0"), 256 + kWireOverheadPerWrite);
}

TEST(ServerEndpointTest, HotColdPollingDemotesIdleConnections) {
  // §3.4.1 extension: an idle connection is demoted to cold after enough
  // empty polls, its polls are mostly skipped, and one message re-promotes
  // it with no loss.
  Fabric fabric;
  ServerEndpoint server(&fabric, "srv", 1, 1);
  std::atomic<int> handled{0};
  server.set_handler([&](const MessageHeader&, std::string payload, ReplyContext ctx) {
    handled++;
    ASSERT_TRUE(ctx.SendReply(MessageType::kPutReply, 0, payload).ok());
  });
  server.workers().Start();
  RpcClient active(&fabric, "active", &server);
  RpcClient idle(&fabric, "idle", &server);
  EXPECT_EQ(server.ColdConnections(), 0);
  // Drive enough empty polls to cross the cold threshold for both.
  for (uint32_t i = 0; i <= kColdThreshold; ++i) {
    server.PollOnce();
  }
  EXPECT_EQ(server.ColdConnections(), 2);
  EXPECT_GE(server.cold_demotions(), 2u);
  // A message to a cold connection still gets through (within the cold poll
  // period) and re-promotes it.
  auto id = active.SendRequest(MessageType::kPut, 0, "wake", 64);
  ASSERT_TRUE(id.ok());
  for (uint32_t i = 0; i < kColdPollPeriod + 1; ++i) {
    server.PollOnce();
  }
  auto reply = active.WaitReply(*id);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->payload, "wake");
  EXPECT_EQ(server.ColdConnections(), 1);  // "idle" stays cold
  EXPECT_GT(server.polls_skipped(), 0u);
}

TEST(ServerEndpointTest, PollOnceDeterministicMode) {
  Fabric fabric;
  ServerEndpoint server(&fabric, "srv", 1, 1);
  std::atomic<int> handled{0};
  server.set_handler([&](const MessageHeader&, std::string payload, ReplyContext ctx) {
    handled++;
    ASSERT_TRUE(ctx.SendReply(MessageType::kPutReply, 0, payload).ok());
  });
  // Workers must run, but we poll manually instead of spinning threads.
  server.workers().Start();
  RpcClient client(&fabric, "cli", &server);
  auto id = client.SendRequest(MessageType::kPut, 0, "manual", 64);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(handled.load(), 0);
  while (server.PollOnce() == 0) {
    std::this_thread::yield();
  }
  auto reply = client.WaitReply(*id);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->payload, "manual");
  EXPECT_EQ(handled.load(), 1);
  server.workers().Drain();
  server.workers().Stop();
}

}  // namespace
}  // namespace tebis
