// KvTcpServer + KvClient over a TcpLink on loopback: round trips, remote
// stats, malformed-input handling, and the deterministic proof that
// Multi-Get frames from DIFFERENT connections coalesce into one backend
// batch.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kvs/memc3_backend.h"
#include "kvs/protocol.h"
#include "kvs/client.h"
#include "net/kv_tcp_server.h"
#include "net/socket.h"
#include "net/tcp_link.h"

namespace simdht {
namespace {

std::vector<std::string_view> Views(const std::vector<std::string>& keys) {
  return std::vector<std::string_view>(keys.begin(), keys.end());
}

TEST(KvTcpServer, SetMultiGetStatsRoundTrip) {
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;
  ASSERT_NE(server.port(), 0);

  KvClient client(
      std::make_unique<TcpLink>(TcpEndpoint{"127.0.0.1", server.port()}));
  ASSERT_TRUE(client.Connect(&err)) << err;
  ASSERT_TRUE(client.Set("alpha", "one", &err)) << err;
  ASSERT_TRUE(client.Set("beta", "two", &err)) << err;

  std::vector<std::string> keys = {"alpha", "missing", "beta"};
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(client.MultiGet(Views(keys), &vals, &found, &err)) << err;
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_EQ(found, (std::vector<std::uint8_t>{1, 0, 1}));
  EXPECT_EQ(vals[0], "one");
  EXPECT_EQ(vals[1], "");
  EXPECT_EQ(vals[2], "two");

  // Remote stats: the serving metrics travel over the same wire.
  StatsPairs stats;
  ASSERT_TRUE(client.Stats(&stats, &err)) << err;
  double batches = -1, keys_served = -1;
  for (const auto& [name, value] : stats) {
    if (name == "batches") batches = value;
    if (name == "keys") keys_served = value;
  }
  EXPECT_GE(batches, 1.0);
  EXPECT_GE(keys_served, 3.0);

  client.Close();
  server.Stop();
  server.Join();
}

TEST(KvTcpServer, CrossConnectionFramesBatchIntoOneProbe) {
  Memc3Backend backend(1 << 12, 16 << 20);
  backend.Set("k-conn1", "v1");
  backend.Set("k-conn2", "v2");
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.Listen(&err)) << err;

  // Two raw connections; the server is driven by hand with PollOnce so the
  // dispatch cycles are deterministic.
  ScopedFd c1(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(c1) << err;
  ScopedFd c2(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(c2) << err;
  for (int i = 0; i < 50 && server.num_connections() < 2; ++i) {
    server.PollOnce(100);
  }
  ASSERT_EQ(server.num_connections(), 2u);

  // One Multi-Get frame on each connection, both in flight BEFORE the next
  // dispatch cycle runs.
  const auto send_mget = [](int fd, std::string_view key) {
    Buffer payload, wire;
    EncodeMultiGetRequest({key}, &payload);
    AppendFrame(payload, &wire);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  };
  send_mget(c1.get(), "k-conn1");
  send_mget(c2.get(), "k-conn2");
  // Loopback delivery is quick but not instant; wait until both sockets are
  // readable server-side, then run ONE cycle.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.PollOnce(1000);

  // Both frames were served by a single backend MultiGet: one batch, two
  // keys, two distinct connections in it.
  const MetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.counter(kvs_metrics::kBatches), 1u);
  EXPECT_EQ(snap.counter(kvs_metrics::kKeys), 2u);
  EXPECT_EQ(snap.counter(kvs_metrics::kHits), 2u);
  const auto occupancy =
      snap.histograms.find(kvs_metrics::kBatchConnections);
  ASSERT_NE(occupancy, snap.histograms.end());
  EXPECT_EQ(occupancy->second.count(), 1u);
  EXPECT_EQ(occupancy->second.max(), 2u);

  // Each client still receives its own (correct) response.
  const auto read_response = [](int fd, std::string_view want) {
    FrameAssembler assembler;
    Buffer frame;
    for (;;) {
      const FrameAssembler::Result r = assembler.Next(&frame, nullptr);
      if (r == FrameAssembler::Result::kFrame) break;
      ASSERT_EQ(r, FrameAssembler::Result::kNeedMore);
      std::uint8_t chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      ASSERT_GT(n, 0);
      assembler.Append(chunk, static_cast<std::size_t>(n));
    }
    MultiGetResponse response;
    std::string decode_err;
    ASSERT_TRUE(DecodeMultiGetResponse(frame, &response, &decode_err))
        << decode_err;
    ASSERT_EQ(response.vals.size(), 1u);
    EXPECT_EQ(response.found[0], 1);
    EXPECT_EQ(response.vals[0], want);
  };
  read_response(c1.get(), "v1");
  read_response(c2.get(), "v2");

  // Per-phase histograms saw the flush.
  const auto probe = snap.histograms.find(kvs_metrics::kIndexProbeNs);
  ASSERT_NE(probe, snap.histograms.end());
  EXPECT_EQ(probe->second.count(), 1u);
}

TEST(KvTcpServer, OversizedLengthPrefixClosesConnection) {
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.Listen(&err)) << err;

  ScopedFd c(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(c) << err;
  for (int i = 0; i < 50 && server.num_connections() < 1; ++i) {
    server.PollOnce(100);
  }
  ASSERT_EQ(server.num_connections(), 1u);

  // Length prefix far over kMaxFrameBytes: the stream is poisoned and the
  // server must drop the connection instead of allocating 4 GiB.
  const std::uint8_t evil[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(c.get(), evil, sizeof(evil), 0), 4);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.PollOnce(1000);

  EXPECT_EQ(server.num_connections(), 0u);
  EXPECT_EQ(server.Metrics().counter(kvs_metrics::kProtocolErrors), 1u);
  // Client sees EOF.
  std::uint8_t buf[8];
  EXPECT_EQ(::recv(c.get(), buf, sizeof(buf), 0), 0);
}

TEST(KvTcpServer, GarbageOpcodeClosesConnectionOthersSurvive) {
  Memc3Backend backend(1 << 12, 16 << 20);
  backend.Set("stay", "alive");
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;

  KvClient good(
      std::make_unique<TcpLink>(TcpEndpoint{"127.0.0.1", server.port()}));
  ASSERT_TRUE(good.Connect(&err)) << err;

  // A well-framed payload with a nonsense opcode: only this connection dies.
  ScopedFd bad(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(bad) << err;
  Buffer payload = {0x77, 0, 0, 0, 0};
  Buffer wire;
  AppendFrame(payload, &wire);
  ASSERT_EQ(::send(bad.get(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::uint8_t buf[8];
  EXPECT_EQ(::recv(bad.get(), buf, sizeof(buf), 0), 0);  // EOF

  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(good.MultiGet({"stay"}, &vals, &found, &err)) << err;
  EXPECT_EQ(found, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(vals[0], "alive");

  good.Close();
  server.Stop();
  server.Join();
}

TEST(KvTcpServer, ShutdownFrameStopsServer) {
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;

  KvClient client(
      std::make_unique<TcpLink>(TcpEndpoint{"127.0.0.1", server.port()}));
  ASSERT_TRUE(client.Connect(&err)) << err;
  client.Shutdown();
  server.Join();  // returns because the SHUTDOWN frame stopped the loop
  SUCCEED();
}

TEST(KvTcpServer, MidFrameFragmentationIsReassembled) {
  Memc3Backend backend(1 << 12, 16 << 20);
  backend.Set("fragmented-key", "fragmented-value");
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.Listen(&err)) << err;

  ScopedFd c(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(c) << err;
  for (int i = 0; i < 50 && server.num_connections() < 1; ++i) {
    server.PollOnce(100);
  }

  Buffer payload, wire;
  EncodeMultiGetRequest({"fragmented-key"}, &payload);
  AppendFrame(payload, &wire);
  // Dribble the frame one byte per dispatch cycle: no flush may happen
  // before the final byte, exactly one after it.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_EQ(::send(c.get(), wire.data() + i, 1, 0), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    server.PollOnce(200);
    const std::uint64_t batches =
        server.Metrics().counter(kvs_metrics::kBatches);
    EXPECT_EQ(batches, i + 1 == wire.size() ? 1u : 0u) << "byte " << i;
  }

  FrameAssembler assembler;
  Buffer frame;
  for (;;) {
    const FrameAssembler::Result r = assembler.Next(&frame, nullptr);
    if (r == FrameAssembler::Result::kFrame) break;
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(c.get(), chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    assembler.Append(chunk, static_cast<std::size_t>(n));
  }
  MultiGetResponse response;
  ASSERT_TRUE(DecodeMultiGetResponse(frame, &response, nullptr));
  ASSERT_EQ(response.vals.size(), 1u);
  EXPECT_EQ(response.vals[0], "fragmented-value");
}

}  // namespace
}  // namespace simdht
