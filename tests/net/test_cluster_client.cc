// KvClusterClient: consistent-hash routing over real sockets, and per-key
// error surfacing when part of the cluster is down.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kvs/memc3_backend.h"
#include "kvs/client.h"
#include "net/kv_tcp_server.h"
#include "net/socket.h"
#include "net/tcp_link.h"

namespace simdht {
namespace {

// A loopback port that (momentarily) nothing listens on: bind an ephemeral
// listener, record the port, close it.
std::uint16_t UnusedPort() {
  std::uint16_t port = 0;
  std::string err;
  ScopedFd fd(ListenTcp("127.0.0.1", 0, &port, &err));
  EXPECT_TRUE(fd) << err;
  return port;
}

struct TwoServerCluster {
  TwoServerCluster() {
    for (int s = 0; s < 2; ++s) {
      backends.push_back(
          std::make_unique<Memc3Backend>(1 << 12, 16 << 20));
      servers.push_back(std::make_unique<KvTcpServer>(backends[s].get()));
      std::string err;
      EXPECT_TRUE(servers[s]->StartBackground(&err)) << err;
    }
  }
  ~TwoServerCluster() {
    for (auto& s : servers) {
      s->Stop();
      s->Join();
    }
  }
  std::vector<TcpEndpoint> Endpoints() const {
    return {{"127.0.0.1", servers[0]->port()},
            {"127.0.0.1", servers[1]->port()}};
  }
  std::vector<std::unique_ptr<Memc3Backend>> backends;
  std::vector<std::unique_ptr<KvTcpServer>> servers;
};

TEST(KvClusterClient, RoutesKeysAcrossServersAndGathersInOrder) {
  TwoServerCluster cluster;
  KvClusterClient client(TcpLinks(cluster.Endpoints()));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;
  ASSERT_EQ(client.num_up(), 2u);

  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("route:" + std::to_string(i));
  for (const auto& key : keys) {
    ASSERT_TRUE(client.Set(key, "val-" + key, &err)) << err;
  }

  // Both servers must own a share of the keys (128 vnodes balance well
  // enough that 64 keys never all land on one side).
  std::size_t on_first = 0;
  for (const auto& key : keys) {
    on_first += client.ring().ServerFor(key) == 0;
  }
  EXPECT_GT(on_first, 0u);
  EXPECT_LT(on_first, keys.size());

  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found, errors;
  ASSERT_TRUE(client.MultiGet(views, &vals, &found, &errors, &err)) << err;
  ASSERT_EQ(vals.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(found[i], 1) << keys[i];
    EXPECT_EQ(errors[i], 0) << keys[i];
    EXPECT_EQ(vals[i], "val-" + keys[i]) << i;  // gathered in key order
  }

  // Each backend only stored its own partition.
  const std::uint64_t total =
      cluster.backends[0]->size() + cluster.backends[1]->size();
  EXPECT_EQ(total, keys.size());
  EXPECT_GT(cluster.backends[0]->size(), 0u);
  EXPECT_GT(cluster.backends[1]->size(), 0u);

  client.CloseAll();
}

TEST(KvClusterClient, DownServerSurfacesPerKeyErrorsNotBatchFailure) {
  // One live server + one endpoint nobody listens on: the ring still
  // covers both, so the down server's keys come back flagged while the
  // live server's keys resolve normally.
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;

  KvClusterClient client(
      TcpLinks({{"127.0.0.1", server.port()}, {"127.0.0.1", UnusedPort()}}));
  EXPECT_TRUE(client.Connect(&err));  // partial cluster is still usable
  EXPECT_FALSE(err.empty());          // ...but the failure is reported
  EXPECT_EQ(client.num_up(), 1u);
  EXPECT_TRUE(client.server_up(0));
  EXPECT_FALSE(client.server_up(1));

  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("part:" + std::to_string(i));
  std::size_t live_keys = 0;
  for (const auto& key : keys) {
    if (client.ring().ServerFor(key) == 0) {
      ASSERT_TRUE(client.Set(key, "v", &err)) << err;
      ++live_keys;
    } else {
      EXPECT_FALSE(client.Set(key, "v", nullptr));
    }
  }
  ASSERT_GT(live_keys, 0u);
  ASSERT_LT(live_keys, keys.size());

  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found, errors;
  // True: at least one sub-request succeeded.
  ASSERT_TRUE(client.MultiGet(views, &vals, &found, &errors, &err));
  std::size_t flagged = 0, resolved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (client.ring().ServerFor(keys[i]) == 0) {
      EXPECT_EQ(errors[i], 0) << keys[i];
      EXPECT_EQ(found[i], 1) << keys[i];
      ++resolved;
    } else {
      EXPECT_EQ(errors[i], 1) << keys[i];
      EXPECT_EQ(found[i], 0) << keys[i];
      ++flagged;
    }
  }
  EXPECT_EQ(resolved, live_keys);
  EXPECT_EQ(flagged, keys.size() - live_keys);

  client.CloseAll();
  server.Stop();
  server.Join();
}

TEST(KvClusterClient, WholeClusterDownFailsConnect) {
  KvClusterClient client(
      TcpLinks({{"127.0.0.1", UnusedPort()}, {"127.0.0.1", UnusedPort()}}));
  std::string err;
  EXPECT_FALSE(client.Connect(&err));
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(client.num_up(), 0u);
}

TEST(KvClusterClient, ServerDyingMidRunFlagsOnlyItsKeys) {
  TwoServerCluster cluster;
  KvClusterClient client(TcpLinks(cluster.Endpoints()));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;

  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("die:" + std::to_string(i));
  for (const auto& key : keys) {
    ASSERT_TRUE(client.Set(key, "v", &err)) << err;
  }

  // Server 1 goes away between batches.
  cluster.servers[1]->Stop();
  cluster.servers[1]->Join();

  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found, errors;
  ASSERT_TRUE(client.MultiGet(views, &vals, &found, &errors, &err));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (client.ring().ServerFor(keys[i]) == 0) {
      EXPECT_EQ(errors[i], 0) << keys[i];
      EXPECT_EQ(found[i], 1) << keys[i];
    } else {
      EXPECT_EQ(errors[i], 1) << keys[i];
    }
  }
  EXPECT_EQ(client.num_up(), 1u);

  client.CloseAll();
}

}  // namespace
}  // namespace simdht
