// End-to-end open-loop load generation against a real 2-process-shaped
// loopback cluster (2 servers, in-process here for determinism).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kvs/loadgen.h"
#include "kvs/memc3_backend.h"
#include "net/kv_tcp_server.h"
#include "net/tcp_link.h"

namespace simdht {
namespace {

struct Cluster {
  explicit Cluster(int n) {
    for (int s = 0; s < n; ++s) {
      backends.push_back(
          std::make_unique<Memc3Backend>(1 << 14, 64 << 20));
      servers.push_back(std::make_unique<KvTcpServer>(backends[s].get()));
      std::string err;
      EXPECT_TRUE(servers[s]->StartBackground(&err)) << err;
    }
  }
  ~Cluster() {
    for (auto& s : servers) {
      s->Stop();
      s->Join();
    }
  }
  LinkFactory Links() const {
    std::vector<TcpEndpoint> eps;
    for (const auto& s : servers) eps.push_back({"127.0.0.1", s->port()});
    return [eps](unsigned) { return TcpLinks(eps); };
  }
  std::vector<std::unique_ptr<Memc3Backend>> backends;
  std::vector<std::unique_ptr<KvTcpServer>> servers;
};

double StatValue(const StatsPairs& stats, const std::string& name) {
  for (const auto& [n, v] : stats) {
    if (n == name) return v;
  }
  return -1;
}

TEST(TcpLoadgen, OpenLoopAgainstTwoServerCluster) {
  Cluster cluster(2);
  LoadgenConfig config;
  config.clients = 2;
  config.num_keys = 2000;
  config.mget_size = 16;
  config.requests_per_client = 150;
  config.hit_rate = 1.0;
  config.arrival = ArrivalMode::kUniform;
  config.target_qps = 3000;  // 300 requests -> ~0.1 s run
  config.seed = 7;

  LoadgenResult result;
  std::string err;
  ASSERT_TRUE(RunLoadgen(config, cluster.Links(), &result, &err)) << err;

  EXPECT_EQ(result.preloaded, config.num_keys);
  EXPECT_EQ(result.requests, 300u);
  EXPECT_EQ(result.keys, 300u * 16u);
  EXPECT_EQ(result.hits, result.keys);  // hit_rate 1.0, all preloaded
  EXPECT_EQ(result.key_errors, 0u);
  EXPECT_DOUBLE_EQ(result.intended_qps, 3000.0);
  EXPECT_GT(result.achieved_qps, 3000.0 * 0.5);
  EXPECT_LT(result.achieved_qps, 3000.0 * 1.5);
  EXPECT_GT(result.mget_p50_us, 0.0);
  EXPECT_LE(result.mget_p50_us, result.mget_p99_us);
  EXPECT_LE(result.mget_p99_us, result.mget_p999_us);
  EXPECT_LE(result.mget_p999_us, result.mget_p9999_us);

  // Both servers produced a stats snapshot with real traffic in it.
  ASSERT_EQ(result.server_stats.size(), 2u);
  for (int s = 0; s < 2; ++s) {
    const double batches = StatValue(result.server_stats[s], "batches");
    const double keys = StatValue(result.server_stats[s], "keys");
    EXPECT_GT(batches, 0.0) << "server " << s;
    EXPECT_GT(keys, 0.0) << "server " << s;
    EXPECT_GE(StatValue(result.server_stats[s], "batch_connections.max"),
              1.0);
    EXPECT_GE(StatValue(result.server_stats[s], "index_probe_ns.p50"), 0.0);
  }
  // The cluster as a whole served every key exactly once.
  const double total_keys = StatValue(result.server_stats[0], "keys") +
                            StatValue(result.server_stats[1], "keys");
  EXPECT_DOUBLE_EQ(total_keys, static_cast<double>(result.keys));
}

TEST(TcpLoadgen, ClosedLoopModeWorks) {
  Cluster cluster(1);
  LoadgenConfig config;
  config.clients = 1;
  config.num_keys = 500;
  config.mget_size = 8;
  config.requests_per_client = 50;
  config.hit_rate = 1.0;
  config.arrival = ArrivalMode::kClosedLoop;

  LoadgenResult result;
  std::string err;
  ASSERT_TRUE(RunLoadgen(config, cluster.Links(), &result, &err)) << err;
  EXPECT_EQ(result.requests, 50u);
  EXPECT_DOUBLE_EQ(result.intended_qps, 0.0);
  EXPECT_DOUBLE_EQ(result.max_send_lag_us, 0.0);
  EXPECT_GT(result.mget_p50_us, 0.0);
}

TEST(TcpLoadgen, NoServersFails) {
  LoadgenConfig config;
  LoadgenResult result;
  std::string err;
  EXPECT_FALSE(RunLoadgen(
      config, [](unsigned) { return TcpLinks({}); }, &result, &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace simdht
