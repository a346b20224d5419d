// End-to-end server/client integration over the simulated transport.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/cpu_features.h"
#include "kvs/client.h"
#include "kvs/loadgen.h"
#include "kvs/memc3_backend.h"
#include "kvs/server.h"
#include "kvs/simd_backend.h"

namespace simdht {
namespace {

// The load generator against one simulated server over `backend`.
LoadgenResult RunOnSimServer(KvBackend* backend, const LoadgenConfig& config,
                             const WireModel& wire) {
  SimCluster sim({backend}, config.clients, wire);
  LoadgenResult result;
  std::string err;
  EXPECT_TRUE(RunLoadgen(config, sim.links(), &result, &err)) << err;
  return result;
}

double HitRate(const LoadgenResult& result) {
  return result.keys ? static_cast<double>(result.hits) /
                           static_cast<double>(result.keys)
                     : 0.0;
}

TEST(ServerClient, SetThenMultiGet) {
  Memc3Backend backend(1 << 12, 16 << 20);
  Channel channel(WireModel::Loopback());
  KvServer server(&backend, {&channel});
  server.Start();

  KvClient client(&channel);
  EXPECT_TRUE(client.Set("k1", "v1"));
  EXPECT_TRUE(client.Set("k2", "v2"));

  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(client.MultiGet({"k1", "missing", "k2"}, &vals, &found));
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_EQ(found[0], 1);
  EXPECT_EQ(vals[0], "v1");
  EXPECT_EQ(found[1], 0);
  EXPECT_EQ(found[2], 1);
  EXPECT_EQ(vals[2], "v2");

  client.Shutdown();
  server.Join();

  const MetricsSnapshot stats = server.Metrics();
  EXPECT_EQ(stats.counter(kvs_metrics::kBatches), 1u);
  EXPECT_EQ(stats.counter(kvs_metrics::kKeys), 3u);
  EXPECT_EQ(stats.counter(kvs_metrics::kHits), 2u);
  EXPECT_GT(stats.histograms.at(kvs_metrics::kIndexProbeNs).sum(), 0u);
}

TEST(ServerClient, ExportsPhaseMetricsWhenRegistryAttached) {
  Memc3Backend backend(1 << 12, 16 << 20);
  Channel channel(WireModel::Loopback());
  MetricsRegistry metrics;
  KvServer server(&backend, {&channel}, &metrics);
  server.Start();

  KvClient client(&channel);
  EXPECT_TRUE(client.Set("k1", "v1"));
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(client.MultiGet({"k1", "missing"}, &vals, &found));
  ASSERT_TRUE(client.MultiGet({"k1"}, &vals, &found));
  client.Shutdown();
  server.Join();

  const MetricsSnapshot snap = metrics.Aggregate();
  EXPECT_EQ(snap.counter(kvs_metrics::kBatches), 2u);
  EXPECT_EQ(snap.counter(kvs_metrics::kKeys), 3u);
  EXPECT_EQ(snap.counter(kvs_metrics::kHits), 2u);
  for (const char* name :
       {kvs_metrics::kParseNs, kvs_metrics::kIndexProbeNs,
        kvs_metrics::kValueCopyNs, kvs_metrics::kTransportNs}) {
    const auto it = snap.histograms.find(name);
    ASSERT_NE(it, snap.histograms.end()) << name;
    EXPECT_EQ(it->second.count(), 2u) << name;
  }
  // The phases measure real work: probing the index takes time.
  EXPECT_GT(snap.histograms.at(kvs_metrics::kIndexProbeNs).max(), 0u);
}

TEST(ServerClient, NoMetricsRegistryMeansNoExport) {
  Memc3Backend backend(1 << 12, 16 << 20);
  Channel channel(WireModel::Loopback());
  KvServer server(&backend, {&channel});  // default: metrics == nullptr
  server.Start();
  KvClient client(&channel);
  EXPECT_TRUE(client.Set("k", "v"));
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(client.MultiGet({"k"}, &vals, &found));
  client.Shutdown();
  server.Join();
  // The server's own registry still counts.
  EXPECT_EQ(server.Metrics().counter(kvs_metrics::kBatches), 1u);
}

TEST(ServerClient, MultipleWorkersSharedBackend) {
  Memc3Backend backend(1 << 12, 16 << 20);
  Channel ch0(WireModel::Loopback());
  Channel ch1(WireModel::Loopback());
  KvServer server(&backend, {&ch0, &ch1});
  server.Start();

  KvClient c0(&ch0);
  KvClient c1(&ch1);
  EXPECT_TRUE(c0.Set("from0", "a"));
  EXPECT_TRUE(c1.Set("from1", "b"));

  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  // Each client sees the other's writes (shared backend).
  ASSERT_TRUE(c0.MultiGet({"from1"}, &vals, &found));
  EXPECT_EQ(found[0], 1);
  EXPECT_EQ(vals[0], "b");
  ASSERT_TRUE(c1.MultiGet({"from0"}, &vals, &found));
  EXPECT_EQ(found[0], 1);
  EXPECT_EQ(vals[0], "a");

  c0.Shutdown();
  c1.Shutdown();
  server.Join();
}

TEST(Memslap, EndToEndSmallRun) {
  Memc3Backend backend(1 << 14, 32 << 20);
  LoadgenConfig config;
  config.clients = 2;
  config.num_keys = 2000;
  config.mget_size = 16;
  config.requests_per_client = 100;
  config.hit_rate = 0.95;

  const LoadgenResult result =
      RunOnSimServer(&backend, config, WireModel::Loopback());
  ASSERT_EQ(result.server_stats.size(), 1u);
  const StatsPairs& server = result.server_stats[0];
  EXPECT_EQ(result.preloaded, 2000u);
  EXPECT_EQ(FindStat(server, "batches"), 200.0);
  EXPECT_EQ(FindStat(server, "keys"), 200.0 * 16.0);
  EXPECT_NEAR(HitRate(result), 0.95, 0.03);
  EXPECT_GT(ServerGetMops(server), 0.0);
  EXPECT_GT(result.mget_p50_us, 0.0);
  EXPECT_LE(result.mget_p50_us, result.mget_p99_us);
}

TEST(Memslap, MoreDriversThanChannelsFails) {
  Memc3Backend backend(1 << 12, 8 << 20);
  SimCluster sim({&backend}, 2, WireModel::Loopback());
  LoadgenConfig config;
  config.clients = 3;  // one more driver thread than the cluster serves
  config.num_keys = 100;
  config.requests_per_client = 10;
  LoadgenResult result;
  std::string err;
  EXPECT_FALSE(RunLoadgen(config, sim.links(), &result, &err));
  EXPECT_NE(err.find("driver thread 2"), std::string::npos) << err;
}

TEST(Memslap, SimdBackendMatchesHitRate) {
  std::unique_ptr<SimdBackend> backend;
  if (GetCpuFeatures().Supports(SimdLevel::kAvx2)) {
    backend = std::make_unique<SimdBackend>(
        SimdBackend::BucketCuckooHorAvx2(), 1 << 14, 32 << 20);
  } else {
    backend = std::make_unique<SimdBackend>(
        SimdBackend::ScalarBucketCuckoo(), 1 << 14, 32 << 20);
  }
  LoadgenConfig config;
  config.clients = 2;
  config.num_keys = 2000;
  config.mget_size = 96;
  config.requests_per_client = 50;
  config.hit_rate = 0.9;

  const LoadgenResult result =
      RunOnSimServer(backend.get(), config, WireModel::Loopback());
  EXPECT_EQ(result.preloaded, 2000u);
  EXPECT_NEAR(HitRate(result), 0.9, 0.03);
}

TEST(Memslap, ModeledWireEnforcesLatencyFloor) {
  // Recv never completes before a message's modeled arrival time, so every
  // request/response round trip over the EDR model costs >= 2 x 1.5 us of
  // wire time regardless of host speed or scheduler noise.
  LoadgenConfig config;
  config.clients = 1;
  config.num_keys = 500;
  config.mget_size = 16;
  config.requests_per_client = 50;

  Memc3Backend backend(1 << 12, 16 << 20);
  const LoadgenResult edr =
      RunOnSimServer(&backend, config, WireModel::InfinibandEdr());
  // p0 (the minimum observed latency) must respect the modeled floor.
  EXPECT_GE(edr.mget_p50_us, 3.0);
  EXPECT_GT(edr.mget_mean_us, 3.0);
}

TEST(MakeKeyStringHelper, FixedWidthDistinctKeys) {
  const std::string a = MakeKeyString(1, 20);
  const std::string b = MakeKeyString(2, 20);
  EXPECT_EQ(a.size(), 20u);
  EXPECT_EQ(b.size(), 20u);
  EXPECT_NE(a, b);
  EXPECT_EQ(MakeKeyString(42, 8).size(), 8u);  // truncation also works
}

}  // namespace
}  // namespace simdht
