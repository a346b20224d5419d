// Distributed Multi-Get over a sharded key-value store (Section VI).
//
// Two server shards (each a KvServer over a SIMD-aware backend) behind a
// KvClusterClient: its consistent-hash ring splits one application-level
// MGet(K1..Kn) into per-shard Multi-Gets (the paper's request phase),
// issues them over the modeled EDR wire, and reassembles the responses.
//
//   $ ./multiget_kvs [--keys=20000] [--mget=24] [--requests=200]
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cpu_features.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/timer.h"
#include "kvs/client.h"
#include "kvs/loadgen.h"
#include "kvs/memc3_backend.h"
#include "kvs/server.h"
#include "kvs/simd_backend.h"

using namespace simdht;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto num_keys = static_cast<std::size_t>(flags.GetInt("keys", 20000));
  const auto mget_size = static_cast<std::size_t>(flags.GetInt("mget", 24));
  const auto requests =
      static_cast<std::size_t>(flags.GetInt("requests", 200));

  // Pick the best backend the CPU supports for shard 0; shard 1 runs the
  // MemC3 baseline so the output contrasts both in one run.
  std::unique_ptr<KvBackend> shard0;
  if (GetCpuFeatures().Supports(SimdLevel::kAvx512)) {
    shard0 = std::make_unique<SimdBackend>(SimdBackend::CuckooVerAvx512(),
                                           num_keys * 2, 256 << 20);
  } else if (GetCpuFeatures().Supports(SimdLevel::kAvx2)) {
    shard0 = std::make_unique<SimdBackend>(
        SimdBackend::BucketCuckooHorAvx2(), num_keys * 2, 256 << 20);
  } else {
    shard0 = std::make_unique<SimdBackend>(
        SimdBackend::ScalarBucketCuckoo(), num_keys * 2, 256 << 20);
  }
  auto shard1 = std::make_unique<Memc3Backend>(num_keys * 2, 256 << 20);
  KvBackend* shards[2] = {shard0.get(), shard1.get()};
  std::printf("shard 0 backend: %s\nshard 1 backend: %s\n\n",
              shards[0]->name(), shards[1]->name());

  // One channel + server per shard, over the modeled InfiniBand EDR wire.
  Channel ch0{WireModel::InfinibandEdr()};
  Channel ch1{WireModel::InfinibandEdr()};
  KvServer server0(shards[0], {&ch0});
  KvServer server1(shards[1], {&ch1});
  server0.Start();
  server1.Start();
  std::vector<std::unique_ptr<FrameLink>> links;
  links.push_back(std::make_unique<ChannelLink>(&ch0));
  links.push_back(std::make_unique<ChannelLink>(&ch1));
  KvClusterClient cluster(std::move(links));
  cluster.Connect();

  // Preload.
  std::vector<std::string> keys;
  keys.reserve(num_keys);
  for (std::size_t i = 0; i < num_keys; ++i) {
    keys.push_back(MakeKeyString(i, 20));
  }
  const std::string value(32, 'v');
  std::size_t per_shard[2] = {0, 0};
  for (const std::string& key : keys) {
    cluster.Set(key, value);
    ++per_shard[cluster.ring().ServerFor(key)];
  }
  std::printf("preloaded %zu keys (%zu on shard 0, %zu on shard 1)\n\n",
              keys.size(), per_shard[0], per_shard[1]);

  // Application-level Multi-Gets: the cluster client partitions each batch
  // per shard, issues the sub-batches and reassembles the responses.
  Xoshiro256 rng(3);
  LatencyRecorder latency;
  std::size_t total_found = 0;
  std::vector<std::string_view> batch(mget_size);
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found, errors;
  for (std::size_t r = 0; r < requests; ++r) {
    for (std::string_view& key : batch) {
      key = keys[rng.NextBounded(keys.size())];
    }
    Timer timer;
    cluster.MultiGet(batch, &vals, &found, &errors);
    latency.Add(timer.ElapsedNanos());
    for (std::uint8_t f : found) total_found += f;
  }

  std::printf("issued %zu MGet(%zu) requests across 2 shards\n", requests,
              mget_size);
  std::printf("  found %zu / %zu keys\n", total_found,
              requests * mget_size);
  std::printf("  end-to-end latency: mean %.1f us, p50 %.1f us, p99 %.1f us\n",
              latency.mean() / 1e3, latency.Percentile(50) / 1e3,
              latency.Percentile(99) / 1e3);

  cluster.ShutdownAll();
  server0.Join();
  server1.Join();

  std::printf("\nserver-side lookup phase per batch: shard0 (%s) %.2f us, "
              "shard1 (%s) %.2f us\n",
              shards[0]->name(),
              FindStat(server0.StatsSnapshot(), "index_probe_ns.mean") / 1e3,
              shards[1]->name(),
              FindStat(server1.StatsSnapshot(), "index_probe_ns.mean") / 1e3);
  return 0;
}
