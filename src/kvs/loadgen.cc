#include "kvs/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/random.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/zipf.h"
#include "obs/timeline.h"
#include "obs/trace_merge.h"

namespace simdht {

const char* ArrivalModeName(ArrivalMode mode) {
  switch (mode) {
    case ArrivalMode::kClosedLoop: return "closed";
    case ArrivalMode::kUniform: return "uniform";
    case ArrivalMode::kPoisson: return "poisson";
  }
  return "?";
}

bool ParseArrivalMode(std::string_view name, ArrivalMode* mode) {
  if (name == "closed" || name == "closed-loop") {
    *mode = ArrivalMode::kClosedLoop;
  } else if (name == "uniform" || name == "open" || name == "open-uniform") {
    *mode = ArrivalMode::kUniform;
  } else if (name == "poisson" || name == "open-poisson") {
    *mode = ArrivalMode::kPoisson;
  } else {
    return false;
  }
  return true;
}

std::vector<std::uint64_t> BuildArrivalSchedule(ArrivalMode mode, double qps,
                                                std::size_t count,
                                                std::uint64_t seed) {
  std::vector<std::uint64_t> offsets;
  if (mode == ArrivalMode::kClosedLoop || count == 0 || qps <= 0) {
    return offsets;
  }
  offsets.reserve(count);
  const double gap_ns = 1e9 / qps;
  if (mode == ArrivalMode::kUniform) {
    for (std::size_t i = 0; i < count; ++i) {
      offsets.push_back(
          static_cast<std::uint64_t>(gap_ns * static_cast<double>(i)));
    }
    return offsets;
  }
  // Poisson process: i.i.d. exponential inter-arrival gaps, inverse-CDF
  // sampled so the schedule is a pure function of the seed.
  Xoshiro256 rng(seed);
  double t_ns = 0;
  for (std::size_t i = 0; i < count; ++i) {
    offsets.push_back(static_cast<std::uint64_t>(t_ns));
    // NextDouble() is in [0, 1); flip to (0, 1] so log() never sees 0.
    const double u = 1.0 - rng.NextDouble();
    t_ns += -std::log(u) * gap_ns;
  }
  return offsets;
}

std::string MakeKeyString(std::size_t index, std::size_t key_size) {
  char head[32];
  const int n = std::snprintf(head, sizeof(head), "key:%010zu", index);
  std::string key(head, static_cast<std::size_t>(n));
  if (key.size() < key_size) key.append(key_size - key.size(), 'x');
  key.resize(key_size);
  return key;
}

namespace {

// Trace negotiation: every reachable server must advertise
// proto.trace_context >= 1 in its STATS snapshot (one old server in the
// cluster would close connections on the unknown TMGET opcode).
bool ClusterSupportsTraceContext(KvClusterClient* probe) {
  bool any = false;
  for (const StatsPairs& stats : probe->StatsAll()) {
    if (stats.empty()) continue;  // down server: its keys error out anyway
    any = true;
    if (FindStat(stats, "proto.trace_context") < 1.0) return false;
  }
  return any;
}

// Client-side spans of one sampled request, plus one clock_sync instant
// per server it touched.
void RecordClientSpans(
    std::uint64_t trace_id, double send_us, double send_lag_ns,
    std::size_t keys,
    const std::vector<std::pair<std::uint32_t, TracedExchange>>& exchanges) {
  Timeline& tl = Timeline::Global();
  const double end_us = tl.NowUs();
  char id_hex[17];
  std::snprintf(id_hex, sizeof(id_hex), "%016llx",
                static_cast<unsigned long long>(trace_id));
  if (send_lag_ns > 0) {
    // Time spent waiting past the intended send (scheduler lag a
    // coordinated-omission-free latency charges the server).
    tl.RecordSpan("client", "schedule", send_us - send_lag_ns / 1e3, send_us,
                  {TimelineArg::Str("trace_id", id_hex)});
  }
  tl.RecordSpan("client", "request", send_us, end_us,
                {TimelineArg::Str("trace_id", id_hex),
                 TimelineArg::Num("keys", static_cast<double>(keys))});
  for (const auto& [server, ex] : exchanges) {
    const std::string label = std::to_string(server);
    tl.RecordSpan("client", "send_wait." + label, ex.client_send_us,
                  ex.client_recv_us,
                  {TimelineArg::Str("trace_id", id_hex),
                   TimelineArg::Str("server", label)});
    tl.RecordInstant(
        "client", trace_sync::kEventName, ex.client_recv_us,
        {TimelineArg::Str(trace_sync::kServer, label),
         TimelineArg::Num(trace_sync::kClientSendUs, ex.client_send_us),
         TimelineArg::Num(trace_sync::kClientRecvUs, ex.client_recv_us),
         TimelineArg::Num(trace_sync::kServerRxUs, ex.server.rx_us),
         TimelineArg::Num(trace_sync::kServerTxUs, ex.server.tx_us)});
  }
}

// Runs body(c, &cluster) on one thread per driver, each with its own
// connected cluster client; returns how many drivers reached a server.
template <typename Body>
unsigned RunDrivers(unsigned clients, const LinkFactory& connect,
                    const Body& body) {
  std::atomic<unsigned> up{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      KvClusterClient cluster(connect(c));
      if (!cluster.Connect(nullptr)) return;
      up.fetch_add(1);
      body(c, &cluster);
      cluster.CloseAll();
    });
  }
  for (auto& t : threads) t.join();
  return up.load();
}

}  // namespace

bool RunLoadgen(const LoadgenConfig& config, const LinkFactory& connect,
                LoadgenResult* result, std::string* err) {
  *result = LoadgenResult();
  const std::size_t num_servers = connect(0).size();
  if (num_servers == 0) {
    if (err) *err = "no servers given";
    return false;
  }
  if (config.clients == 0) {
    if (err) *err = "need at least one client";
    return false;
  }
  // Each driver thread needs its own link to every server; two threads on
  // one link would pair responses with the wrong requests.
  for (unsigned c = 1; c < config.clients; ++c) {
    if (connect(c).size() != num_servers) {
      if (err) *err = "driver thread " + std::to_string(c) + " has no links";
      return false;
    }
  }

  // Key universe: [0, num_keys) preloaded; a disjoint tail provides misses.
  const std::size_t miss_pool =
      std::max<std::size_t>(1024, config.num_keys / 8);
  std::vector<std::string> keys;
  keys.reserve(config.num_keys + miss_pool);
  for (std::size_t i = 0; i < config.num_keys + miss_pool; ++i) {
    keys.push_back(MakeKeyString(i, config.key_size));
  }
  const std::string value(config.val_size, 'v');

  // --- Preload phase (striped across driver threads, closed loop). ---
  // Keys ship in MSET chunks so each server's backend runs its batched
  // write path (block hashing + prefetch + SIMD empty-slot scans) instead
  // of one Set round trip per key.
  if (config.preload) {
    constexpr std::size_t kPreloadChunk = 128;
    std::atomic<std::size_t> loaded{0};
    const unsigned up = RunDrivers(
        config.clients, connect, [&](unsigned c, KvClusterClient* cluster) {
          std::vector<std::string_view> chunk_keys;
          std::vector<std::string_view> chunk_vals;
          std::vector<std::uint8_t> chunk_ok;
          std::size_t ok = 0;
          const auto flush = [&] {
            if (chunk_keys.empty()) return;
            cluster->MultiSet(chunk_keys, chunk_vals, &chunk_ok);
            for (const std::uint8_t r : chunk_ok) ok += r;
            chunk_keys.clear();
            chunk_vals.clear();
          };
          for (std::size_t i = c; i < config.num_keys; i += config.clients) {
            chunk_keys.push_back(keys[i]);
            chunk_vals.push_back(value);
            if (chunk_keys.size() >= kPreloadChunk) flush();
          }
          flush();
          loaded.fetch_add(ok);
        });
    result->preloaded = loaded.load();
    if (up == 0) {
      if (err) *err = "no driver thread could reach any server";
      return false;
    }
  }

  // --- Multi-Get phase. ---
  const bool open_loop = config.arrival != ArrivalMode::kClosedLoop &&
                         config.target_qps > 0;
  result->intended_qps = open_loop ? config.target_qps : 0;

  bool trace_on = false;
  if (config.trace_sample > 0) {
    KvClusterClient probe(connect(0));
    if (probe.Connect(nullptr)) {
      trace_on = ClusterSupportsTraceContext(&probe);
      probe.CloseAll();
    }
  }
  result->trace_supported = trace_on;

  using SteadyClock = std::chrono::steady_clock;
  // All clients share one schedule epoch so the aggregate rate is honest.
  const SteadyClock::time_point epoch =
      SteadyClock::now() + std::chrono::milliseconds(5);

  // What one driver thread measured.
  struct Totals {
    LatencyRecorder latency;
    double max_send_lag_ns = 0;
    std::uint64_t requests = 0, keys = 0, hits = 0, errors = 0, traced = 0;
  };
  std::vector<Totals> totals(config.clients);
  Timer phase_timer;
  const unsigned drivers_up = RunDrivers(
      config.clients, connect, [&](unsigned c, KvClusterClient* cluster) {
        Totals& t = totals[c];
        Xoshiro256 rng(config.seed + 100 + c);
        const ZipfGenerator zipf(config.num_keys, config.zipf_s);
        std::vector<std::string_view> batch(config.mget_size);
        std::vector<std::string> vals;
        std::vector<std::uint8_t> found;
        std::vector<std::uint8_t> errors;
        std::vector<std::pair<std::uint32_t, TracedExchange>> exchanges;
        Timeline& tl = Timeline::Global();
        const std::vector<std::uint64_t> schedule = BuildArrivalSchedule(
            config.arrival, config.target_qps / config.clients,
            open_loop ? config.requests_per_client : 0,
            config.seed + 500 + c);

        for (std::size_t r = 0; r < config.requests_per_client; ++r) {
          for (unsigned k = 0; k < config.mget_size; ++k) {
            const bool hit = rng.NextDouble() < config.hit_rate;
            std::size_t idx;
            if (hit) {
              idx = config.zipf ? zipf.Next(&rng)
                                : rng.NextBounded(config.num_keys);
            } else {
              idx = config.num_keys +
                    rng.NextBounded(keys.size() - config.num_keys);
            }
            batch[k] = keys[idx];
          }
          const bool sampled = trace_on && r % config.trace_sample == 0;
          TraceContext trace;
          if (sampled) {
            // Deterministic, unique across drivers: seed | driver | seq.
            trace.trace_id = (config.seed << 48) ^
                             (static_cast<std::uint64_t>(c + 1) << 32) ^
                             static_cast<std::uint64_t>(r);
            trace.sampled = true;
          }
          // Open loop: wait for the intended send time and charge any
          // slip against the server (coordinated-omission-safe).
          SteadyClock::time_point start;
          double send_lag = 0.0;
          if (open_loop) {
            start = epoch + std::chrono::nanoseconds(schedule[r]);
            std::this_thread::sleep_until(start);
            send_lag = std::chrono::duration<double, std::nano>(
                           SteadyClock::now() - start)
                           .count();
            t.max_send_lag_ns = std::max(t.max_send_lag_ns, send_lag);
          } else {
            start = SteadyClock::now();
          }
          const double send_us = sampled ? tl.NowUs() : 0.0;
          const bool ok =
              sampled ? cluster->MultiGetTraced(batch, trace, &vals, &found,
                                                &errors, &exchanges)
                      : cluster->MultiGet(batch, &vals, &found, &errors);
          const double latency_ns = std::chrono::duration<double, std::nano>(
                                        SteadyClock::now() - start)
                                        .count();
          if (sampled && ok) {
            ++t.traced;
            if (tl.enabled()) {
              RecordClientSpans(trace.trace_id, send_us, send_lag,
                                batch.size(), exchanges);
            }
          }
          if (!ok && cluster->num_up() == 0) break;  // whole cluster gone
          t.latency.Add(latency_ns);
          ++t.requests;
          t.keys += found.size();
          for (const std::uint8_t f : found) t.hits += f;
          for (const std::uint8_t e : errors) t.errors += e;
        }
      });
  result->duration_s = phase_timer.ElapsedSeconds();
  if (drivers_up == 0) {
    if (err) *err = "no driver thread could reach any server";
    return false;
  }

  LatencyRecorder all;
  for (Totals& t : totals) {
    all.Merge(t.latency);
    result->max_send_lag_us =
        std::max(result->max_send_lag_us, t.max_send_lag_ns / 1e3);
    result->requests += t.requests;
    result->keys += t.keys;
    result->hits += t.hits;
    result->key_errors += t.errors;
    result->traced_requests += t.traced;
  }
  result->mget_mean_us = all.mean() / 1e3;
  result->mget_p50_us = all.Percentile(50) / 1e3;
  result->mget_p95_us = all.Percentile(95) / 1e3;
  result->mget_p99_us = all.Percentile(99) / 1e3;
  result->mget_p999_us = all.P999() / 1e3;
  result->mget_p9999_us = all.P9999() / 1e3;
  result->achieved_qps =
      result->duration_s > 0
          ? static_cast<double>(result->requests) / result->duration_s
          : 0;

  // Server-side view, over the same wire.
  KvClusterClient stats_client(connect(0));
  if (stats_client.Connect(nullptr)) {
    result->server_stats = stats_client.StatsAll();
    stats_client.CloseAll();
  } else {
    result->server_stats.assign(num_servers, StatsPairs());
  }
  return true;
}

SimCluster::SimCluster(const std::vector<KvBackend*>& backends,
                       unsigned clients, const WireModel& wire,
                       MetricsRegistry* metrics)
    : clients_(clients) {
  for (KvBackend* backend : backends) {
    std::vector<Channel*> worker_channels;
    for (unsigned c = 0; c < clients; ++c) {
      channels_.push_back(std::make_unique<Channel>(wire));
      worker_channels.push_back(channels_.back().get());
    }
    servers_.push_back(
        std::make_unique<KvServer>(backend, worker_channels, metrics));
    servers_.back()->Start();
  }
}

SimCluster::~SimCluster() {
  // A closed channel ends its worker once drained; the servers' destructors
  // then join them.
  for (auto& channel : channels_) channel->Close();
  servers_.clear();
}

LinkFactory SimCluster::links() {
  return [this](unsigned client) {
    std::vector<std::unique_ptr<FrameLink>> out;
    if (client >= clients_) return out;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      out.push_back(std::make_unique<ChannelLink>(
          channels_[s * clients_ + client].get()));
    }
    return out;
  };
}

double FindStat(const StatsPairs& stats, std::string_view name) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return 0.0;
}

double ServerGetMops(const StatsPairs& stats) {
  // A histogram's mean is its exact sum over its count: parse is timed
  // once per request, the index probe and value copy once per batch.
  const double busy_ns =
      FindStat(stats, "parse_ns.mean") * FindStat(stats, "requests") +
      (FindStat(stats, "index_probe_ns.mean") +
       FindStat(stats, "value_copy_ns.mean")) *
          FindStat(stats, "batches");
  return busy_ns > 0 ? FindStat(stats, "keys") / busy_ns * 1e3 : 0.0;
}

}  // namespace simdht
