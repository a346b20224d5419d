// Multi-Get load generator for both KVS transports (paper Section VI-B).
//
// Reproduces the paper's client setup: N driver threads, 20 B keys / 32 B
// values, Multi-Get batches of 16-96 keys, skewed (mutilate-like) or
// uniform key popularity. One driver runs against any set of servers it can
// open FrameLinks to — simulated KvServers over channels (SimCluster,
// below) or KvTcpServer processes (net/tcp_link.h) — with the same phases:
//   1. build the key universe ([0, num_keys) stored, a disjoint miss pool);
//   2. preload it in 128-key MSET chunks, striped across driver threads;
//   3. run the Multi-Get schedule, each driver through its own cluster
//      client (consistent-hash routing when there is more than one server);
//   4. fetch every server's STATS, so one result carries client-observed
//      latency and the server-side phases (Fig 11b) together.
//
// Two arrival disciplines:
//   * closed-loop (paper protocol): each client fires its next Multi-Get
//     the moment the previous response lands. Measures capacity, but a slow
//     server quietly throttles the offered load, hiding tail latency
//     (coordinated omission).
//   * open-loop: requests follow a fixed-QPS arrival schedule (uniform or
//     Poisson) computed up front, and latency is recorded from each
//     request's *intended* send time — a response that was delayed because
//     the sender fell behind schedule is charged the full delay.
#ifndef SIMDHT_KVS_LOADGEN_H_
#define SIMDHT_KVS_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kvs/backend.h"
#include "kvs/client.h"
#include "kvs/protocol.h"
#include "kvs/server.h"
#include "kvs/transport.h"
#include "perf/metrics.h"

namespace simdht {

enum class ArrivalMode {
  kClosedLoop,  // send-on-response (the paper's memslap behaviour)
  kUniform,     // open loop, fixed inter-arrival gap 1/qps
  kPoisson,     // open loop, exponential gaps with mean 1/qps
};

const char* ArrivalModeName(ArrivalMode mode);
bool ParseArrivalMode(std::string_view name, ArrivalMode* mode);

// Intended send times (nanosecond offsets from schedule start, ascending)
// for `count` requests at aggregate rate `qps`. Deterministic in (mode,
// qps, count, seed); kClosedLoop yields an empty schedule. The Poisson
// schedule is a superposition-safe single stream: exponential gaps drawn
// from a generator seeded only by `seed`.
std::vector<std::uint64_t> BuildArrivalSchedule(ArrivalMode mode, double qps,
                                                std::size_t count,
                                                std::uint64_t seed);

// Fixed-width key string for index i, e.g. "key:0000000042......".
std::string MakeKeyString(std::size_t index, std::size_t key_size);

struct LoadgenConfig {
  unsigned clients = 2;                  // driver threads
  std::size_t num_keys = 100000;         // preloaded key population
  std::size_t key_size = 20;             // bytes (paper: 20 B)
  std::size_t val_size = 32;             // bytes (paper: 32 B)
  unsigned mget_size = 16;               // keys per Multi-Get (16 or 96)
  std::size_t requests_per_client = 2000;
  double hit_rate = 0.95;                // misses come from a disjoint pool
  bool zipf = true;                      // mutilate-like skew
  double zipf_s = 0.99;
  // For the open-loop modes `target_qps` is the aggregate intended
  // Multi-Get rate across all clients (each runs its 1/clients share).
  ArrivalMode arrival = ArrivalMode::kClosedLoop;
  double target_qps = 0;
  std::uint64_t seed = 1;
  bool preload = true;  // MSET the key population before the Multi-Gets
  // Cross-wire tracing: send one Multi-Get in `trace_sample` per driver
  // as TMGET (0 = off). The driver records client-side schedule/request
  // spans plus one clock_sync instant per server touched (the NTP-style
  // samples simdht_tracemerge aligns clocks with; servers are labelled by
  // index, "0", "1", ...). Spans only land while Timeline::Global() is
  // enabled. Runs untraced — trace_supported=false — when a server does
  // not advertise proto.trace_context in STATS.
  unsigned trace_sample = 0;
};

struct LoadgenResult {
  std::size_t preloaded = 0;
  std::uint64_t requests = 0;
  std::uint64_t keys = 0;
  std::uint64_t hits = 0;
  std::uint64_t key_errors = 0;  // per-key failures (downed servers)

  // End-to-end Multi-Get latency (client-observed), microseconds; from
  // intended send times under open-loop arrivals.
  double mget_mean_us = 0;
  double mget_p50_us = 0;
  double mget_p95_us = 0;
  double mget_p99_us = 0;
  double mget_p999_us = 0;
  double mget_p9999_us = 0;

  // The rate the schedule intended (0 when closed-loop), the rate
  // achieved, and the worst lag between a request's intended and actual
  // send time.
  double intended_qps = 0;
  double achieved_qps = 0;
  double max_send_lag_us = 0;
  double duration_s = 0;

  // Tracing outcome: whether the servers negotiated the traced protocol,
  // and how many requests actually carried a trace context.
  bool trace_supported = false;
  std::uint64_t traced_requests = 0;

  // Post-run STATS snapshot per server (empty for down servers).
  std::vector<StatsPairs> server_stats;
};

// Opens driver thread `client`'s links, one per server, in the same server
// order on every call. The driver calls it once per phase per thread.
using LinkFactory =
    std::function<std::vector<std::unique_ptr<FrameLink>>(unsigned client)>;

// False (with *err) when there are no servers or no driver could reach
// one; partial-cluster runs succeed and report key_errors.
bool RunLoadgen(const LoadgenConfig& config, const LinkFactory& connect,
                LoadgenResult* result, std::string* err);

// Simulated servers for RunLoadgen: one KvServer per backend, each serving
// one channel per driver thread over `wire`. `metrics` (optional,
// caller-owned) is handed to every server. The servers stop when the
// cluster is destroyed.
class SimCluster {
 public:
  SimCluster(const std::vector<KvBackend*>& backends, unsigned clients,
             const WireModel& wire, MetricsRegistry* metrics = nullptr);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  // Driver thread `client` reaches every server over its own channel; a
  // client the cluster was not built for gets no links.
  LinkFactory links();

 private:
  unsigned clients_;
  std::vector<std::unique_ptr<Channel>> channels_;  // [server][client]
  std::vector<std::unique_ptr<KvServer>> servers_;
};

// The named value in a STATS snapshot, or 0 when it is absent.
double FindStat(const StatsPairs& stats, std::string_view name);

// Server-side Get throughput from one server's STATS, in Mops: keys
// retired per second of parse + index probe + value copy time — the metric
// SIMD lookup acceleration moves in Fig 11a.
double ServerGetMops(const StatsPairs& stats);

}  // namespace simdht

#endif  // SIMDHT_KVS_LOADGEN_H_
