// The KVS request path shared by both transports (paper Section VI-A).
//
// Everything between "a frame arrived from a peer" and "this response goes
// back to that peer" lives here; the simulated-RDMA KvServer (kvs/server.h)
// and the epoll KvTcpServer (net/kv_tcp_server.h) are adapters that only
// move frames. Per frame:
//   SET, MSET       executed inline, response queued at once
//   MGET, TMGET     decoded, frame taken into the pending batch; responses
//                   are built when the batch flushes
//   STATS, METRICS  answered from the shared registry and windows
//   SHUTDOWN        reported to the adapter, which stops serving
//
// Response order: a peer's responses leave in its request order. Every
// frame that is not a Multi-Get first flushes the pending batch, so a SET
// pipelined behind an MGET is answered after it and is not seen by it.
//
// A flush makes ONE backend MultiGet over every pending Multi-Get and times
// the paper's Fig 11(b) phases around it:
//   parse        decode + queueing, per request (at receipt)
//   index_probe  the backend MultiGet (the SIMD-accelerated phase)
//   value_copy   CLOCK reference bits + response encoding
//   transport    handing the responses to the adapter's peers
// Each phase lands in a registry histogram (lifetime) and a sliding window
// (recent traffic). A histogram's mean is its exact sum over its count, so
// the Fig 11(b) per-request means come straight from STATS.
//
// Tracing: a TMGET whose context is sampled records `server` spans (parse,
// then index_probe / value_copy / transport for its batch, and a request
// span carrying its trace id) while Timeline::Global() is enabled.
//
// Threading: RequestCore is shared and thread-safe. Each serving thread
// owns one RequestBatch (its pending batch and scratch) bound to a
// ResponseSink of its own.
#ifndef SIMDHT_KVS_REQUEST_CORE_H_
#define SIMDHT_KVS_REQUEST_CORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kvs/backend.h"
#include "kvs/protocol.h"
#include "obs/sliding_histogram.h"
#include "perf/metrics.h"

namespace simdht {

// Metric names the request core records into its registry.
namespace kvs_metrics {
// Multi-Get request frames (plain + traced) accepted for processing.
inline constexpr char kRequests[] = "kvs.mget.requests";
// Flushed batches (one backend MultiGet each), their keys and hits.
inline constexpr char kBatches[] = "kvs.mget.batches";
inline constexpr char kKeys[] = "kvs.mget.keys";
inline constexpr char kHits[] = "kvs.mget.hits";
// Distinct peers / total keys per flushed batch (histograms).
inline constexpr char kBatchConnections[] = "kvs.mget.batch_connections";
inline constexpr char kBatchKeys[] = "kvs.mget.batch_keys";
inline constexpr char kParseNs[] = "kvs.mget.parse_ns";            // phase 1
inline constexpr char kIndexProbeNs[] = "kvs.mget.index_probe_ns";  // phase 2
inline constexpr char kValueCopyNs[] = "kvs.mget.value_copy_ns";    // phase 3
inline constexpr char kTransportNs[] = "kvs.mget.transport_ns";     // send
// Peers accepted, and frames rejected as malformed.
inline constexpr char kConnections[] = "kvs.connections";
inline constexpr char kProtocolErrors[] = "kvs.protocol_errors";
}  // namespace kvs_metrics

// Where one serving thread's responses go. `peer` is the adapter's opaque
// token for the connection a frame came from.
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  // Appends one response for `peer`; a peer that has gone away drops it.
  virtual void Queue(std::uint64_t peer, const Buffer& response) = 0;
  // Sends what Queue() left for `peer`. A flush calls it once per distinct
  // peer of the batch; other responses wait for the adapter to send them.
  virtual void Transmit(std::uint64_t peer) = 0;
};

// What Handle() made of a frame. The adapter picks the policy: TCP closes
// a connection that sent a malformed frame, the channel worker drops it.
enum class FrameVerdict {
  kServed,     // executed, or queued in the pending batch
  kMalformed,  // counted as a protocol error; nothing was executed
  kShutdown,   // a SHUTDOWN request: the adapter stops serving
};

// The shared half: backend, registry, rolling windows and rendering.
class RequestCore {
 public:
  // `metrics` is optional and caller-owned (it must outlive the core);
  // when null the core owns a private registry. `window` shapes the
  // rolling windows behind the `win.*` STATS keys.
  RequestCore(KvBackend* backend, MetricsRegistry* metrics,
              const SlidingHistogram::Options& window);

  RequestCore(const RequestCore&) = delete;
  RequestCore& operator=(const RequestCore&) = delete;

  // Adapter-side events that share the core's counters.
  void CountConnection();
  void CountProtocolError();
  // One event-loop dispatch cycle: its duration in µs (epoll wait
  // included) and the ready events it handled.
  void RecordDispatchCycle(std::uint64_t us, std::uint64_t events);

  // Named-double snapshot (what a STATS request returns): per-phase
  // latency percentiles and means in ns, batch occupancy, counters,
  // rolling-window tails (`win.*`), per-shard probe counters.
  StatsPairs StatsSnapshot() const;

  // Prometheus text exposition (what a METRICS request returns).
  std::string RenderMetricsText() const;

  MetricsSnapshot Metrics() const { return metrics_->Aggregate(); }

 private:
  friend class RequestBatch;

  struct Ids {
    MetricId requests, batches, keys, hits, connections, protocol_errors;
    MetricId batch_connections, batch_keys;
    MetricId parse_ns, index_probe_ns, value_copy_ns, transport_ns;
  };

  // Rolling windows (merge-on-read rings; see obs/sliding_histogram.h).
  // Latencies in ns, dispatch_us in µs. `requests`/`keys`/`hits` record
  // per-flush totals so sum_rate_per_s gives windowed rates.
  struct Windows {
    explicit Windows(const SlidingHistogram::Options& w)
        : parse_ns(w), index_probe_ns(w), value_copy_ns(w),
          transport_ns(w), batch_connections(w), batch_keys(w),
          requests(w), keys(w), hits(w), dispatch_us(w),
          dispatch_events(w) {}
    SlidingHistogram parse_ns, index_probe_ns, value_copy_ns, transport_ns;
    SlidingHistogram batch_connections, batch_keys;
    SlidingHistogram requests, keys, hits;
    SlidingHistogram dispatch_us, dispatch_events;
  };

  // A request phase: its name, lifetime histogram and rolling window.
  struct Phase {
    const char* name;
    const char* metric;
    const SlidingHistogram* window;
  };
  std::array<Phase, 4> Phases() const;

  struct WindowRates {
    double window_s, requests_per_s, keys_per_s, hits_per_s, hit_rate;
  };
  WindowRates Rates() const;

  KvBackend* backend_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  Ids ids_{};
  double tsc_ghz_;
  Windows windows_;
};

// One serving thread's half: the pending Multi-Get batch and the scratch
// its flush reuses. Not thread-safe; bound to one ResponseSink.
class RequestBatch {
 public:
  RequestBatch(RequestCore* core, ResponseSink* sink);

  // Serves one request frame from `peer`. SET/MSET/STATS/METRICS answers
  // are queued on the sink; Multi-Gets wait for Flush(). A Multi-Get's
  // frame is taken (swapped with a spare buffer, so *frame is left with
  // stale bytes to overwrite).
  FrameVerdict Handle(Buffer* frame, std::uint64_t peer);

  // Probes every pending Multi-Get in one backend call, encodes each
  // response, queues it on the sink and transmits to the peers the batch
  // served.
  void Flush();

  std::size_t pending_keys() const { return keys_.size(); }

 private:
  // One Multi-Get awaiting the flush; its keys are
  // [first_key, first_key + num_keys) of the batch.
  struct Pending {
    std::uint64_t peer;
    std::size_t first_key;
    std::size_t num_keys;
    // Trace context (TMGET only). rx_us is the server timeline timestamp
    // at receipt, echoed to the client for clock alignment.
    bool traced = false;
    bool sampled = false;
    std::uint64_t trace_id = 0;
    double rx_us = 0.0;
  };

  FrameVerdict Malformed();

  RequestCore* core_;
  ResponseSink* sink_;

  // Pending batch: request i owns frames_[i], and keys_ views the keys of
  // every pending request, in order. frames_ keeps its buffers across
  // flushes so taking a frame allocates nothing.
  std::vector<Pending> pending_;
  std::vector<Buffer> frames_;
  std::vector<std::string_view> keys_;

  // Decode and flush scratch, reused across frames and batches.
  SetRequest set_;
  MultiSetRequest mset_;
  MultiGetRequest mget_;
  std::vector<std::uint8_t> set_ok_;
  std::vector<std::string_view> vals_;
  std::vector<std::uint8_t> found_;
  std::vector<std::uint64_t> handles_;
  std::vector<std::string_view> entry_vals_;
  std::vector<std::uint8_t> entry_found_;
  std::vector<std::uint64_t> peers_;
  std::vector<Buffer> responses_;  // one per pending request
  Buffer response_;
};

}  // namespace simdht

#endif  // SIMDHT_KVS_REQUEST_CORE_H_
