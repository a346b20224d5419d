// Prometheus text exposition (format 0.0.4) writer.
//
// The serving subsystem exposes its live metrics as `simdht_*` families —
// over the METRICS admin op and the optional --metrics-port HTTP listener —
// so a standard Prometheus scrape (or `curl`) can watch a running server.
// This writer only formats; which families exist and what feeds them is
// decided by the caller (RequestCore::RenderMetricsText). Naming scheme:
//
//   simdht_kvs_requests_total        counter  MGET frames served
//   simdht_kvs_keys_total            counter  keys probed
//   simdht_kvs_hits_total            counter  keys found
//   simdht_kvs_batches_total         counter  cross-connection batch flushes
//   simdht_net_connections_total     counter  connections accepted
//   simdht_net_protocol_errors_total counter  frames rejected
//   simdht_kvs_phase_ns{phase=,quantile=}  gauge  lifetime phase latency
//   simdht_window_*                  gauge    rolling-window views (rates,
//                                             tail quantiles, occupancy)
//   simdht_shard_hits_total{shard=}  counter  per-shard probe outcomes
//                                             (also _misses_/_stash_hits_)
#ifndef SIMDHT_OBS_PROMETHEUS_H_
#define SIMDHT_OBS_PROMETHEUS_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simdht {

class PrometheusWriter {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  // Emits the # HELP / # TYPE header for a family. Call once per family,
  // before its samples; `type` is "counter" or "gauge".
  void Family(std::string_view name, std::string_view help,
              std::string_view type);

  // Emits one sample line. Label values are escaped per the format spec
  // (backslash, double quote, newline).
  void Sample(std::string_view name, double value);
  void Sample(std::string_view name, const Labels& labels, double value);

  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

}  // namespace simdht

#endif  // SIMDHT_OBS_PROMETHEUS_H_
