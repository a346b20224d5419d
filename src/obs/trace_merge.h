// Clock-aligned merge of client + server Chrome trace files.
//
// A traced Multi-Get produces spans in two processes with two unrelated
// steady clocks: the loadgen's trace (schedule/send/wait spans, one
// `clock_sync` instant per sampled request) and each server's trace
// (parse/index_probe/value_copy/transport spans). This merges them into
// one Chrome/Perfetto timeline: client events keep their clock (pid 1),
// server events shift onto it (pid 2 + server index).
//
// The offset estimate is the classic NTP midpoint method. Each clock_sync
// instant carries the four timestamps of one request —
//   client_send_us / client_recv_us   (client clock)
//   server_rx_us   / server_tx_us     (server clock)
// — and assuming symmetric network delay, the server's clock reads
// (rx+tx)/2 when the client's reads (send+recv)/2, so
//   offset = (server_rx + server_tx)/2 - (client_send + client_recv)/2.
// The per-server offset is the median over that server's samples (robust
// to asymmetric-delay outliers); server timestamps are shifted by -offset.
#ifndef SIMDHT_OBS_TRACE_MERGE_H_
#define SIMDHT_OBS_TRACE_MERGE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace simdht {

// Names/arg keys shared between the loadgen (which writes clock_sync
// instants) and this merge step.
namespace trace_sync {
inline constexpr char kEventName[] = "clock_sync";
inline constexpr char kServer[] = "server";  // endpoint label, e.g. host:port
inline constexpr char kClientSendUs[] = "client_send_us";
inline constexpr char kClientRecvUs[] = "client_recv_us";
inline constexpr char kServerRxUs[] = "server_rx_us";
inline constexpr char kServerTxUs[] = "server_tx_us";
}  // namespace trace_sync

struct TraceMergeInput {
  std::string label;  // must match the clock_sync "server" arg
  std::string path;   // server-side trace file (Timeline::WriteToFile)
};

struct TraceMergeResult {
  std::string json;  // merged {"traceEvents":[...]} document
  struct ServerAlignment {
    std::string label;
    double offset_us = 0.0;      // server clock minus client clock
    std::size_t sync_samples = 0;
  };
  std::vector<ServerAlignment> alignments;
};

// False (with a descriptive `err`) on unreadable/malformed inputs or when a
// server has no clock_sync sample in the client trace — an unalignable
// trace is an error, not a silent pass-through.
bool MergeTraces(const std::string& client_path,
                 const std::vector<TraceMergeInput>& servers,
                 TraceMergeResult* out, std::string* err);

}  // namespace simdht

#endif  // SIMDHT_OBS_TRACE_MERGE_H_
