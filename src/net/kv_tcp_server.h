// TCP Multi-Get server: epoll event loop + cross-connection batching.
//
// A transport adapter around the shared request core (kvs/request_core.h),
// which does all request handling. The simulated KvServer gives each
// channel its own worker and pending batch, so a batch is one client's
// request. This server inverts that: a single event-loop thread serves
// every connection through ONE pending batch, so all Multi-Get frames that
// arrive within one epoll dispatch cycle — from any number of connections —
// are flushed as one backend MultiGet call. The SIMD kernel's in-loop
// prefetch therefore sees the combined batch: ten clients sending 16-key Multi-Gets
// concurrently produce 160-key probe batches, exactly the regime where the
// paper's out-of-order software pipelining pays off. The
// `batch_connections` STATS keys record how many distinct connections each
// flushed batch served, making the coalescing observable (and testable).
//
// This file keeps the socket side only: accepting, per-connection read and
// write buffers with backpressure, closing a connection that sent a
// malformed frame (at the end of the cycle, so a stale event never hits a
// recycled fd), the dispatch-cycle windows and the HTTP metrics listener.
//
// The pending batch is flushed when it reaches max_batch_keys or at the end
// of the dispatch cycle, whichever comes first — batching never delays a
// request past the epoll cycle that received it (no artificial latency,
// unlike Nagle-style timers).
//
// Threading: Listen()/Run()/PollOnce() belong to one thread; Stop() and
// StatsSnapshot() are safe from any thread.
#ifndef SIMDHT_NET_KV_TCP_SERVER_H_
#define SIMDHT_NET_KV_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kvs/backend.h"
#include "kvs/protocol.h"
#include "kvs/request_core.h"
#include "net/acceptor.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/metrics_http.h"
#include "perf/metrics.h"

namespace simdht {

struct KvTcpServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
  // Flush the pending batch mid-cycle once it holds this many keys.
  std::size_t max_batch_keys = 8192;
  // Per-connection write-buffer cap; beyond it reads pause (backpressure).
  std::size_t max_write_buffer = std::size_t{4} << 20;
  // Rolling metrics window: a ring of `window_intervals` buckets of
  // `window_interval_ms` each. Windowed percentiles/rates (METRICS op,
  // `win.*` STATS keys) reflect only the last
  // window_intervals * window_interval_ms of traffic.
  std::uint64_t window_interval_ms = 1000;
  unsigned window_intervals = 8;
  // Optional plain-HTTP Prometheus endpoint on the serving event loop
  // (GET /metrics). Port 0 = ephemeral; read back via metrics_port().
  bool enable_metrics_http = false;
  std::uint16_t metrics_http_port = 0;
};

class KvTcpServer : private ResponseSink {
 public:
  // `metrics` is optional; when null the server owns a private registry.
  // Either way StatsSnapshot() reads it and kStats serves it remotely.
  KvTcpServer(KvBackend* backend, KvTcpServerOptions options = {},
              MetricsRegistry* metrics = nullptr);
  ~KvTcpServer() override;

  KvTcpServer(const KvTcpServer&) = delete;
  KvTcpServer& operator=(const KvTcpServer&) = delete;

  // Binds and listens; port() is valid afterwards.
  bool Listen(std::string* err);
  std::uint16_t port() const { return acceptor_.port(); }

  // Event loop until Stop() (or a SHUTDOWN frame). Call from one thread.
  void Run();

  // Listen() (if not yet listening) + Run() on an internal thread.
  bool StartBackground(std::string* err);

  // Thread-safe; Run returns after the current cycle. Join() afterwards
  // when StartBackground was used.
  void Stop();
  void Join();

  // One dispatch cycle: epoll wait, handle every ready event, flush the
  // pending cross-connection batch, send responses, reap closed
  // connections. Returns events dispatched (-1 on poll error). Exposed so
  // tests can drive the server deterministically without a thread.
  int PollOnce(int timeout_ms);

  // What a STATS request returns (see RequestCore). Thread-safe.
  StatsPairs StatsSnapshot() const { return core_.StatsSnapshot(); }

  // Valid after Listen() when options.enable_metrics_http; 0 otherwise.
  std::uint16_t metrics_port() const {
    return metrics_http_ ? metrics_http_->port() : 0;
  }

  MetricsSnapshot Metrics() const { return core_.Metrics(); }

  std::size_t num_connections() const { return conns_.size(); }

 private:
  struct Conn {
    std::unique_ptr<Connection> connection;
    std::uint32_t epoll_mask = 0;
    bool dead = false;
  };

  // ResponseSink: a peer is the Conn's address. A pending Conn stays
  // allocated (in dead_conns_ once closed) until the cycle's flush is done.
  void Queue(std::uint64_t peer, const Buffer& response) override;
  void Transmit(std::uint64_t peer) override;

  void OnAcceptReady();
  void OnConnEvent(int fd, std::uint32_t ready);
  void DrainFrames(Conn* conn);
  void FlushIdleWrites();
  void UpdateInterest(Conn* conn);
  void CloseConn(int fd);

  KvTcpServerOptions options_;
  RequestCore core_;
  RequestBatch batch_;
  Buffer frame_;  // DrainFrames scratch

  EventLoop loop_;
  Acceptor acceptor_;
  std::unique_ptr<MetricsHttpListener> metrics_http_;
  std::map<int, std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<Conn>> dead_conns_;  // closed end-of-cycle
  std::uint64_t next_conn_id_ = 1;

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace simdht

#endif  // SIMDHT_NET_KV_TCP_SERVER_H_
