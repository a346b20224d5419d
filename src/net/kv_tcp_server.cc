#include "net/kv_tcp_server.h"

#include <sys/epoll.h>

#include <chrono>

namespace simdht {

namespace {

SlidingHistogram::Options WindowOptions(const KvTcpServerOptions& o) {
  SlidingHistogram::Options w;
  w.interval_ns = o.window_interval_ms * 1'000'000ull;
  w.intervals = o.window_intervals == 0 ? 1 : o.window_intervals;
  return w;
}

}  // namespace

KvTcpServer::KvTcpServer(KvBackend* backend, KvTcpServerOptions options,
                         MetricsRegistry* metrics)
    : options_(std::move(options)),
      core_(backend, metrics, WindowOptions(options_)),
      batch_(&core_, this) {}

KvTcpServer::~KvTcpServer() {
  Stop();
  Join();
}

bool KvTcpServer::Listen(std::string* err) {
  if (!loop_.valid()) {
    if (err) *err = loop_.init_error();
    return false;
  }
  if (!acceptor_.Listen(options_.host, options_.port, err)) return false;
  if (!loop_.Add(
          acceptor_.fd(), EPOLLIN | EPOLLET,
          [this](std::uint32_t) { OnAcceptReady(); }, err)) {
    return false;
  }
  if (options_.enable_metrics_http && !metrics_http_) {
    metrics_http_ = std::make_unique<MetricsHttpListener>(
        &loop_, [this] { return core_.RenderMetricsText(); });
    if (!metrics_http_->Listen(options_.host, options_.metrics_http_port,
                               err)) {
      metrics_http_.reset();
      return false;
    }
  }
  return true;
}

void KvTcpServer::Run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    PollOnce(50);
  }
  // Final cycle already flushed; drop every connection.
  conns_.clear();
  dead_conns_.clear();
}

bool KvTcpServer::StartBackground(std::string* err) {
  if (!acceptor_.listening() && !Listen(err)) return false;
  thread_ = std::thread([this] { Run(); });
  return true;
}

void KvTcpServer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  loop_.Wakeup();
}

void KvTcpServer::Join() {
  if (thread_.joinable()) thread_.join();
}

int KvTcpServer::PollOnce(int timeout_ms) {
  const auto cycle_start = std::chrono::steady_clock::now();
  const int dispatched = loop_.PollOnce(timeout_ms);
  batch_.Flush();
  FlushIdleWrites();
  if (dispatched > 0) {
    // Dispatch-cycle duration includes the epoll wait itself (so it bounds
    // the latency any frame spends queued behind the cycle); idle cycles
    // (zero events) are not recorded — they would swamp the window with
    // 50 ms timeouts.
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - cycle_start)
                        .count();
    core_.RecordDispatchCycle(static_cast<std::uint64_t>(us),
                              static_cast<std::uint64_t>(dispatched));
  }
  if (metrics_http_) metrics_http_->EndOfCycle();
  dead_conns_.clear();  // actual close(); fds are recyclable from here on
  return dispatched;
}

void KvTcpServer::OnAcceptReady() {
  acceptor_.AcceptReady([this](int fd) {
    auto conn = std::make_unique<Conn>();
    conn->connection = std::make_unique<Connection>(
        fd, next_conn_id_++, options_.max_write_buffer);
    conn->epoll_mask = EPOLLIN | EPOLLET;
    std::string err;
    if (!loop_.Add(fd, conn->epoll_mask,
                   [this, fd](std::uint32_t ready) { OnConnEvent(fd, ready); },
                   &err)) {
      return;  // Conn destructor closes the fd
    }
    core_.CountConnection();
    conns_[fd] = std::move(conn);
  });
}

void KvTcpServer::OnConnEvent(int fd, std::uint32_t ready) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  if (conn->dead) return;

  if (ready & (EPOLLHUP | EPOLLERR)) {
    CloseConn(fd);
    return;
  }
  if (ready & EPOLLOUT) {
    std::string err;
    if (!conn->connection->FlushWrites(&err)) {
      CloseConn(fd);
      return;
    }
  }
  if (ready & EPOLLIN) {
    std::string err;
    const bool alive = conn->connection->ReadReady(&err);
    // Frames fully received before EOF are still served.
    DrainFrames(conn);
    if (!alive && !conn->dead) {
      CloseConn(fd);
      return;
    }
  }
  if (!conn->dead) UpdateInterest(conn);
}

void KvTcpServer::DrainFrames(Conn* conn) {
  std::string err;
  for (;;) {
    switch (conn->connection->NextFrame(&frame_, &err)) {
      case FrameAssembler::Result::kNeedMore:
        return;
      case FrameAssembler::Result::kError:
        core_.CountProtocolError();
        CloseConn(conn->connection->fd());
        return;
      case FrameAssembler::Result::kFrame:
        switch (batch_.Handle(&frame_, reinterpret_cast<std::uint64_t>(conn))) {
          case FrameVerdict::kServed:
            break;
          case FrameVerdict::kMalformed:
            // The stream cannot be trusted past a malformed frame.
            CloseConn(conn->connection->fd());
            return;
          case FrameVerdict::kShutdown:
            stop_.store(true, std::memory_order_relaxed);
            return;
        }
        if (conn->dead || stop_.load(std::memory_order_relaxed)) return;
        if (batch_.pending_keys() >= options_.max_batch_keys) batch_.Flush();
        break;
    }
  }
}

void KvTcpServer::Queue(std::uint64_t peer, const Buffer& response) {
  Conn* conn = reinterpret_cast<Conn*>(peer);
  if (!conn->dead) conn->connection->QueueFrame(response);
}

void KvTcpServer::Transmit(std::uint64_t peer) {
  Conn* conn = reinterpret_cast<Conn*>(peer);
  if (conn->dead) return;
  std::string err;
  if (!conn->connection->FlushWrites(&err)) {
    CloseConn(conn->connection->fd());
    return;
  }
  UpdateInterest(conn);
}

void KvTcpServer::FlushIdleWrites() {
  // SET/STATS responses (and any leftovers) queued outside a batch flush.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    (void)conn;
    fds.push_back(fd);
  }
  for (const int fd : fds) {
    const auto it = conns_.find(fd);
    if (it == conns_.end() || it->second->dead) continue;
    if (it->second->connection->wants_write()) {
      std::string err;
      if (!it->second->connection->FlushWrites(&err)) {
        CloseConn(fd);
        continue;
      }
    }
    UpdateInterest(it->second.get());
  }
}

void KvTcpServer::UpdateInterest(Conn* conn) {
  std::uint32_t want = EPOLLET;
  // Backpressure: a connection whose write buffer is over the cap stops
  // being read until the peer drains it.
  if (!conn->connection->backpressured()) want |= EPOLLIN;
  if (conn->connection->wants_write()) want |= EPOLLOUT;
  if (want == conn->epoll_mask) return;
  std::string err;
  if (loop_.Modify(conn->connection->fd(), want, &err)) {
    conn->epoll_mask = want;
  }
}

void KvTcpServer::CloseConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  it->second->dead = true;
  loop_.Remove(fd);
  // The fd stays open until end-of-cycle: a stale event in this dispatch
  // batch must not hit a recycled fd number.
  dead_conns_.push_back(std::move(it->second));
  conns_.erase(it);
}

}  // namespace simdht
