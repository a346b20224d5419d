// kvs-tcp: the end-to-end serving path. An in-process KvTcpServer (one
// event-loop thread) serves a SimdBackend; two pinned client threads, one
// loopback connection each, send 16-key Multi-Gets on an open-loop
// schedule and time each from its intended send time. A closed-loop phase
// then finds the server's capacity. The client speaks kvs/protocol.h over
// raw sockets, so no library client or load generator is involved.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "hash/block_hash.h"
#include "hash/hash_family.h"
#include "kvs/backend.h"
#include "kvs/protocol.h"
#include "kvs/simd_backend.h"
#include "net/kv_tcp_server.h"

namespace perfbench {
namespace {

constexpr std::size_t kKeyBytes = 20;
constexpr std::size_t kValueBytes = 32;
constexpr std::size_t kMgetKeys = 16;
constexpr std::size_t kMsetKeys = 128;
constexpr double kMissFrac = 0.05;
constexpr double kZipfTheta = 0.99;
constexpr unsigned kClients = 2;
// Closed-loop phase: Multi-Gets kept in flight per connection.
constexpr unsigned kWindow = 8;
// A client sleeps until this long before a send is due, then spins.
constexpr std::int64_t kSpinNs = 50'000;

struct KvsSpec {
  std::uint64_t keys;      // preloaded ids [0, keys); misses from a
                           // disjoint pool of the same size
  double mget_per_s;       // open-loop rate over both connections
  double warmup_s;         // open-loop time before measuring
  double capacity_s;       // closed-loop capacity phase (untraced only)
  int setups;              // untraced setup repetitions
};

// 40,000 MGET/s keeps the server lightly loaded: at 80,000/s and above the
// median latency changed 1.6-2.2x between runs on a shared host, too much
// to gate on.
KvsSpec SpecFor(const RunConfig& cfg) {
  if (cfg.smoke) return {20'000, 4'000, 0.2, 0.3, 2};
  return {1'000'000, 40'000, 1.0, 2.0, 5};
}

// Index entries for `keys` preloaded keys: (2,4) buckets for half load,
// sized so the table's power-of-two rounding lands exactly on 2 x keys.
std::uint64_t IndexSlots(std::uint64_t keys) {
  std::uint64_t slots = 8;
  while (slots < 2 * keys) slots <<= 1;
  return slots;
}

// Writes the low `digits` hex digits of `v`.
void Hex(std::uint64_t v, int digits, char* out) {
  for (int i = digits - 1; i >= 0; --i, v >>= 4) {
    out[i] = "0123456789abcdef"[v & 15];
  }
}

// 20 bytes: 'k', the id's table key and the id itself.
void KeyString(const KeySpace& ks, std::uint64_t id, char* out) {
  out[0] = 'k';
  Hex(ks.Key(id), 8, out + 1);
  Hex(id, 11, out + 9);
}

// 32 bytes derived from the id, so a response can be checked.
void ValueString(const KeySpace& ks, std::uint64_t id, char* out) {
  const std::uint32_t key = ks.Key(id);
  Hex(key, 8, out);
  Hex(KeySpace::Value(key), 8, out + 8);
  Hex(id, 16, out + 16);
}

// Ids [0, keys) are preloaded and ids from `keys` on are never stored. The
// server's answers to the preload MSETs say which preloaded ids it holds: a
// backend may reject a few keys (SimdBackend holds one key per 32-bit index
// key), and those ids are then expected to miss.
struct Residency {
  explicit Residency(std::uint64_t keys) : keys(keys), stored(keys, 0) {}
  bool Stored(std::uint32_t id) const { return id < keys && stored[id]; }

  std::uint64_t keys;
  std::vector<std::uint8_t> stored;  // by id
};

// --------------------------------------------------------- the backend --

// One MultiGet call as the server made it.
struct BackendSpan {
  std::int64_t start_ns, end_ns;
  std::size_t keys;
};

// Wraps the backend the server calls and times MultiGet and MultiSet from
// the outside. The server thread calls it; the bench thread reads it.
class TimedBackend final : public simdht::KvBackend {
 public:
  explicit TimedBackend(std::unique_ptr<simdht::KvBackend> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  bool Set(std::string_view key, std::string_view val) override {
    return inner_->Set(key, val);
  }
  std::size_t MultiSet(const std::vector<std::string_view>& keys,
                       const std::vector<std::string_view>& vals,
                       std::vector<std::uint8_t>* ok) override {
    const std::int64_t s = NowNs();
    const std::size_t stored = inner_->MultiSet(keys, vals, ok);
    const std::int64_t e = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    sets_.Add(keys.size(), e - s);
    return stored;
  }
  bool Get(std::string_view key, std::string* val) override {
    return inner_->Get(key, val);
  }
  std::size_t MultiGet(const std::vector<std::string_view>& keys,
                       std::vector<std::string_view>* vals,
                       std::vector<std::uint8_t>* found,
                       std::vector<std::uint64_t>* handles) override {
    const std::int64_t s = NowNs();
    const std::size_t hits = inner_->MultiGet(keys, vals, found, handles);
    const std::int64_t e = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    ++get_calls_;
    get_keys_ += keys.size();
    get_hits_ += hits;
    get_ns_ += e - s;
    if (recording_) spans_.push_back({s, e, keys.size()});
    return hits;
  }
  bool Erase(std::string_view key) override { return inner_->Erase(key); }
  std::uint64_t size() const override { return inner_->size(); }
  std::vector<simdht::ShardProbeCounters> ShardProbeStats() const override {
    return inner_->ShardProbeStats();
  }

  struct GetTotals {
    std::uint64_t calls = 0, keys = 0, hits = 0;
    std::int64_t ns = 0;
  };
  // Starts recording MultiGet spans and counting afresh.
  void StartRecording() {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = true;
    spans_.clear();
    get_calls_ = get_keys_ = get_hits_ = 0;
    get_ns_ = 0;
  }
  std::vector<BackendSpan> TakeSpans(GetTotals* totals) {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = false;
    *totals = {get_calls_, get_keys_, get_hits_, get_ns_};
    return std::move(spans_);
  }
  WriteMeter sets() {
    std::lock_guard<std::mutex> lock(mu_);
    return sets_;
  }

 private:
  std::unique_ptr<simdht::KvBackend> inner_;
  std::mutex mu_;
  bool recording_ = false;
  std::vector<BackendSpan> spans_;
  std::uint64_t get_calls_ = 0, get_keys_ = 0, get_hits_ = 0;
  std::int64_t get_ns_ = 0;
  WriteMeter sets_;
};

// The server under test on its own pinned thread.
class Server {
 public:
  explicit Server(std::uint64_t keys)
      : backend_(std::make_unique<simdht::SimdBackend>(
            simdht::SimdBackend::BucketCuckooHorAvx2(),
            IndexSlots(keys) - 4, std::size_t{512} << 20)),
        server_(&backend_) {
    std::string err;
    if (!server_.Listen(&err)) throw std::runtime_error("listen: " + err);
    thread_ = std::thread([this] {
      PinThread(1);
      server_.Run();
    });
  }
  ~Server() {
    server_.Stop();
    thread_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return server_.port(); }
  TimedBackend& backend() { return backend_; }

 private:
  TimedBackend backend_;
  simdht::KvTcpServer server_;
  std::thread thread_;
};

// ---------------------------------------------------------- the client --

// A blocking loopback connection speaking length-prefixed protocol frames.
class Connection {
 public:
  explicit Connection(std::uint16_t port)
      : fd_(socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 ||
        setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
      close(fd_);
      throw std::runtime_error(std::string("connect: ") +
                               std::strerror(errno));
    }
  }
  ~Connection() { close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  bool Send(const simdht::Buffer& payload) {
    wire_.clear();
    simdht::AppendFrame(payload, &wire_);
    std::size_t off = 0;
    while (off < wire_.size()) {
      const ssize_t n =
          send(fd_, wire_.data() + off, wire_.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
  // Reads what the socket holds without blocking: -1 on error or close,
  // else the bytes read (0 when none were waiting).
  ssize_t ReadAvailable() {
    std::uint8_t buf[1 << 16];
    const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      assembler_.Append(buf, static_cast<std::size_t>(n));
      return n;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return 0;
    }
    return -1;
  }
  // The next complete frame, if one is buffered; false on a bad stream.
  bool NextFrame(simdht::Buffer* frame, bool* got) {
    const auto r = assembler_.Next(frame);
    *got = r == simdht::FrameAssembler::Result::kFrame;
    return r != simdht::FrameAssembler::Result::kError;
  }
  // Blocks until a whole frame arrives.
  bool Receive(simdht::Buffer* frame) {
    for (;;) {
      bool got = false;
      if (!NextFrame(frame, &got)) return false;
      if (got) return true;
      pollfd p{fd_, POLLIN, 0};
      if (poll(&p, 1, 5000) <= 0) return false;
      if (ReadAvailable() < 0) return false;
    }
  }

 private:
  int fd_;
  simdht::Buffer wire_;
  simdht::FrameAssembler assembler_;
};

// Stores ids [0, keys) through 128-key MSETs, one round trip at a time, and
// records which of them the server accepted. Rejections beyond 0.1% of the
// keys fail the run.
void Preload(Connection* conn, const KeySpace& ks, Residency* residency,
             Result* result) {
  const std::uint64_t keys = residency->keys;
  std::vector<char> kbuf(kMsetKeys * kKeyBytes), vbuf(kMsetKeys * kValueBytes);
  std::vector<std::string_view> kv, vv;
  simdht::Buffer payload, frame;
  std::vector<std::uint8_t> ok;
  std::uint64_t rejected = 0;
  for (std::uint64_t first = 0; first < keys; first += kMsetKeys) {
    const std::size_t n = std::min<std::uint64_t>(kMsetKeys, keys - first);
    kv.clear();
    vv.clear();
    for (std::size_t i = 0; i < n; ++i) {
      KeyString(ks, first + i, &kbuf[i * kKeyBytes]);
      ValueString(ks, first + i, &vbuf[i * kValueBytes]);
      kv.emplace_back(&kbuf[i * kKeyBytes], kKeyBytes);
      vv.emplace_back(&vbuf[i * kValueBytes], kValueBytes);
    }
    payload.clear();
    simdht::EncodeMultiSetRequest(kv, vv, &payload);
    if (!conn->Send(payload) || !conn->Receive(&frame) ||
        !simdht::DecodeMultiSetResponse(frame, &ok) || ok.size() != n) {
      throw std::runtime_error("preload MSET failed");
    }
    for (std::size_t i = 0; i < n; ++i) {
      residency->stored[first + i] = ok[i] == 1;
      rejected += ok[i] != 1;
    }
  }
  result->attempted += keys;
  if (rejected * 1000 > keys) result->failed += rejected;
}

// One Multi-Get as the client saw it. Times are steady-clock ns.
struct Request {
  std::int64_t intended;  // when the schedule said to send it
  std::int64_t start;     // when the client began it
  std::int64_t encoded;   // request frame encoded
  std::int64_t sent;      // handed to the socket
  std::int64_t received;  // whole response frame read
  std::int64_t decoded;   // response decoded: the request is complete
  std::int64_t checked;   // values verified
  bool measured;          // inside the measured window
  unsigned client;
  std::uint32_t ids[kMgetKeys];
};

// Chooses a Multi-Get's ids: Zipf over the preloaded ids, with kMissFrac
// of them from a miss pool as large as the preloaded set.
class KeyDraw {
 public:
  KeyDraw(std::uint64_t keys, std::uint64_t seed)
      : keys_(keys), zipf_(keys, kZipfTheta), rng_(seed) {}
  void Draw(std::uint32_t* ids) {
    for (std::size_t i = 0; i < kMgetKeys; ++i) {
      ids[i] = static_cast<std::uint32_t>(rng_.Unit() < kMissFrac
                                              ? keys_ + rng_.Below(keys_)
                                              : zipf_.Next(&rng_));
    }
  }

 private:
  std::uint64_t keys_;
  Zipf zipf_;
  Rng rng_;
};

// The client side of one connection: encodes, sends, decodes and checks.
// The next request's keys are drawn and formatted ahead of its send time,
// as a client holds its keys before it asks for them.
class Client {
 public:
  Client(Connection* conn, const KeySpace& ks, const Residency& residency,
         std::uint64_t seed)
      : conn_(conn),
        ks_(ks),
        residency_(residency),
        draw_(residency.keys, seed) {
    Prepare();
  }

  // Begins request `r` with the prepared keys: encodes and sends it.
  bool Begin(Request* r) {
    r->start = NowNs();
    std::memcpy(r->ids, next_ids_, sizeof(next_ids_));
    views_.clear();
    for (const auto& key : key_bytes_) views_.emplace_back(key, kKeyBytes);
    payload_.clear();
    simdht::EncodeMultiGetRequest(views_, &payload_);
    r->encoded = NowNs();
    const bool ok = conn_->Send(payload_);
    r->sent = NowNs();
    Prepare();
    return ok;
  }
  // Completes the oldest request from a received frame; false when the
  // response is malformed or any value differs from what was stored.
  bool Complete(const simdht::Buffer& frame, Request* r) {
    const bool decoded = simdht::DecodeMultiGetResponse(frame, &response_);
    r->decoded = NowNs();
    bool ok = decoded && response_.found.size() == kMgetKeys;
    for (std::size_t i = 0; ok && i < kMgetKeys; ++i) {
      const bool stored = residency_.Stored(r->ids[i]);
      ok = (response_.found[i] != 0) == stored;
      if (ok && stored) {
        char expect[kValueBytes];
        ValueString(ks_, r->ids[i], expect);
        ok = response_.vals[i] == std::string_view(expect, kValueBytes);
      }
    }
    r->checked = NowNs();
    return ok;
  }

 private:
  void Prepare() {
    draw_.Draw(next_ids_);
    for (std::size_t i = 0; i < kMgetKeys; ++i) {
      KeyString(ks_, next_ids_[i], key_bytes_[i]);
    }
  }

  Connection* conn_;
  const KeySpace& ks_;
  const Residency& residency_;
  KeyDraw draw_;
  std::uint32_t next_ids_[kMgetKeys];
  char key_bytes_[kMgetKeys][kKeyBytes];
  std::vector<std::string_view> views_;
  simdht::Buffer payload_;
  simdht::MultiGetResponse response_;
};

// One client thread's open-loop run: uniform arrivals every `interval_ns`
// from `first`, the ones at or after `measure_from` measured.
struct OpenLoopPlan {
  std::int64_t first, interval_ns, measure_from, deadline;
  std::uint64_t requests;
};

struct OpenLoopOut {
  std::vector<Request> done;  // measured requests, in completion order
  std::uint64_t failed = 0;   // wrong, unanswered or never sent
};

void RunOpenLoop(unsigned index, Client* client, Connection* conn,
                 const OpenLoopPlan& plan, OpenLoopOut* out) {
  std::deque<Request> pending;
  simdht::Buffer frame;
  std::uint64_t next = 0;
  bool broken = false;
  while (!broken && (next < plan.requests || !pending.empty())) {
    const std::int64_t now = NowNs();
    if (now > plan.deadline) break;
    const std::int64_t due =
        next < plan.requests
            ? plan.first + static_cast<std::int64_t>(next) * plan.interval_ns
            : INT64_MAX;
    if (now >= due) {
      Request r{};
      r.intended = due;
      r.measured = due >= plan.measure_from;
      r.client = index;
      broken = !client->Begin(&r);
      pending.push_back(r);
      ++next;
      continue;
    }
    const ssize_t got = conn->ReadAvailable();
    if (got < 0) break;
    if (got > 0) {
      const std::int64_t received = NowNs();
      bool have = false;
      while (!pending.empty() && conn->NextFrame(&frame, &have) && have) {
        Request& r = pending.front();
        r.received = received;
        if (!client->Complete(frame, &r)) ++out->failed;
        if (r.measured) out->done.push_back(r);
        pending.pop_front();
      }
      continue;
    }
    // Nothing to read: sleep until shortly before the next send is due.
    const std::int64_t wait = std::min(due - now, plan.deadline - now);
    if (wait > kSpinNs) {
      const timespec ts{0, static_cast<long>(
                               std::min<std::int64_t>(wait - kSpinNs,
                                                      100'000'000))};
      pollfd p{conn->fd(), POLLIN, 0};
      ppoll(&p, 1, &ts, nullptr);
    }
  }
  // Requests never sent or never answered count as failed.
  out->failed += plan.requests - next + pending.size();
}

// The closed-loop phase of one client: kWindow Multi-Gets in flight, each
// completion counted in 100 ms buckets from `start`.
void RunClosedLoop(Client* client, Connection* conn, std::int64_t start,
                   std::int64_t end, std::vector<std::uint64_t>* buckets,
                   std::uint64_t* sent, std::uint64_t* failed) {
  std::deque<Request> pending;
  simdht::Buffer frame;
  while (NowNs() < end || !pending.empty()) {
    if (NowNs() > end + 5'000'000'000) break;
    while (pending.size() < kWindow && NowNs() < end) {
      Request r{};
      r.intended = NowNs();
      ++*sent;
      pending.push_back(r);
      if (!client->Begin(&pending.back())) {
        *failed += pending.size();
        return;
      }
    }
    // Busy-poll: a blocked client would add a wake-up to every round trip.
    ssize_t got = 0;
    const std::int64_t give_up = NowNs() + 1'000'000'000;
    while ((got = conn->ReadAvailable()) == 0 && NowNs() < give_up) {
    }
    if (got <= 0) break;
    bool have = false;
    while (!pending.empty() && conn->NextFrame(&frame, &have) && have) {
      if (!client->Complete(frame, &pending.front())) ++*failed;
      const std::size_t b =
          static_cast<std::size_t>((NowNs() - start) / 100'000'000);
      if (b < buckets->size()) ++(*buckets)[b];
      pending.pop_front();
    }
  }
  *failed += pending.size();
}

// ------------------------------------------------------------ the run --

struct Setup {
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Connection>> conns;
};

// Starts a server, connects the clients and preloads it. Returns seconds.
double StartAndPreload(const KvsSpec& spec, const KeySpace& ks,
                       Residency* residency, Setup* setup, Result* result) {
  setup->conns.clear();
  setup->server.reset();
  const std::int64_t t0 = NowNs();
  setup->server = std::make_unique<Server>(spec.keys);
  for (unsigned c = 0; c < kClients; ++c) {
    setup->conns.push_back(
        std::make_unique<Connection>(setup->server->port()));
  }
  Preload(setup->conns[0].get(), ks, residency, result);
  return static_cast<double>(NowNs() - t0) / 1e9;
}

struct OpenLoopResult {
  std::vector<Request> done;
  std::uint64_t planned = 0;
};

// Both clients on an open-loop schedule at `spec.mget_per_s` in total:
// `warmup_s` unmeasured, then `measure_s` measured.
OpenLoopResult OpenLoop(const KvsSpec& spec, Setup* setup,
                        std::vector<Client>* clients, double warmup_s,
                        double measure_s, Result* result) {
  const auto interval = static_cast<std::int64_t>(kClients * 1e9 /
                                                  spec.mget_per_s);
  const std::int64_t start = NowNs() + 2'000'000;
  const std::int64_t measure_from =
      start + static_cast<std::int64_t>(warmup_s * 1e9);
  const auto requests = static_cast<std::uint64_t>(
      (warmup_s + measure_s) * spec.mget_per_s / kClients);
  std::vector<OpenLoopOut> outs(kClients);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PinThread(2 + c);
      OpenLoopPlan plan{start + c * interval / kClients, interval,
                        measure_from,
                        measure_from +
                            static_cast<std::int64_t>((measure_s + 5) * 1e9),
                        requests};
      RunOpenLoop(c, &(*clients)[c], setup->conns[c].get(), plan, &outs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  OpenLoopResult r;
  result->attempted += kClients * requests;
  for (OpenLoopOut& out : outs) {
    result->failed += out.failed;
    r.done.insert(r.done.end(), out.done.begin(), out.done.end());
  }
  r.planned = static_cast<std::uint64_t>(measure_s * spec.mget_per_s);
  return r;
}

double LatencyUs(const Request& r) {
  return static_cast<double>(r.decoded - r.intended) / 1e3;
}

// Request times by 100 ms interval of intended send time.
IntervalStats ByInterval(std::vector<Request> done) {
  std::sort(done.begin(), done.end(), [](const Request& a, const Request& b) {
    return a.intended < b.intended;
  });
  IntervalStats stats;
  if (!done.empty()) stats.Start(done.front().intended);
  for (const Request& r : done) stats.Add(r.intended, 0, 0, LatencyUs(r));
  stats.Finish();
  return stats;
}

// Keys delivered per second, in millions, from the first measured intended
// send to the last response: the open-loop rate, less any backlog.
double Delivered(const std::vector<Request>& done) {
  if (done.empty()) return 0.0;
  std::int64_t first = INT64_MAX, last = INT64_MIN;
  for (const Request& r : done) {
    first = std::min(first, r.intended);
    last = std::max(last, r.decoded);
  }
  return static_cast<double>(done.size() * kMgetKeys) * 1e3 /
         static_cast<double>(last - first);
}

// Closed-loop capacity in Mkeys/s: the 90th percentile of the 100 ms
// completion rates (as IntervalStats reads rates), skipping the first and
// last buckets.
double Capacity(const KvsSpec& spec, Setup* setup,
                std::vector<Client>* clients, Result* result) {
  const std::int64_t start = NowNs();
  const std::int64_t end =
      start + static_cast<std::int64_t>(spec.capacity_s * 1e9);
  const std::size_t nbuckets =
      static_cast<std::size_t>(spec.capacity_s * 10) + 1;
  std::vector<std::vector<std::uint64_t>> buckets(
      kClients, std::vector<std::uint64_t>(nbuckets, 0));
  std::vector<std::uint64_t> sent(kClients, 0), failed(kClients, 0);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PinThread(2 + c);
      RunClosedLoop(&(*clients)[c], setup->conns[c].get(), start, end,
                    &buckets[c], &sent[c], &failed[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> rates;
  for (std::size_t b = 1; b + 2 < nbuckets; ++b) {
    std::uint64_t n = 0;
    for (unsigned c = 0; c < kClients; ++c) n += buckets[c][b];
    rates.push_back(static_cast<double>(n * kMgetKeys) / 1e5);
  }
  for (unsigned c = 0; c < kClients; ++c) {
    result->attempted += sent[c];
    result->failed += failed[c];
  }
  return Quantile(rates, 0.9);
}

// Sum of the parts of `spans` (sorted by start, non-overlapping: one
// server thread) that fall inside [from, to).
std::int64_t Overlap(const std::vector<BackendSpan>& spans, std::int64_t from,
                     std::int64_t to) {
  auto it = std::lower_bound(
      spans.begin(), spans.end(), from,
      [](const BackendSpan& s, std::int64_t t) { return s.end_ns <= t; });
  std::int64_t sum = 0;
  for (; it != spans.end() && it->start_ns < to; ++it) {
    sum += std::min(it->end_ns, to) - std::max(it->start_ns, from);
  }
  return sum;
}

}  // namespace

Result RunKvsTcp(const RunConfig& cfg) {
  Result result;
  const KvsSpec spec = SpecFor(cfg);
  const KeySpace ks(cfg.seed);
  Residency residency(spec.keys);
  Setup setup;
  std::vector<double> setup_s;
  const std::uint64_t rss0 = RssBytes();
  double bytes_per_key = 0;
  for (int i = 0; i < (cfg.trace ? 1 : spec.setups); ++i) {
    setup_s.push_back(StartAndPreload(spec, ks, &residency, &setup, &result));
    // Later setups reuse memory the first one freed, so only it counts.
    if (i == 0) {
      bytes_per_key = static_cast<double>(RssBytes() - rss0) /
                      static_cast<double>(spec.keys);
    }
  }
  TimedBackend& backend = setup.server->backend();
  const WriteMeter sets = backend.sets();

  std::vector<Client> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back(setup.conns[c].get(), ks, residency,
                         SubSeed(cfg.seed, 10 + c));
  }
  result.Info("kvs.preload_rejected",
              static_cast<double>(std::count(residency.stored.begin(),
                                             residency.stored.end(), 0)),
              "count");
  const double measure_s = std::max(
      0.5, cfg.trace ? UntracedSeconds(cfg) - spec.warmup_s
                     : cfg.seconds - spec.warmup_s - spec.capacity_s);
  const OpenLoopResult plain =
      OpenLoop(spec, &setup, &clients, spec.warmup_s, measure_s, &result);
  const IntervalStats plain_stats = ByInterval(plain.done);
  std::vector<double> latency_us, lag_us, rtt_us;
  for (const Request& r : plain.done) {
    latency_us.push_back(LatencyUs(r));
    lag_us.push_back(static_cast<double>(r.start - r.intended) / 1e3);
    rtt_us.push_back(static_cast<double>(r.received - r.sent) / 1e3);
  }
  result.Info("kvs.mget_p99_us", Quantile(latency_us, 0.99), "us");
  result.Info("kvs.mget_p999_us", Quantile(latency_us, 0.999), "us");
  result.Info("net.rtt_us.p50", Quantile(rtt_us, 0.5), "us");
  result.Info("loadgen.send_lag_us.p50", Quantile(lag_us, 0.5), "us");
  result.Info("loadgen.send_lag_us.p99", Quantile(lag_us, 0.99), "us");
  result.Info("loadgen.achieved_ratio",
              static_cast<double>(plain.done.size()) /
                  static_cast<double>(plain.planned),
              "ratio");
  result.Info("ht.preload_ns_per_key", sets.ns_per_key(), "ns");

  if (!cfg.trace) {
    // Closed-loop capacity varies too much from run to run on a shared
    // host to gate on; it is printed to place the open-loop rate.
    const double capacity = Capacity(spec, &setup, &clients, &result);
    result.Info("kvs.capacity_mget_s", capacity * 1e6 / kMgetKeys, "1/s");
    AddEndToEnd(&result, setup_s, Delivered(plain.done), plain_stats,
                bytes_per_key);
    return result;
  }

  // Traced: the same schedule again, with the server's MultiGet calls
  // recorded, then each request split into its layers.
  backend.StartRecording();
  const OpenLoopResult traced =
      OpenLoop(spec, &setup, &clients, 0.0, cfg.seconds / 2, &result);
  TimedBackend::GetTotals gets;
  const std::vector<BackendSpan> spans = backend.TakeSpans(&gets);

  const simdht::HashFamily family = simdht::HashFamily::Make(
      static_cast<unsigned>(__builtin_ctzll(IndexSlots(spec.keys) / 4)));
  std::uint32_t hash_keys[kMgetKeys], buckets[2 * kMgetKeys];
  std::int64_t hash_ns = 0;
  Ledger ledger;
  SpanLog server_log(1, false);
  for (const BackendSpan& s : spans) {
    server_log.AddRoot("index.multiget", s.start_ns, s.end_ns, 0);
  }
  std::vector<SpanLog> client_logs;
  for (unsigned c = 0; c < kClients; ++c) client_logs.emplace_back(2 + c, true);
  std::uint64_t id = 0;
  for (const Request& r : traced.done) {
    const std::int64_t index = Overlap(spans, r.sent, r.received);
    LayerTimes layers;
    layers.Add(kLoadgen, r.start - r.intended);
    layers.Add(kBench, r.checked - r.decoded);
    layers.Add(kKvs, (r.encoded - r.start) + (r.decoded - r.received));
    layers.Add(kIndex, index);
    layers.Add(kNet, r.received - r.encoded - index);
    ledger.Add(r.checked - r.intended, layers);
    SpanLog& log = client_logs[r.client];
    log.Add("loadgen.lag", r.intended, r.start, id);
    log.Add("kvs.encode", r.start, r.encoded, id);
    log.Add("net.send", r.encoded, r.sent, id);
    log.Add("net.round_trip", r.sent, r.received, id);
    log.Add("kvs.decode", r.received, r.decoded, id);
    log.Add("bench.check", r.decoded, r.checked, id);
    log.AddRoot("request", r.intended, r.checked, id);
    ++id;
    // Block hashing of the same ids' table keys, for the hash layer.
    for (std::size_t i = 0; i < kMgetKeys; ++i) hash_keys[i] = ks.Key(r.ids[i]);
    const std::int64_t h0 = NowNs();
    simdht::BlockBuckets<std::uint32_t>(family, 2, hash_keys, kMgetKeys,
                                        buckets);
    asm volatile("" : : "r"(buckets) : "memory");
    hash_ns += NowNs() - h0;
  }

  PerLayer layers;
  layers.hash_ns_per_key =
      static_cast<double>(hash_ns) /
      static_cast<double>(traced.done.size() * kMgetKeys);
  layers.probe_ns_per_key =
      static_cast<double>(gets.ns) / static_cast<double>(gets.keys);
  layers.keys_per_call =
      static_cast<double>(gets.keys) / static_cast<double>(gets.calls);
  layers.hit_ratio =
      static_cast<double>(gets.hits) / static_cast<double>(gets.keys);
  layers.write_ns_per_key = sets.ns_per_key();
  layers.write_drift = sets.Drift();
  layers.load_factor = static_cast<double>(backend.size()) /
                       static_cast<double>(IndexSlots(spec.keys));
  layers.overhead_frac =
      ByInterval(traced.done).P50() / plain_stats.P50() - 1.0;
  AddPerLayer(&result, layers, ledger);
  result.lines.push_back("trace: " + cfg.trace_path);
  if (!WriteChromeTrace(cfg.trace_path,
                        {&server_log, &client_logs[0], &client_logs[1]})) {
    result.failed += 1;
  }
  return result;
}

}  // namespace perfbench
