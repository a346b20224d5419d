// Key-value store clients over either transport.
//
// A FrameLink carries whole request/response frames to one server: the
// simulated channel's client end (ChannelLink, below) or a blocking TCP
// socket (net/tcp_link.h). KvClient speaks the protocol over one link,
// synchronously, one body per operation.
//
// KvClusterClient implements the paper's Section VI-A request phase over N
// links: each key of a Multi-Get maps to a server through the
// consistent-hash ring, per-server sub-batches are sent, and results
// scatter back to the caller's key order. Server failures surface PER KEY
// (error[i]) rather than failing the whole batch — keys owned by live
// servers still return. A one-server cluster sends the batch as it is.
#ifndef SIMDHT_KVS_CLIENT_H_
#define SIMDHT_KVS_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kvs/consistent_hash.h"
#include "kvs/protocol.h"
#include "kvs/transport.h"

namespace simdht {

class FrameLink {
 public:
  virtual ~FrameLink() = default;
  // (Re)establishes the link; false (with *err) when the server is
  // unreachable.
  virtual bool Connect(std::string* err) = 0;
  virtual bool connected() const = 0;
  // Drops the link: after a failed exchange the stream's request/response
  // pairing cannot be trusted.
  virtual void Close() = 0;
  virtual bool Send(const Buffer& frame, std::string* err) = 0;
  // Blocks for the next response frame.
  virtual bool Recv(Buffer* frame, std::string* err) = 0;
};

// The client end of a simulated channel. The channel is message-oriented
// and stays open across Close(), so links to it can be made again.
class ChannelLink final : public FrameLink {
 public:
  explicit ChannelLink(Channel* channel) : channel_(channel) {}

  bool Connect(std::string*) override {
    open_ = true;
    return true;
  }
  bool connected() const override { return open_; }
  void Close() override { open_ = false; }
  bool Send(const Buffer& frame, std::string* err) override;
  bool Recv(Buffer* frame, std::string* err) override;

 private:
  Channel* channel_;
  bool open_ = true;
};

// One traced Multi-Get exchange: the server-side receive/transmit
// timestamps (on the SERVER's timeline clock) plus the client-side
// bracketing timestamps (on the CLIENT's timeline clock). The pair of
// clock readings is exactly one NTP-style sync sample — simdht_tracemerge
// estimates each server's clock offset from the midpoints.
struct TracedExchange {
  ServerTiming server;
  double client_send_us = 0.0;
  double client_recv_us = 0.0;
};

class KvClient {
 public:
  explicit KvClient(std::unique_ptr<FrameLink> link)
      : link_(std::move(link)) {}
  // Over a simulated channel (always connected).
  explicit KvClient(Channel* channel)
      : KvClient(std::make_unique<ChannelLink>(channel)) {}

  bool Connect(std::string* err = nullptr) { return link_->Connect(err); }
  bool connected() const { return link_->connected(); }
  void Close() { link_->Close(); }

  // Synchronous ops; false on transport/decode failure (the link is then
  // closed). Set also returns false when the server rejected the key.
  bool Set(std::string_view key, std::string_view val,
           std::string* err = nullptr);

  // Batched Set (one MSET frame). Fills `ok` (when non-null) with per-key
  // outcomes.
  bool MultiSet(const std::vector<std::string_view>& keys,
                const std::vector<std::string_view>& vals,
                std::vector<std::uint8_t>* ok, std::string* err = nullptr);

  // Multi-Get. Values are copied out of the response frame.
  bool MultiGet(const std::vector<std::string_view>& keys,
                std::vector<std::string>* vals,
                std::vector<std::uint8_t>* found,
                std::string* err = nullptr) {
    return MultiGetBody(keys, nullptr, vals, found, nullptr, err);
  }
  // The traced variant travels as TMGET and fills `exchange` (when
  // non-null) with the server's echoed rx/tx timestamps, bracketed by
  // client-side send/recv timestamps. Needs a server that advertises
  // proto.trace_context in STATS.
  bool MultiGetTraced(const std::vector<std::string_view>& keys,
                      const TraceContext& trace,
                      std::vector<std::string>* vals,
                      std::vector<std::uint8_t>* found,
                      TracedExchange* exchange, std::string* err = nullptr) {
    return MultiGetBody(keys, &trace, vals, found, exchange, err);
  }

  bool Stats(StatsPairs* out, std::string* err = nullptr);
  // The Prometheus text exposition over the KV wire (kMetrics).
  bool Metrics(std::string* text, std::string* err = nullptr);

  // Sends SHUTDOWN (stops the serving worker or server; fire-and-forget)
  // and closes the link.
  void Shutdown();

 private:
  friend class KvClusterClient;

  // Plain MGET when `trace` is null, TMGET otherwise.
  bool MultiGetBody(const std::vector<std::string_view>& keys,
                    const TraceContext* trace,
                    std::vector<std::string>* vals,
                    std::vector<std::uint8_t>* found,
                    TracedExchange* exchange, std::string* err);
  // Sends request_, receives response_ and decodes it with decode(&why);
  // a failure closes the link.
  template <typename Decode>
  bool Call(const char* op, std::string* err, const Decode& decode);
  bool Fail(std::string* err, const std::string& message);

  std::unique_ptr<FrameLink> link_;
  Buffer request_;
  Buffer response_;
  MultiGetResponse mget_;
};

class KvClusterClient {
 public:
  // One link per server. The ring covers EVERY server (vnodes smooth the
  // key split); a server whose link fails to connect stays on the ring and
  // its keys surface as per-key errors, mirroring how a real cluster
  // degrades.
  explicit KvClusterClient(std::vector<std::unique_ptr<FrameLink>> links,
                           unsigned vnodes = 64);

  // Connects every link. True when at least one server is up; `err`
  // collects the failures either way.
  bool Connect(std::string* err = nullptr);

  std::size_t num_up() const;
  bool server_up(std::size_t i) const { return up_[i] != 0; }
  const ConsistentHashRing& ring() const { return ring_; }

  // Routed single-key Set. False when the owning server is down/fails.
  bool Set(std::string_view key, std::string_view val,
           std::string* err = nullptr);

  // Scatter/gather batched Set; `ok` (when non-null) gets per-key
  // outcomes, 0 for keys whose server was down. True when at least one
  // sub-request succeeded.
  bool MultiSet(const std::vector<std::string_view>& keys,
                const std::vector<std::string_view>& vals,
                std::vector<std::uint8_t>* ok, std::string* err = nullptr);

  // Scatter/gather Multi-Get. All four out-vectors are resized to
  // keys.size(); error[i] != 0 means the server owning keys[i] was down or
  // the sub-request failed (found[i] is 0 in that case). Returns true when
  // at least one sub-request succeeded (or the batch needed none).
  bool MultiGet(const std::vector<std::string_view>& keys,
                std::vector<std::string>* vals,
                std::vector<std::uint8_t>* found,
                std::vector<std::uint8_t>* error,
                std::string* err = nullptr) {
    return MultiGetBody(keys, nullptr, vals, found, error, nullptr, err);
  }

  // Traced scatter/gather: every sub-request goes out as TMGET with the
  // same trace context, and `exchanges` (when non-null) collects one
  // (server index, TracedExchange) pair per sub-request that succeeded —
  // the clock-sync samples for that request's servers.
  bool MultiGetTraced(const std::vector<std::string_view>& keys,
                      const TraceContext& trace,
                      std::vector<std::string>* vals,
                      std::vector<std::uint8_t>* found,
                      std::vector<std::uint8_t>* error,
                      std::vector<std::pair<std::uint32_t, TracedExchange>>*
                          exchanges,
                      std::string* err = nullptr) {
    return MultiGetBody(keys, &trace, vals, found, error, exchanges, err);
  }

  // Per-server STATS snapshot; entries for down servers are empty.
  std::vector<StatsPairs> StatsAll();

  // Sends SHUTDOWN to every live server.
  void ShutdownAll();

  void CloseAll();

 private:
  using Exchanges = std::vector<std::pair<std::uint32_t, TracedExchange>>;
  bool MultiGetBody(const std::vector<std::string_view>& keys,
                    const TraceContext* trace,
                    std::vector<std::string>* vals,
                    std::vector<std::uint8_t>* found,
                    std::vector<std::uint8_t>* error, Exchanges* exchanges,
                    std::string* err);
  // Calls send(server, indices, &err) once per server owning keys, with
  // the indices of its keys; one server gets the whole batch (empty
  // indices). A down server or a failed send flags its keys in `error`
  // and takes the server down. True when at least one send succeeded.
  template <typename Send>
  bool Scatter(const std::vector<std::string_view>& keys,
               std::vector<std::uint8_t>* error, std::string* err,
               const Send& send);

  std::vector<KvClient> clients_;
  std::vector<std::uint8_t> up_;
  ConsistentHashRing ring_;
  // Scatter/gather scratch, reused across calls.
  std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> parts_;
  std::vector<std::string_view> sub_keys_;
  std::vector<std::string_view> sub_set_vals_;
  std::vector<std::string> sub_vals_;
  std::vector<std::uint8_t> sub_flags_;
  std::vector<std::uint8_t> set_errors_;
};

}  // namespace simdht

#endif  // SIMDHT_KVS_CLIENT_H_
