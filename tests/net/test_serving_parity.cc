// Both KVS transports serve through one request core, so the same request
// frames must get the same responses from a KvServer on a simulated channel
// and from a loopback KvTcpServer: SET/MSET, MGET hits and misses, a
// sampled TMGET, STATS, METRICS, and pipelined requests answered in order.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kvs/memc3_backend.h"
#include "kvs/protocol.h"
#include "kvs/server.h"
#include "kvs/transport.h"
#include "net/kv_tcp_server.h"
#include "net/socket.h"
#include "obs/json.h"
#include "obs/timeline.h"

namespace simdht {
namespace {

// One server on one transport, driven with raw frames.
class Rig {
 public:
  virtual ~Rig() = default;
  // Sends `frames` back to back: on TCP in one write, so they reach the
  // server in one dispatch cycle.
  virtual void Send(const std::vector<Buffer>& frames) = 0;
  virtual Buffer Recv() = 0;
  // Stops the server; everything it recorded is complete afterwards.
  virtual void Stop() = 0;
};

class ChannelRig final : public Rig {
 public:
  ChannelRig()
      : channel_(WireModel::Loopback()), server_(&backend_, {&channel_}) {
    server_.Start();
  }
  ~ChannelRig() override { Stop(); }
  void Send(const std::vector<Buffer>& frames) override {
    for (const Buffer& frame : frames) channel_.ClientSend(frame);
  }
  Buffer Recv() override {
    Buffer frame;
    EXPECT_TRUE(channel_.ClientRecv(&frame));
    return frame;
  }
  void Stop() override {
    channel_.Close();
    server_.Join();
  }

 private:
  Memc3Backend backend_{1 << 12, 16 << 20};
  Channel channel_;
  KvServer server_;
};

class TcpRig final : public Rig {
 public:
  TcpRig() : server_(&backend_) {
    std::string err;
    EXPECT_TRUE(server_.StartBackground(&err)) << err;
    fd_.reset(ConnectTcp("127.0.0.1", server_.port(), &err));
    EXPECT_TRUE(fd_) << err;
  }
  ~TcpRig() override { Stop(); }
  void Send(const std::vector<Buffer>& frames) override {
    Buffer wire;
    for (const Buffer& frame : frames) AppendFrame(frame, &wire);
    EXPECT_EQ(::send(fd_.get(), wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  }
  Buffer Recv() override {
    Buffer frame;
    for (;;) {
      const FrameAssembler::Result r = assembler_.Next(&frame, nullptr);
      if (r == FrameAssembler::Result::kFrame) return frame;
      EXPECT_EQ(r, FrameAssembler::Result::kNeedMore);
      std::uint8_t chunk[4096];
      const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed before a response";
        return {};
      }
      assembler_.Append(chunk, static_cast<std::size_t>(n));
    }
  }
  void Stop() override {
    server_.Stop();
    server_.Join();
  }

 private:
  Memc3Backend backend_{1 << 12, 16 << 20};
  KvTcpServer server_;
  ScopedFd fd_;
  FrameAssembler assembler_;
};

Buffer SetFrame(std::string_view key, std::string_view val) {
  Buffer out;
  EncodeSetRequest(key, val, &out);
  return out;
}

Buffer MultiGetFrame(const std::vector<std::string_view>& keys) {
  Buffer out;
  EncodeMultiGetRequest(keys, &out);
  return out;
}

bool SetOk(const Buffer& response) {
  bool ok = false;
  EXPECT_TRUE(DecodeSetResponse(response, &ok));
  return ok;
}

// "value" per key, "-" for a miss.
std::vector<std::string> Values(const MultiGetResponse& response) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < response.vals.size(); ++i) {
    out.emplace_back(response.found[i] ? std::string(response.vals[i])
                                       : std::string("-"));
  }
  return out;
}

std::vector<std::string> MultiGetValues(const Buffer& response) {
  MultiGetResponse decoded;
  EXPECT_TRUE(DecodeMultiGetResponse(response, &decoded));
  return Values(decoded);
}

double StatValue(const StatsPairs& stats, const std::string& name) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return -1;
}

class ServingParity : public testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "sim") {
      rig_ = std::make_unique<ChannelRig>();
    } else {
      rig_ = std::make_unique<TcpRig>();
    }
  }
  // One request, one response.
  Buffer RoundTrip(Buffer frame) {
    rig_->Send({std::move(frame)});
    return rig_->Recv();
  }

  std::unique_ptr<Rig> rig_;
};

TEST_P(ServingParity, SetAndMultiSet) {
  EXPECT_TRUE(SetOk(RoundTrip(SetFrame("k1", "v1"))));
  Buffer mset;
  EncodeMultiSetRequest({"k2", "k3"}, {"v2", "v3"}, &mset);
  std::vector<std::uint8_t> ok;
  ASSERT_TRUE(DecodeMultiSetResponse(RoundTrip(mset), &ok));
  EXPECT_EQ(ok, (std::vector<std::uint8_t>{1, 1}));
  EXPECT_EQ(MultiGetValues(RoundTrip(MultiGetFrame({"k1", "k2", "k3"}))),
            (std::vector<std::string>{"v1", "v2", "v3"}));
}

TEST_P(ServingParity, MultiGetHitsAndMisses) {
  ASSERT_TRUE(SetOk(RoundTrip(SetFrame("alpha", "one"))));
  ASSERT_TRUE(SetOk(RoundTrip(SetFrame("beta", "two"))));
  EXPECT_EQ(
      MultiGetValues(RoundTrip(MultiGetFrame({"alpha", "missing", "beta"}))),
      (std::vector<std::string>{"one", "-", "two"}));
}

TEST_P(ServingParity, SampledTracedMultiGetEchoesIdAndRecordsSpans) {
  Timeline& tl = Timeline::Global();
  tl.Clear();
  tl.Enable();
  ASSERT_TRUE(SetOk(RoundTrip(SetFrame("t-key", "t-val"))));
  TraceContext trace;
  trace.trace_id = 0x00000000000000abull;
  trace.sampled = true;
  Buffer tmget;
  EncodeTracedMultiGetRequest({"t-key", "nope"}, trace, &tmget);
  MultiGetResponse response;
  std::uint64_t echoed = 0;
  ServerTiming timing;
  const Buffer frame = RoundTrip(tmget);  // the response views point here
  ASSERT_TRUE(
      DecodeTracedMultiGetResponse(frame, &response, &echoed, &timing));
  EXPECT_EQ(echoed, trace.trace_id);
  EXPECT_EQ(Values(response), (std::vector<std::string>{"t-val", "-"}));
  EXPECT_LE(timing.rx_us, timing.tx_us);
  rig_->Stop();

  const auto doc = ParseJson(tl.ToJson());
  tl.Clear();
  ASSERT_TRUE(doc.has_value());
  std::map<std::string, int> server_spans;
  std::string request_trace_id;
  for (const JsonValue& e : doc->Find("traceEvents")->array()) {
    if (e.Find("cat")->AsString() != "server") continue;
    const std::string name = e.Find("name")->AsString();
    ++server_spans[name];
    if (name == "request") {
      request_trace_id = e.Find("args")->Find("trace_id")->AsString();
    }
  }
  for (const char* phase :
       {"parse", "index_probe", "value_copy", "transport", "request"}) {
    EXPECT_EQ(server_spans[phase], 1) << phase;
  }
  EXPECT_EQ(request_trace_id, "00000000000000ab");
}

TEST_P(ServingParity, StatsCarryCapabilitiesAndCounters) {
  ASSERT_TRUE(SetOk(RoundTrip(SetFrame("s1", "v"))));
  ASSERT_TRUE(SetOk(RoundTrip(SetFrame("s2", "v"))));
  ASSERT_EQ(MultiGetValues(RoundTrip(MultiGetFrame({"s1", "x", "s2"}))),
            (std::vector<std::string>{"v", "-", "v"}));
  Buffer request;
  EncodeStatsRequest(&request);
  StatsPairs stats;
  ASSERT_TRUE(DecodeStatsResponse(RoundTrip(request), &stats));
  EXPECT_EQ(StatValue(stats, "proto.trace_context"), 1.0);
  EXPECT_EQ(StatValue(stats, "units.phase_ns"), 1.0);
  EXPECT_EQ(StatValue(stats, "requests"), 1.0);
  EXPECT_EQ(StatValue(stats, "batches"), 1.0);
  EXPECT_EQ(StatValue(stats, "keys"), 3.0);
  EXPECT_EQ(StatValue(stats, "hits"), 2.0);
  EXPECT_EQ(StatValue(stats, "connections"), 1.0);
  EXPECT_EQ(StatValue(stats, "protocol_errors"), 0.0);
  EXPECT_GE(StatValue(stats, "index_probe_ns.mean"), 0.0);
}

TEST_P(ServingParity, MetricsRendersPrometheusText) {
  ASSERT_TRUE(SetOk(RoundTrip(SetFrame("m", "v"))));
  ASSERT_EQ(MultiGetValues(RoundTrip(MultiGetFrame({"m"}))),
            (std::vector<std::string>{"v"}));
  Buffer request;
  EncodeMetricsRequest(&request);
  std::string text;
  ASSERT_TRUE(DecodeMetricsResponse(RoundTrip(request), &text));
  EXPECT_NE(text.find("# TYPE simdht_kvs_requests_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("simdht_kvs_requests_total 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("simdht_kvs_phase_ns{phase=\"index_probe\""),
            std::string::npos);
}

TEST_P(ServingParity, PipelinedRequestsKeepTheirOrder) {
  ASSERT_TRUE(SetOk(RoundTrip(SetFrame("k", "old"))));
  // A read, then a write, then a read of the same key, in flight together:
  // the first read must not see the write, and every response comes back
  // in request order.
  rig_->Send({MultiGetFrame({"k"}), SetFrame("k", "new"),
              MultiGetFrame({"k"})});
  EXPECT_EQ(MultiGetValues(rig_->Recv()), (std::vector<std::string>{"old"}));
  EXPECT_TRUE(SetOk(rig_->Recv()));
  EXPECT_EQ(MultiGetValues(rig_->Recv()), (std::vector<std::string>{"new"}));
}

INSTANTIATE_TEST_SUITE_P(Transports, ServingParity,
                         testing::Values("sim", "tcp"),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace simdht
