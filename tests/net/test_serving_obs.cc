// Live serving observability: the traced Multi-Get wire op, server-side
// span recording, the METRICS admin op, the Prometheus HTTP listener, the
// windowed/shard STATS keys, and per-shard probe counters.
//
// Suite names contain "KvTcpServer" so the tsan preset's ctest filter
// exercises them under the race detector.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kvs/memc3_backend.h"
#include "kvs/protocol.h"
#include "kvs/client.h"
#include "net/kv_tcp_server.h"
#include "net/socket.h"
#include "net/tcp_link.h"
#include "obs/json.h"
#include "obs/timeline.h"

namespace simdht {
namespace {

std::vector<std::string_view> Views(const std::vector<std::string>& keys) {
  return std::vector<std::string_view>(keys.begin(), keys.end());
}

double StatValue(const StatsPairs& stats, const std::string& name,
                 double missing = -1.0) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return missing;
}

TEST(KvTcpServerObs, TracedMultiGetEchoesTraceIdAndServerTiming) {
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;

  KvClient client(
      std::make_unique<TcpLink>(TcpEndpoint{"127.0.0.1", server.port()}));
  ASSERT_TRUE(client.Connect(&err)) << err;
  ASSERT_TRUE(client.Set("traced-key", "traced-val", &err)) << err;

  TraceContext trace;
  trace.trace_id = 0xabcdef0123456789ull;
  trace.sampled = true;
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  TracedExchange exchange;
  ASSERT_TRUE(client.MultiGetTraced(Views({"traced-key", "nope"}), trace,
                                    &vals, &found, &exchange, &err))
      << err;
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(found, (std::vector<std::uint8_t>{1, 0}));
  EXPECT_EQ(vals[0], "traced-val");

  // The server's rx/tx bracket its processing; the client's send/recv
  // bracket the whole exchange. Each pair is one NTP sync sample.
  EXPECT_LE(exchange.server.rx_us, exchange.server.tx_us);
  EXPECT_LT(exchange.client_send_us, exchange.client_recv_us);
  EXPECT_GT(exchange.server.tx_us, 0.0);

  // The server advertises the capability old clients use to negotiate.
  StatsPairs stats;
  ASSERT_TRUE(client.Stats(&stats, &err)) << err;
  EXPECT_EQ(StatValue(stats, "proto.trace_context"), 1.0);
  EXPECT_EQ(StatValue(stats, "units.phase_ns"), 1.0);

  client.Close();
  server.Stop();
  server.Join();
}

TEST(KvTcpServerObs, SampledRequestRecordsServerPhaseSpans) {
  Timeline& tl = Timeline::Global();
  tl.Clear();
  tl.Enable();

  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;

  KvClient client(
      std::make_unique<TcpLink>(TcpEndpoint{"127.0.0.1", server.port()}));
  ASSERT_TRUE(client.Connect(&err)) << err;
  ASSERT_TRUE(client.Set("span-key", "span-val", &err)) << err;

  TraceContext trace;
  trace.trace_id = 0x00000000000000abull;
  trace.sampled = true;
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  TracedExchange exchange;
  ASSERT_TRUE(client.MultiGetTraced(Views({"span-key"}), trace, &vals,
                                    &found, &exchange, &err))
      << err;
  client.Close();
  server.Stop();
  server.Join();  // all server-side recording is done after this

  const auto doc = ParseJson(tl.ToJson());
  ASSERT_TRUE(doc.has_value());
  std::map<std::string, int> names;
  std::string request_trace_id;
  for (const JsonValue& e : doc->Find("traceEvents")->array()) {
    const std::string name = e.Find("name")->AsString();
    ++names[name];
    if (name == "request") {
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      request_trace_id = args->Find("trace_id")->AsString();
    }
  }
  // Every server phase of the sampled request landed as a span.
  EXPECT_GE(names["parse"], 1);
  EXPECT_GE(names["index_probe"], 1);
  EXPECT_GE(names["value_copy"], 1);
  EXPECT_GE(names["transport"], 1);
  EXPECT_GE(names["request"], 1);
  // The request span carries the client's trace id, zero-padded hex.
  EXPECT_EQ(request_trace_id, "00000000000000ab");
  tl.Clear();
}

TEST(KvTcpServerObs, UnsampledTracedRequestRecordsNoSpans) {
  Timeline& tl = Timeline::Global();
  tl.Clear();
  tl.Enable();

  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;

  KvClient client(
      std::make_unique<TcpLink>(TcpEndpoint{"127.0.0.1", server.port()}));
  ASSERT_TRUE(client.Connect(&err)) << err;
  ASSERT_TRUE(client.Set("k", "v", &err)) << err;

  TraceContext trace;
  trace.trace_id = 42;
  trace.sampled = false;  // carried on the wire, but not recorded
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  TracedExchange exchange;
  ASSERT_TRUE(client.MultiGetTraced(Views({"k"}), trace, &vals, &found,
                                    &exchange, &err))
      << err;
  // Timing still flows back even for unsampled requests.
  EXPECT_LE(exchange.server.rx_us, exchange.server.tx_us);
  client.Close();
  server.Stop();
  server.Join();

  const auto doc = ParseJson(tl.ToJson());
  ASSERT_TRUE(doc.has_value());
  for (const JsonValue& e : doc->Find("traceEvents")->array()) {
    const std::string name = e.Find("name")->AsString();
    EXPECT_NE(name, "parse");
    EXPECT_NE(name, "request");
  }
  tl.Clear();
}

TEST(KvTcpServerObs, MetricsOpServesPrometheusExposition) {
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;

  KvClient client(
      std::make_unique<TcpLink>(TcpEndpoint{"127.0.0.1", server.port()}));
  ASSERT_TRUE(client.Connect(&err)) << err;
  ASSERT_TRUE(client.Set("m-key", "m-val", &err)) << err;
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(client.MultiGet(Views({"m-key"}), &vals, &found, &err)) << err;

  std::string text;
  ASSERT_TRUE(client.Metrics(&text, &err)) << err;
  EXPECT_NE(text.find("# TYPE simdht_kvs_requests_total counter"),
            std::string::npos)
      << text;
  // Exactly one MGET frame so far.
  EXPECT_NE(text.find("simdht_kvs_requests_total 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("simdht_kvs_phase_ns{phase=\"index_probe\""),
            std::string::npos);
  EXPECT_NE(text.find("simdht_window_requests_per_s"), std::string::npos);
  EXPECT_NE(text.find("simdht_shard_hits_total{shard=\"0\"}"),
            std::string::npos);

  client.Close();
  server.Stop();
  server.Join();
}

TEST(KvTcpServerObs, HttpListenerServesMetricsOnTheEventLoop) {
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServerOptions options;
  options.enable_metrics_http = true;
  KvTcpServer server(&backend, options);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;
  ASSERT_NE(server.metrics_port(), 0);
  ASSERT_NE(server.metrics_port(), server.port());

  KvClient client(
      std::make_unique<TcpLink>(TcpEndpoint{"127.0.0.1", server.port()}));
  ASSERT_TRUE(client.Connect(&err)) << err;
  ASSERT_TRUE(client.Set("h-key", "h-val", &err)) << err;
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(client.MultiGet(Views({"h-key"}), &vals, &found, &err)) << err;

  const auto scrape = [&server, &err](const std::string& target) {
    std::string response;
    ScopedFd fd(ConnectTcp("127.0.0.1", server.metrics_port(), &err));
    EXPECT_TRUE(fd) << err;
    if (!fd) return response;
    const std::string request =
        "GET " + target + " HTTP/1.0\r\nHost: test\r\n\r\n";
    EXPECT_EQ(::send(fd.get(), request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    char chunk[4096];
    for (;;) {  // Connection: close — read to EOF
      const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      response.append(chunk, static_cast<std::size_t>(n));
    }
    return response;
  };

  const std::string ok = scrape("/metrics");
  EXPECT_NE(ok.find("200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos) << ok;
  EXPECT_NE(ok.find("simdht_kvs_requests_total 1"), std::string::npos) << ok;

  const std::string missing = scrape("/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  // The scrapes ran on the serving loop without disturbing the KV side.
  ASSERT_TRUE(client.MultiGet(Views({"h-key"}), &vals, &found, &err)) << err;
  EXPECT_EQ(vals[0], "h-val");

  client.Close();
  server.Stop();
  server.Join();
}

TEST(KvTcpServerObs, StatsSnapshotCarriesWindowedTailsAndShards) {
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;

  KvClient client(
      std::make_unique<TcpLink>(TcpEndpoint{"127.0.0.1", server.port()}));
  ASSERT_TRUE(client.Connect(&err)) << err;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.Set("wk" + std::to_string(i), "wv", &err)) << err;
  }
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(client.MultiGet(Views({"wk0", "wk1", "absent"}), &vals,
                              &found, &err))
      << err;

  StatsPairs stats;
  ASSERT_TRUE(client.Stats(&stats, &err)) << err;
  // Windowed rates reflect the traffic just sent (the window is seconds
  // wide, the test takes milliseconds — nothing can expire).
  EXPECT_GT(StatValue(stats, "win.window_s"), 0.0);
  EXPECT_GT(StatValue(stats, "win.requests_per_s"), 0.0);
  EXPECT_GT(StatValue(stats, "win.keys_per_s"), 0.0);
  EXPECT_NEAR(StatValue(stats, "win.hit_rate"), 2.0 / 3.0, 1e-9);
  // Windowed phase tails exist at every advertised quantile.
  for (const char* q : {".p50", ".p90", ".p99", ".p999"}) {
    EXPECT_GE(StatValue(stats, std::string("win.index_probe_ns") + q), 0.0)
        << q;
    EXPECT_GE(StatValue(stats, std::string("index_probe_ns") + q), 0.0)
        << q;
  }
  EXPECT_GT(StatValue(stats, "win.batch_keys.mean"), 0.0);
  EXPECT_GE(StatValue(stats, "win.dispatch_events.max"), 1.0);

  // Per-shard probe counters: totals must reconcile with the request.
  const double shards = StatValue(stats, "shards");
  ASSERT_GT(shards, 0.0);
  double hits = 0, misses = 0;
  for (int s = 0; s < static_cast<int>(shards); ++s) {
    hits += StatValue(stats, "shard." + std::to_string(s) + ".hits", 0.0);
    misses +=
        StatValue(stats, "shard." + std::to_string(s) + ".misses", 0.0);
  }
  EXPECT_EQ(hits, 2.0);
  EXPECT_EQ(misses, 1.0);

  client.Close();
  server.Stop();
  server.Join();
}

TEST(KvTcpServerObs, RejectsTracedRequestWithUnknownFlagBits) {
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.Listen(&err)) << err;

  ScopedFd c(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(c) << err;
  for (int i = 0; i < 50 && server.num_connections() < 1; ++i) {
    server.PollOnce(100);
  }
  ASSERT_EQ(server.num_connections(), 1u);

  // A TMGET frame with reserved flag bits set: a future protocol revision
  // this server doesn't speak. It must refuse, not misinterpret.
  TraceContext trace;
  trace.trace_id = 7;
  trace.sampled = true;
  Buffer payload, wire;
  EncodeTracedMultiGetRequest({"x"}, trace, &payload);
  payload[1 + 4 + 8] |= 0x80;  // flags byte follows opcode+count+trace_id
  AppendFrame(payload, &wire);
  ASSERT_EQ(::send(c.get(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  for (int i = 0; i < 50 && server.num_connections() > 0; ++i) {
    server.PollOnce(100);
  }
  EXPECT_EQ(server.num_connections(), 0u);
  EXPECT_EQ(server.Metrics().counter(kvs_metrics::kProtocolErrors), 1u);
}

TEST(KvTcpServerObs, ShardProbeCountersAttributeHitsAndMisses) {
  // Backend-level check, no sockets: the counters the server exports come
  // straight from the backend's per-shard instrumentation.
  Memc3Backend backend(1 << 12, 16 << 20);
  backend.Set("alpha", "1");
  backend.Set("beta", "2");

  std::vector<std::string_view> keys = {"alpha", "beta", "gamma", "delta"};
  std::vector<std::string_view> vals;
  std::vector<std::uint8_t> found;
  std::vector<std::uint64_t> handles;
  backend.MultiGet(keys, &vals, &found, &handles);

  std::uint64_t hits = 0, misses = 0;
  for (const ShardProbeCounters& shard : backend.ShardProbeStats()) {
    hits += shard.hits;
    misses += shard.misses;
  }
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ(misses, 2u);
}

}  // namespace
}  // namespace simdht
