#include "serve_commands.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/cpu_features.h"
#include "common/table_printer.h"
#include "kvs/loadgen.h"
#include "kvs/memc3_backend.h"
#include "kvs/simd_backend.h"
#include "net/kv_tcp_server.h"
#include "net/tcp_link.h"
#include "obs/run_report.h"
#include "obs/timeline.h"

namespace simdht {
namespace {

std::uint64_t ParseByteSize(const std::string& s) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end != nullptr) {
    switch (*end) {
      case 'k': case 'K': v *= 1 << 10; break;
      case 'm': case 'M': v *= 1 << 20; break;
      case 'g': case 'G': v *= 1 << 30; break;
      default: break;
    }
  }
  return static_cast<std::uint64_t>(v);
}

std::unique_ptr<KvBackend> MakeBackend(const std::string& name,
                                       std::uint64_t entries,
                                       std::size_t mem_bytes) {
  const CpuFeatures& cpu = GetCpuFeatures();
  if (name == "memc3") {
    return std::make_unique<Memc3Backend>(entries, mem_bytes);
  }
  if (name == "memc3-sse") {
    return std::make_unique<Memc3Backend>(entries, mem_bytes,
                                          /*simd_tags=*/true);
  }
  if (name == "hor-avx2") {
    if (!cpu.Supports(SimdLevel::kAvx2)) return nullptr;
    return std::make_unique<SimdBackend>(SimdBackend::BucketCuckooHorAvx2(),
                                         entries, mem_bytes);
  }
  if (name == "ver-avx512") {
    if (!cpu.Supports(SimdLevel::kAvx512)) return nullptr;
    return std::make_unique<SimdBackend>(SimdBackend::CuckooVerAvx512(),
                                         entries, mem_bytes);
  }
  return nullptr;
}

std::atomic<KvTcpServer*> g_serve_server{nullptr};
std::atomic<bool> g_top_stop{false};

void HandleStopSignal(int) {
  g_top_stop.store(true);
  if (KvTcpServer* server = g_serve_server.load()) server->Stop();
}

bool ParseServerList(const std::string& list,
                     std::vector<TcpEndpoint>* out, std::string* err) {
  out->clear();
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string_view item(list.data() + start, comma - start);
    if (!item.empty()) {
      TcpEndpoint ep;
      if (!ParseEndpoint(item, &ep.host, &ep.port, err)) return false;
      out->push_back(std::move(ep));
    }
    start = comma + 1;
  }
  if (out->empty()) {
    if (err) *err = "--servers is empty";
    return false;
  }
  return true;
}

}  // namespace

void ServeUsage() {
  std::fprintf(
      stderr,
      "usage: simdht serve [options]\n"
      "  --host=H            bind address (default 127.0.0.1)\n"
      "  --port=P            TCP port; 0 picks an ephemeral port\n"
      "                      (the chosen port is printed, default 0)\n"
      "  --backend=B         memc3 | memc3-sse | hor-avx2 | ver-avx512\n"
      "                      (default memc3; SIMD backends need CPU "
      "support)\n"
      "  --entries=N         hash-table entry capacity (default 2M)\n"
      "  --mem=S             value-store memory, e.g. 1G (default 1G)\n"
      "  --max-batch-keys=N  cross-connection batch flush bound (default "
      "8192)\n"
      "  --metrics-port=P    serve Prometheus text over plain HTTP on this\n"
      "                      port (GET /metrics; 0 picks ephemeral, the\n"
      "                      chosen port is printed)\n"
      "  --window-ms=N       rolling-window interval (default 1000)\n"
      "  --window-count=N    intervals kept in the window (default 8)\n"
      "  --trace=PATH        record server-side spans for sampled traced\n"
      "                      requests; written as Chrome trace JSON on "
      "exit\n"
      "runs until SIGINT/SIGTERM or a client SHUTDOWN frame; prints a\n"
      "parseable 'listening on HOST:PORT' line once the socket is ready.\n");
}

int RunServeCommand(const Flags& flags) {
  const std::string backend_name = flags.GetString("backend", "memc3");
  const std::uint64_t entries =
      flags.GetUint64("entries", std::uint64_t{2} << 20);
  const std::size_t mem_bytes = static_cast<std::size_t>(
      ParseByteSize(flags.GetString("mem", "1G")));
  std::unique_ptr<KvBackend> backend =
      MakeBackend(backend_name, entries, mem_bytes);
  if (!backend) {
    std::fprintf(stderr,
                 "unknown or unsupported --backend '%s' (memc3, memc3-sse, "
                 "hor-avx2, ver-avx512)\n",
                 backend_name.c_str());
    return 1;
  }

  KvTcpServerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<std::uint16_t>(flags.GetInt("port", 0));
  options.max_batch_keys =
      static_cast<std::size_t>(flags.GetInt("max-batch-keys", 8192));
  options.window_interval_ms =
      static_cast<std::uint64_t>(flags.GetInt("window-ms", 1000));
  options.window_intervals =
      static_cast<unsigned>(flags.GetInt("window-count", 8));
  options.enable_metrics_http = flags.Has("metrics-port");
  options.metrics_http_port =
      static_cast<std::uint16_t>(flags.GetInt("metrics-port", 0));

  const std::string trace_path = flags.GetString("trace", "");
  if (!trace_path.empty()) Timeline::Global().Enable();

  KvTcpServer server(backend.get(), options);
  std::string err;
  if (!server.Listen(&err)) {
    std::fprintf(stderr, "serve: %s\n", err.c_str());
    return 1;
  }
  // Scripts scrape this exact line for the ephemeral port.
  std::printf("simdht serve: listening on %s:%u (backend %s)\n",
              options.host.c_str(), server.port(), backend->name());
  if (options.enable_metrics_http) {
    // Same contract: scripts scrape this line for the metrics port.
    std::printf("simdht serve: metrics on %s:%u\n", options.host.c_str(),
                server.metrics_port());
  }
  std::fflush(stdout);

  g_serve_server.store(&server);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  server.Run();
  g_serve_server.store(nullptr);

  const StatsPairs stats = server.StatsSnapshot();
  std::printf(
      "simdht serve: exiting; %.0f batches, %.0f keys (%.0f hits), "
      "batch occupancy mean %.2f conns / %.1f keys\n",
      FindStat(stats, "batches"), FindStat(stats, "keys"),
      FindStat(stats, "hits"), FindStat(stats, "batch_connections.mean"),
      FindStat(stats, "batch_keys.mean"));
  if (!trace_path.empty()) {
    if (!Timeline::Global().WriteToFile(trace_path, &err)) {
      std::fprintf(stderr, "serve: cannot write trace: %s\n", err.c_str());
      return 1;
    }
    std::printf("simdht serve: wrote %zu trace events to %s\n",
                Timeline::Global().event_count(), trace_path.c_str());
  }
  return 0;
}

void LoadgenUsage() {
  std::fprintf(
      stderr,
      "usage: simdht loadgen --servers=H:P[,H:P...] [options]\n"
      "  --servers=LIST      serve endpoints, comma separated (required)\n"
      "  --clients=N         driver threads (default 2)\n"
      "  --arrival=A         closed | uniform | poisson (default uniform)\n"
      "  --qps=N             aggregate intended Multi-Get rate for the\n"
      "                      open-loop modes (default 20000)\n"
      "  --seconds=S         run length; requests = qps*seconds (default "
      "2)\n"
      "  --requests=N        per-client request count (overrides "
      "--seconds)\n"
      "  --num-keys=N        key population (default 100000)\n"
      "  --key-size=B --val-size=B   (defaults 20 / 32, the paper's sizes)\n"
      "  --mget=N            keys per Multi-Get (default 16)\n"
      "  --pattern=P         zipf | uniform (default zipf)\n"
      "  --hit-rate=F        probe selectivity (default 0.95)\n"
      "  --seed=N            schedule/workload seed (default 1)\n"
      "  --no-preload        skip the MSET preload phase\n"
      "  --stop-servers      send SHUTDOWN to every server afterwards\n"
      "  --json=PATH         write a RunReport (client row + one row per\n"
      "                      server; diff with simdht_compare)\n"
      "  --trace-sample=N    send one Multi-Get in N as a traced request\n"
      "                      (client spans + clock-sync samples; needs\n"
      "                      servers that advertise proto.trace_context)\n"
      "  --trace-out=PATH    write the client-side Chrome trace JSON\n"
      "                      (implies --trace-sample=16 if unset; merge\n"
      "                      with the server's --trace file via\n"
      "                      simdht_tracemerge)\n"
      "  --csv               machine-readable tables\n");
}

int RunLoadgenCommand(const Flags& flags) {
  std::string err;
  LoadgenConfig config;
  std::vector<TcpEndpoint> endpoints;
  if (!ParseServerList(flags.GetString("servers", ""), &endpoints, &err)) {
    std::fprintf(stderr, "loadgen: %s\n", err.c_str());
    LoadgenUsage();
    return 1;
  }
  config.clients = static_cast<unsigned>(flags.GetInt("clients", 2));
  config.num_keys =
      static_cast<std::size_t>(flags.GetInt("num-keys", 100000));
  config.key_size = static_cast<std::size_t>(flags.GetInt("key-size", 20));
  config.val_size = static_cast<std::size_t>(flags.GetInt("val-size", 32));
  config.mget_size = static_cast<unsigned>(flags.GetInt("mget", 16));
  config.hit_rate = flags.GetDouble("hit-rate", 0.95);
  config.zipf = flags.GetString("pattern", "zipf") != "uniform";
  config.zipf_s = flags.GetDouble("zipf-s", 0.99);
  config.seed = flags.GetUint64("seed", 1);
  config.preload = !flags.GetBool("no-preload", false);
  config.target_qps = flags.GetDouble("qps", 20000);
  config.trace_sample =
      static_cast<unsigned>(flags.GetInt("trace-sample", 0));
  const std::string trace_out_path = flags.GetString("trace-out", "");
  if (!trace_out_path.empty()) {
    Timeline::Global().Enable();
    if (config.trace_sample == 0) config.trace_sample = 16;
  }

  const std::string arrival = flags.GetString("arrival", "uniform");
  if (!ParseArrivalMode(arrival, &config.arrival)) {
    std::fprintf(stderr, "loadgen: unknown --arrival '%s'\n",
                 arrival.c_str());
    return 1;
  }

  const double seconds = flags.GetDouble("seconds", 2.0);
  if (flags.Has("requests")) {
    config.requests_per_client =
        static_cast<std::size_t>(flags.GetInt("requests", 2000));
  } else if (config.arrival != ArrivalMode::kClosedLoop) {
    config.requests_per_client = static_cast<std::size_t>(
        config.target_qps * seconds / config.clients);
  } else {
    config.requests_per_client = 2000;
  }
  if (config.requests_per_client == 0) config.requests_per_client = 1;

  LoadgenResult result;
  if (!RunLoadgen(
          config, [&endpoints](unsigned) { return TcpLinks(endpoints); },
          &result, &err)) {
    std::fprintf(stderr, "loadgen: %s\n", err.c_str());
    return 1;
  }

  const bool csv = flags.GetBool("csv", false);
  TablePrinter client({"arrival", "intended QPS", "achieved QPS",
                       "requests", "key errors", "mean us", "p50 us",
                       "p99 us", "p999 us", "p9999 us", "max lag us"});
  client.AddRow({ArrivalModeName(config.arrival),
                 TablePrinter::Fmt(result.intended_qps, 0),
                 TablePrinter::Fmt(result.achieved_qps, 0),
                 TablePrinter::Fmt(static_cast<std::int64_t>(result.requests)),
                 TablePrinter::Fmt(
                     static_cast<std::int64_t>(result.key_errors)),
                 TablePrinter::Fmt(result.mget_mean_us, 1),
                 TablePrinter::Fmt(result.mget_p50_us, 1),
                 TablePrinter::Fmt(result.mget_p99_us, 1),
                 TablePrinter::Fmt(result.mget_p999_us, 1),
                 TablePrinter::Fmt(result.mget_p9999_us, 1),
                 TablePrinter::Fmt(result.max_send_lag_us, 1)});

  TablePrinter servers({"server", "batches", "keys", "hits",
                        "batch conns (mean/max)", "batch keys (mean)",
                        "probe p99 us", "probe p999 us"});
  for (std::size_t s = 0; s < result.server_stats.size(); ++s) {
    const StatsPairs& stats = result.server_stats[s];
    if (stats.empty()) {
      servers.AddRow({TablePrinter::Fmt(static_cast<std::int64_t>(s)),
                      "down", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    servers.AddRow(
        {TablePrinter::Fmt(static_cast<std::int64_t>(s)),
         TablePrinter::Fmt(FindStat(stats, "batches"), 0),
         TablePrinter::Fmt(FindStat(stats, "keys"), 0),
         TablePrinter::Fmt(FindStat(stats, "hits"), 0),
         TablePrinter::Fmt(FindStat(stats, "batch_connections.mean"), 2) +
             "/" +
             TablePrinter::Fmt(FindStat(stats, "batch_connections.max"),
                               0),
         TablePrinter::Fmt(FindStat(stats, "batch_keys.mean"), 1),
         TablePrinter::Fmt(FindStat(stats, "index_probe_ns.p99") / 1e3, 2),
         TablePrinter::Fmt(FindStat(stats, "index_probe_ns.p999") / 1e3,
                           2)});
  }
  if (csv) {
    client.PrintCsv();
    servers.PrintCsv();
  } else {
    std::printf("client-observed Multi-Get latency (end to end over TCP)\n");
    client.Print();
    std::printf("\nserver-side serving stats (over the wire via STATS)\n");
    servers.Print();
  }

  if (config.trace_sample > 0) {
    if (result.trace_supported) {
      std::printf(
          "\ntracing: %llu of %llu requests traced (1 in %u)\n",
          static_cast<unsigned long long>(result.traced_requests),
          static_cast<unsigned long long>(result.requests),
          config.trace_sample);
    } else {
      std::fprintf(stderr,
                   "loadgen: servers do not advertise proto.trace_context; "
                   "ran untraced\n");
    }
  }
  if (!trace_out_path.empty()) {
    if (!Timeline::Global().WriteToFile(trace_out_path, &err)) {
      std::fprintf(stderr, "loadgen: cannot write trace: %s\n",
                   err.c_str());
      return 1;
    }
    std::printf("tracing: wrote %zu client trace events to %s\n",
                Timeline::Global().event_count(), trace_out_path.c_str());
  }

  if (flags.GetBool("stop-servers", false)) {
    KvClusterClient stopper(TcpLinks(endpoints));
    if (stopper.Connect(nullptr)) stopper.ShutdownAll();
  }

  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    RunReport report =
        NewRunReport("simdht-loadgen", "TCP serving: open-loop Multi-Get");
    for (const auto& [name, value] : flags.items()) {
      report.flags.emplace_back(name, value);
    }
    report.options.emplace_back("arrival", ArrivalModeName(config.arrival));
    report.options.emplace_back("servers",
                                std::to_string(endpoints.size()));
    report.options.emplace_back("clients",
                                std::to_string(config.clients));
    report.options.emplace_back("mget", std::to_string(config.mget_size));
    report.options.emplace_back("seed", std::to_string(config.seed));

    ResultRow row;
    row.kernel = "tcp-loadgen";
    row.config = {{"arrival", ArrivalModeName(config.arrival)},
                  {"mget", std::to_string(config.mget_size)},
                  {"servers", std::to_string(endpoints.size())}};
    const auto metric = [&row](const char* name, double v) {
      row.metrics.emplace_back(name, MetricStat{v, 0.0});
    };
    metric("intended_qps", result.intended_qps);
    metric("achieved_qps", result.achieved_qps);
    metric("requests", static_cast<double>(result.requests));
    metric("key_errors", static_cast<double>(result.key_errors));
    metric("mget_mean_us", result.mget_mean_us);
    metric("mget_p50_us", result.mget_p50_us);
    metric("mget_p95_us", result.mget_p95_us);
    metric("mget_p99_us", result.mget_p99_us);
    metric("mget_p999_us", result.mget_p999_us);
    metric("mget_p9999_us", result.mget_p9999_us);
    metric("max_send_lag_us", result.max_send_lag_us);
    report.results.push_back(std::move(row));

    for (std::size_t s = 0; s < result.server_stats.size(); ++s) {
      ResultRow server_row;
      server_row.kernel = "tcp-server";
      server_row.config = {{"server", std::to_string(s)}};
      for (const auto& [name, value] : result.server_stats[s]) {
        server_row.metrics.emplace_back(name, MetricStat{value, 0.0});
      }
      report.results.push_back(std::move(server_row));
    }
    return WriteReportOutputs(report, json_path, "", csv);
  }
  return 0;
}

void TopUsage() {
  std::fprintf(
      stderr,
      "usage: simdht top --server=H:P [options]\n"
      "  --server=H:P        serve endpoint to watch (required)\n"
      "  --interval-ms=N     poll period (default 1000)\n"
      "  --iterations=N      polls before exiting; 0 = until SIGINT\n"
      "                      (default 0)\n"
      "polls STATS over the KV wire and renders the rolling-window view:\n"
      "QPS, windowed tail latencies, batch occupancy, hit rate, and\n"
      "per-shard probe skew.\n");
}

int RunTopCommand(const Flags& flags) {
  const std::string server_flag = flags.GetString("server", "");
  std::string host;
  std::uint16_t port = 0;
  std::string err;
  if (server_flag.empty() || !ParseEndpoint(server_flag, &host, &port, &err)) {
    std::fprintf(stderr, "top: bad --server '%s'%s%s\n", server_flag.c_str(),
                 err.empty() ? "" : ": ", err.c_str());
    TopUsage();
    return 1;
  }
  const int interval_ms = flags.GetInt("interval-ms", 1000);
  const int iterations = flags.GetInt("iterations", 0);

  KvClient client(std::make_unique<TcpLink>(TcpEndpoint{host, port}));
  if (!client.Connect(&err)) {
    std::fprintf(stderr, "top: cannot connect to %s: %s\n",
                 server_flag.c_str(), err.c_str());
    return 1;
  }
  g_top_stop.store(false);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  for (int i = 0; (iterations == 0 || i < iterations) && !g_top_stop.load();
       ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      if (g_top_stop.load()) break;
    }
    StatsPairs stats;
    if (!client.Stats(&stats, &err)) {
      // The connection drops once on server restart; try to re-establish.
      if (!client.Connect(nullptr)) {
        std::fprintf(stderr, "top: lost %s: %s\n", server_flag.c_str(),
                     err.c_str());
        return 1;
      }
      if (!client.Stats(&stats, &err)) {
        std::fprintf(stderr, "top: %s\n", err.c_str());
        return 1;
      }
    }
    const auto v = [&stats](const char* name) {
      return FindStat(stats, name);
    };
    std::printf(
        "-- simdht top: %s  (window %.1fs)\n"
        "   load     %10.0f req/s  %10.0f keys/s  hit rate %5.1f%%  "
        "(lifetime: %.0f requests, %.0f keys)\n"
        "   batches  conns mean %.2f max %.0f   keys mean %.1f max %.0f   "
        "dispatch p99 %.0f us (%.1f events mean)\n",
        server_flag.c_str(), v("win.window_s"), v("win.requests_per_s"),
        v("win.keys_per_s"), 100.0 * v("win.hit_rate"), v("requests"),
        v("keys"), v("win.batch_connections.mean"),
        v("win.batch_connections.max"), v("win.batch_keys.mean"),
        v("win.batch_keys.max"), v("win.dispatch_us.p99"),
        v("win.dispatch_events.mean"));
    const struct {
      const char* label;
      const char* prefix;
    } phases[] = {{"parse", "win.parse_ns"},
                  {"probe", "win.index_probe_ns"},
                  {"copy", "win.value_copy_ns"},
                  {"transport", "win.transport_ns"}};
    std::printf("   phase us (windowed)   p50      p90      p99     p999\n");
    for (const auto& phase : phases) {
      const std::string p(phase.prefix);
      std::printf("   %-9s %12.2f %8.2f %8.2f %8.2f\n", phase.label,
                  FindStat(stats, p + ".p50") / 1e3,
                  FindStat(stats, p + ".p90") / 1e3,
                  FindStat(stats, p + ".p99") / 1e3,
                  FindStat(stats, p + ".p999") / 1e3);
    }
    const int shards = static_cast<int>(v("shards"));
    if (shards > 0) {
      // Shard skew: a shard serving far more than its fair share of hits
      // (or leaning on its stash) is the saturation early-warning.
      double total_hits = 0, max_hits = 0, stash = 0;
      for (int s = 0; s < shards; ++s) {
        const std::string prefix = "shard." + std::to_string(s);
        const double h = FindStat(stats, prefix + ".hits");
        total_hits += h;
        max_hits = std::max(max_hits, h);
        stash += FindStat(stats, prefix + ".stash_hits");
      }
      const double fair = shards > 0 ? total_hits / shards : 0;
      std::printf(
          "   shards   %d  skew (max/fair) %.2f  stash hits %.0f\n", shards,
          fair > 0 ? max_hits / fair : 0.0, stash);
    }
    std::fflush(stdout);
  }
  client.Close();
  return 0;
}

}  // namespace simdht
