// Serving-transport study: simulated channel vs real TCP sockets.
//
// The fig11 bench measures the KVS through the simulated transport
// (kvs/transport.h's in-process Channel with a wire-delay model). This
// binary runs one Multi-Get workload — the same RunLoadgen driver, the same
// schedule and the same request core on the server side — through a
// selectable transport, so the two rows differ only in how frames move:
//
//   --transport=sim   simulated KvServers, one channel per driver thread
//                     per server over the modeled EDR wire (SimCluster).
//   --transport=tcp   in-process KvTcpServers on loopback sockets; the
//                     epoll server batches across connections, which the
//                     `batch occ max` column shows (batch_connections.max).
//
// Knobs for both arms: --servers=N (cluster size), --conns=N (driver
// threads), --qps=R + --arrival=uniform|poisson|closed (open-loop rate),
// --mget=K.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kvs/loadgen.h"
#include "kvs/memc3_backend.h"
#include "kvs/simd_backend.h"
#include "net/kv_tcp_server.h"
#include "net/tcp_link.h"

using namespace simdht;
using namespace simdht::bench;

namespace {

struct Candidate {
  const char* label;
  std::unique_ptr<KvBackend> (*make)(std::uint64_t, std::size_t);
  SimdLevel needs;
};

const Candidate kCandidates[] = {
    {"MemC3 (non-SIMD baseline)",
     [](std::uint64_t e, std::size_t m) -> std::unique_ptr<KvBackend> {
       return std::make_unique<Memc3Backend>(e, m);
     },
     SimdLevel::kScalar},
    {"Bucket-Cuckoo-Hor(AVX-256)",
     [](std::uint64_t e, std::size_t m) -> std::unique_ptr<KvBackend> {
       return std::make_unique<SimdBackend>(
           SimdBackend::BucketCuckooHorAvx2(), e, m);
     },
     SimdLevel::kAvx2},
    {"Cuckoo-Ver(AVX-512)",
     [](std::uint64_t e, std::size_t m) -> std::unique_ptr<KvBackend> {
       return std::make_unique<SimdBackend>(
           SimdBackend::CuckooVerAvx512(), e, m);
     },
     SimdLevel::kAvx512},
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const BenchOptions opt = ParseBenchOptions(argc, argv);
  const std::string transport = flags.GetString("transport", "sim");
  if (transport != "sim" && transport != "tcp") {
    std::fprintf(stderr, "unknown --transport '%s' (want sim|tcp)\n",
                 transport.c_str());
    return 2;
  }
  const unsigned servers =
      static_cast<unsigned>(flags.GetInt("servers", 2));
  const unsigned conns = static_cast<unsigned>(flags.GetInt("conns", 4));
  const unsigned mget = static_cast<unsigned>(flags.GetInt("mget", 16));
  const double qps = flags.GetDouble("qps", 20000.0);
  const std::string arrival_name = flags.GetString("arrival", "uniform");
  ArrivalMode arrival = ArrivalMode::kUniform;
  if (!ParseArrivalMode(arrival_name, &arrival)) {
    std::fprintf(stderr, "unknown --arrival '%s'\n", arrival_name.c_str());
    return 2;
  }

  PrintHeader("KVS serving transport: simulated channel vs real TCP", opt);
  ReportSession session(opt, "KVS serving transport comparison");

  const std::size_t num_keys = opt.quick ? 100000 : 2000000;
  const std::size_t requests_per_client = opt.quick ? 1500 : 8000;
  const std::uint64_t ht_entries = num_keys * 2;
  const std::size_t mem_limit = std::size_t{2} << 30;

  TablePrinter table({"transport", "backend", "MGet mean us", "p50 us",
                      "p99 us", "p999 us", "achieved qps", "batch occ max"});

  for (const Candidate& candidate : kCandidates) {
    if (!GetCpuFeatures().Supports(candidate.needs)) continue;

    // One backend per server (the cluster client shards keys).
    std::vector<std::unique_ptr<KvBackend>> backends;
    std::vector<KvBackend*> backend_ptrs;
    for (unsigned s = 0; s < servers; ++s) {
      backends.push_back(candidate.make(ht_entries / servers + 1,
                                        mem_limit / servers));
      backend_ptrs.push_back(backends.back().get());
    }
    LoadgenConfig config;
    config.clients = conns;
    config.num_keys = num_keys;
    config.requests_per_client =
        requests_per_client / (conns ? conns : 1) + 1;
    config.mget_size = mget;
    config.arrival = arrival;
    config.target_qps = qps;
    config.seed = opt.seed;

    LoadgenResult r;
    std::string err;
    bool ok = false;
    if (transport == "sim") {
      SimCluster sim(backend_ptrs, conns, WireModel::InfinibandEdr());
      ok = RunLoadgen(config, sim.links(), &r, &err);
    } else {
      std::vector<std::unique_ptr<KvTcpServer>> cluster;
      std::vector<TcpEndpoint> endpoints;
      bool up = true;
      for (KvBackend* backend : backend_ptrs) {
        cluster.push_back(std::make_unique<KvTcpServer>(backend));
        if (!cluster.back()->StartBackground(&err)) {
          std::fprintf(stderr, "server failed to start: %s\n", err.c_str());
          up = false;
          break;
        }
        endpoints.push_back({"127.0.0.1", cluster.back()->port()});
      }
      if (up) {
        ok = RunLoadgen(
            config, [&endpoints](unsigned) { return TcpLinks(endpoints); },
            &r, &err);
      }
      for (auto& server : cluster) {
        server->Stop();
        server->Join();
      }
    }
    if (!ok) {
      std::fprintf(stderr, "loadgen: %s\n", err.c_str());
      continue;
    }

    double occ_max = 0;
    // Server-phase tails across the cluster (worst server). Metric names
    // carry an explicit _ns suffix: the wire snapshot serves nanoseconds
    // (it declares units.phase_ns=1), never raw TSC cycles — rows from
    // different machines stay comparable without knowing either TSC rate.
    double probe_p50_ns = 0, probe_p99_ns = 0, probe_p999_ns = 0;
    double copy_p99_ns = 0, transport_p99_ns = 0;
    for (const StatsPairs& stats : r.server_stats) {
      const double m = FindStat(stats, "batch_connections.max");
      if (m > occ_max) occ_max = m;
      probe_p50_ns =
          std::max(probe_p50_ns, FindStat(stats, "index_probe_ns.p50"));
      probe_p99_ns =
          std::max(probe_p99_ns, FindStat(stats, "index_probe_ns.p99"));
      probe_p999_ns =
          std::max(probe_p999_ns, FindStat(stats, "index_probe_ns.p999"));
      copy_p99_ns =
          std::max(copy_p99_ns, FindStat(stats, "value_copy_ns.p99"));
      transport_p99_ns =
          std::max(transport_p99_ns, FindStat(stats, "transport_ns.p99"));
    }
    table.AddRow({transport, candidate.label,
                  TablePrinter::Fmt(r.mget_mean_us, 1),
                  TablePrinter::Fmt(r.mget_p50_us, 1),
                  TablePrinter::Fmt(r.mget_p99_us, 1),
                  TablePrinter::Fmt(r.mget_p999_us, 1),
                  TablePrinter::Fmt(r.achieved_qps, 0),
                  TablePrinter::Fmt(occ_max, 0)});
    session.AddRow(
        candidate.label,
        {{"transport", transport},
         {"mget", std::to_string(mget)},
         {"servers", std::to_string(servers)},
         {"arrival", ArrivalModeName(arrival)}},
        {{"mget_mean_us", ReportSession::Stat(r.mget_mean_us)},
         {"mget_p50_us", ReportSession::Stat(r.mget_p50_us)},
         {"mget_p99_us", ReportSession::Stat(r.mget_p99_us)},
         {"mget_p999_us", ReportSession::Stat(r.mget_p999_us)},
         {"intended_qps", ReportSession::Stat(r.intended_qps)},
         {"achieved_qps", ReportSession::Stat(r.achieved_qps)},
         {"max_send_lag_us", ReportSession::Stat(r.max_send_lag_us)},
         {"key_errors",
          ReportSession::Stat(static_cast<double>(r.key_errors))},
         {"batch_connections_max", ReportSession::Stat(occ_max)},
         {"server_index_probe_p50_ns", ReportSession::Stat(probe_p50_ns)},
         {"server_index_probe_p99_ns", ReportSession::Stat(probe_p99_ns)},
         {"server_index_probe_p999_ns",
          ReportSession::Stat(probe_p999_ns)},
         {"server_value_copy_p99_ns", ReportSession::Stat(copy_p99_ns)},
         {"server_transport_p99_ns",
          ReportSession::Stat(transport_p99_ns)}});
  }

  if (!opt.csv) {
    std::printf("transport=%s  servers=%u  conns=%u  arrival=%s  qps=%.0f\n",
                transport.c_str(), servers, conns, ArrivalModeName(arrival),
                qps);
  }
  Emit(table, opt);
  return session.Finish();
}
