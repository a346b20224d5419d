// Fig 11 / Section VI: SIMD-aware hash tables inside the key-value store.
//
// Fig 11(a): server-side Get throughput and end-to-end Multi-Get latency
// for MemC3 (non-SIMD baseline) vs Bucket-Cuckoo-Hor(AVX-256) vs
// Cuckoo-Ver(AVX-512), batch sizes 16 and 96.
// Fig 11(b): server-side per-phase breakdown (pre-process / HT lookup /
// post-process) per Multi-Get batch.
//
// Paper shape: 1.45x-2.04x server-side Get throughput and 10-34% lower
// end-to-end latency vs MemC3; the two SIMD designs are near-identical
// end-to-end because the scalar full-key verification step dominates the
// residual lookup cost.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.h"
#include "kvs/loadgen.h"
#include "kvs/memc3_backend.h"
#include "kvs/simd_backend.h"
#include "obs/timeline.h"
#include "perf/metrics.h"

using namespace simdht;
using namespace simdht::bench;

int main(int argc, char** argv) {
  const BenchOptions opt = ParseBenchOptions(argc, argv);
  PrintHeader("Fig 11: RDMA-Memcached Multi-Get with SIMD-aware HT", opt);
  ReportSession session(opt, "Fig 11: KVS Multi-Get with SIMD-aware HT");

  LoadgenConfig config;
  // Each client pairs with a dedicated server worker (2 threads per
  // client). The paper undersubscribes (26 workers on 28 cores); mirror
  // that so phase timers are not inflated by preemption.
  config.clients =
      opt.threads ? opt.threads
                  : static_cast<unsigned>(
                        HardwareThreads() / 2 ? HardwareThreads() / 2 : 1);
  config.num_keys = opt.quick ? 100000 : 2000000;  // paper: 2 M-entry HT
  config.requests_per_client = opt.quick ? 1500 : 8000;
  config.key_size = 20;   // paper: 20 B keys
  config.val_size = 32;   // paper: 32 B values
  config.hit_rate = 0.95;
  config.zipf = true;     // mutilate-like skew
  config.seed = opt.seed;
  // Under --timeline, traced requests carry the server's phase spans.
  if (Timeline::Global().enabled()) config.trace_sample = 16;

  const std::uint64_t ht_entries = config.num_keys * 2;
  const std::size_t mem_limit = std::size_t{2} << 30;

  struct Candidate {
    const char* label;
    std::unique_ptr<KvBackend> (*make)(std::uint64_t, std::size_t);
    SimdLevel needs;
  };
  const Candidate candidates[] = {
      {"MemC3 (non-SIMD baseline)",
       [](std::uint64_t e, std::size_t m) -> std::unique_ptr<KvBackend> {
         return std::make_unique<Memc3Backend>(e, m);
       },
       SimdLevel::kScalar},
      {"MemC3+SSE-tags (ablation)",
       [](std::uint64_t e, std::size_t m) -> std::unique_ptr<KvBackend> {
         return std::make_unique<Memc3Backend>(e, m, /*simd_tags=*/true);
       },
       SimdLevel::kSse42},
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

  TablePrinter fig11a({"batch", "backend", "server Get Mops",
                       "vs MemC3", "MGet mean us", "p50 us", "p99 us",
                       "p999 us", "p50 vs MemC3"});
  TablePrinter fig11b({"batch", "backend", "pre-process us/req",
                       "HT lookup us/req", "post-process us/req",
                       "total us/req", "lookup share"});
  // --perf: per-phase tail latencies from the registry handed to the
  // server — its histograms see every request, not just the means.
  TablePrinter phase_tails({"batch", "backend", "phase", "p50 us", "p95 us",
                            "p99 us", "p999 us", "max us"});

  for (const unsigned batch : {16u, 96u}) {
    config.mget_size = batch;
    double memc3_mops = 0;
    double memc3_lat = 0;
    for (const Candidate& candidate : candidates) {
      if (!GetCpuFeatures().Supports(candidate.needs)) continue;
      // Best-of-N runs: on shared hosts a single run's mean latency can be
      // poisoned by one scheduler stall; keep the run with the highest
      // server-side throughput (the least-perturbed one).
      const unsigned runs = opt.quick ? 3 : 5;
      LoadgenResult r;
      StatsPairs server;
      double mops = 0;
      MetricsSnapshot metrics;
      for (unsigned rerun = 0; rerun < runs; ++rerun) {
        auto backend = candidate.make(ht_entries, mem_limit);
        // One registry per attempt so the kept snapshot covers exactly the
        // kept run.
        auto registry = opt.perf.enabled ? std::make_unique<MetricsRegistry>()
                                         : nullptr;
        LoadgenResult attempt;
        {
          SimCluster sim({backend.get()}, config.clients,
                         WireModel::InfinibandEdr(), registry.get());
          std::string err;
          if (!RunLoadgen(config, sim.links(), &attempt, &err)) {
            std::fprintf(stderr, "fig11: %s\n", err.c_str());
            return 1;
          }
        }
        const double attempt_mops = ServerGetMops(attempt.server_stats[0]);
        if (rerun == 0 || attempt_mops > mops) {
          mops = attempt_mops;
          server = attempt.server_stats[0];
          r = std::move(attempt);
          if (registry) metrics = registry->Aggregate();
        }
      }
      if (&candidate == &candidates[0]) {
        memc3_mops = mops;
        memc3_lat = r.mget_p50_us;
      }
      fig11a.AddRow(
          {TablePrinter::Fmt(std::int64_t{batch}), candidate.label,
           TablePrinter::Fmt(mops, 2),
           memc3_mops > 0 ? TablePrinter::Fmt(mops / memc3_mops, 2) + "x"
                          : "-",
           TablePrinter::Fmt(r.mget_mean_us, 1),
           TablePrinter::Fmt(r.mget_p50_us, 1),
           TablePrinter::Fmt(r.mget_p99_us, 1),
           TablePrinter::Fmt(r.mget_p999_us, 1),
           memc3_lat > 0
               ? TablePrinter::Fmt(
                     (1.0 - r.mget_p50_us / memc3_lat) * 100.0, 1) +
                     "% lower"
               : "-"});
      // One channel carries one client's requests, so every batch is one
      // request and the per-batch phase means are per-request means.
      const double pre = FindStat(server, "parse_ns.mean") / 1e3;
      const double lookup = FindStat(server, "index_probe_ns.mean") / 1e3;
      const double post = FindStat(server, "value_copy_ns.mean") / 1e3;
      const double total = pre + lookup + post;
      session.AddRow(candidate.label,
                     {{"batch", std::to_string(batch)}},
                     {{"server_get_mops", ReportSession::Stat(mops)},
                      {"mget_mean_us", ReportSession::Stat(r.mget_mean_us)},
                      {"mget_p50_us", ReportSession::Stat(r.mget_p50_us)},
                      {"mget_p99_us", ReportSession::Stat(r.mget_p99_us)},
                      {"mget_p999_us", ReportSession::Stat(r.mget_p999_us)},
                      {"pre_process_us", ReportSession::Stat(pre)},
                      {"ht_lookup_us", ReportSession::Stat(lookup)},
                      {"post_process_us", ReportSession::Stat(post)}});
      fig11b.AddRow({TablePrinter::Fmt(std::int64_t{batch}), candidate.label,
                     TablePrinter::Fmt(pre, 2), TablePrinter::Fmt(lookup, 2),
                     TablePrinter::Fmt(post, 2), TablePrinter::Fmt(total, 2),
                     TablePrinter::Fmt(lookup / total * 100.0, 1) + "%"});
      if (opt.perf.enabled) {
        const struct {
          const char* label;
          const char* metric;
        } phases[] = {{"parse", kvs_metrics::kParseNs},
                      {"index probe", kvs_metrics::kIndexProbeNs},
                      {"value copy", kvs_metrics::kValueCopyNs},
                      {"transport send", kvs_metrics::kTransportNs}};
        for (const auto& phase : phases) {
          const auto it = metrics.histograms.find(phase.metric);
          if (it == metrics.histograms.end() || it->second.count() == 0) {
            continue;
          }
          const Histogram& h = it->second;
          phase_tails.AddRow(
              {TablePrinter::Fmt(std::int64_t{batch}), candidate.label,
               phase.label,
               TablePrinter::Fmt(static_cast<double>(h.Percentile(50)) / 1e3,
                                 2),
               TablePrinter::Fmt(static_cast<double>(h.Percentile(95)) / 1e3,
                                 2),
               TablePrinter::Fmt(static_cast<double>(h.Percentile(99)) / 1e3,
                                 2),
               TablePrinter::Fmt(static_cast<double>(h.P999()) / 1e3, 2),
               TablePrinter::Fmt(static_cast<double>(h.max()) / 1e3, 2)});
        }
      }
    }
  }

  if (!opt.csv) std::printf("Fig 11(a): throughput and latency\n");
  Emit(fig11a, opt);
  if (!opt.csv) {
    std::printf("\nFig 11(b): server-side time breakdown per Multi-Get\n");
  }
  Emit(fig11b, opt);
  if (opt.perf.enabled) {
    if (!opt.csv) {
      std::printf("\nServer phase tails (MetricsRegistry histograms)\n");
    }
    Emit(phase_tails, opt);
  }
  return session.Finish();
}
