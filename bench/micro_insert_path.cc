// Insertion-engine microbench: max load factor of the BFS path-search
// engine.
//
// For each (N, m) shape, fills a fresh table to saturation with the full
// engine (path search + stash + rebuild, at their defaults) and reports the
// achieved load factor (median and min-max band over the seed set),
// successful-insert throughput, and the engine's failure/recovery counters.
// The final comparison against the retired random-walk insert is recorded
// in docs/insertion.md.
//
// --check turns the run into a regression gate (used by scripts/check.sh
// and CI): exits non-zero unless BFS (4,8) reaches >= 0.95 LF and BFS (2,1)
// lands inside the theoretical non-bucketized band.
//
// --engine=batch switches to the write-path engine study on 64 MiB tables
// (4 MiB under --quick): the same key set inserted through the scalar
// per-key loop and through BatchInsert (block hashing, per-key prefetch,
// fused SIMD scans), for the cuckoo and Swiss families, then one update
// stream (repeats, ~10% misses) through the per-key UpdateValue loop and
// through the cuckoo BatchUpdate. Under --check it becomes the
// batched-write gate: every case must leave byte-identical state and
// identical per-key results (snapshot compare), and the cuckoo insert
// engine must be >= 1.5x the scalar loop at the full table size. The update
// speedup is reported, not gated.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "ht/table_builder.h"
#include "ht/table_io.h"

using namespace simdht;
using namespace simdht::bench;

namespace {

struct Shape {
  unsigned n, m;
};

struct ShapeResult {
  std::vector<double> lf_samples;  // sorted after collection
  double minserts_per_sec = 0.0;   // mean over seeds
  double failed_inserts = 0.0;     // mean over seeds
  double rebuilds = 0.0;           // mean over seeds
  double stash_used = 0.0;         // mean over seeds
  double median_lf() const {
    const std::size_t k = lf_samples.size();
    return (k % 2) != 0 ? lf_samples[k / 2]
                        : 0.5 * (lf_samples[k / 2 - 1] + lf_samples[k / 2]);
  }
};

ShapeResult RunShape(const Shape& shape, std::uint64_t buckets,
                     unsigned seeds, std::uint64_t base_seed) {
  ShapeResult out;
  RunningStat rate, failed, rebuilds, stash;
  for (unsigned i = 0; i < seeds; ++i) {
    std::uint64_t s = base_seed + 0x9E3779B97F4A7C15ULL * (i + 1);
    if (s == 0) s = 1;
    CuckooTable<std::uint32_t, std::uint32_t> table(
        shape.n, shape.m, buckets, BucketLayout::kInterleaved, s);

    Timer timer;
    const BuildResult<std::uint32_t> result =
        FillToSaturation(&table, Mix64(s) | 1);
    const double secs = timer.ElapsedSeconds();

    out.lf_samples.push_back(result.achieved_load_factor);
    const double landed = static_cast<double>(result.inserted_keys.size());
    rate.Add(secs > 0.0 ? landed / secs / 1e6 : 0.0);
    failed.Add(static_cast<double>(result.failed_inserts));
    rebuilds.Add(static_cast<double>(table.insert_stats().rebuilds));
    stash.Add(static_cast<double>(table.stash_count()));
  }
  std::sort(out.lf_samples.begin(), out.lf_samples.end());
  out.minserts_per_sec = rate.mean();
  out.failed_inserts = failed.mean();
  out.rebuilds = rebuilds.mean();
  out.stash_used = stash.mean();
  return out;
}

// --- the --engine=batch study: scalar loop vs batched mutation engine ---

struct EngineCase {
  std::string op;  // "insert" or "update"
  std::string label;
  double scalar_mops = 0.0;  // M operations/s, mean over seeds
  double batch_mops = 0.0;
  double speedup = 0.0;
  bool identical = true;  // snapshots and per-key results matched every seed
};

// The id -> key bijection used for the engine comparison: odd-constant
// multiply, distinct and never the empty sentinel for id < 2^32 - 1.
std::uint32_t EngineKey(std::uint64_t id) {
  return static_cast<std::uint32_t>((id + 1) * 2654435761u);
}

EngineCase RunCuckooEngineCase(std::uint64_t table_bytes, unsigned seeds,
                               std::uint64_t base_seed) {
  EngineCase out;
  out.op = "insert";
  out.label = "(2,4) BCHT k32/v32";
  const unsigned ways = 2, slots = 4;
  const std::uint64_t buckets =
      std::max<std::uint64_t>(1, table_bytes / (slots * 8));
  // 0.75 target: high enough that the table is cache-cold and buckets see
  // real occupancy, low enough that the conflict tail (scalar fallback)
  // stays a small fraction of the batch.
  const std::uint64_t count =
      static_cast<std::uint64_t>(0.75 * static_cast<double>(buckets * slots));
  std::vector<std::uint32_t> keys(count), vals(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    keys[i] = EngineKey(i);
    vals[i] = DeriveVal<std::uint32_t, std::uint32_t>(keys[i]);
  }
  RunningStat scalar_rate, batch_rate;
  for (unsigned it = 0; it < seeds; ++it) {
    std::uint64_t s = base_seed + 0x9E3779B97F4A7C15ULL * (it + 1);
    if (s == 0) s = 1;
    CuckooTable<std::uint32_t, std::uint32_t> scalar_table(
        ways, slots, buckets, BucketLayout::kInterleaved, s);
    std::vector<std::uint8_t> scalar_ok(count);
    Timer st;
    for (std::uint64_t i = 0; i < count; ++i) {
      scalar_ok[i] = scalar_table.Insert(keys[i], vals[i]) ? 1 : 0;
    }
    const double scalar_secs = st.ElapsedSeconds();

    CuckooTable<std::uint32_t, std::uint32_t> batch_table(
        ways, slots, buckets, BucketLayout::kInterleaved, s);
    std::vector<std::uint8_t> batch_ok(count);
    Timer bt;
    batch_table.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
        keys.data(), vals.data(), batch_ok.data(), count));
    const double batch_secs = bt.ElapsedSeconds();

    const double n = static_cast<double>(count);
    scalar_rate.Add(scalar_secs > 0 ? n / scalar_secs / 1e6 : 0.0);
    batch_rate.Add(batch_secs > 0 ? n / batch_secs / 1e6 : 0.0);

    if (scalar_ok != batch_ok) out.identical = false;
    std::ostringstream a, b;
    SaveTable(scalar_table, a);
    SaveTable(batch_table, b);
    if (a.str() != b.str()) out.identical = false;
  }
  out.scalar_mops = scalar_rate.mean();
  out.batch_mops = batch_rate.mean();
  out.speedup = out.scalar_mops > 0 ? out.batch_mops / out.scalar_mops : 0.0;
  return out;
}

EngineCase RunSwissEngineCase(std::uint64_t table_bytes, unsigned seeds,
                              std::uint64_t base_seed) {
  EngineCase out;
  out.op = "insert";
  out.label = "Swiss k32/v32";
  const std::uint64_t groups =
      std::max<std::uint64_t>(1, table_bytes / (kSwissGroupSlots * 8));
  std::uint64_t count = 0;  // sized off the first table's real capacity
  std::vector<std::uint32_t> keys, vals;
  RunningStat scalar_rate, batch_rate;
  for (unsigned it = 0; it < seeds; ++it) {
    std::uint64_t s = base_seed + 0x9E3779B97F4A7C15ULL * (it + 1);
    if (s == 0) s = 1;
    SwissTable<std::uint32_t, std::uint32_t> scalar_table(groups, s);
    if (count == 0) {
      count = static_cast<std::uint64_t>(
          0.8 * static_cast<double>(scalar_table.capacity()));
      keys.resize(count);
      vals.resize(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        keys[i] = EngineKey(i);
        vals[i] = DeriveVal<std::uint32_t, std::uint32_t>(keys[i]);
      }
    }
    std::vector<std::uint8_t> scalar_ok(count);
    Timer st;
    for (std::uint64_t i = 0; i < count; ++i) {
      scalar_ok[i] = scalar_table.Insert(keys[i], vals[i]) ? 1 : 0;
    }
    const double scalar_secs = st.ElapsedSeconds();

    SwissTable<std::uint32_t, std::uint32_t> batch_table(groups, s);
    std::vector<std::uint8_t> batch_ok(count);
    Timer bt;
    batch_table.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
        keys.data(), vals.data(), batch_ok.data(), count));
    const double batch_secs = bt.ElapsedSeconds();

    const double n = static_cast<double>(count);
    scalar_rate.Add(scalar_secs > 0 ? n / scalar_secs / 1e6 : 0.0);
    batch_rate.Add(batch_secs > 0 ? n / batch_secs / 1e6 : 0.0);

    if (scalar_ok != batch_ok) out.identical = false;
    std::ostringstream a, b;
    SaveSwissTable(scalar_table, a);
    SaveSwissTable(batch_table, b);
    if (a.str() != b.str()) out.identical = false;
  }
  out.scalar_mops = scalar_rate.mean();
  out.batch_mops = batch_rate.mean();
  out.speedup = out.scalar_mops > 0 ? out.batch_mops / out.scalar_mops : 0.0;
  return out;
}

// The (2,4) BCHT of the insert case, filled to the same 0.75, then one
// update stream of as many operations: ~90% resident keys drawn uniformly
// (so keys repeat), ~10% keys never inserted.
EngineCase RunCuckooUpdateCase(std::uint64_t table_bytes, unsigned seeds,
                               std::uint64_t base_seed) {
  EngineCase out;
  out.op = "update";
  out.label = "(2,4) BCHT k32/v32";
  const unsigned ways = 2, slots = 4;
  const std::uint64_t buckets =
      std::max<std::uint64_t>(1, table_bytes / (slots * 8));
  const std::uint64_t count =
      static_cast<std::uint64_t>(0.75 * static_cast<double>(buckets * slots));
  std::vector<std::uint32_t> keys(count), vals(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    keys[i] = EngineKey(i);
    vals[i] = DeriveVal<std::uint32_t, std::uint32_t>(keys[i]);
  }
  RunningStat scalar_rate, batch_rate;
  for (unsigned it = 0; it < seeds; ++it) {
    std::uint64_t s = base_seed + 0x9E3779B97F4A7C15ULL * (it + 1);
    if (s == 0) s = 1;
    CuckooTable<std::uint32_t, std::uint32_t> scalar_table(
        ways, slots, buckets, BucketLayout::kInterleaved, s);
    CuckooTable<std::uint32_t, std::uint32_t> batch_table(
        ways, slots, buckets, BucketLayout::kInterleaved, s);
    for (auto* t : {&scalar_table, &batch_table}) {
      t->BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
          keys.data(), vals.data(), nullptr, count));
    }
    Xoshiro256 rng(Mix64(s));
    std::vector<std::uint32_t> ukeys(count), uvals(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t id = rng.Next() % count;
      ukeys[i] = rng.Next() % 10 == 0 ? EngineKey(count + id) : keys[id];
      uvals[i] = static_cast<std::uint32_t>(rng.Next());
    }

    std::vector<std::uint8_t> scalar_ok(count);
    Timer st;
    for (std::uint64_t i = 0; i < count; ++i) {
      scalar_ok[i] = scalar_table.UpdateValue(ukeys[i], uvals[i]) ? 1 : 0;
    }
    const double scalar_secs = st.ElapsedSeconds();

    std::vector<std::uint8_t> batch_ok(count);
    Timer bt;
    batch_table.BatchUpdate(MutationBatch<std::uint32_t, std::uint32_t>::Of(
        ukeys.data(), uvals.data(), batch_ok.data(), count));
    const double batch_secs = bt.ElapsedSeconds();

    const double n = static_cast<double>(count);
    scalar_rate.Add(scalar_secs > 0 ? n / scalar_secs / 1e6 : 0.0);
    batch_rate.Add(batch_secs > 0 ? n / batch_secs / 1e6 : 0.0);

    if (scalar_ok != batch_ok) out.identical = false;
    std::ostringstream a, b;
    SaveTable(scalar_table, a);
    SaveTable(batch_table, b);
    if (a.str() != b.str()) out.identical = false;
  }
  out.scalar_mops = scalar_rate.mean();
  out.batch_mops = batch_rate.mean();
  out.speedup = out.scalar_mops > 0 ? out.batch_mops / out.scalar_mops : 0.0;
  return out;
}

int RunEngineStudy(const BenchOptions& opt, bool check) {
  PrintHeader("Write-path engine: scalar loop vs batched mutation", opt);
  ReportSession session(opt, "Write-path engine: scalar vs batch");
  const std::uint64_t table_bytes =
      opt.quick ? (std::uint64_t{4} << 20) : (std::uint64_t{64} << 20);
  const unsigned seeds = opt.quick ? 2 : 3;

  TablePrinter table({"op", "table", "bytes", "scalar Mops/s",
                      "batch Mops/s", "speedup", "bit-identical"});
  const EngineCase cases[] = {
      RunCuckooEngineCase(table_bytes, seeds, opt.seed),
      RunSwissEngineCase(table_bytes, seeds, opt.seed),
      RunCuckooUpdateCase(table_bytes, seeds, opt.seed),
  };
  for (const EngineCase& c : cases) {
    table.AddRow({c.op, c.label,
                  TablePrinter::Fmt(static_cast<std::int64_t>(
                      table_bytes >> 20)) + " MiB",
                  TablePrinter::Fmt(c.scalar_mops, 2),
                  TablePrinter::Fmt(c.batch_mops, 2),
                  TablePrinter::Fmt(c.speedup, 2) + "x",
                  c.identical ? "yes" : "NO"});
    session.AddRow(c.op + "-engine/batch",
                   {{"table", c.label},
                    {"table_bytes", std::to_string(table_bytes)}},
                   {{"scalar_m" + c.op + "s_per_sec",
                     ReportSession::Stat(c.scalar_mops)},
                    {"batch_m" + c.op + "s_per_sec",
                     ReportSession::Stat(c.batch_mops)},
                    {"speedup", ReportSession::Stat(c.speedup)},
                    {"bit_identical", ReportSession::Stat(
                                          c.identical ? 1.0 : 0.0)}});
  }
  Emit(table, opt);

  int rc = session.Finish();
  if (!check) return rc;
  for (const EngineCase& c : cases) {
    if (!c.identical) {
      std::fprintf(stderr,
                   "CHECK FAILED: %s %s batch state differs from scalar "
                   "loop\n",
                   c.label.c_str(), c.op.c_str());
      rc = 1;
    }
  }
  // The throughput bar applies to the cuckoo family at the full (64 MiB)
  // size — quick mode's smaller table stays a correctness-only gate.
  if (!opt.quick && cases[0].speedup < 1.5) {
    std::fprintf(stderr,
                 "CHECK FAILED: cuckoo batch speedup %.2fx < 1.5x\n",
                 cases[0].speedup);
    rc = 1;
  }
  if (rc == 0 && !opt.csv) {
    std::printf("\ncheck: batch engine bit-identical, cuckoo insert speedup "
                "%.2fx (update %.2fx, not gated) — OK\n",
                cases[0].speedup, cases[2].speedup);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = ParseBenchOptions(argc, argv);
  bool check = false;
  bool batch_engine = false;
  for (const auto& [name, value] : opt.raw_flags) {
    if (name == "check") check = true;
    if (name == "engine") batch_engine = (value == "batch");
  }
  if (batch_engine) return RunEngineStudy(opt, check);
  PrintHeader("Insertion engine: BFS path search max load factor", opt);
  ReportSession session(opt, "Insertion engine: BFS path search");

  // Comparable slot count across shapes: scale buckets down by m.
  const std::uint64_t base_buckets = opt.quick ? (1u << 12) : (1u << 15);
  const unsigned seeds = opt.quick ? 3 : 5;

  const Shape shapes[] = {{2, 1}, {3, 1}, {4, 1}, {2, 4}, {2, 8}, {4, 8}};

  TablePrinter table({"N", "m", "max LF (median)", "LF min-max",
                      "Minserts/s", "failed", "rebuilds", "stash"});
  double bfs_lf_4_8 = 0.0;
  double bfs_lf_2_1 = 0.0;
  for (const Shape& shape : shapes) {
    const std::uint64_t buckets = std::max<std::uint64_t>(
        1, base_buckets / shape.m);
    const ShapeResult r = RunShape(shape, buckets, seeds, opt.seed);
    const double median = r.median_lf();
    if (shape.n == 4 && shape.m == 8) bfs_lf_4_8 = median;
    if (shape.n == 2 && shape.m == 1) bfs_lf_2_1 = median;
    char band[64];
    std::snprintf(band, sizeof(band), "%.3f-%.3f", r.lf_samples.front(),
                  r.lf_samples.back());
    table.AddRow({TablePrinter::Fmt(std::int64_t{shape.n}),
                  TablePrinter::Fmt(std::int64_t{shape.m}),
                  TablePrinter::Fmt(median, 3), band,
                  TablePrinter::Fmt(r.minserts_per_sec, 2),
                  TablePrinter::Fmt(r.failed_inserts, 1),
                  TablePrinter::Fmt(r.rebuilds, 1),
                  TablePrinter::Fmt(r.stash_used, 1)});
    session.AddRow("insert/bfs",
                   {{"ways", std::to_string(shape.n)},
                    {"slots", std::to_string(shape.m)}},
                   {{"max_load_factor", ReportSession::Stat(median)},
                    {"minserts_per_sec",
                     ReportSession::Stat(r.minserts_per_sec)},
                    {"failed_inserts", ReportSession::Stat(r.failed_inserts)},
                    {"rebuilds", ReportSession::Stat(r.rebuilds)},
                    {"stash_entries", ReportSession::Stat(r.stash_used)}});
  }
  Emit(table, opt);

  const int report_rc = session.Finish();
  if (!check) return report_rc;

  // Regression gate. (4,8) BCHT must fill essentially full under BFS; (2,1)
  // non-bucketized cuckoo sits at the ~0.5 theoretical threshold — values
  // far outside that band mean the engine (or the measurement) regressed.
  int rc = report_rc;
  if (bfs_lf_4_8 < 0.95) {
    std::fprintf(stderr,
                 "CHECK FAILED: BFS (4,8) max LF %.3f < 0.95\n", bfs_lf_4_8);
    rc = 1;
  }
  if (bfs_lf_2_1 < 0.40 || bfs_lf_2_1 > 0.65) {
    std::fprintf(stderr,
                 "CHECK FAILED: BFS (2,1) max LF %.3f outside [0.40, 0.65]\n",
                 bfs_lf_2_1);
    rc = 1;
  }
  if (rc == 0 && !opt.csv) {
    std::printf("\ncheck: BFS (4,8) LF %.3f >= 0.95, (2,1) LF %.3f in "
                "[0.40, 0.65] — OK\n",
                bfs_lf_4_8, bfs_lf_2_1);
  }
  return rc;
}
