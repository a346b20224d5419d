// The in-process workloads: batched lookups on an L2-resident and on a
// DRAM-resident cuckoo table, YCSB-A on a cuckoo table, and insert/erase
// churn on a Swiss table. A request is one batch of operations, and its
// end-to-end time is the time spent inside the library calls it makes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.h"
#include "hash/block_hash.h"
#include "simd/kernel.h"
#include "simd/simd_hash_table.h"

namespace perfbench {
namespace {

using Table = simdht::SimdHashTable<std::uint32_t, std::uint32_t>;

constexpr std::size_t kBatch = 256;          // operations per request
constexpr std::size_t kLoadChunk = 1 << 12;  // keys per BatchInsert in setup
// Miss ids are drawn from [live, live + kMissIds); they are never stored.
constexpr std::uint64_t kMissIds = std::uint64_t{1} << 30;

// A (2,4) BCHT with exactly 2^log2 buckets. SimdHashTable sizes a table as
// capacity / slots + 1 buckets rounded up to a power of two, so asking for
// slots * 2^log2 entries would double it.
Table::Options Cuckoo(unsigned log2_buckets) {
  Table::Options o;
  o.ways = 2;
  o.slots = 4;
  o.capacity = o.slots * ((std::uint64_t{1} << log2_buckets) - 1);
  return o;
}

// A Swiss table with exactly 2^log2 16-slot groups (same rounding).
Table::Options Swiss(unsigned log2_groups) {
  Table::Options o;
  o.family = simdht::TableFamily::kSwiss;
  o.capacity =
      simdht::kSwissGroupSlots * ((std::uint64_t{1} << log2_groups) - 1);
  return o;
}

double BytesPerKey(const Table& t) {
  if (t.size() == 0) return 0.0;
  const double bytes =
      t.family() == simdht::TableFamily::kSwiss
          ? static_cast<double>(t.swiss_table().table_bytes() +
                                t.swiss_table().store().meta_bytes())
          : static_cast<double>(t.table().table_bytes());
  return bytes / static_cast<double>(t.size());
}

double TombstoneFrac(const Table& t) {
  if (t.family() != simdht::TableFamily::kSwiss) return 0.0;
  const auto& swiss = t.swiss_table();
  std::uint64_t tombstones = 0;
  for (std::uint64_t s = 0; s < swiss.capacity(); ++s) {
    tombstones += swiss.CtrlAt(s) == simdht::kCtrlTombstone;
  }
  return static_cast<double>(tombstones) /
         static_cast<double>(swiss.capacity());
}

// Constructs a table and loads ids [0, live) with their initial values
// through BatchInsert, destroying the previous table first. Returns the
// seconds spent in library calls; key generation is not counted.
double Build(const Table::Options& options, const KeySpace& ks,
             std::uint64_t live, std::unique_ptr<Table>* table,
             Result* result, WriteMeter* writes) {
  table->reset();
  std::vector<std::uint32_t> keys(kLoadChunk), vals(kLoadChunk);
  std::vector<std::uint8_t> ok(kLoadChunk);
  const std::int64_t t0 = NowNs();
  *table = std::make_unique<Table>(options);
  std::int64_t call_ns = NowNs() - t0;
  for (std::uint64_t first = 0; first < live; first += kLoadChunk) {
    const std::size_t n = std::min<std::uint64_t>(kLoadChunk, live - first);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = ks.Key(first + i);
      vals[i] = KeySpace::Value(keys[i]);
    }
    const std::int64_t s = NowNs();
    (*table)->BatchInsert(keys.data(), vals.data(), ok.data(), n);
    const std::int64_t e = NowNs();
    call_ns += e - s;
    writes->Add(n, e - s);
    for (std::size_t i = 0; i < n; ++i) result->Check(ok[i] == 1);
  }
  return static_cast<double>(call_ns) / 1e9;
}

// One batch of lookups and the answers the generator expects for it.
struct LookupBatch {
  std::uint32_t keys[kBatch];
  std::uint32_t expect_val[kBatch];
  std::uint8_t expect_found[kBatch];
  std::uint32_t vals[kBatch];
  std::uint8_t found[kBatch];
  std::size_t n = 0;

  void Set(std::size_t i, std::uint32_t key, bool present,
           std::uint32_t value) {
    keys[i] = key;
    expect_found[i] = present;
    expect_val[i] = value;
  }
  // `hit_rate` of the keys are resident ids in [0, live), uniformly.
  void Draw(Rng* rng, const KeySpace& ks, std::uint64_t live,
            double hit_rate) {
    n = kBatch;
    for (std::size_t i = 0; i < n; ++i) {
      const bool hit = rng->Unit() < hit_rate;
      const std::uint64_t id =
          hit ? rng->Below(live) : live + rng->Below(kMissIds);
      const std::uint32_t key = ks.Key(id);
      Set(i, key, hit, KeySpace::Value(key));
    }
  }
  std::uint64_t Get(const Table& table) {
    return table.BatchGet(keys, n, vals, found);
  }
  // One check per key; returns the keys found.
  std::uint64_t Check(Result* result) const {
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      hits += found[i];
      result->Check(found[i] == expect_found[i] &&
                    (!found[i] || vals[i] == expect_val[i]));
    }
    return hits;
  }
};

// Times, as separate calls outside the requests (so the ledger excludes
// them), two layers BatchGet composes: block hashing of a request's keys,
// and the bare compare kernel without the prefetch pipeline.
class Shadow {
 public:
  // Follows `table` until the next Retarget.
  void Retarget(const Table* table) {
    table_ = table;
    kernel_ = simdht::KernelRegistry::Get().ByName(table->kernel_name());
  }

  void Hash(const std::uint32_t* keys, std::size_t n, SpanLog* log,
            std::uint64_t req) {
    const bool swiss = table_->family() == simdht::TableFamily::kSwiss;
    const simdht::HashFamily& family =
        swiss ? table_->swiss_table().hash_family()
              : table_->table().hash_family();
    const std::int64_t s = NowNs();
    simdht::BlockBuckets<std::uint32_t>(family, swiss ? 1 : 2, keys, n,
                                        buckets_);
    if (swiss) simdht::BlockH2<std::uint32_t>(family, keys, n, h2_);
    // The outputs are never read: keep the compiler from dropping them.
    asm volatile("" : : "r"(buckets_), "r"(h2_) : "memory");
    const std::int64_t e = NowNs();
    hash_ns_ += e - s;
    hashed_ += n;
    log->Add("shadow.hash.block", s, e, req);
  }

  // Probes `batch` on a cuckoo table with the bare kernel; its answers
  // must be the ones the batch expects. `batch` must not be the request's
  // own: its buckets would still be cached from BatchGet.
  void Kernel(const LookupBatch& batch, std::int64_t batchget_ns,
              Result* result, SpanLog* log, std::uint64_t req) {
    const simdht::TableView view = table_->table().view();
    const std::int64_t s = NowNs();
    kernel_->Lookup(view, simdht::ProbeBatch::Of(batch.keys, vals_, found_,
                                                 batch.n));
    const std::int64_t e = NowNs();
    kernel_ns_ += e - s;
    batchget_ns_ += batchget_ns;
    log->Add("shadow.simd.kernel", s, e, req);
    bool same = true;
    for (std::size_t i = 0; i < batch.n; ++i) {
      same &= found_[i] == batch.expect_found[i] &&
              (!found_[i] || vals_[i] == batch.expect_val[i]);
    }
    result->Check(same);
  }

  double hash_ns_per_key() const {
    return hashed_ ? static_cast<double>(hash_ns_) / hashed_ : 0.0;
  }
  // The bare kernel's time over BatchGet's on batches of the same
  // workload: above 1 when the prefetch pipeline pays.
  void Report(Result* result) const {
    if (batchget_ns_ == 0) return;
    result->Info("simd.pipeline_speedup",
                 static_cast<double>(kernel_ns_) /
                     static_cast<double>(batchget_ns_),
                 "ratio");
  }

 private:
  const Table* table_ = nullptr;
  const simdht::KernelInfo* kernel_ = nullptr;
  std::uint32_t buckets_[2 * kBatch];
  std::uint8_t h2_[kBatch];
  std::uint32_t vals_[kBatch];
  std::uint8_t found_[kBatch];
  std::int64_t hash_ns_ = 0, kernel_ns_ = 0, batchget_ns_ = 0;
  std::uint64_t hashed_ = 0;
};

// What one request did: operations completed and ns inside library calls.
struct Step {
  std::uint64_t ops;
  std::int64_t call_ns;
};

// Runs request(id) back to back for `seconds` of wall time.
template <typename Request>
void RunPhase(double seconds, IntervalStats* stats, Request&& request) {
  std::int64_t now = NowNs();
  const std::int64_t end = now + static_cast<std::int64_t>(seconds * 1e9);
  stats->Start(now);
  for (std::uint64_t id = 0; now < end; ++id) {
    const Step step = request(id);
    now = NowNs();
    stats->Add(now, step.ops, step.call_ns,
               static_cast<double>(step.call_ns) / 1e3);
  }
  stats->Finish();
}

// Runs build() at least `min_reps` times, and more (up to 50) until the
// builds add up to `min_total_s`; returns each build's seconds. A traced
// run builds once. The last build is the one the run measures.
template <typename Build>
std::vector<double> Setups(const RunConfig& cfg, int min_reps,
                           double min_total_s, Build&& build) {
  std::vector<double> seconds;
  double total = 0;
  do {
    seconds.push_back(build());
    total += seconds.back();
  } while (!cfg.trace && seconds.size() < 50 &&
           (static_cast<int>(seconds.size()) < min_reps ||
            total < min_total_s));
  return seconds;
}

void AddInsertStats(const Table& t, Result* result) {
  const simdht::InsertStats& s = t.table().insert_stats();
  const double placed = static_cast<double>(s.direct_inserts +
                                            s.path_inserts + s.stash_inserts);
  result->Info("ht.path_insert_frac",
               placed > 0 ? static_cast<double>(s.path_inserts) / placed : 0,
               "frac");
  result->Info("ht.stash_inserts", static_cast<double>(s.stash_inserts),
               "count");
  result->Info("ht.rebuilds", static_cast<double>(s.rebuilds), "count");
}

bool FinishTrace(const RunConfig& cfg, const Tracing& tracing,
                 Result* result) {
  result->lines.push_back("trace: " + cfg.trace_path);
  return WriteChromeTrace(cfg.trace_path, {&tracing.log});
}

// ---------------------------------------------------------- lookup-* --

struct LookupSpec {
  unsigned log2_buckets;
  double load;        // live keys / slots
  double hit_rate;    // share of probed keys that are resident
  int setups;         // least untraced setup repetitions
  double setup_time;  // ... and least total seconds of set-up
};

Result RunLookup(const RunConfig& cfg, const LookupSpec& spec) {
  Result result;
  const KeySpace ks(cfg.seed);
  const std::uint64_t live = static_cast<std::uint64_t>(
      spec.load * static_cast<double>(std::uint64_t{4} << spec.log2_buckets));
  std::unique_ptr<Table> table;
  WriteMeter load;
  const std::vector<double> setup_s =
      Setups(cfg, spec.setups, spec.setup_time, [&] {
        load = WriteMeter();
        return Build(Cuckoo(spec.log2_buckets), ks, live, &table, &result,
                     &load);
      });

  Rng rng(SubSeed(cfg.seed, 1));
  Rng shadow_rng(SubSeed(cfg.seed, 4));
  LookupBatch batch, shadow_batch;
  Shadow shadow;
  shadow.Retarget(table.get());
  std::uint64_t probed = 0, hits = 0;
  auto request = [&](std::uint64_t id, Tracing* tracing) -> Step {
    const std::int64_t r0 = NowNs();
    batch.Draw(&rng, ks, live, spec.hit_rate);
    const std::int64_t i0 = NowNs();
    batch.Get(*table);
    const std::int64_t i1 = NowNs();
    hits += batch.Check(&result);
    probed += batch.n;
    if (tracing != nullptr) {
      const std::int64_t r1 = NowNs();
      tracing->Request(id, r0, r1,
                       {{"bench.draw", kBench, r0, i0},
                        {"index.batchget", kIndex, i0, i1},
                        {"bench.check", kBench, i1, r1}});
      shadow.Hash(batch.keys, batch.n, &tracing->log, id);
      shadow_batch.Draw(&shadow_rng, ks, live, spec.hit_rate);
      shadow.Kernel(shadow_batch, i1 - i0, &result, &tracing->log, id);
    }
    return {batch.n, i1 - i0};
  };

  IntervalStats plain;
  RunPhase(UntracedSeconds(cfg), &plain,
           [&](std::uint64_t id) { return request(id, nullptr); });
  AddInsertStats(*table, &result);
  result.lines.push_back("kernel: " + table->kernel_name());
  if (!cfg.trace) {
    AddEndToEnd(&result, setup_s, plain.Throughput(), plain,
                BytesPerKey(*table));
    return result;
  }

  Tracing tracing(0);
  IntervalStats traced;
  probed = hits = 0;
  RunPhase(cfg.seconds / 2, &traced,
           [&](std::uint64_t id) { return request(id, &tracing); });
  PerLayer layers;
  layers.hash_ns_per_key = shadow.hash_ns_per_key();
  layers.probe_ns_per_key = static_cast<double>(traced.busy_ns()) /
                            static_cast<double>(traced.ops());
  layers.keys_per_call = static_cast<double>(kBatch);
  layers.hit_ratio = static_cast<double>(hits) / static_cast<double>(probed);
  layers.write_ns_per_key = load.ns_per_key();
  layers.write_drift = load.Drift();
  layers.load_factor = table->load_factor();
  layers.overhead_frac = plain.Throughput() / traced.Throughput() - 1.0;
  AddPerLayer(&result, layers, tracing.ledger);
  shadow.Report(&result);
  if (!FinishTrace(cfg, tracing, &result)) result.failed += 1;
  return result;
}

}  // namespace

Result RunLookupL2(const RunConfig& cfg) {
  // 2^15 buckets x 32 B = 1 MiB: resident in a 2 MiB L2. One build takes
  // about 10 ms, so it is repeated for half a second.
  return RunLookup(cfg, {cfg.smoke ? 10u : 15u, 0.9, 0.9, 3, 0.5});
}

Result RunLookupDram(const RunConfig& cfg) {
  // 2^23 buckets x 32 B = 256 MiB, over twice a 105 MiB LLC. One build
  // takes about 4 s, so there are only two.
  return RunLookup(cfg, {cfg.smoke ? 14u : 23u, 0.9, 0.25, 2, 0});
}

// ------------------------------------------------------------- ycsb-a --

Result RunYcsbA(const RunConfig& cfg) {
  Result result;
  const unsigned log2_buckets = cfg.smoke ? 12 : 20;  // 2^20 x 32 B = 32 MiB
  const KeySpace ks(cfg.seed);
  const std::uint64_t live = static_cast<std::uint64_t>(
      0.9 * static_cast<double>(std::uint64_t{4} << log2_buckets));
  std::unique_ptr<Table> table;
  WriteMeter load;
  const std::vector<double> setup_s = Setups(cfg, 3, 0, [&] {
    load = WriteMeter();
    return Build(Cuckoo(log2_buckets), ks, live, &table, &result, &load);
  });

  // The last value written to each id; reads must return it.
  std::vector<std::uint32_t> shadow_vals(live);
  for (std::uint64_t id = 0; id < live; ++id) {
    shadow_vals[id] = KeySpace::Value(ks.Key(id));
  }
  const Zipf zipf(live, 0.99);
  Rng rng(SubSeed(cfg.seed, 2));
  std::uint32_t version = 0;
  LookupBatch reads;
  std::uint32_t write_keys[kBatch], write_vals[kBatch];
  std::uint64_t write_ids[kBatch];
  std::uint8_t write_ok[kBatch];
  Shadow shadow;
  shadow.Retarget(table.get());
  WriteMeter updates;
  std::uint64_t read_calls = 0, reads_done = 0, hits = 0;
  std::int64_t read_ns = 0;

  // Half reads, half updates, Zipf(0.99) over the resident ids; the reads
  // of a batch run before its updates.
  auto request = [&](std::uint64_t id, Tracing* tracing) -> Step {
    const std::int64_t r0 = NowNs();
    std::size_t nr = 0, nw = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::uint64_t key_id = zipf.Next(&rng);
      const std::uint32_t key = ks.Key(key_id);
      if (rng.Next() & 1) {
        reads.Set(nr++, key, true, shadow_vals[key_id]);
      } else {
        write_ids[nw] = key_id;
        write_keys[nw] = key;
        write_vals[nw++] = KeySpace::Value(key, ++version);
      }
    }
    reads.n = nr;
    const std::int64_t i0 = NowNs();
    reads.Get(*table);
    const std::int64_t i1 = NowNs();
    table->BatchUpdate(write_keys, write_vals, write_ok, nw);
    const std::int64_t w1 = NowNs();
    hits += reads.Check(&result);
    for (std::size_t i = 0; i < nw; ++i) {
      result.Check(write_ok[i] == 1);
      shadow_vals[write_ids[i]] = write_vals[i];
    }
    if (tracing != nullptr) {
      const std::int64_t r1 = NowNs();
      tracing->Request(id, r0, r1,
                       {{"bench.draw", kBench, r0, i0},
                        {"index.batchget", kIndex, i0, i1},
                        {"ht.batchupdate", kHt, i1, w1},
                        {"bench.check", kBench, w1, r1}});
      shadow.Hash(reads.keys, nr, &tracing->log, id);
      shadow.Hash(write_keys, nw, &tracing->log, id);
      updates.Add(nw, w1 - i1);
      ++read_calls;
      reads_done += nr;
      read_ns += i1 - i0;
    }
    return {kBatch, w1 - i0};
  };

  IntervalStats plain;
  RunPhase(UntracedSeconds(cfg), &plain,
           [&](std::uint64_t id) { return request(id, nullptr); });
  Tracing tracing(0);
  IntervalStats traced;
  hits = 0;
  if (cfg.trace) {
    RunPhase(cfg.seconds / 2, &traced,
             [&](std::uint64_t id) { return request(id, &tracing); });
  }

  // Every id must still read back its last written value.
  for (int b = 0; b < (cfg.smoke ? 4 : 64); ++b) {
    reads.n = kBatch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::uint64_t key_id = rng.Below(live);
      reads.Set(i, ks.Key(key_id), true, shadow_vals[key_id]);
    }
    reads.Get(*table);
    reads.Check(&result);
  }

  AddInsertStats(*table, &result);
  if (!cfg.trace) {
    AddEndToEnd(&result, setup_s, plain.Throughput(), plain,
                BytesPerKey(*table));
    return result;
  }
  PerLayer layers;
  layers.hash_ns_per_key = shadow.hash_ns_per_key();
  layers.probe_ns_per_key =
      static_cast<double>(read_ns) / static_cast<double>(reads_done);
  layers.keys_per_call =
      static_cast<double>(reads_done) / static_cast<double>(read_calls);
  layers.hit_ratio =
      static_cast<double>(hits) / static_cast<double>(reads_done);
  layers.write_ns_per_key = updates.ns_per_key();
  layers.write_drift = updates.Drift();
  layers.load_factor = table->load_factor();
  layers.overhead_frac = plain.Throughput() / traced.Throughput() - 1.0;
  AddPerLayer(&result, layers, tracing.ledger);
  result.Info("ht.load_ns_per_key", load.ns_per_key(), "ns");
  if (!FinishTrace(cfg, tracing, &result)) result.failed += 1;
  return result;
}

// -------------------------------------------------------- churn-swiss --

// Insert/erase churn over one full table cycle. An episode builds a table
// at 0.8 occupancy and then, per request, reads 128 live ids, inserts the
// next 64 new ids and erases the 64 oldest, until every id that was live
// at the start has been erased. Every episode of a run does the same work,
// so each episode is one interval of the run's IntervalStats: the cost
// rises within a cycle, and a time-sliced interval would see only part of
// it.
Result RunChurnSwiss(const RunConfig& cfg) {
  Result result;
  // 2^13 x 16 = 128 Ki slots: 1 MiB of slots plus a 128 KiB control lane,
  // resident in L2. Swiss churn on an LLC-resident table varied 3-4x more
  // from run to run on a shared host, with the same tombstone build-up.
  const unsigned log2_groups = cfg.smoke ? 9 : 13;
  constexpr std::size_t kReads = 128, kWrites = 64;
  const KeySpace ks(cfg.seed);
  const std::uint64_t slots = simdht::kSwissGroupSlots << log2_groups;
  const std::uint64_t live =
      (static_cast<std::uint64_t>(0.8 * static_cast<double>(slots)) /
       kWrites) * kWrites;
  const std::uint64_t steps = live / kWrites;

  std::unique_ptr<Table> table;
  std::vector<double> setup_s;
  LookupBatch reads;
  std::uint32_t insert_keys[kWrites], insert_vals[kWrites];
  std::uint8_t insert_ok[kWrites];
  Shadow shadow;
  WriteMeter writes;  // the last episode's inserts and erases
  // Traced episodes only.
  Tracing tracing(0);
  std::uint64_t traced_steps = 0, hits = 0;
  std::int64_t read_ns = 0, insert_ns = 0, erase_ns = 0;

  // One episode; false if it ran past `deadline`, with the operations it
  // did not run counted as failed.
  auto episode = [&](IntervalStats* stats, bool traced,
                     std::int64_t deadline) {
    WriteMeter load;
    setup_s.push_back(
        Build(Swiss(log2_groups), ks, live, &table, &result, &load));
    shadow.Retarget(table.get());
    Rng rng(SubSeed(cfg.seed, 3));
    writes = WriteMeter();
    std::uint64_t lo = 0, hi = live;  // the live id window
    for (std::uint64_t step = 0; step < steps; ++step) {
      if (NowNs() > deadline) {
        const std::uint64_t missed = (steps - step) * (kReads + 2 * kWrites);
        result.attempted += missed;
        result.failed += missed;
        return false;
      }
      const std::int64_t r0 = NowNs();
      reads.n = kReads;
      for (std::size_t i = 0; i < kReads; ++i) {
        const std::uint32_t key = ks.Key(lo + rng.Below(hi - lo));
        reads.Set(i, key, true, KeySpace::Value(key));
      }
      for (std::size_t i = 0; i < kWrites; ++i) {
        insert_keys[i] = ks.Key(hi + i);
        insert_vals[i] = KeySpace::Value(insert_keys[i]);
      }
      const std::int64_t i0 = NowNs();
      reads.Get(*table);
      const std::int64_t i1 = NowNs();
      table->BatchInsert(insert_keys, insert_vals, insert_ok, kWrites);
      const std::int64_t w1 = NowNs();
      std::size_t erased = 0;
      for (std::size_t i = 0; i < kWrites; ++i) {
        erased += table->Erase(ks.Key(lo + i));
      }
      const std::int64_t e1 = NowNs();
      const std::uint64_t step_hits = reads.Check(&result);
      for (std::size_t i = 0; i < kWrites; ++i) {
        result.Check(insert_ok[i] == 1);
        result.Check(i < erased);
      }
      lo += kWrites;
      hi += kWrites;
      stats->Add(e1, kReads + 2 * kWrites, e1 - i0,
                 static_cast<double>(e1 - i0) / 1e3);
      writes.Add(2 * kWrites, e1 - i1);
      if (traced) {
        const std::uint64_t id = traced_steps++;
        const std::int64_t r1 = NowNs();
        tracing.Request(id, r0, r1,
                        {{"bench.draw", kBench, r0, i0},
                         {"index.batchget", kIndex, i0, i1},
                         {"ht.batchinsert", kHt, i1, w1},
                         {"ht.erase", kHt, w1, e1},
                         {"bench.check", kBench, e1, r1}});
        shadow.Hash(reads.keys, kReads, &tracing.log, id);
        shadow.Hash(insert_keys, kWrites, &tracing.log, id);
        hits += step_hits;
        read_ns += i1 - i0;
        insert_ns += w1 - i1;
        erase_ns += e1 - w1;
      }
    }
    // Erased ids must miss, and the table must hold exactly the window.
    for (int b = 0; b < (cfg.smoke ? 2 : 16); ++b) {
      reads.n = kBatch;
      for (std::size_t i = 0; i < kBatch; ++i) {
        reads.Set(i, ks.Key(rng.Below(lo)), false, 0);
      }
      reads.Get(*table);
      reads.Check(&result);
    }
    result.Check(table->size() == hi - lo);
    stats->Cut();
    return true;
  };

  // Episodes start while the phase has time left; one still running 20 s
  // after the phase end is cut short.
  auto run_episodes = [&](double seconds, bool traced, IntervalStats* stats) {
    const std::int64_t end =
        NowNs() + static_cast<std::int64_t>(seconds * 1e9);
    while (episode(stats, traced, end + 20'000'000'000) && NowNs() < end) {
    }
  };

  IntervalStats plain(0);
  run_episodes(UntracedSeconds(cfg), false, &plain);
  result.Info("churn.episodes", static_cast<double>(plain.intervals()),
              "count");
  if (!cfg.trace) {
    AddEndToEnd(&result, setup_s, plain.Throughput(), plain,
                BytesPerKey(*table));
    result.Info("ht.write_drift", writes.Drift(), "ratio");
    result.Info("ht.tombstone_frac", TombstoneFrac(*table), "frac");
    return result;
  }
  IntervalStats traced(0);
  run_episodes(cfg.seconds / 2, true, &traced);
  const double traced_reads = static_cast<double>(traced_steps * kReads);
  const double traced_writes = static_cast<double>(traced_steps * kWrites);
  PerLayer layers;
  layers.hash_ns_per_key = shadow.hash_ns_per_key();
  layers.probe_ns_per_key = static_cast<double>(read_ns) / traced_reads;
  layers.keys_per_call = static_cast<double>(kReads);
  layers.hit_ratio = static_cast<double>(hits) / traced_reads;
  layers.write_ns_per_key = writes.ns_per_key();
  layers.write_drift = writes.Drift();
  layers.load_factor = table->load_factor();
  layers.tombstone_frac = TombstoneFrac(*table);
  layers.overhead_frac = plain.Throughput() / traced.Throughput() - 1.0;
  AddPerLayer(&result, layers, tracing.ledger);
  result.Info("ht.insert_ns_per_key",
              static_cast<double>(insert_ns) / traced_writes, "ns");
  result.Info("ht.erase_ns_per_key",
              static_cast<double>(erase_ns) / traced_writes, "ns");
  if (!FinishTrace(cfg, tracing, &result)) result.failed += 1;
  return result;
}

}  // namespace perfbench
