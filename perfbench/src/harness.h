// Shared machinery of the repository benchmark (bench_suite).
//
// Everything a workload needs that is not the system under test lives here
// and is owned by the benchmark: the seeded input generators, the clock,
// the statistics, the per-layer ledger and the in-memory span buffer. The
// workloads call only public library surfaces (SimdHashTable, KernelInfo,
// hash/block_hash.h, KvBackend, KvTcpServer, kvs/protocol.h), so a later
// change to the library's own runners, histograms or tracers cannot move
// the benchmark.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- clock --

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --------------------------------------------------------------- inputs --

// SplitMix64: the benchmark's only random source. Every input is drawn
// from generators seeded by --seed, so one seed gives one input set.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound).
  std::uint64_t Below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Seed-derived stream identifiers, so workloads draw independent streams.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

// murmur3's 32-bit finalizer: a bijection on uint32 with Mix32(0) == 0.
inline std::uint32_t Mix32(std::uint32_t h) {
  h ^= h >> 16;
  h *= 0x85EBCA6BU;
  h ^= h >> 13;
  h *= 0xC2B2AE35U;
  h ^= h >> 16;
  return h;
}

// Maps key ids to distinct, non-zero 32-bit table keys (0 is the tables'
// empty sentinel). Ids below 2^31 never collide: Mix32 is a bijection and
// id + salt + 1 stays in [1, 2^32).
class KeySpace {
 public:
  explicit KeySpace(std::uint64_t seed);
  std::uint32_t Key(std::uint64_t id) const {
    return Mix32(static_cast<std::uint32_t>(id + salt_ + 1));
  }
  // The value stored for `key` after `version` overwrites (0 = initial).
  static std::uint32_t Value(std::uint32_t key, std::uint32_t version = 0) {
    return Mix32(key ^ 0x9E3779B9U) + version * 0x61C88647U;
  }

 private:
  std::uint64_t salt_;  // < 2^30
};

// YCSB's Zipfian generator (Gray et al.): rank 0 is the hottest item.
class Zipf {
 public:
  Zipf(std::uint64_t items, double theta);
  std::uint64_t Next(Rng* rng) const;

 private:
  std::uint64_t items_;
  double theta_, zetan_, alpha_, eta_, half_pow_theta_;
};

// ----------------------------------------------------------- statistics --

// q in [0, 1]; nearest-rank on a copy. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

// Splits a run into intervals and keeps, per interval, the operation rate
// over the time spent inside timed calls and the median and 90th-percentile
// request time. A run's figures come from its least-disturbed decile of
// intervals: the 90th percentile of the interval rates and the 10th
// percentile of the interval latencies. The host the benchmark was sized on
// is shared with other tenants whose interference comes in bursts; this
// keeps a burst from moving a run's figures.
class IntervalStats {
 public:
  // Intervals of `interval_ns` of wall time; with 0, only Cut() ends one.
  explicit IntervalStats(std::int64_t interval_ns = 100'000'000)
      : interval_ns_(interval_ns) {}

  void Start(std::int64_t now) { interval_start_ = now; }
  // One request ending at `now`: `ops` operations, `busy_ns` of them in
  // library calls (0 when the rate is not measured this way) and an
  // end-to-end time of `latency_us`.
  void Add(std::int64_t now, std::uint64_t ops, std::int64_t busy_ns,
           double latency_us);
  // Ends the current interval.
  void Cut();
  // Ends the last, partial interval if no interval ended at all (runs
  // shorter than one interval, as in smoke mode).
  void Finish();

  double Throughput() const;  // Mops/s
  double P50() const;         // us
  double P90() const;         // us
  std::size_t intervals() const { return p50s_.size(); }
  std::uint64_t requests() const { return requests_; }
  std::uint64_t ops() const { return total_ops_; }
  std::int64_t busy_ns() const { return total_busy_ns_; }

 private:
  std::int64_t interval_ns_;
  std::int64_t interval_start_ = 0;
  std::uint64_t ops_ = 0;
  std::int64_t busy_ns_ = 0;
  std::vector<double> latencies_;
  std::uint64_t requests_ = 0, total_ops_ = 0;
  std::int64_t total_busy_ns_ = 0;
  std::vector<double> rates_, p50s_, p90s_;
};

// Cost of a stream of batched write calls, kept per call so that a cost
// that grows along the stream (tombstones, a filling table) shows.
class WriteMeter {
 public:
  void Add(std::uint64_t keys, std::int64_t ns) {
    calls_.push_back({keys, ns});
    keys_ += keys;
    ns_ += ns;
  }
  double ns_per_key() const {
    return keys_ ? static_cast<double>(ns_) / static_cast<double>(keys_)
                 : 0.0;
  }
  // ns/key over the last quarter of the keys written, divided by ns/key
  // over the first quarter.
  double Drift() const;

 private:
  struct Call {
    std::uint64_t keys;
    std::int64_t ns;
  };
  std::vector<Call> calls_;
  std::uint64_t keys_ = 0;
  std::int64_t ns_ = 0;
};

// --------------------------------------------------------------- result --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // The metrics of this mode: end-to-end (untraced) or per-layer (traced).
  std::vector<Metric> metrics;
  // Workload-specific diagnostics: printed, not part of the JSON result.
  std::vector<Metric> info;
  // Extra human-readable lines (the per-layer ledger table).
  std::vector<std::string> lines;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Info(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ------------------------------------------------------ ledger and spans --

// The layers a request passes through, timed from the benchmark's side of
// each call. A request's time not covered by any layer span is its
// `unattributed` row. Hashing happens inside the index calls, so it has no
// row of its own; hash.block_ns_per_key times it in a separate call.
enum Layer : int {
  kIndex,    // batched index probe: SimdHashTable::BatchGet,
             // KvBackend::MultiGet
  kHt,       // batched writes: BatchUpdate / BatchInsert / Erase
  kKvs,      // client-side protocol encode + decode (kvs/protocol.h)
  kNet,      // socket round trip minus the backend work it contains
  kLoadgen,  // open-loop generator lag past a request's intended send time
  kBench,    // input generation and result checking
  kLayers,
};
const char* LayerName(int layer);

struct LayerTimes {
  std::array<std::int64_t, kLayers> ns{};
  void Add(Layer layer, std::int64_t d) { ns[layer] += d; }
};

// Per-layer cost ledger: per-request layer times whose means, plus an
// explicit unattributed row, sum to the mean request time by construction.
class Ledger {
 public:
  void Add(std::int64_t total_ns, const LayerTimes& layers);
  double mean_us() const { return n_ ? total_ns_ / 1e3 / n_ : 0.0; }
  // Adds request.mean_us and ledger.<layer>_frac to `result->metrics` and
  // the printed ledger table to `result->lines`.
  void Report(Result* result) const;

 private:
  static constexpr std::size_t kMaxSamples = 1 << 18;
  std::uint64_t n_ = 0;
  double total_ns_ = 0;
  std::array<double, kLayers + 1> sum_ns_{};  // last = unattributed
  std::vector<float> total_samples_;
  std::array<std::vector<float>, kLayers + 1> samples_;
};

// One span of a traced request, kept in a bench-owned buffer and written
// as Chrome trace JSON (loadable in Perfetto) when the run ends.
struct Span {
  const char* name;
  std::int64_t start_ns, end_ns;
  std::uint64_t request;
  bool root;  // the request's own span; the others are its children
};

// A per-thread span buffer capped at a fixed number of root spans, so a
// long traced run keeps memory bounded; the ledger still sees every
// request. `overlapping` logs hold requests that overlap in time (an
// open-loop client); they are written as async slices, one track per
// request.
class SpanLog {
 public:
  SpanLog(int tid, bool overlapping, std::size_t max_roots = 5000)
      : tid_(tid), overlapping_(overlapping), max_roots_(max_roots) {}
  void Add(const char* name, std::int64_t s, std::int64_t e,
           std::uint64_t request) {
    if (!Full()) spans_.push_back({name, s, e, request, false});
  }
  void AddRoot(const char* name, std::int64_t s, std::int64_t e,
               std::uint64_t request) {
    if (Full()) return;
    spans_.push_back({name, s, e, request, true});
    ++roots_;
  }
  int tid() const { return tid_; }
  bool overlapping() const { return overlapping_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool Full() const { return roots_ >= max_roots_; }

  int tid_;
  bool overlapping_;
  std::size_t max_roots_;
  std::size_t roots_ = 0;
  std::vector<Span> spans_;
};

// The ledger and span log of one driving thread.
struct Tracing {
  explicit Tracing(int tid) : log(tid, false) {}

  struct Stage {
    const char* name;
    Layer layer;
    std::int64_t start_ns, end_ns;
  };
  // Records request `id` spanning [start, end] and its contiguous stages.
  void Request(std::uint64_t id, std::int64_t start_ns, std::int64_t end_ns,
               std::initializer_list<Stage> stages) {
    LayerTimes layers;
    for (const Stage& s : stages) {
      layers.Add(s.layer, s.end_ns - s.start_ns);
      log.Add(s.name, s.start_ns, s.end_ns, id);
    }
    log.AddRoot("request", start_ns, end_ns, id);
    ledger.Add(end_ns - start_ns, layers);
  }

  SpanLog log;
  Ledger ledger;
};

// Writes every log as one Chrome trace; false (with a message on stderr)
// if the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

// -------------------------------------------------------------- process --

// Pins the calling thread to `cpu` when the machine has it (best effort:
// the benchmark stays correct unpinned).
void PinThread(unsigned cpu);

// Resident set size of this process, from /proc/self/statm.
std::uint64_t RssBytes();

// ------------------------------------------------------------ run config --

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;       // small tables, for the ctest smoke test
  std::string trace_path;   // Chrome trace output (traced runs)
};

// Untraced runs report end-to-end metrics; traced runs measure half the
// time untraced (for trace.overhead_frac) and half traced.
inline double UntracedSeconds(const RunConfig& cfg) {
  return cfg.trace ? cfg.seconds / 2 : cfg.seconds;
}

// The five end-to-end metrics every workload reports, in BENCHMARK.json
// order: setup_s is the median of the run's set-ups, the request times
// come from `requests`.
void AddEndToEnd(Result* result, const std::vector<double>& setup_s,
                 double throughput_mops, const IntervalStats& requests,
                 double bytes_per_key);

// The per-layer metrics every workload reports in a traced run, in
// BENCHMARK.json order.
struct PerLayer {
  double hash_ns_per_key = 0;   // BlockBuckets over the requests' keys
  double probe_ns_per_key = 0;  // the batched index probe
  double keys_per_call = 0;     // keys per index probe call
  double hit_ratio = 0;         // keys found / keys probed
  double write_ns_per_key = 0;  // the batched write path
  double write_drift = 1;       // WriteMeter::Drift of that stream
  double load_factor = 0;       // live keys / slots after the run
  double tombstone_frac = 0;    // tombstoned slots / slots after the run
  double overhead_frac = 0;     // traced vs untraced end-to-end result
};
void AddPerLayer(Result* result, const PerLayer& layers,
                 const Ledger& ledger);

Result RunLookupL2(const RunConfig& cfg);
Result RunLookupDram(const RunConfig& cfg);
Result RunYcsbA(const RunConfig& cfg);
Result RunChurnSwiss(const RunConfig& cfg);
Result RunKvsTcp(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
