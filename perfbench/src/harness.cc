#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x100000001B3ULL ^ (stream + 1) * 0xD6E8FEB86659FD93ULL);
  return rng.Next();
}

KeySpace::KeySpace(std::uint64_t seed)
    : salt_(SubSeed(seed, 0) & ((std::uint64_t{1} << 30) - 1)) {}

Zipf::Zipf(std::uint64_t items, double theta)
    : items_(items), theta_(theta) {
  double zetan = 0;
  for (std::uint64_t i = 1; i <= items; ++i) {
    zetan += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items), 1.0 - theta)) /
         (1.0 - zeta2 / zetan);
  half_pow_theta_ = std::pow(0.5, theta);
}

std::uint64_t Zipf::Next(Rng* rng) const {
  const double u = rng->Unit();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + half_pow_theta_) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(items_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(rank, items_ - 1);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

void IntervalStats::Add(std::int64_t now, std::uint64_t ops,
                        std::int64_t busy_ns, double latency_us) {
  ops_ += ops;
  busy_ns_ += busy_ns;
  latencies_.push_back(latency_us);
  ++requests_;
  total_ops_ += ops;
  total_busy_ns_ += busy_ns;
  if (interval_ns_ > 0 && now - interval_start_ >= interval_ns_) {
    Cut();
    interval_start_ = now;
  }
}

void IntervalStats::Cut() {
  if (busy_ns_ > 0) {
    rates_.push_back(static_cast<double>(ops_) * 1e3 /
                     static_cast<double>(busy_ns_));
  }
  if (!latencies_.empty()) {
    p50s_.push_back(Quantile(latencies_, 0.5));
    p90s_.push_back(Quantile(latencies_, 0.9));
  }
  ops_ = 0;
  busy_ns_ = 0;
  latencies_.clear();
}

void IntervalStats::Finish() {
  if (p50s_.empty()) Cut();
}

double IntervalStats::Throughput() const { return Quantile(rates_, 0.9); }
double IntervalStats::P50() const { return Quantile(p50s_, 0.1); }
double IntervalStats::P90() const { return Quantile(p90s_, 0.1); }

double WriteMeter::Drift() const {
  std::uint64_t seen = 0, first_keys = 0, last_keys = 0;
  std::int64_t first_ns = 0, last_ns = 0;
  for (const Call& c : calls_) {
    if (4 * (seen + c.keys) <= keys_) {
      first_keys += c.keys;
      first_ns += c.ns;
    } else if (4 * seen >= 3 * keys_) {
      last_keys += c.keys;
      last_ns += c.ns;
    }
    seen += c.keys;
  }
  if (first_keys == 0 || last_keys == 0 || first_ns == 0) return 1.0;
  return (static_cast<double>(last_ns) / static_cast<double>(last_keys)) /
         (static_cast<double>(first_ns) / static_cast<double>(first_keys));
}

const char* LayerName(int layer) {
  static const char* const kNames[kLayers + 1] = {
      "index", "ht", "kvs", "net", "loadgen", "bench", "unattributed"};
  return kNames[layer];
}

void Ledger::Add(std::int64_t total_ns, const LayerTimes& layers) {
  std::int64_t attributed = 0;
  for (int l = 0; l < kLayers; ++l) {
    sum_ns_[l] += static_cast<double>(layers.ns[l]);
    attributed += layers.ns[l];
  }
  const std::int64_t rest = total_ns - attributed;
  sum_ns_[kLayers] += static_cast<double>(rest);
  total_ns_ += static_cast<double>(total_ns);
  ++n_;
  if (total_samples_.size() < kMaxSamples) {
    total_samples_.push_back(static_cast<float>(total_ns));
    for (int l = 0; l < kLayers; ++l) {
      samples_[l].push_back(static_cast<float>(layers.ns[l]));
    }
    samples_[kLayers].push_back(static_cast<float>(rest));
  }
}

namespace {

double MedianUs(const std::vector<float>& ns) {
  return Quantile(std::vector<double>(ns.begin(), ns.end()), 0.5) / 1e3;
}

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

void Ledger::Report(Result* result) const {
  const double mean = mean_us();
  result->Add("request.mean_us", mean, "us");
  result->lines.push_back(Format(
      "ledger: %llu requests, mean %.3f us (layer means sum to it exactly)",
      static_cast<unsigned long long>(n_), mean));
  result->lines.push_back(Format("  %-14s %12s %8s %12s", "layer", "mean_us",
                                 "share", "p50_us"));
  double sum_us = 0;
  for (int l = 0; l <= kLayers; ++l) {
    const double layer_us = n_ ? sum_ns_[l] / 1e3 / n_ : 0.0;
    const double share = mean > 0 ? layer_us / mean : 0.0;
    sum_us += layer_us;
    result->Add(std::string("ledger.") + LayerName(l) + "_frac", share,
                "frac");
    result->lines.push_back(Format("  %-14s %12.4f %8.4f %12.4f",
                                   LayerName(l), layer_us, share,
                                   MedianUs(samples_[l])));
  }
  result->lines.push_back(Format("  %-14s %12.4f %8.4f %12.4f", "total",
                                 sum_us, mean > 0 ? sum_us / mean : 0.0,
                                 MedianUs(total_samples_)));
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_suite: cannot write trace %s\n",
                 path.c_str());
    return false;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[400];
  for (const SpanLog* log : logs) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"bench-%d\"}}",
                  first ? "" : ",", log->tid(), log->tid());
    out << buf;
    first = false;
    for (const Span& s : log->spans()) {
      const double ts = static_cast<double>(s.start_ns - origin) / 1e3;
      const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      const auto request = static_cast<unsigned long long>(s.request);
      const char* parent = s.root ? "null" : "\"request\"";
      if (!log->overlapping()) {
        std::snprintf(buf, sizeof(buf),
                      ",{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"request\":%llu,\"parent\":%s}}",
                      s.name, log->tid(), ts, dur, request, parent);
        out << buf;
        continue;
      }
      // Async begin/end pairs keyed by (thread, request).
      const unsigned long long id =
          (static_cast<unsigned long long>(log->tid()) << 40) | request;
      std::snprintf(buf, sizeof(buf),
                    ",{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"b\","
                    "\"id\":%llu,\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"args\":{\"request\":%llu,\"parent\":%s}}"
                    ",{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"e\","
                    "\"id\":%llu,\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
                    s.name, id, log->tid(), ts, request, parent, s.name, id,
                    log->tid(), ts + dur);
      out << buf;
    }
  }
  out << "]}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "bench_suite: short write to trace %s\n",
                 path.c_str());
    return false;
  }
  return true;
}

void PinThread(unsigned cpu) {
  if (cpu >= std::thread::hardware_concurrency()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::uint64_t RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

void AddEndToEnd(Result* result, const std::vector<double>& setup_s,
                 double throughput_mops, const IntervalStats& requests,
                 double bytes_per_key) {
  result->Add("setup_s", Quantile(setup_s, 0.5), "s");
  result->Add("throughput_mops", throughput_mops, "Mops/s");
  result->Add("request_p50_us", requests.P50(), "us");
  result->Add("request_p90_us", requests.P90(), "us");
  result->Add("bytes_per_key", bytes_per_key, "B");
  result->Info("requests.measured", static_cast<double>(requests.requests()),
               "count");
  result->Info("setup.repetitions", static_cast<double>(setup_s.size()),
               "count");
}

void AddPerLayer(Result* result, const PerLayer& layers,
                 const Ledger& ledger) {
  result->Add("hash.block_ns_per_key", layers.hash_ns_per_key, "ns");
  result->Add("index.probe_ns_per_key", layers.probe_ns_per_key, "ns");
  result->Add("index.keys_per_call", layers.keys_per_call, "count");
  result->Add("index.hit_ratio", layers.hit_ratio, "frac");
  result->Add("ht.write_ns_per_key", layers.write_ns_per_key, "ns");
  result->Add("ht.write_drift", layers.write_drift, "ratio");
  result->Add("ht.load_factor", layers.load_factor, "frac");
  result->Add("ht.tombstone_frac", layers.tombstone_frac, "frac");
  ledger.Report(result);
  result->Add("trace.overhead_frac", layers.overhead_frac, "frac");
}

}  // namespace perfbench
