#include "kvs/request_core.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>

#include "common/timer.h"
#include "obs/prometheus.h"
#include "obs/timeline.h"

namespace simdht {

namespace {

std::string TraceIdHex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const Histogram& HistogramOrEmpty(const MetricsSnapshot& snap,
                                  const char* metric) {
  static const Histogram kEmpty;
  const auto it = snap.histograms.find(metric);
  return it != snap.histograms.end() ? it->second : kEmpty;
}

}  // namespace

RequestCore::RequestCore(KvBackend* backend, MetricsRegistry* metrics,
                         const SlidingHistogram::Options& window)
    : backend_(backend),
      metrics_(metrics),
      tsc_ghz_(TscGhz()),
      windows_(window) {
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  ids_.requests = metrics_->Counter(kvs_metrics::kRequests);
  ids_.batches = metrics_->Counter(kvs_metrics::kBatches);
  ids_.keys = metrics_->Counter(kvs_metrics::kKeys);
  ids_.hits = metrics_->Counter(kvs_metrics::kHits);
  ids_.connections = metrics_->Counter(kvs_metrics::kConnections);
  ids_.protocol_errors = metrics_->Counter(kvs_metrics::kProtocolErrors);
  ids_.batch_connections =
      metrics_->Histogram(kvs_metrics::kBatchConnections);
  ids_.batch_keys = metrics_->Histogram(kvs_metrics::kBatchKeys);
  ids_.parse_ns = metrics_->Histogram(kvs_metrics::kParseNs);
  ids_.index_probe_ns = metrics_->Histogram(kvs_metrics::kIndexProbeNs);
  ids_.value_copy_ns = metrics_->Histogram(kvs_metrics::kValueCopyNs);
  ids_.transport_ns = metrics_->Histogram(kvs_metrics::kTransportNs);
}

void RequestCore::CountConnection() {
  metrics_->Local()->Add(ids_.connections, 1);
}

void RequestCore::CountProtocolError() {
  metrics_->Local()->Add(ids_.protocol_errors, 1);
}

void RequestCore::RecordDispatchCycle(std::uint64_t us,
                                      std::uint64_t events) {
  windows_.dispatch_us.Record(us);
  windows_.dispatch_events.Record(events);
}

// --- RequestBatch ---

RequestBatch::RequestBatch(RequestCore* core, ResponseSink* sink)
    : core_(core), sink_(sink) {}

FrameVerdict RequestBatch::Malformed() {
  core_->CountProtocolError();
  return FrameVerdict::kMalformed;
}

FrameVerdict RequestBatch::Handle(Buffer* frame, std::uint64_t peer) {
  Opcode op;
  if (!PeekOpcode(*frame, &op)) return Malformed();
  const bool mget =
      op == Opcode::kMultiGet || op == Opcode::kTracedMultiGet;
  // Response order: nothing overtakes (or is seen by) an earlier MGET.
  if (!mget) Flush();
  KvBackend* backend = core_->backend_;
  switch (op) {
    case Opcode::kSet:
      if (!DecodeSetRequest(*frame, &set_)) return Malformed();
      EncodeSetResponse(backend->Set(set_.key, set_.val), &response_);
      sink_->Queue(peer, response_);
      return FrameVerdict::kServed;
    case Opcode::kMultiSet:
      if (!DecodeMultiSetRequest(*frame, &mset_)) return Malformed();
      backend->MultiSet(mset_.keys, mset_.vals, &set_ok_);
      EncodeMultiSetResponse(set_ok_, &response_);
      sink_->Queue(peer, response_);
      return FrameVerdict::kServed;
    case Opcode::kStats:
      EncodeStatsResponse(core_->StatsSnapshot(), &response_);
      sink_->Queue(peer, response_);
      return FrameVerdict::kServed;
    case Opcode::kMetrics:
      EncodeMetricsResponse(core_->RenderMetricsText(), &response_);
      sink_->Queue(peer, response_);
      return FrameVerdict::kServed;
    case Opcode::kShutdown:
      return FrameVerdict::kShutdown;
    case Opcode::kMultiGet:
    case Opcode::kTracedMultiGet:
      break;
    default:
      return Malformed();
  }

  // Phase 1: parse the batch and queue its keys in the pending batch.
  Timeline& tl = Timeline::Global();
  Pending p;
  p.peer = peer;
  p.traced = op == Opcode::kTracedMultiGet;
  if (p.traced) p.rx_us = tl.NowUs();
  const std::uint64_t t0 = ReadTsc();
  if (p.traced) {
    TraceContext trace;
    if (!DecodeTracedMultiGetRequest(*frame, &mget_, &trace)) {
      return Malformed();
    }
    p.sampled = trace.sampled;
    p.trace_id = trace.trace_id;
  } else if (!DecodeMultiGetRequest(*frame, &mget_)) {
    return Malformed();
  }
  p.first_key = keys_.size();
  p.num_keys = mget_.keys.size();
  if (keys_.empty()) {
    keys_.swap(mget_.keys);  // a lone request's views need no copy
  } else {
    keys_.insert(keys_.end(), mget_.keys.begin(), mget_.keys.end());
  }
  // The batch takes the frame by swap, so the key views stay valid until
  // the flush without copying a byte.
  if (frames_.size() == pending_.size()) frames_.emplace_back();
  frames_[pending_.size()].swap(*frame);
  pending_.push_back(p);
  const std::uint64_t t1 = ReadTsc();

  const auto parse_ns = static_cast<std::uint64_t>(
      static_cast<double>(t1 - t0) / core_->tsc_ghz_);
  ThreadMetrics* m = core_->metrics_->Local();
  m->Add(core_->ids_.requests, 1);
  m->Record(core_->ids_.parse_ns, parse_ns);
  core_->windows_.parse_ns.Record(parse_ns);
  if (p.sampled && tl.enabled()) {
    tl.RecordSpan("server", "parse", p.rx_us, tl.NowUs(),
                  {TimelineArg::Str("trace_id", TraceIdHex(p.trace_id)),
                   TimelineArg::Num("keys", static_cast<double>(p.num_keys))});
  }
  return FrameVerdict::kServed;
}

void RequestBatch::Flush() {
  if (pending_.empty()) return;
  KvBackend* backend = core_->backend_;
  Timeline& tl = Timeline::Global();
  bool any_sampled = false;
  for (const Pending& p : pending_) any_sampled |= p.sampled;
  const bool tracing = any_sampled && tl.enabled();

  // Phase 2: one index probe over the whole batch — keys from every peer
  // the batch holds go down the SIMD pipeline together.
  const double us0 = tracing ? tl.NowUs() : 0.0;
  const std::uint64_t t0 = ReadTsc();
  backend->MultiGet(keys_, &vals_, &found_, &handles_);
  const std::uint64_t t1 = ReadTsc();
  const double us1 = tracing ? tl.NowUs() : 0.0;

  // Phase 3: freshness updates + per-request response build.
  backend->TouchBatch(handles_);
  std::uint64_t hits = 0;
  for (const std::uint8_t f : found_) hits += f;
  if (responses_.size() < pending_.size()) responses_.resize(pending_.size());
  peers_.clear();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Pending& p = pending_[i];
    peers_.push_back(p.peer);
    // A lone request owns the whole batch; otherwise encode its slice.
    const std::vector<std::string_view>* vals = &vals_;
    const std::vector<std::uint8_t>* found = &found_;
    if (pending_.size() > 1) {
      const auto first = static_cast<std::ptrdiff_t>(p.first_key);
      const auto last =
          static_cast<std::ptrdiff_t>(p.first_key + p.num_keys);
      entry_vals_.assign(vals_.begin() + first, vals_.begin() + last);
      entry_found_.assign(found_.begin() + first, found_.begin() + last);
      vals = &entry_vals_;
      found = &entry_found_;
    }
    if (p.traced) {
      // tx_us is stamped at encode so the client's midpoint estimate
      // brackets the server-side work actually done for this request.
      EncodeTracedMultiGetResponse(*vals, *found, p.trace_id,
                                   ServerTiming{p.rx_us, tl.NowUs()},
                                   &responses_[i]);
    } else {
      EncodeMultiGetResponse(*vals, *found, &responses_[i]);
    }
  }
  std::sort(peers_.begin(), peers_.end());
  peers_.erase(std::unique(peers_.begin(), peers_.end()), peers_.end());
  const std::uint64_t t2 = ReadTsc();
  const double us2 = tracing ? tl.NowUs() : 0.0;

  // Counted before any response leaves, so a client holding its response
  // reads STATS that include its request.
  const auto to_ns = [this](std::uint64_t cycles) {
    return static_cast<std::uint64_t>(static_cast<double>(cycles) /
                                      core_->tsc_ghz_);
  };
  const std::uint64_t keys = keys_.size();
  const RequestCore::Ids& ids = core_->ids_;
  ThreadMetrics* m = core_->metrics_->Local();
  m->Add(ids.batches, 1);
  m->Add(ids.keys, keys);
  m->Add(ids.hits, hits);
  m->Record(ids.index_probe_ns, to_ns(t1 - t0));
  m->Record(ids.value_copy_ns, to_ns(t2 - t1));
  m->Record(ids.batch_connections, peers_.size());
  m->Record(ids.batch_keys, keys);
  RequestCore::Windows& w = core_->windows_;
  const std::uint64_t now_ns = SteadyNowNs();
  w.index_probe_ns.RecordAt(now_ns, to_ns(t1 - t0));
  w.value_copy_ns.RecordAt(now_ns, to_ns(t2 - t1));
  w.batch_connections.RecordAt(now_ns, peers_.size());
  w.batch_keys.RecordAt(now_ns, keys);
  w.requests.RecordAt(now_ns, pending_.size());
  w.keys.RecordAt(now_ns, keys);
  w.hits.RecordAt(now_ns, hits);

  // Transport: hand each response to its peer, then one send per peer.
  const double us3 = tracing ? tl.NowUs() : 0.0;
  const std::uint64_t t3 = ReadTsc();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    sink_->Queue(pending_[i].peer, responses_[i]);
  }
  for (const std::uint64_t peer : peers_) sink_->Transmit(peer);
  const std::uint64_t t4 = ReadTsc();
  const double us4 = tracing ? tl.NowUs() : 0.0;
  m->Record(ids.transport_ns, to_ns(t4 - t3));
  w.transport_ns.RecordAt(now_ns, to_ns(t4 - t3));

  if (tracing) {
    // Batch-level spans carry the batch occupancy so a trace shows how
    // much company each sampled request had in its batch.
    const TimelineArgs occupancy{
        TimelineArg::Num("batch_connections",
                         static_cast<double>(peers_.size())),
        TimelineArg::Num("batch_keys", static_cast<double>(keys))};
    tl.RecordSpan("server", "index_probe", us0, us1, occupancy);
    tl.RecordSpan("server", "value_copy", us1, us2, occupancy);
    tl.RecordSpan("server", "transport", us3, us4, occupancy);
    for (const Pending& p : pending_) {
      if (!p.sampled) continue;
      tl.RecordSpan(
          "server", "request", p.rx_us, us4,
          {TimelineArg::Str("trace_id", TraceIdHex(p.trace_id)),
           TimelineArg::Num("keys", static_cast<double>(p.num_keys)),
           TimelineArg::Num("batch_connections",
                            static_cast<double>(peers_.size()))});
    }
  }

  pending_.clear();
  keys_.clear();
}

// --- rendering ---

namespace {

// Counters, as STATS keys and as Prometheus families.
constexpr struct {
  const char* stat;
  const char* metric;
  const char* family;
  const char* help;
} kCounters[] = {
    {"batches", kvs_metrics::kBatches, "simdht_kvs_batches_total",
     "Multi-Get batches flushed to the backend."},
    {"requests", kvs_metrics::kRequests, "simdht_kvs_requests_total",
     "Multi-Get request frames accepted (plain + traced)."},
    {"keys", kvs_metrics::kKeys, "simdht_kvs_keys_total",
     "Keys probed across all Multi-Get batches."},
    {"hits", kvs_metrics::kHits, "simdht_kvs_hits_total",
     "Keys found across all Multi-Get batches."},
    {"connections", kvs_metrics::kConnections,
     "simdht_net_connections_total",
     "Connections (TCP) or channels (simulated) served."},
    {"protocol_errors", kvs_metrics::kProtocolErrors,
     "simdht_net_protocol_errors_total", "Frames rejected as malformed."},
};

// Tail quantiles: STATS key suffix, Prometheus label, quantile.
constexpr struct {
  const char* suffix;
  const char* label;
  double q;
} kQuantiles[] = {{".p50", "0.5", 0.5},
                  {".p90", "0.9", 0.9},
                  {".p99", "0.99", 0.99},
                  {".p999", "0.999", 0.999}};

}  // namespace

std::array<RequestCore::Phase, 4> RequestCore::Phases() const {
  return {{{"parse", kvs_metrics::kParseNs, &windows_.parse_ns},
           {"index_probe", kvs_metrics::kIndexProbeNs,
            &windows_.index_probe_ns},
           {"value_copy", kvs_metrics::kValueCopyNs, &windows_.value_copy_ns},
           {"transport", kvs_metrics::kTransportNs, &windows_.transport_ns}}};
}

RequestCore::WindowRates RequestCore::Rates() const {
  const auto req = windows_.requests.Snapshot();
  const auto keys = windows_.keys.Snapshot();
  const auto hits = windows_.hits.Snapshot();
  const double window_keys = static_cast<double>(keys.hist.sum());
  return {static_cast<double>(req.window_ns) / 1e9, req.sum_rate_per_s,
          keys.sum_rate_per_s, hits.sum_rate_per_s,
          window_keys > 0
              ? static_cast<double>(hits.hist.sum()) / window_keys
              : 0.0};
}

StatsPairs RequestCore::StatsSnapshot() const {
  const MetricsSnapshot snap = metrics_->Aggregate();
  StatsPairs out;
  for (const auto& c : kCounters) {
    out.emplace_back(c.stat, static_cast<double>(snap.counter(c.metric)));
  }
  // Capability/units header: lets a remote client negotiate the traced
  // protocol (proto.trace_context) and interpret the phase histograms
  // without guessing (units.phase_ns = 1 declares nanoseconds, NOT raw TSC
  // cycles; tsc_ghz is the conversion the server applied).
  out.emplace_back("proto.trace_context", 1.0);
  out.emplace_back("units.phase_ns", 1.0);
  out.emplace_back("tsc_ghz", tsc_ghz_);

  const auto tails = [&out](const std::string& label, const Histogram& h) {
    for (const auto& q : kQuantiles) {
      out.emplace_back(label + q.suffix, static_cast<double>(h.Quantile(q.q)));
    }
  };
  const auto occupancy = [&out](const std::string& label,
                                const Histogram& h) {
    out.emplace_back(label + ".mean", h.mean());
    out.emplace_back(label + ".max", static_cast<double>(h.max()));
  };
  for (const Phase& phase : Phases()) {
    const Histogram& h = HistogramOrEmpty(snap, phase.metric);
    const std::string label = std::string(phase.name) + "_ns";
    out.emplace_back(label + ".mean", h.mean());
    tails(label, h);
  }
  occupancy("batch_connections",
            HistogramOrEmpty(snap, kvs_metrics::kBatchConnections));
  occupancy("batch_keys", HistogramOrEmpty(snap, kvs_metrics::kBatchKeys));

  // Rolling-window view (`win.*`): only the last
  // window_intervals * window_interval_ms of traffic.
  const WindowRates rates = Rates();
  out.emplace_back("win.window_s", rates.window_s);
  out.emplace_back("win.requests_per_s", rates.requests_per_s);
  out.emplace_back("win.keys_per_s", rates.keys_per_s);
  out.emplace_back("win.hits_per_s", rates.hits_per_s);
  out.emplace_back("win.hit_rate", rates.hit_rate);
  for (const Phase& phase : Phases()) {
    tails(std::string("win.") + phase.name + "_ns",
          phase.window->Snapshot().hist);
  }
  tails("win.dispatch_us", windows_.dispatch_us.Snapshot().hist);
  occupancy("win.batch_connections",
            windows_.batch_connections.Snapshot().hist);
  occupancy("win.batch_keys", windows_.batch_keys.Snapshot().hist);
  occupancy("win.dispatch_events", windows_.dispatch_events.Snapshot().hist);

  // Per-shard probe counters (empty for backends without shard stats).
  const std::vector<ShardProbeCounters> shards = backend_->ShardProbeStats();
  out.emplace_back("shards", static_cast<double>(shards.size()));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::string prefix = "shard." + std::to_string(s);
    out.emplace_back(prefix + ".hits", static_cast<double>(shards[s].hits));
    out.emplace_back(prefix + ".misses",
                     static_cast<double>(shards[s].misses));
    out.emplace_back(prefix + ".stash_hits",
                     static_cast<double>(shards[s].stash_hits));
  }
  return out;
}

std::string RequestCore::RenderMetricsText() const {
  const MetricsSnapshot snap = metrics_->Aggregate();
  PrometheusWriter w;
  for (const auto& c : kCounters) {
    w.Family(c.family, c.help, "counter");
    w.Sample(c.family, static_cast<double>(snap.counter(c.metric)));
  }

  const auto summary = [&w](const char* family, const char* phase,
                            const Histogram& h) {
    for (const auto& q : kQuantiles) {
      w.Sample(family, {{"phase", phase}, {"quantile", q.label}},
               static_cast<double>(h.Quantile(q.q)));
    }
  };
  w.Family("simdht_kvs_phase_ns",
           "Per-phase serving latency quantiles in ns (lifetime).",
           "summary");
  for (const Phase& phase : Phases()) {
    summary("simdht_kvs_phase_ns", phase.name,
            HistogramOrEmpty(snap, phase.metric));
  }

  const WindowRates rates = Rates();
  const struct {
    const char* family;
    const char* help;
    double value;
  } gauges[] = {
      {"simdht_window_seconds", "Span of the rolling metrics window.",
       rates.window_s},
      {"simdht_window_requests_per_s",
       "Multi-Get request frames per second over the window.",
       rates.requests_per_s},
      {"simdht_window_keys_per_s", "Keys probed per second over the window.",
       rates.keys_per_s},
      {"simdht_window_hits_per_s", "Keys found per second over the window.",
       rates.hits_per_s},
      {"simdht_window_hit_rate", "Hit fraction over the window.",
       rates.hit_rate}};
  for (const auto& g : gauges) {
    w.Family(g.family, g.help, "gauge");
    w.Sample(g.family, g.value);
  }

  w.Family("simdht_window_phase_ns",
           "Per-phase serving latency quantiles in ns over the window.",
           "summary");
  for (const Phase& phase : Phases()) {
    summary("simdht_window_phase_ns", phase.name,
            phase.window->Snapshot().hist);
  }

  const struct {
    const SlidingHistogram* win;
    const char* family;
    const char* help;
  } win_occ[] = {
      {&windows_.batch_connections, "simdht_window_batch_connections",
       "Distinct connections per flushed batch over the window."},
      {&windows_.batch_keys, "simdht_window_batch_keys",
       "Keys per flushed batch over the window."},
      {&windows_.dispatch_us, "simdht_window_dispatch_us",
       "Dispatch-cycle duration in us over the window (incl. epoll wait)."},
      {&windows_.dispatch_events, "simdht_window_dispatch_events",
       "Ready events per dispatch cycle over the window."}};
  for (const auto& wo : win_occ) {
    const Histogram h = wo.win->Snapshot().hist;
    w.Family(wo.family, wo.help, "gauge");
    w.Sample(wo.family, {{"stat", "mean"}}, h.mean());
    w.Sample(wo.family, {{"stat", "p99"}},
             static_cast<double>(h.Quantile(0.99)));
    w.Sample(wo.family, {{"stat", "max"}}, static_cast<double>(h.max()));
  }

  const std::vector<ShardProbeCounters> shards = backend_->ShardProbeStats();
  if (!shards.empty()) {
    const struct {
      const char* family;
      const char* help;
      std::uint64_t ShardProbeCounters::* field;
    } per_shard[] = {
        {"simdht_shard_hits_total", "Multi-Get hits per shard.",
         &ShardProbeCounters::hits},
        {"simdht_shard_misses_total", "Multi-Get misses per shard.",
         &ShardProbeCounters::misses},
        {"simdht_shard_stash_hits_total",
         "Multi-Get hits served from the overflow stash per shard.",
         &ShardProbeCounters::stash_hits}};
    for (const auto& series : per_shard) {
      w.Family(series.family, series.help, "counter");
      for (std::size_t s = 0; s < shards.size(); ++s) {
        w.Sample(series.family, {{"shard", std::to_string(s)}},
                 static_cast<double>(shards[s].*series.field));
      }
    }
  }
  return w.str();
}

}  // namespace simdht
