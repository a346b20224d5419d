#include "kvs/client.h"

#include "obs/timeline.h"

namespace simdht {

bool ChannelLink::Send(const Buffer& frame, std::string* err) {
  if (!open_) {
    if (err) *err = "link closed";
    return false;
  }
  channel_->ClientSend(frame);
  return true;
}

bool ChannelLink::Recv(Buffer* frame, std::string* err) {
  if (open_ && channel_->ClientRecv(frame)) return true;
  if (err) *err = open_ ? "channel closed" : "link closed";
  return false;
}

// --- KvClient ---

bool KvClient::Fail(std::string* err, const std::string& message) {
  if (err) *err = message;
  // A failed exchange leaves the stream in an unknown state; drop it.
  link_->Close();
  return false;
}

template <typename Decode>
bool KvClient::Call(const char* op, std::string* err, const Decode& decode) {
  std::string why;
  if (!link_->Send(request_, &why) || !link_->Recv(&response_, &why)) {
    return Fail(err, why);
  }
  if (!decode(&why)) {
    return Fail(err, std::string("bad ") + op + " response: " + why);
  }
  return true;
}

bool KvClient::Set(std::string_view key, std::string_view val,
                   std::string* err) {
  EncodeSetRequest(key, val, &request_);
  bool ok = false;
  if (!Call("SET", err, [&](std::string* why) {
        return DecodeSetResponse(response_, &ok, why);
      })) {
    return false;
  }
  if (!ok && err) *err = "server rejected SET";
  return ok;
}

bool KvClient::MultiSet(const std::vector<std::string_view>& keys,
                        const std::vector<std::string_view>& vals,
                        std::vector<std::uint8_t>* ok, std::string* err) {
  EncodeMultiSetRequest(keys, vals, &request_);
  std::vector<std::uint8_t> parsed;
  if (!Call("MSET", err, [&](std::string* why) {
        if (!DecodeMultiSetResponse(response_, &parsed, why)) return false;
        if (parsed.size() == keys.size()) return true;
        *why = "count mismatch";
        return false;
      })) {
    return false;
  }
  if (ok != nullptr) *ok = std::move(parsed);
  return true;
}

bool KvClient::MultiGetBody(const std::vector<std::string_view>& keys,
                            const TraceContext* trace,
                            std::vector<std::string>* vals,
                            std::vector<std::uint8_t>* found,
                            TracedExchange* exchange, std::string* err) {
  Timeline& tl = Timeline::Global();
  if (trace != nullptr) {
    EncodeTracedMultiGetRequest(keys, *trace, &request_);
  } else {
    EncodeMultiGetRequest(keys, &request_);
  }
  const double send_us = trace != nullptr ? tl.NowUs() : 0.0;
  double recv_us = 0.0;
  ServerTiming timing;
  if (!Call(trace != nullptr ? "TMGET" : "MGET", err,
            [&](std::string* why) {
              if (trace != nullptr) recv_us = tl.NowUs();
              std::uint64_t echoed_id = 0;
              if (trace == nullptr
                      ? !DecodeMultiGetResponse(response_, &mget_, why)
                      : !DecodeTracedMultiGetResponse(
                            response_, &mget_, &echoed_id, &timing, why)) {
                return false;
              }
              // A mismatched id means responses got paired with the wrong
              // request — the stream ordering is broken.
              if (trace != nullptr && echoed_id != trace->trace_id) {
                *why = "trace id mismatch";
                return false;
              }
              if (mget_.vals.size() == keys.size()) return true;
              *why = "count mismatch";
              return false;
            })) {
    return false;
  }
  if (vals != nullptr) {
    vals->resize(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      (*vals)[i].assign(mget_.vals[i]);
    }
  }
  if (found != nullptr) *found = mget_.found;
  if (exchange != nullptr) {
    exchange->server = timing;
    exchange->client_send_us = send_us;
    exchange->client_recv_us = recv_us;
  }
  return true;
}

bool KvClient::Stats(StatsPairs* out, std::string* err) {
  EncodeStatsRequest(&request_);
  return Call("STATS", err, [&](std::string* why) {
    return DecodeStatsResponse(response_, out, why);
  });
}

bool KvClient::Metrics(std::string* text, std::string* err) {
  EncodeMetricsRequest(&request_);
  return Call("METRICS", err, [&](std::string* why) {
    return DecodeMetricsResponse(response_, text, why);
  });
}

void KvClient::Shutdown() {
  if (!link_->connected()) return;
  EncodeShutdownRequest(&request_);
  link_->Send(request_, nullptr);
  link_->Close();
}

// --- KvClusterClient ---

KvClusterClient::KvClusterClient(
    std::vector<std::unique_ptr<FrameLink>> links, unsigned vnodes)
    : up_(links.size(), 0), ring_(vnodes) {
  clients_.reserve(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    clients_.emplace_back(std::move(links[i]));
    ring_.AddServer(static_cast<std::uint32_t>(i));
  }
}

bool KvClusterClient::Connect(std::string* err) {
  std::string all_errors;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    std::string e;
    up_[i] = clients_[i].Connect(&e) ? 1 : 0;
    if (!up_[i]) {
      if (!all_errors.empty()) all_errors += "; ";
      all_errors += "server " + std::to_string(i) + ": " + e;
    }
  }
  if (err) *err = all_errors;
  return num_up() > 0;
}

std::size_t KvClusterClient::num_up() const {
  std::size_t n = 0;
  for (const std::uint8_t u : up_) n += u;
  return n;
}

bool KvClusterClient::Set(std::string_view key, std::string_view val,
                          std::string* err) {
  const std::uint32_t server = ring_.ServerFor(key);
  if (!up_[server]) {
    if (err) *err = "server " + std::to_string(server) + " is down";
    return false;
  }
  const bool ok = clients_[server].Set(key, val, err);
  if (!clients_[server].connected()) up_[server] = 0;
  return ok;
}

template <typename Send>
bool KvClusterClient::Scatter(const std::vector<std::string_view>& keys,
                              std::vector<std::uint8_t>* error,
                              std::string* err, const Send& send) {
  error->assign(keys.size(), 0);
  if (clients_.size() == 1) {
    parts_.resize(1);
    parts_[0].first = 0;
    parts_[0].second.clear();
  } else {
    parts_ = ring_.PartitionKeys(keys);
  }
  bool any_ok = false;
  std::string first_err;
  for (const auto& [server, indices] : parts_) {
    std::string sub_err;
    if (up_[server] && send(server, indices, &sub_err)) {
      any_ok = true;
      continue;
    }
    if (first_err.empty()) {
      first_err = "server " + std::to_string(server) +
                  (up_[server] ? ": " + sub_err : " is down");
    }
    // The sub-request (not the whole batch) failed: flag its keys and
    // stop routing to this server.
    up_[server] = 0;
    if (indices.empty()) {
      error->assign(keys.size(), 1);
    } else {
      for (const std::size_t i : indices) (*error)[i] = 1;
    }
  }
  if (err) *err = first_err;
  return any_ok;
}

bool KvClusterClient::MultiSet(const std::vector<std::string_view>& keys,
                               const std::vector<std::string_view>& vals,
                               std::vector<std::uint8_t>* ok,
                               std::string* err) {
  if (ok) ok->assign(keys.size(), 0);
  if (keys.empty()) return true;
  return Scatter(
      keys, &set_errors_, err,
      [&](std::uint32_t server, const std::vector<std::size_t>& indices,
          std::string* sub_err) {
        if (indices.empty()) {
          return clients_[server].MultiSet(keys, vals, ok, sub_err);
        }
        sub_keys_.clear();
        sub_set_vals_.clear();
        for (const std::size_t i : indices) {
          sub_keys_.push_back(keys[i]);
          sub_set_vals_.push_back(vals[i]);
        }
        if (!clients_[server].MultiSet(sub_keys_, sub_set_vals_,
                                       &sub_flags_, sub_err)) {
          return false;
        }
        if (ok) {
          for (std::size_t k = 0; k < indices.size(); ++k) {
            (*ok)[indices[k]] = sub_flags_[k];
          }
        }
        return true;
      });
}

bool KvClusterClient::MultiGetBody(const std::vector<std::string_view>& keys,
                                   const TraceContext* trace,
                                   std::vector<std::string>* vals,
                                   std::vector<std::uint8_t>* found,
                                   std::vector<std::uint8_t>* error,
                                   Exchanges* exchanges, std::string* err) {
  if (exchanges) exchanges->clear();
  vals->resize(keys.size());
  found->resize(keys.size());
  if (keys.empty()) {
    error->clear();
    return true;
  }
  const bool any_ok = Scatter(
      keys, error, err,
      [&](std::uint32_t server, const std::vector<std::size_t>& indices,
          std::string* sub_err) {
        KvClient& client = clients_[server];
        TracedExchange exchange;
        if (indices.empty()) {
          if (!client.MultiGetBody(keys, trace, vals, found, &exchange,
                                   sub_err)) {
            return false;
          }
        } else {
          sub_keys_.clear();
          for (const std::size_t i : indices) sub_keys_.push_back(keys[i]);
          if (!client.MultiGetBody(sub_keys_, trace, &sub_vals_,
                                   &sub_flags_, &exchange, sub_err)) {
            return false;
          }
          for (std::size_t k = 0; k < indices.size(); ++k) {
            (*vals)[indices[k]].assign(sub_vals_[k]);
            (*found)[indices[k]] = sub_flags_[k];
          }
        }
        if (trace && exchanges) exchanges->emplace_back(server, exchange);
        return true;
      });
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if ((*error)[i]) {
      (*vals)[i].clear();
      (*found)[i] = 0;
    }
  }
  return any_ok;
}

std::vector<StatsPairs> KvClusterClient::StatsAll() {
  std::vector<StatsPairs> all(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (up_[i]) clients_[i].Stats(&all[i], nullptr);
  }
  return all;
}

void KvClusterClient::ShutdownAll() {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (up_[i]) clients_[i].Shutdown();
    up_[i] = 0;
  }
}

void KvClusterClient::CloseAll() {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i].Close();
    up_[i] = 0;
  }
}

}  // namespace simdht
