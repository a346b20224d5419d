#include "kvs/server.h"

namespace simdht {

namespace {

// A channel worker's responses go straight onto its channel.
class ChannelSink final : public ResponseSink {
 public:
  explicit ChannelSink(Channel* channel) : channel_(channel) {}

  void Queue(std::uint64_t, const Buffer& response) override {
    channel_->ServerSend(response);
  }
  void Transmit(std::uint64_t) override {}

 private:
  Channel* channel_;
};

}  // namespace

KvServer::KvServer(KvBackend* backend, std::vector<Channel*> channels,
                   MetricsRegistry* metrics)
    : channels_(std::move(channels)),
      core_(backend, metrics, SlidingHistogram::Options()) {}

KvServer::~KvServer() { Join(); }

void KvServer::Start() {
  workers_.reserve(channels_.size());
  for (Channel* channel : channels_) {
    workers_.emplace_back([this, channel] { WorkerLoop(channel); });
  }
}

void KvServer::Join() {
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void KvServer::WorkerLoop(Channel* channel) {
  ChannelSink sink(channel);
  RequestBatch batch(&core_, &sink);
  core_.CountConnection();
  Buffer request;
  while (channel->ServerRecv(&request)) {
    // A malformed frame is dropped (the core counted it); serving goes on.
    if (batch.Handle(&request, 0) == FrameVerdict::kShutdown) return;
    batch.Flush();
  }
}

}  // namespace simdht
