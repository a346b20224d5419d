// Multi-Get key-value server over the simulated RDMA channel (paper
// Section VI-A).
//
// A transport adapter around the shared request core (kvs/request_core.h):
// each worker thread serves one channel with its own pending batch, and its
// loop is receive a frame, hand it to the core, flush (which sends the
// response on the channel). One channel carries one client's requests, so
// every flushed batch holds exactly the request just received and the
// core's per-batch phase timings are the paper's per-request Fig 11(b)
// phases. Malformed frames are dropped without a reply (answering would
// desynchronize the client's request/response pairing); the core counts
// them as protocol errors.
#ifndef SIMDHT_KVS_SERVER_H_
#define SIMDHT_KVS_SERVER_H_

#include <thread>
#include <vector>

#include "kvs/backend.h"
#include "kvs/request_core.h"
#include "kvs/transport.h"
#include "perf/metrics.h"

namespace simdht {

class KvServer {
 public:
  // The server serves every channel with one worker thread; the backend is
  // shared (the paper's shared-HT, full-subscription setup). `metrics` is
  // optional and caller-owned; when non-null it must outlive the server and
  // receives the kvs_metrics:: series from every worker.
  KvServer(KvBackend* backend, std::vector<Channel*> channels,
           MetricsRegistry* metrics = nullptr);
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  // Starts worker threads. Workers exit on a Shutdown request or channel
  // close.
  void Start();

  // Waits for all workers to finish (after clients send Shutdown).
  void Join();

  // What a STATS request returns. Thread-safe.
  StatsPairs StatsSnapshot() const { return core_.StatsSnapshot(); }
  MetricsSnapshot Metrics() const { return core_.Metrics(); }

 private:
  void WorkerLoop(Channel* channel);

  std::vector<Channel*> channels_;
  RequestCore core_;
  std::vector<std::thread> workers_;
};

}  // namespace simdht

#endif  // SIMDHT_KVS_SERVER_H_
