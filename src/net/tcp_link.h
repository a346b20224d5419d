// A FrameLink (kvs/client.h) over a blocking TCP socket: frames travel
// length-prefixed per kvs/protocol.h and responses are reassembled with a
// FrameAssembler. KvClient and KvClusterClient run over it unchanged.
#ifndef SIMDHT_NET_TCP_LINK_H_
#define SIMDHT_NET_TCP_LINK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kvs/client.h"
#include "kvs/protocol.h"
#include "net/socket.h"

namespace simdht {

struct TcpEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

class TcpLink final : public FrameLink {
 public:
  explicit TcpLink(TcpEndpoint endpoint) : endpoint_(std::move(endpoint)) {}

  bool Connect(std::string* err) override;
  bool connected() const override { return fd_.valid(); }
  void Close() override { fd_.reset(); }
  bool Send(const Buffer& frame, std::string* err) override;
  bool Recv(Buffer* frame, std::string* err) override;

 private:
  TcpEndpoint endpoint_;
  ScopedFd fd_;
  FrameAssembler assembler_;
  Buffer wire_;
};

// One unconnected TcpLink per endpoint (a KvClusterClient's links).
std::vector<std::unique_ptr<FrameLink>> TcpLinks(
    const std::vector<TcpEndpoint>& endpoints);

}  // namespace simdht

#endif  // SIMDHT_NET_TCP_LINK_H_
