#include "net/tcp_link.h"

#include <sys/socket.h>

#include <cerrno>

namespace simdht {

bool TcpLink::Connect(std::string* err) {
  const int fd = ConnectTcp(endpoint_.host, endpoint_.port, err);
  if (fd < 0) return false;
  fd_.reset(fd);
  assembler_ = FrameAssembler();
  return true;
}

bool TcpLink::Send(const Buffer& frame, std::string* err) {
  if (!fd_.valid()) {
    if (err) *err = "not connected";
    return false;
  }
  wire_.clear();
  AppendFrame(frame, &wire_);
  std::size_t sent = 0;
  while (sent < wire_.size()) {
    const ssize_t n = ::send(fd_.get(), wire_.data() + sent,
                             wire_.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (err) *err = ErrnoString("send");
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool TcpLink::Recv(Buffer* frame, std::string* err) {
  std::string assemble_err;
  for (;;) {
    switch (assembler_.Next(frame, &assemble_err)) {
      case FrameAssembler::Result::kFrame:
        return true;
      case FrameAssembler::Result::kError:
        if (err) *err = "bad frame from server: " + assemble_err;
        return false;
      case FrameAssembler::Result::kNeedMore:
        break;
    }
    std::uint8_t chunk[64 * 1024];
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      assembler_.Append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (err) *err = n == 0 ? "server closed connection" : ErrnoString("recv");
    return false;
  }
}

std::vector<std::unique_ptr<FrameLink>> TcpLinks(
    const std::vector<TcpEndpoint>& endpoints) {
  std::vector<std::unique_ptr<FrameLink>> links;
  links.reserve(endpoints.size());
  for (const TcpEndpoint& endpoint : endpoints) {
    links.push_back(std::make_unique<TcpLink>(endpoint));
  }
  return links;
}

}  // namespace simdht
