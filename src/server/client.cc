#include "server/client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace depminer {

Result<ServerClient> ServerClient::Connect(const std::string& socket_path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: '" + socket_path +
                                   "'");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError("cannot create client socket");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("cannot connect to '" + socket_path + "' (errno " +
                           std::to_string(err) + ")");
  }
  return ServerClient(fd);
}

ServerClient& ServerClient::operator=(ServerClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

ServerClient::~ServerClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Response> ServerClient::Call(const std::string& command_line,
                                    const std::string& body) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  std::string payload = command_line;
  if (!body.empty()) {
    payload += '\n';
    payload += body;
  }
  const Status sent = SendFrame(fd_, payload);
  if (!sent.ok()) {
    // Only a socket error can have left a reply behind: the daemon's
    // framed admission rejection, written before it closed without
    // reading the request. Half-close first, so a live peer sees EOF
    // instead of waiting for the rest of the frame, then read it.
    if (sent.code() != StatusCode::kIoError) return sent;
    ::shutdown(fd_, SHUT_WR);
  }
  std::string response_payload;
  Result<bool> got = RecvFrame(fd_, &response_payload);
  if (!got.ok() || !got.value()) {
    if (!sent.ok()) return sent;
    if (!got.ok()) return got.status();
    return Status::IoError("server closed the connection before replying");
  }
  return ParseResponse(response_payload);
}

}  // namespace depminer
