#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "common/log.h"

namespace haocl::net {
namespace {

Status Errno(const std::string& what) {
  return Status(ErrorCode::kNetworkError, what + ": " + std::strerror(errno));
}

// Reads exactly `size` bytes; false on EOF/error.
bool ReadAll(int fd, void* buffer, std::size_t size) {
  auto* p = static_cast<std::uint8_t*>(buffer);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, p + done, size - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// Writes every byte of the `count` iovecs, resuming after partial writes
// (the kernel takes a large frame in socket-buffer-sized pieces); false on
// error, a peer that closed included (no SIGPIPE). Advances the iovecs in
// place.
bool WriteAll(int fd, iovec* iov, int count) {
  for (;;) {
    while (count > 0 && iov->iov_len == 0) {
      ++iov;
      --count;
    }
    if (count == 0) return true;
    msghdr message{};
    message.msg_iov = iov;
    message.msg_iovlen = static_cast<std::size_t>(count);
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    auto done = static_cast<std::size_t>(n);
    while (done > 0) {
      const std::size_t step = std::min(done, iov->iov_len);
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + step;
      iov->iov_len -= step;
      done -= step;
      if (iov->iov_len == 0) {
        ++iov;
        --count;
      }
    }
  }
}

class TcpConnection : public Connection {
 public:
  // `port` 0: an accepted connection, which cannot dial its peer.
  explicit TcpConnection(int fd, std::string address = {},
                         std::uint16_t port = 0)
      : fd_(fd), address_(std::move(address)), port_(port) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpConnection() override { Close(); }

  // One gathered write straight from the message's own buffers: header,
  // payload and borrowed tail are never concatenated in user space.
  Status Send(const Message& message) override {
    Message::HeaderBytes header = message.EncodeHeader();
    iovec iov[3] = {
        {header.data(), header.size()},
        {const_cast<std::uint8_t*>(message.payload.data()),
         message.payload.size()},
        {const_cast<std::uint8_t*>(message.tail.data()), message.tail.size()},
    };
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (closed_.load(std::memory_order_acquire)) {
      return Status(ErrorCode::kNodeUnreachable, "connection closed");
    }
    if (!WriteAll(fd_, iov, 3)) {
      return Errno("send failed");
    }
    bytes_sent_.fetch_add(message.WireSize(), std::memory_order_relaxed);
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }

  void SetSink(FrameSink sink) override { sink_ = std::move(sink); }

  void SetEndHandler(std::function<void()> ended) override {
    ended_ = std::move(ended);
  }

  // Re-dials the address this connection dialed.
  Expected<ConnectionPtr> Dial() override {
    if (port_ == 0) return Connection::Dial();
    return TcpConnect(address_, port_);
  }

  void Start(MessageHandler handler) override {
    reader_ = std::thread([this, handler = std::move(handler),
                           ended = std::move(ended_)] {
      std::uint8_t header[Message::kHeaderSize];
      while (!closed_.load(std::memory_order_acquire)) {
        if (!ReadAll(fd_, header, sizeof(header))) break;
        auto parsed = Message::ParseHeader(header, sizeof(header));
        if (!parsed.ok()) {
          HAOCL_WARN << "dropping connection: "
                     << parsed.status().ToString();
          break;
        }
        // The payload lands directly in the message handed to the handler,
        // or its bulk bytes straight in the destination the sink names.
        Message msg;
        msg.type = parsed->type;
        msg.seq = parsed->seq;
        msg.session = parsed->session;
        const std::size_t prefix = LandingPrefixSize(parsed->type);
        Landing landing;
        if (sink_.claim && parsed->payload_size > prefix) {
          msg.payload.resize(prefix);
          if (!ReadAll(fd_, msg.payload.data(), prefix)) break;
          landing = sink_.claim(*parsed, msg.payload);
        }
        if (landing.bytes.empty()) {
          const std::size_t have = msg.payload.size();
          msg.payload.resize(parsed->payload_size);
          if (!ReadAll(fd_, msg.payload.data() + have,
                       msg.payload.size() - have)) {
            break;
          }
        } else {
          if (!ReadAll(fd_, landing.bytes.data(), landing.bytes.size())) {
            sink_.abandon(*parsed);
            break;
          }
          msg.tail = landing.bytes;
          msg.tail_owner = std::move(landing.owner);
        }
        handler(std::move(msg));
      }
      if (ended) ended();
    });
  }

  void Close() override {
    bool expected = false;
    if (closed_.compare_exchange_strong(expected, true)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
    if (reader_.joinable()) {
      if (reader_.get_id() == std::this_thread::get_id()) {
        reader_.detach();
      } else {
        reader_.join();
      }
    }
    // Close the fd exactly once, after the reader and any sender are done
    // with it (the shutdown above fails a send in progress).
    int fd = -1;
    {
      std::lock_guard<std::mutex> lock(write_mutex_);
      fd = fd_.exchange(-1);
    }
    if (fd >= 0) ::close(fd);
  }

  [[nodiscard]] std::uint64_t bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t messages_sent() const override {
    return messages_sent_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> fd_;
  const std::string address_;  // What Dial re-dials.
  const std::uint16_t port_;
  std::mutex write_mutex_;
  std::thread reader_;
  FrameSink sink_;  // Set before Start; read by the reader only.
  std::function<void()> ended_;  // Set before Start; moved to the reader.
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
};

}  // namespace

Expected<ConnectionPtr> TcpConnect(const std::string& address,
                                   std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(ErrorCode::kInvalidValue, "bad address: " + address);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Errno("connect to " + address + ":" + std::to_string(port));
    ::close(fd);
    return s;
  }
  return ConnectionPtr(std::make_unique<TcpConnection>(fd, address, port));
}

struct TcpListener::Impl {
  int listen_fd = -1;
  std::thread accept_thread;
  std::atomic<bool> running{false};
};

TcpListener::TcpListener(std::uint16_t port, std::string address)
    : impl_(std::make_unique<Impl>()),
      port_(port),
      address_(std::move(address)) {}

TcpListener::~TcpListener() { Stop(); }

Status TcpListener::Start(AcceptHandler handler) {
  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, address_.c_str(), &addr.sin_addr) != 1) {
    return Status(ErrorCode::kInvalidValue, "bad address: " + address_);
  }
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind port " + std::to_string(port_));
  }
  if (::listen(impl_->listen_fd, 64) != 0) return Errno("listen");

  // Recover the ephemeral port if 0 was requested.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  impl_->running.store(true);
  impl_->accept_thread = std::thread([this, handler = std::move(handler)] {
    while (impl_->running.load(std::memory_order_acquire)) {
      const int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (impl_->running.load()) {
          HAOCL_WARN << "accept failed: " << std::strerror(errno);
        }
        break;
      }
      handler(std::make_unique<TcpConnection>(fd));
    }
  });
  return Status::Ok();
}

void TcpListener::Stop() {
  if (impl_ == nullptr) return;
  if (impl_->running.exchange(false)) {
    ::shutdown(impl_->listen_fd, SHUT_RDWR);
    ::close(impl_->listen_fd);
  }
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
}

}  // namespace haocl::net
