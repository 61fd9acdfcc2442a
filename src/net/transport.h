// Transport abstraction of the communication backbone.
//
// The paper builds on Boost.Asio: the node management process creates an
// asynchronous acceptor/listener per port; the host creates a (synchronous)
// message+data channel per node. We reproduce that architecture with a
// Connection interface and two implementations:
//  - SimTransport (sim_transport.h): in-process queue pair, used when the
//    whole cluster runs inside one process (the default for tests/benches,
//    standing in for the cloud deployment we cannot spawn here);
//  - TcpTransport (tcp_transport.h): real POSIX sockets with the same frame
//    format, used for genuine multi-process deployments.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "common/status.h"
#include "net/message.h"

namespace haocl::net {

using MessageHandler = std::function<void(Message)>;

// Payload bytes a FrameSink sees before it places the rest of a frame:
// kWriteBuffer's buffer_id, offset, after_seq and the u64 length prefix of
// its data; none for any other type.
constexpr std::size_t LandingPrefixSize(MsgType type) noexcept {
  return type == MsgType::kWriteBuffer ? 4 * sizeof(std::uint64_t) : 0;
}

// Where a claimed frame's remaining payload bytes land. An empty `bytes`
// declines the frame.
struct Landing {
  std::span<std::uint8_t> bytes;
  std::shared_ptr<const void> owner;  // Keeps `bytes` valid while landing.
};

// A receiver-registered hook naming where a frame's bulk bytes land, so a
// large payload is read straight into its destination instead of into a
// fresh Message::payload.
struct FrameSink {
  // Runs on the reader thread once the header and the first
  // LandingPrefixSize(header.type) payload bytes (`prefix`) are in, when
  // more bytes follow. Returns where exactly the remaining
  // header.payload_size - prefix.size() bytes go, or declines: the frame
  // then arrives with everything in `payload`, as without a sink. A
  // claimed frame reaches the handler with the prefix as `payload` and the
  // landed bytes as `tail` (owned by `tail_owner`).
  std::function<Landing(const Message::Header& header,
                        std::span<const std::uint8_t> prefix)>
      claim;
  // The claimed frame's remaining bytes never arrived (the connection
  // failed mid-frame): nothing more is written into the landing, and the
  // frame never reaches the handler.
  std::function<void(const Message::Header& header)> abandon;
};

// A bidirectional, ordered, reliable message channel to one peer.
// Thread-safe for concurrent Send(); the receive handler is invoked from a
// single dispatcher thread per connection (messages stay ordered).
class Connection {
 public:
  virtual ~Connection() = default;

  // Queues a message for delivery. Fails once the peer is gone.
  virtual Status Send(const Message& message) = 0;

  // Starts asynchronous receipt. Must be called exactly once. The handler
  // runs on the connection's dispatcher thread.
  virtual void Start(MessageHandler handler) = 0;

  // Registers the receiver's FrameSink; call before Start. The default
  // ignores it, so every frame arrives in `payload` (decorators that do
  // not forward the sink take that copy path).
  virtual void SetSink(FrameSink sink) { (void)sink; }

  // Closes the channel; pending sends are dropped, the dispatcher drains.
  virtual void Close() = 0;

  // Diagnostics / virtual-time accounting.
  [[nodiscard]] virtual std::uint64_t bytes_sent() const = 0;
  [[nodiscard]] virtual std::uint64_t messages_sent() const = 0;
};

using ConnectionPtr = std::unique_ptr<Connection>;

// Server half: accepts incoming connections (the paper's "acceptor
// structure as a message and data listener").
class Listener {
 public:
  virtual ~Listener() = default;

  using AcceptHandler = std::function<void(ConnectionPtr)>;

  // Begins accepting asynchronously; each new connection is handed to the
  // handler (not yet started — the receiver decides when to Start it).
  virtual Status Start(AcceptHandler handler) = 0;
  virtual void Stop() = 0;
};

}  // namespace haocl::net
