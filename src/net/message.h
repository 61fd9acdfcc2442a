// Message framing for the communication backbone.
//
// Every unit crossing a node boundary is a Message: a fixed header (magic,
// type, sequence number, session id, payload length) followed by a payload
// encoded with common/wire.h. The same frame format is used by the
// in-process transport and the TCP transport, so the NMP and the host
// runtime are transport-agnostic.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace haocl::net {

enum class MsgType : std::uint16_t {
  // Handshake.
  kHelloRequest = 1,
  kHelloReply = 2,
  // Buffer management on a device node.
  kCreateBuffer = 10,
  kWriteBuffer = 11,
  kReadBuffer = 12,
  kReleaseBuffer = 13,
  // Node-to-node slice exchange (region directory): the host instructs a
  // node to pull a byte range from a peer. 14, 16, 23, 30, 40 and 105 are
  // retired numbers (protocol version 1's node-side copy and peer push,
  // version 2's chunk revocation, version 4's load query, session open and
  // load reply): never reuse them.
  kPullSlice = 15,
  // Tiered-memory reservation/eviction notice: keeps the node's memory
  // pool in lock-step with the host's per-node ledger for residency
  // changes no data transfer makes visible (evictions, discard
  // migrations).
  kMemoryNotice = 17,
  // Program / kernel management.
  kBuildProgram = 20,
  kReleaseProgram = 21,
  kLaunchKernel = 22,
  // Monitoring (scheduler's runtime information): the node's one report —
  // its queue depth, shared ledger, per-tenant serving stats and shared
  // kernel rates.
  kQueryBroker = 31,
  // Liveness probe: answered immediately on the node's receive path (never
  // queued behind data-plane work), so a timely reply means the node is
  // alive even when its command queue is deep. A failed probe marks the
  // node dead (kNodeLost).
  kHeartbeat = 32,
  // Session control.
  kCloseSession = 41,
  kShutdown = 42,
  // Tenant registration at session connect: fair-share weight and memory
  // quota the node broker serves this session under.
  kConfigureSession = 43,
  // Replies.
  kStatusReply = 100,  // status only
  kReadReply = 102,    // status + bytes
  kBuildReply = 103,   // status + build log + kernel names
  kLaunchReply = 104,  // status + modeled timing
  kBrokerReply = 106,  // queue depth + broker ledger, tenants and rates
};

struct Message {
  MsgType type = MsgType::kStatusReply;
  std::uint64_t seq = 0;      // Request/response matching.
  std::uint64_t session = 0;  // Multi-user isolation.
  std::vector<std::uint8_t> payload;
  // Borrowed bulk bytes that go on the wire right after `payload`, in the
  // same frame: the receiver gets one payload holding both. Not owned —
  // the bytes must stay valid and unchanged until Send returns. Lets a
  // sender ship a large buffer without first copying it into `payload`.
  // On receipt `tail` is empty unless a FrameSink landed the bulk bytes
  // in place (see net/transport.h); it then views them.
  std::span<const std::uint8_t> tail;
  // Optional owner keeping `tail`'s bytes alive as long as this message:
  // a reply sent from shared storage pins it until Send returns.
  std::shared_ptr<const void> tail_owner;

  [[nodiscard]] std::size_t WireSize() const noexcept {
    return kHeaderSize + payload.size() + tail.size();
  }

  static constexpr std::uint32_t kMagic = 0x48414F43;  // "HAOC"
  static constexpr std::size_t kHeaderSize = 4 + 2 + 2 + 8 + 8 + 8;
  // Frames larger than this are rejected as protocol errors (a corrupted
  // length prefix must not make a node try to allocate petabytes).
  static constexpr std::uint64_t kMaxPayload = 1ULL << 32;

  // The fixed header of this message's frame; its length field counts
  // payload and tail.
  using HeaderBytes = std::array<std::uint8_t, kHeaderSize>;
  [[nodiscard]] HeaderBytes EncodeHeader() const;

  // Serializes header+payload+tail into one flat byte vector: exactly the
  // bytes a stream transport puts on the wire.
  [[nodiscard]] std::vector<std::uint8_t> Serialize() const;

  // Parses a complete frame. `size` must be exactly one frame.
  static Expected<Message> Deserialize(const void* data, std::size_t size);

  // Parses just the fixed header, returning the payload length so stream
  // transports know how many more bytes to read.
  struct Header {
    MsgType type;
    std::uint64_t seq;
    std::uint64_t session;
    std::uint64_t payload_size;
  };
  static Expected<Header> ParseHeader(const void* data, std::size_t size);
};

const char* MsgTypeName(MsgType type) noexcept;

}  // namespace haocl::net
