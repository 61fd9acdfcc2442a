#include "net/message.h"

#include <cstring>

#include "common/wire.h"

namespace haocl::net {

Message::HeaderBytes Message::EncodeHeader() const {
  HeaderBytes header{};
  std::size_t pos = 0;
  auto put = [&](auto value) {
    std::memcpy(header.data() + pos, &value, sizeof(value));
    pos += sizeof(value);
  };
  put(kMagic);
  put(static_cast<std::uint16_t>(type));
  put(std::uint16_t{0});  // flags, reserved
  put(seq);
  put(session);
  put(static_cast<std::uint64_t>(payload.size() + tail.size()));
  return header;
}

std::vector<std::uint8_t> Message::Serialize() const {
  const HeaderBytes header = EncodeHeader();
  std::vector<std::uint8_t> out;
  out.reserve(WireSize());
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), payload.begin(), payload.end());
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

Expected<Message::Header> Message::ParseHeader(const void* data,
                                               std::size_t size) {
  if (size < kHeaderSize) {
    return Status(ErrorCode::kProtocolError, "short message header");
  }
  WireReader r(data, size);
  auto magic = r.ReadU32();
  if (!magic.ok() || *magic != kMagic) {
    return Status(ErrorCode::kProtocolError, "bad frame magic");
  }
  Header header{};
  auto type = r.ReadU16();
  auto flags = r.ReadU16();
  auto seq = r.ReadU64();
  auto session = r.ReadU64();
  auto payload_size = r.ReadU64();
  if (!type.ok() || !flags.ok() || !seq.ok() || !session.ok() ||
      !payload_size.ok()) {
    return Status(ErrorCode::kProtocolError, "truncated header");
  }
  if (*payload_size > kMaxPayload) {
    return Status(ErrorCode::kProtocolError,
                  "frame payload exceeds limit: " +
                      std::to_string(*payload_size));
  }
  header.type = static_cast<MsgType>(*type);
  header.seq = *seq;
  header.session = *session;
  header.payload_size = *payload_size;
  return header;
}

Expected<Message> Message::Deserialize(const void* data, std::size_t size) {
  auto header = ParseHeader(data, size);
  if (!header.ok()) return header.status();
  if (size != kHeaderSize + header->payload_size) {
    return Status(ErrorCode::kProtocolError,
                  "frame size mismatch: header claims " +
                      std::to_string(header->payload_size) + " payload, got " +
                      std::to_string(size - kHeaderSize));
  }
  Message msg;
  msg.type = header->type;
  msg.seq = header->seq;
  msg.session = header->session;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  msg.payload.assign(bytes + kHeaderSize, bytes + size);
  return msg;
}

const char* MsgTypeName(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHelloRequest: return "HelloRequest";
    case MsgType::kHelloReply: return "HelloReply";
    case MsgType::kCreateBuffer: return "CreateBuffer";
    case MsgType::kWriteBuffer: return "WriteBuffer";
    case MsgType::kReadBuffer: return "ReadBuffer";
    case MsgType::kReleaseBuffer: return "ReleaseBuffer";
    case MsgType::kPullSlice: return "PullSlice";
    case MsgType::kMemoryNotice: return "MemoryNotice";
    case MsgType::kBuildProgram: return "BuildProgram";
    case MsgType::kReleaseProgram: return "ReleaseProgram";
    case MsgType::kLaunchKernel: return "LaunchKernel";
    case MsgType::kQueryBroker: return "QueryBroker";
    case MsgType::kHeartbeat: return "Heartbeat";
    case MsgType::kCloseSession: return "CloseSession";
    case MsgType::kShutdown: return "Shutdown";
    case MsgType::kConfigureSession: return "ConfigureSession";
    case MsgType::kStatusReply: return "StatusReply";
    case MsgType::kReadReply: return "ReadReply";
    case MsgType::kBuildReply: return "BuildReply";
    case MsgType::kLaunchReply: return "LaunchReply";
    case MsgType::kBrokerReply: return "BrokerReply";
  }
  return "?";
}

}  // namespace haocl::net
