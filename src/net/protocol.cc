#include "net/protocol.h"

#include <algorithm>

namespace haocl::net {

Status CheckReply(const Expected<Message>& reply, MsgType expected_type) {
  if (!reply.ok()) return reply.status();
  if (reply->type == MsgType::kStatusReply) {
    auto status = Decode<StatusReply>(reply->payload);
    if (!status.ok()) return status.status();
    if (expected_type == MsgType::kStatusReply) return status->ToStatus();
    // Status where data was expected: it must be an error report.
    Status s = status->ToStatus();
    if (s.ok()) {
      return Status(ErrorCode::kProtocolError,
                    "node sent OK status where data was expected");
    }
    return s;
  }
  if (reply->type != expected_type) {
    return Status(ErrorCode::kProtocolError,
                  std::string("unexpected reply type ") +
                      MsgTypeName(reply->type));
  }
  return Status::Ok();
}

Status ReceiveReadReply(const Expected<Message>& reply,
                        std::span<std::uint8_t> into) {
  HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kReadReply));
  if (reply->tail.size() == into.size()) return Status::Ok();
  if (reply->payload.size() != into.size()) {
    return Status(ErrorCode::kProtocolError,
                  "short read: " + std::to_string(reply->payload.size()) +
                      " of " + std::to_string(into.size()) + " bytes");
  }
  std::copy(reply->payload.begin(), reply->payload.end(), into.begin());
  return Status::Ok();
}

}  // namespace haocl::net
