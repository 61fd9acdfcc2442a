#include "net/protocol.h"

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

}  // namespace haocl::net
