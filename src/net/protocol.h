// Typed request/reply payloads of the host <-> NMP protocol. One struct per
// message type keeps the NMP's dispatch readable and gives the fuzz/failure
// tests a precise surface. Each struct names its MsgType and lists its
// fields once, in wire order, in Fields(ar); the generic Encode()/Decode()
// below walk that list (docs/wire_protocol.md).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/wire.h"
#include "net/message.h"
#include "oclc/vm.h"

namespace haocl::net {

// Sent by both ends in the handshake; each refuses a peer speaking another
// version. The bytes of every message are pinned by golden rows
// (tests/net/protocol_fuzz_test.cc): changing one bumps this.
inline constexpr std::uint32_t kProtocolVersion = 5;

// True for a message whose decoded form views the payload bytes (a span
// field), so it must not be decoded from a temporary.
template <class T>
inline constexpr bool kViewsPayload = false;

// ---------------------------------------------------------------- Handshake

struct HelloRequest {
  static constexpr MsgType kType = MsgType::kHelloRequest;
  std::string host_name;
  std::uint32_t protocol_version = kProtocolVersion;

  template <class Ar>
  void Fields(Ar& ar) { ar(host_name, protocol_version); }
};

struct HelloReply {
  static constexpr MsgType kType = MsgType::kHelloReply;
  std::string node_name;
  NodeType device_type = NodeType::kCpu;
  std::string device_model;
  double compute_gflops = 0.0;
  // Device memory capacity; the host budget for resident regions on this
  // node (0 = unbounded).
  std::uint64_t mem_capacity_bytes = 0;
  std::uint32_t protocol_version = kProtocolVersion;

  template <class Ar>
  void Fields(Ar& ar) {
    ar(node_name, device_type, device_model, compute_gflops,
       mem_capacity_bytes, protocol_version);
  }
};

// ------------------------------------------------------------------ Buffers

struct CreateBufferRequest {
  static constexpr MsgType kType = MsgType::kCreateBuffer;
  std::uint64_t buffer_id = 0;
  std::uint64_t size = 0;

  template <class Ar>
  void Fields(Ar& ar) { ar(buffer_id, size); }
};

// Bulk payload: `data` is a non-owning view. Encode() writes only the
// fixed fields and the u64 length prefix; the sender passes `data` as the
// message's borrowed tail (Message::tail), so the bytes reach the wire
// without a copy. Decode() returns `data` as a view into `bytes`, valid
// while `bytes` lives; the length prefix must cover exactly the bytes that
// follow it.
//
// `after_seq` (here and in ReadBufferRequest and LaunchKernelRequest): the
// seq of the earliest request on this connection the host issued this one
// behind, or 0. The node answers kDependencyFailed, without running it,
// when it has answered a request of that seq or later with a failure or a
// skip (docs/wire_protocol.md).
struct WriteBufferRequest {
  static constexpr MsgType kType = MsgType::kWriteBuffer;
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t after_seq = 0;
  std::span<const std::uint8_t> data;

  template <class Ar>
  void Fields(Ar& ar) { ar(buffer_id, offset, after_seq, data); }
};
template <>
inline constexpr bool kViewsPayload<WriteBufferRequest> = true;

struct ReadBufferRequest {
  static constexpr MsgType kType = MsgType::kReadBuffer;
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t after_seq = 0;

  template <class Ar>
  void Fields(Ar& ar) { ar(buffer_id, offset, size, after_seq); }
};

struct ReleaseBufferRequest {
  static constexpr MsgType kType = MsgType::kReleaseBuffer;
  std::uint64_t buffer_id = 0;

  template <class Ar>
  void Fields(Ar& ar) { ar(buffer_id); }
};

// ------------------------------------------------- Node-to-node exchange

// Host -> node: fetch [offset, offset+size) of `buffer_id` from peer node
// `source_node` into the local replica. The payload never touches the host;
// a node without a link to the peer replies kPeerUnreachable and the host
// falls back to relaying the bytes itself.
struct PullSliceRequest {
  static constexpr MsgType kType = MsgType::kPullSlice;
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t source_node = 0;  // Host-assigned peer index.

  template <class Ar>
  void Fields(Ar& ar) { ar(buffer_id, offset, size, source_node); }
};

// ------------------------------------------------------------ Memory notices

// One byte range of a memory notice.
struct MemoryRegion {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;

  template <class Ar>
  void Fields(Ar& ar) { ar(offset, size); }
};

// Host -> node: align the node's memory-pool ledger with the host's
// per-node accounting. `reserve` charges the regions (a residency change
// with no accompanying payload, e.g. a discard migration); otherwise the
// regions are evicted — the node releases the accounted bytes (the host
// already demoted ownership in the region directory, spilling any sole
// copy to its shadow first).
struct MemoryNoticeRequest {
  static constexpr MsgType kType = MsgType::kMemoryNotice;
  std::uint64_t buffer_id = 0;
  bool reserve = false;
  std::vector<MemoryRegion> regions;

  template <class Ar>
  void Fields(Ar& ar) { ar(buffer_id, reserve, regions); }
};

// ----------------------------------------------------------------- Programs

struct BuildProgramRequest {
  static constexpr MsgType kType = MsgType::kBuildProgram;
  std::uint64_t program_id = 0;
  std::string source;

  template <class Ar>
  void Fields(Ar& ar) { ar(program_id, source); }
};

struct BuildProgramReply {
  static constexpr MsgType kType = MsgType::kBuildReply;
  std::int32_t status_code = 0;  // ErrorCode as int.
  std::string build_log;
  std::vector<std::string> kernel_names;

  template <class Ar>
  void Fields(Ar& ar) { ar(status_code, build_log, kernel_names); }
};

struct ReleaseProgramRequest {
  static constexpr MsgType kType = MsgType::kReleaseProgram;
  std::uint64_t program_id = 0;

  template <class Ar>
  void Fields(Ar& ar) { ar(program_id); }
};

// ------------------------------------------------------------------ Kernels

// One kernel argument as shipped over the wire.
struct WireKernelArg {
  enum class Kind : std::uint8_t { kBuffer = 0, kScalar = 1, kLocalSize = 2 };
  Kind kind = Kind::kScalar;
  std::uint64_t buffer_id = 0;                // kBuffer
  std::vector<std::uint8_t> scalar_bytes;     // kScalar (raw, as from
                                              // clSetKernelArg)
  std::uint64_t local_size = 0;               // kLocalSize
  // Byte range of the buffer this launch WRITES (begin == end: read-only).
  // Kernel outputs materialize device memory without any transfer the node
  // could observe, so the node's memory pool charges this range at launch —
  // the same range the host charges in its per-node ledger.
  std::uint64_t written_begin = 0;            // kBuffer
  std::uint64_t written_end = 0;              // kBuffer

  template <class Ar>
  void Fields(Ar& ar) {
    ar(kind);
    switch (kind) {
      case Kind::kBuffer: ar(buffer_id, written_begin, written_end); break;
      case Kind::kScalar: ar(scalar_bytes); break;
      case Kind::kLocalSize: ar(local_size); break;
    }
  }
};

struct LaunchKernelRequest {
  static constexpr MsgType kType = MsgType::kLaunchKernel;
  std::uint64_t program_id = 0;
  std::string kernel_name;
  std::vector<WireKernelArg> args;
  std::uint32_t work_dim = 1;
  std::uint64_t global[3] = {1, 1, 1};
  std::uint64_t local[3] = {1, 1, 1};
  // get_global_id(d) on the node returns global_offset[d] + linear id —
  // how one shard of a partitioned launch runs its slice of the NDRange.
  std::uint64_t global_offset[3] = {0, 0, 0};
  bool local_specified = false;
  // Analytic cost hint for the node's timing model, already scaled to
  // this shard's share of the range (and to any host-side paper-scale
  // amplification). The driver's static instruction-mix estimator cannot
  // see data-dependent trip counts; when the host knows better, the node
  // models THIS work — so the reply's modeled_seconds/flops describe the
  // same work the host's scheduler accounts, and the observed rate fed
  // back per shard is consistent with the cost model's predictions.
  bool has_cost_hint = false;
  double hint_flops = 0.0;
  double hint_bytes = 0.0;
  std::uint64_t hint_work_items = 0;
  bool hint_irregular = false;
  std::uint64_t after_seq = 0;  // See WriteBufferRequest.

  template <class Ar>
  void Fields(Ar& ar) {
    ar(program_id, kernel_name, args, work_dim, global, local, global_offset,
       local_specified, after_seq, has_cost_hint);
    if (has_cost_hint) {
      ar(hint_flops, hint_bytes, hint_work_items, hint_irregular);
    }
  }
};

struct LaunchKernelReply {
  static constexpr MsgType kType = MsgType::kLaunchReply;
  std::int32_t status_code = 0;
  std::string error_message;
  double modeled_seconds = 0.0;   // Device-model execution time.
  double modeled_joules = 0.0;    // Energy for the scheduler's power policy.
  std::uint64_t flops = 0;        // Profiled work the rate table feeds on.
  // Broker snapshot piggybacked on every launch reply so the host's
  // fair-share view of the node (ALL tenants' backlog, not just its own)
  // stays fresh without extra monitoring round-trips.
  double node_backlog_seconds = 0.0;  // Admitted-but-unfinished, all tenants.

  template <class Ar>
  void Fields(Ar& ar) {
    ar(status_code, error_message, modeled_seconds, modeled_joules, flops,
       node_backlog_seconds);
  }
};

// --------------------------------------------------------------- Monitoring

// One shared observed kernel rate exported by the node broker: the EWMA
// seconds-per-flop folded from EVERY session's completed launches on the
// node, so a freshly connected session can seed its own rate table from
// its neighbours' experience.
struct WireKernelRate {
  std::string kernel;
  double seconds_per_flop = 0.0;
  std::uint64_t samples = 0;

  template <class Ar>
  void Fields(Ar& ar) { ar(kernel, seconds_per_flop, samples); }
};

// ------------------------------------------------------------ Multi-tenancy

// Host -> node at session connect: registers the session as a tenant of
// the node broker with its fair-share weight and memory quota. A session
// that never configures runs with weight 1 and no quota.
struct ConfigureSessionRequest {
  static constexpr MsgType kType = MsgType::kConfigureSession;
  std::string tenant_name;
  double weight = 1.0;
  std::uint64_t mem_quota_bytes = 0;  // 0 = no per-tenant cap.

  template <class Ar>
  void Fields(Ar& ar) { ar(tenant_name, weight, mem_quota_bytes); }
};

// One tenant's serving stats in a BrokerStatsReply.
struct BrokerTenantEntry {
  std::uint64_t session = 0;
  std::string name;
  double weight = 1.0;
  std::uint64_t mem_quota_bytes = 0;
  std::uint64_t resident_bytes = 0;
  double backlog_seconds = 0.0;
  double served_seconds = 0.0;
  std::uint64_t launches_admitted = 0;
  std::uint64_t launches_rejected = 0;
  std::uint64_t kernels_completed = 0;

  template <class Ar>
  void Fields(Ar& ar) {
    ar(session, name, weight, mem_quota_bytes, resident_bytes,
       backlog_seconds, served_seconds, launches_admitted, launches_rejected,
       kernels_completed);
  }
};

// Reply to kQueryBroker, the node's one report: its queue depth, shared
// ledger, admission state, per-tenant serving stats, and the shared
// kernel-rate table.
struct BrokerStatsReply {
  static constexpr MsgType kType = MsgType::kBrokerReply;
  std::uint32_t queue_depth = 0;       // Requests waiting on the node.
  std::uint64_t mem_capacity_bytes = 0;
  std::uint64_t resident_bytes = 0;    // All sessions.
  double backlog_seconds = 0.0;        // All tenants.
  double max_backlog_seconds = 0.0;    // Admission limit (0 = off).
  std::vector<BrokerTenantEntry> tenants;
  std::vector<WireKernelRate> kernel_rates;

  template <class Ar>
  void Fields(Ar& ar) {
    ar(queue_depth, mem_capacity_bytes, resident_bytes, backlog_seconds,
       max_backlog_seconds, tenants, kernel_rates);
  }
};

// ------------------------------------------------------------ Status replies

// Generic status reply used by buffer/session commands.
struct StatusReply {
  static constexpr MsgType kType = MsgType::kStatusReply;
  std::int32_t status_code = 0;
  std::string message;

  static StatusReply FromStatus(const Status& status) {
    return StatusReply{static_cast<std::int32_t>(status.code()),
                       status.message()};
  }
  [[nodiscard]] Status ToStatus() const {
    return Status(static_cast<ErrorCode>(status_code), message);
  }

  template <class Ar>
  void Fields(Ar& ar) { ar(status_code, message); }
};

// ------------------------------------------------------------------- Codec

// The message's fields in wire order. A span field contributes only its
// length prefix: the sender passes the bytes as the Message::tail.
template <class T>
[[nodiscard]] std::vector<std::uint8_t> Encode(const T& message) {
  WireWriter writer(64);  // Holds any fixed-size message without regrowing.
  writer(message);
  return std::move(writer).Take();
}

// Decodes a whole payload. A truncated field, an enum above its max, an
// element count larger than the bytes remaining and trailing bytes are all
// kProtocolError. A span field is a view into `bytes`.
template <class T>
Expected<T> Decode(const std::vector<std::uint8_t>& bytes) {
  WireReader reader(bytes);
  T message;
  reader(message);
  Status status = reader.status();
  if (status.ok() && !reader.AtEnd()) {
    status = Status(ErrorCode::kProtocolError,
                    std::to_string(reader.remaining()) + " trailing bytes");
  }
  if (!status.ok()) {
    return Status(ErrorCode::kProtocolError,
                  std::string("malformed ") + MsgTypeName(T::kType) +
                      " payload: " + status.message());
  }
  return message;
}

// A view into a temporary would dangle.
template <class T>
  requires kViewsPayload<T>
Expected<T> Decode(std::vector<std::uint8_t>&& bytes) = delete;

// Checks an RPC reply: transport errors pass through, a StatusReply yields
// its status (an OK one where `expected_type` data was due is a protocol
// error), and any type other than `expected_type` is a protocol error.
Status CheckReply(const Expected<Message>& reply, MsgType expected_type);

// Checks `reply` as the kReadReply to a call whose reply_into was `into`
// (see RpcClient::CallAsync) and leaves the read bytes there: a reply that
// landed in place is done, one that arrived in its payload is copied in,
// and one of any other size is a short read (kProtocolError).
Status ReceiveReadReply(const Expected<Message>& reply,
                        std::span<std::uint8_t> into);

}  // namespace haocl::net

// The enums the messages above carry.
namespace haocl {
template <>
inline constexpr std::optional<NodeType> kWireEnumMax<NodeType> =
    NodeType::kFpga;
template <>
inline constexpr std::optional<net::WireKernelArg::Kind>
    kWireEnumMax<net::WireKernelArg::Kind> =
        net::WireKernelArg::Kind::kLocalSize;
}  // namespace haocl
