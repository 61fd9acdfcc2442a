// Outside-in span recorder for the traced benchmark run.
//
// Nothing here lives inside the program: every span comes from a
// decorator around a public extension point the program already takes —
//   - TracingConnection wraps a net::Connection (host ends, node ends via
//     the Listener accept handler, and node-to-node peer links) and
//     stamps each frame's send and receipt, pairing request and reply by
//     (MsgType, seq);
//   - TracingDriver wraps the driver::DeviceDriver a NodeServer is built
//     with, timing Build/Launch and folding in each LaunchProfile;
//   - the benchmark times each OpenCL shim call itself (SpanKind::kApi).
// Spans stay in memory and are written out once the run ends. Decorators
// are installed only in traced runs; untraced runs never touch this file.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/device_driver.h"
#include "net/transport.h"
#include "stats.h"

namespace perfbench {

// steady_clock in nanoseconds: the one clock every span and iteration
// window uses (daemons run in this process, so host and node share it).
std::int64_t NowNs();

enum class SpanKind : std::uint8_t {
  kApi,      // Wall inside one OpenCL shim call.
  kRpc,      // Client end of a link: request send -> reply receipt.
  kService,  // Server end of a link: request receipt -> reply send.
  kSend,     // Wall inside Connection::Send (serialize + socket write).
  kLaunch,   // DeviceDriver::Launch.
  kBuild,    // DeviceDriver::Build.
};

struct Span {
  SpanKind kind = SpanKind::kApi;
  bool peer_link = false;  // kRpc/kService/kSend on a node-to-node link.
  bool blocking = false;   // kApi: the call waited for completion.
  std::uint16_t msg_type = 0;  // net::MsgType of the request (or frame).
  std::uint64_t seq = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t thread = 0;  // Hash of the thread that opened the span.
  std::uint64_t bytes = 0;   // kSend: frame bytes on the wire.
  const char* name = "";     // kApi: the shim entry point.
};

// Execution counters summed over every LaunchProfile the driver returned.
struct VmCounters {
  std::uint64_t native_launches = 0;
  std::uint64_t instructions = 0;
  std::uint64_t batch_steps = 0;
  std::uint64_t fused_steps = 0;
  std::uint64_t simd_steps = 0;
  std::uint64_t bailouts = 0;
};

class TraceRecorder {
 public:
  void Record(const Span& span);
  void AddLaunchProfile(const haocl::driver::LaunchProfile& profile);

  [[nodiscard]] std::vector<Span> Spans() const;
  [[nodiscard]] VmCounters vm() const;
  void Clear();

  // Chrome trace-event JSON (opens in any browser's trace viewer).
  [[nodiscard]] bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  VmCounters vm_;
};

// Connection decorator. The client end opens a kRpc span when it sends a
// request and closes it on the reply; the server end opens a kService span
// on receipt and closes it when the reply is handed to Send.
class TracingConnection final : public haocl::net::Connection {
 public:
  enum class End : std::uint8_t { kClient, kServer };
  TracingConnection(haocl::net::ConnectionPtr inner, TraceRecorder* trace,
                    End end, bool peer_link);
  // Joins the inner reader before the members its handler touches go.
  ~TracingConnection() override;

  TracingConnection(const TracingConnection&) = delete;
  TracingConnection& operator=(const TracingConnection&) = delete;

  haocl::Status Send(const haocl::net::Message& message) override;
  void Start(haocl::net::MessageHandler handler) override;
  void Close() override { inner_->Close(); }
  [[nodiscard]] std::uint64_t bytes_sent() const override {
    return inner_->bytes_sent();
  }
  [[nodiscard]] std::uint64_t messages_sent() const override {
    return inner_->messages_sent();
  }

 private:
  struct Open {
    std::uint16_t msg_type = 0;
    std::int64_t begin_ns = 0;
    std::uint64_t thread = 0;
  };

  haocl::net::ConnectionPtr inner_;
  TraceRecorder* trace_;
  End end_;
  bool peer_link_;
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, Open> open_;  // By seq.
};

// Wraps `connection` when `trace` is non-null; passes it through otherwise.
haocl::net::ConnectionPtr MaybeTrace(haocl::net::ConnectionPtr connection,
                                     TraceRecorder* trace,
                                     TracingConnection::End end,
                                     bool peer_link);

// DeviceDriver decorator: kBuild/kLaunch spans plus VM counters.
std::unique_ptr<haocl::driver::DeviceDriver> TraceDriver(
    std::unique_ptr<haocl::driver::DeviceDriver> inner, TraceRecorder* trace);

// One iteration's wall split by layer. Each instant of the window is
// charged to the deepest layer active at it — driver (Build/Launch), then
// node (request service, minus time the serving thread waits on its own
// peer RPCs), then net (any RPC outstanding), then host (nothing remote
// outstanding: shim, command graph, scheduler, host-side copies). The four
// parts therefore tile the window exactly.
struct LayerSplit {
  std::int64_t host_ns = 0;
  std::int64_t net_ns = 0;
  std::int64_t node_ns = 0;
  std::int64_t driver_ns = 0;
  [[nodiscard]] std::int64_t total_ns() const {
    return host_ns + net_ns + node_ns + driver_ns;
  }
};
LayerSplit SplitIteration(Interval window, const std::vector<const Span*>& spans);

}  // namespace perfbench
