// Every payload struct of the host <-> NMP protocol, as a typed test:
// golden bytes that pin the wire format, round trips, truncation, and
// seeded mutation fuzzing of the decoders and of the NodeServer dispatch.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "net/rpc.h"
#include "net/sim_transport.h"
#include "nmp/node_server.h"

namespace haocl::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

// One sample message and its payload in hex. The rows were captured from
// the hand-written Encode functions the Fields() schema replaced; a change
// to any row changes the wire format and bumps kProtocolVersion. Version 4
// added `after_seq` to the WriteBuffer, ReadBuffer and LaunchKernel rows.
// Version 5 dropped HelloReply's bandwidth and SIMD width, LaunchReply's
// bytes accessed and active weight, and BrokerReply's active weight, and
// gave BrokerReply the node's queue depth; the LoadReply row went with
// its message.
template <class T>
struct GoldenRow {
  T message;
  const char* hex;
};

template <class T>
std::vector<GoldenRow<T>> GoldenRows();

const Bytes kWriteBytes = {9, 8, 7};

template <>
std::vector<GoldenRow<HelloRequest>> GoldenRows() {
  HelloRequest m;
  m.host_name = "host-A";
  return {{m, "06000000686f73742d4105000000"}};
}

template <>
std::vector<GoldenRow<HelloReply>> GoldenRows() {
  HelloReply m;
  m.node_name = "gpu3";
  m.device_type = NodeType::kGpu;
  m.device_model = "Tesla P4";
  m.compute_gflops = 5500.5;
  m.mem_capacity_bytes = 8ull << 30;
  return {{m,
           "040000006770753301080000005465736c6120503400000000807cb54000000000"
           "0200000005000000"}};
}

template <>
std::vector<GoldenRow<CreateBufferRequest>> GoldenRows() {
  return {{{11, 4096}, "0b000000000000000010000000000000"}};
}

template <>
std::vector<GoldenRow<WriteBufferRequest>> GoldenRows() {
  WriteBufferRequest m;
  m.buffer_id = 12;
  m.offset = 128;
  m.after_seq = 7;
  m.data = kWriteBytes;
  return {{m,
           "0c00000000000000800000000000000007000000000000000300000000000000"
           "090807"}};
}

template <>
std::vector<GoldenRow<ReadBufferRequest>> GoldenRows() {
  return {{{13, 64, 256, 9},
           "0d000000000000004000000000000000000100000000000009000000000000"
           "00"}};
}

template <>
std::vector<GoldenRow<ReleaseBufferRequest>> GoldenRows() {
  return {{{14}, "0e00000000000000"}};
}

template <>
std::vector<GoldenRow<PullSliceRequest>> GoldenRows() {
  return {{{15, 32, 512, 1},
           "0f000000000000002000000000000000000200000000000001000000"}};
}

template <>
std::vector<GoldenRow<MemoryNoticeRequest>> GoldenRows() {
  MemoryNoticeRequest m;
  m.buffer_id = 17;
  m.reserve = true;
  m.regions = {{0, 4096}, {8192, 1024}};
  return {{m,
           "110000000000000001020000000000000000000000001000000000000000200000"
           "000000000004000000000000"}};
}

template <>
std::vector<GoldenRow<BuildProgramRequest>> GoldenRows() {
  BuildProgramRequest m;
  m.program_id = 21;
  m.source = "__kernel void k(__global int* a) { a[0] = 1; }";
  return {{m,
           "15000000000000002e0000005f5f6b65726e656c20766f6964206b285f5f676c6f"
           "62616c20696e742a206129207b20615b305d203d20313b207d"}};
}

template <>
std::vector<GoldenRow<BuildProgramReply>> GoldenRows() {
  BuildProgramReply m;
  m.status_code = -45;
  m.build_log = "log";
  m.kernel_names = {"k", "saxpy"};
  return {{m, "d3ffffff030000006c6f6702000000010000006b050000007361787079"}};
}

template <>
std::vector<GoldenRow<ReleaseProgramRequest>> GoldenRows() {
  return {{{22}, "1600000000000000"}};
}

LaunchKernelRequest SampleLaunch() {
  LaunchKernelRequest m;
  m.program_id = 3;
  m.kernel_name = "mm";
  WireKernelArg buffer;
  buffer.kind = WireKernelArg::Kind::kBuffer;
  buffer.buffer_id = 17;
  buffer.written_begin = 128;
  buffer.written_end = 640;
  WireKernelArg scalar;
  scalar.kind = WireKernelArg::Kind::kScalar;
  scalar.scalar_bytes = {0, 1, 0, 0};
  WireKernelArg local;
  local.kind = WireKernelArg::Kind::kLocalSize;
  local.local_size = 1024;
  m.args = {buffer, scalar, local};
  m.work_dim = 2;
  m.global[0] = 256;
  m.global[1] = 128;
  m.local[0] = 16;
  m.local[1] = 8;
  m.global_offset[0] = 64;
  m.local_specified = true;
  m.after_seq = 5;
  return m;
}

template <>
std::vector<GoldenRow<LaunchKernelRequest>> GoldenRows() {
  LaunchKernelRequest hinted = SampleLaunch();
  hinted.has_cost_hint = true;
  hinted.hint_flops = 2.5e9;
  hinted.hint_bytes = 1e6;
  hinted.hint_work_items = 256;
  hinted.hint_irregular = true;
  return {{SampleLaunch(),
           "0300000000000000020000006d6d03000000001100000000000000800000000000"
           "000080020000000000000104000000000000000001000002000400000000000002"
           "000000000100000000000080000000000000000100000000000000100000000000"
           "000008000000000000000100000000000000400000000000000000000000000000"
           "00000000000000000001050000000000000000"},
          {hinted,
           "0300000000000000020000006d6d03000000001100000000000000800000000000"
           "000080020000000000000104000000000000000001000002000400000000000002"
           "000000000100000000000080000000000000000100000000000000100000000000"
           "000008000000000000000100000000000000400000000000000000000000000000"
           "00000000000000000001050000000000000001000000205fa0e241000000008084"
           "2e41000100000000000001"}};
}

template <>
std::vector<GoldenRow<LaunchKernelReply>> GoldenRows() {
  LaunchKernelReply m;
  m.status_code = -5;
  m.error_message = "oops";
  m.modeled_seconds = 0.125;
  m.modeled_joules = 3.5;
  m.flops = 1000;
  m.node_backlog_seconds = 0.75;
  return {{m,
           "fbffffff040000006f6f7073000000000000c03f0000000000000c40e803000000"
           "000000000000000000e83f"}};
}

template <>
std::vector<GoldenRow<ConfigureSessionRequest>> GoldenRows() {
  ConfigureSessionRequest m;
  m.tenant_name = "tenant-a";
  m.weight = 2.0;
  m.mem_quota_bytes = 1 << 20;
  return {{m, "0800000074656e616e742d6100000000000000400000100000000000"}};
}

template <>
std::vector<GoldenRow<BrokerStatsReply>> GoldenRows() {
  BrokerStatsReply m;
  m.queue_depth = 3;
  m.mem_capacity_bytes = 1ull << 30;
  m.resident_bytes = 4096;
  m.backlog_seconds = 0.5;
  m.max_backlog_seconds = 10.0;
  BrokerTenantEntry t;
  t.session = 5;
  t.name = "t1";
  t.weight = 1.5;
  t.mem_quota_bytes = 1 << 20;
  t.resident_bytes = 2048;
  t.backlog_seconds = 0.25;
  t.served_seconds = 1.75;
  t.launches_admitted = 6;
  t.launches_rejected = 1;
  t.kernels_completed = 5;
  m.tenants = {t};
  m.kernel_rates = {{"mm", 2e-10, 12}};
  return {{m,
           "0300000000000040000000000010000000000000000000000000e03f0000000000"
           "002440010000000500000000000000020000007431000000000000f83f00001000"
           "000000000008000000000000000000000000d03f000000000000fc3f0600000000"
           "0000000100000000000000050000000000000001000000020000006d6dbbbdd7d9"
           "df7ceb3d0c00000000000000"}};
}

template <>
std::vector<GoldenRow<StatusReply>> GoldenRows() {
  return {{{-38, "no buffer 9"}, "daffffff0b0000006e6f206275666665722039"}};
}

std::string Hex(const Bytes& bytes) {
  std::string hex;
  for (std::uint8_t b : bytes) {
    char digits[3];
    std::snprintf(digits, sizeof(digits), "%02x", b);
    hex += digits;
  }
  return hex;
}

Bytes FromHex(std::string_view hex) {
  Bytes bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

// What the receiver sees: the encoded fields, then any tail bytes.
template <class T>
Bytes Payload(const T& message) {
  Bytes bytes = Encode(message);
  if constexpr (kViewsPayload<T>) {
    bytes.insert(bytes.end(), message.data.begin(), message.data.end());
  }
  return bytes;
}

template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;

// A third archive beside WireWriter and WireReader: it encodes like the
// writer and records where each length or count prefix lands, so mutants
// can set exactly those to all-ones.
class PrefixFinder {
 public:
  struct Prefix {
    std::size_t offset;
    std::size_t width;
  };

  template <class... Fields>
  void operator()(const Fields&... fields) {
    (Visit(fields), ...);
  }

  std::vector<Prefix> prefixes;

 private:
  template <class F>
  void Visit(const F& field) {
    const std::size_t at = writer_.size();
    if constexpr (std::is_same_v<F, std::string>) {
      prefixes.push_back({at, 4});
      writer_(field);
    } else if constexpr (std::is_same_v<F, Bytes> ||
                         std::is_same_v<F, std::span<const std::uint8_t>>) {
      prefixes.push_back({at, 8});
      writer_(field);
    } else if constexpr (kIsVector<F>) {
      prefixes.push_back({at, 4});
      writer_.WriteU32(static_cast<std::uint32_t>(field.size()));
      for (const auto& item : field) Visit(item);
    } else if constexpr (std::is_class_v<F>) {
      const_cast<F&>(field).Fields(*this);
    } else {
      writer_(field);
    }
  }

  WireWriter writer_;
};

constexpr std::uint64_t kFuzzSeed = 0x4841'4F43'2020'0001ull;
constexpr int kMutantsPerRow = 64;

// The fixed mutant set of every golden row of T: bit flips, byte
// overwrites, and length/count prefixes set to all-ones, in rotation.
template <class T>
std::vector<Bytes> Mutants() {
  std::mt19937_64 rng(kFuzzSeed);
  std::vector<Bytes> mutants;
  for (const GoldenRow<T>& row : GoldenRows<T>()) {
    const Bytes golden = FromHex(row.hex);
    PrefixFinder finder;
    finder(row.message);
    for (int i = 0; i < kMutantsPerRow; ++i) {
      Bytes m = golden;
      const std::size_t pos = rng() % m.size();
      if (i % 3 == 2 && !finder.prefixes.empty()) {
        const auto& prefix = finder.prefixes[rng() % finder.prefixes.size()];
        for (std::size_t b = 0; b < prefix.width; ++b) {
          m[prefix.offset + b] = 0xFF;
        }
      } else if (i % 3 == 1) {
        m[pos] = static_cast<std::uint8_t>(rng());
      } else {
        m[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
      }
      mutants.push_back(std::move(m));
    }
  }
  return mutants;
}

template <class T>
class ProtocolFuzzTest : public ::testing::Test {};

using PayloadTypes = ::testing::Types<
    HelloRequest, HelloReply, CreateBufferRequest, WriteBufferRequest,
    ReadBufferRequest, ReleaseBufferRequest, PullSliceRequest,
    MemoryNoticeRequest,
    BuildProgramRequest, BuildProgramReply, ReleaseProgramRequest,
    LaunchKernelRequest, LaunchKernelReply,
    ConfigureSessionRequest, BrokerStatsReply, StatusReply>;
// Names each case after its message type, e.g. ProtocolFuzzTest/LaunchKernel.
struct MessageName {
  template <class T>
  static std::string GetName(int) {
    return MsgTypeName(T::kType);
  }
};
TYPED_TEST_SUITE(ProtocolFuzzTest, PayloadTypes, MessageName);

TYPED_TEST(ProtocolFuzzTest, GoldenBytes) {
  for (const auto& row : GoldenRows<TypeParam>()) {
    EXPECT_EQ(Hex(Payload(row.message)), row.hex);
  }
}

TYPED_TEST(ProtocolFuzzTest, RoundTrip) {
  for (const auto& row : GoldenRows<TypeParam>()) {
    const Bytes golden = FromHex(row.hex);
    auto decoded = Decode<TypeParam>(golden);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(Hex(Payload(*decoded)), row.hex);
  }
}

TYPED_TEST(ProtocolFuzzTest, TruncationAndTrailingBytesRejected) {
  for (const auto& row : GoldenRows<TypeParam>()) {
    const Bytes golden = FromHex(row.hex);
    for (std::size_t n = 0; n < golden.size(); ++n) {
      const Bytes prefix(golden.begin(), golden.begin() + n);
      EXPECT_EQ(Decode<TypeParam>(prefix).code(), ErrorCode::kProtocolError)
          << "prefix of " << n << " bytes";
    }
    Bytes trailing = golden;
    trailing.push_back(0);
    EXPECT_EQ(Decode<TypeParam>(trailing).code(), ErrorCode::kProtocolError);
  }
}

TYPED_TEST(ProtocolFuzzTest, MutantsDecodeWithoutCrashing) {
  for (const Bytes& mutant : Mutants<TypeParam>()) {
    EXPECT_NO_THROW({
      auto decoded = Decode<TypeParam>(mutant);
      if (decoded.ok()) {
        (void)Encode(*decoded);
      } else {
        EXPECT_EQ(decoded.code(), ErrorCode::kProtocolError);
      }
    }) << Hex(mutant);
  }
}

TYPED_TEST(ProtocolFuzzTest, MutantsDispatchedToNodeAllGetReplies) {
  auto server = nmp::NodeServer::Create("gpu0", NodeType::kGpu);
  ASSERT_TRUE(server.ok());
  auto [host_end, node_end] = CreateSimChannel();
  (*server)->Serve(std::move(node_end));
  RpcClient client(std::move(host_end));
  constexpr std::uint64_t kSession = 1;
  for (const Bytes& mutant : Mutants<TypeParam>()) {
    // The node serves a well-formed CreateBuffer of any size by allocating
    // it; a flipped high size bit would only measure this machine's RAM.
    if constexpr (std::is_same_v<TypeParam, CreateBufferRequest>) {
      auto decoded = Decode<CreateBufferRequest>(mutant);
      if (decoded.ok() && decoded->size > (1u << 20)) continue;
    }
    auto reply = client.Call(TypeParam::kType, kSession, mutant);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString() << " for "
                            << Hex(mutant);
  }
  HelloRequest hello;
  hello.host_name = "after-fuzz";
  auto reply = client.Call(MsgType::kHelloRequest, kSession, Encode(hello));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MsgType::kHelloReply);
  client.Close();
  (*server)->Shutdown();
}

}  // namespace
}  // namespace haocl::net
