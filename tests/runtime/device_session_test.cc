// DeviceSession: the node-local execution engine, driven without any
// networking (the NMP wraps exactly this surface).
#include "runtime/device_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>

#include "driver/icd.h"

namespace haocl::runtime {
namespace {

using Bytes = std::vector<std::uint8_t>;

class DeviceSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto driver = driver::IcdRegistry::Instance().Create(NodeType::kGpu);
    ASSERT_TRUE(driver.ok());
    driver_ = *std::move(driver);
    session_ = std::make_unique<DeviceSession>(driver_.get());
  }

  std::unique_ptr<driver::DeviceDriver> driver_;
  std::unique_ptr<DeviceSession> session_;
};

TEST_F(DeviceSessionTest, BufferLifecycle) {
  ASSERT_TRUE(session_->CreateBuffer(1, 64).ok());
  EXPECT_EQ(session_->buffer_count(), 1u);

  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(session_->WriteBuffer(1, 0, data).ok());
  auto read = session_->ReadBuffer(1, 0, 64);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Bytes(read->bytes.begin(), read->bytes.end()), data);

  // Partial read/write with offsets.
  ASSERT_TRUE(session_->WriteBuffer(1, 60, Bytes{9, 9, 9, 9}).ok());
  auto tail = session_->ReadBuffer(1, 60, 4);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(Bytes(tail->bytes.begin(), tail->bytes.end()),
            (std::vector<std::uint8_t>{9, 9, 9, 9}));

  ASSERT_TRUE(session_->ReleaseBuffer(1).ok());
  EXPECT_EQ(session_->buffer_count(), 0u);
  EXPECT_FALSE(session_->ReleaseBuffer(1).ok());
}

TEST_F(DeviceSessionTest, BufferErrors) {
  EXPECT_EQ(session_->CreateBuffer(1, 0).code(),
            ErrorCode::kInvalidBufferSize);
  ASSERT_TRUE(session_->CreateBuffer(1, 16).ok());
  EXPECT_FALSE(session_->CreateBuffer(1, 16).ok());  // Duplicate id.
  EXPECT_EQ(session_->WriteBuffer(2, 0, Bytes{1}).code(),
            ErrorCode::kInvalidMemObject);
  EXPECT_EQ(session_->WriteBuffer(1, 15, Bytes{1, 2}).code(),
            ErrorCode::kInvalidValue);  // Past the end.
  EXPECT_FALSE(session_->ReadBuffer(1, 8, 9).ok());
}

TEST_F(DeviceSessionTest, PullSliceStoresPeerBytes) {
  ASSERT_TRUE(session_->CreateBuffer(1, 16).ok());
  net::PullSliceRequest pull;
  pull.buffer_id = 1;
  pull.offset = 4;
  pull.size = 4;
  pull.source_node = 2;
  int fetches = 0;
  auto fetch = [&fetches](std::uint32_t peer, std::uint64_t buffer,
                          std::uint64_t offset, std::span<std::uint8_t> into) {
    ++fetches;
    EXPECT_EQ(peer, 2u);
    EXPECT_EQ(buffer, 1u);
    EXPECT_EQ(offset, 4u);
    EXPECT_EQ(into.size(), 4u);
    const Bytes slice{9, 8, 7, 6};
    std::copy(slice.begin(), slice.end(), into.begin());
    return Status::Ok();
  };
  ASSERT_TRUE(session_->PullSlice(pull, fetch).ok());
  EXPECT_EQ(fetches, 1);
  auto read = session_->ReadBuffer(1, 4, 4);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Bytes(read->bytes.begin(), read->bytes.end()),
            (std::vector<std::uint8_t>{9, 8, 7, 6}));
  // The slice landed in the replica itself and is charged to the ledger.
  EXPECT_EQ(session_->resident_bytes(), 4u);

  // Out-of-range and missing-buffer pulls fail BEFORE fetching from the
  // peer; fetch failures propagate. (A short peer reply is the NMP's
  // fetch failing: NodeServerLandingTest's
  // PeerSliceLandsInTheReplicaAndAShortOneFails.)
  pull.offset = 14;
  EXPECT_EQ(session_->PullSlice(pull, fetch).code(),
            ErrorCode::kInvalidValue);
  pull.buffer_id = 99;
  pull.offset = 0;
  EXPECT_EQ(session_->PullSlice(pull, fetch).code(),
            ErrorCode::kInvalidMemObject);
  EXPECT_EQ(fetches, 1);
  pull.buffer_id = 1;
  auto unreachable = [](std::uint32_t, std::uint64_t, std::uint64_t,
                        std::span<std::uint8_t>) {
    return Status(ErrorCode::kPeerUnreachable, "no link");
  };
  EXPECT_EQ(session_->PullSlice(pull, unreachable).code(),
            ErrorCode::kPeerUnreachable);
}

TEST_F(DeviceSessionTest, BuildAndLaunch) {
  auto build = session_->BuildProgram(5, R"(
    __kernel void doubler(__global int* data, int n) {
      int i = get_global_id(0);
      if (i < n) data[i] = data[i] * 2;
    })");
  ASSERT_EQ(build.status_code, 0) << build.build_log;
  ASSERT_EQ(build.kernel_names, std::vector<std::string>{"doubler"});

  const int n = 100;
  ASSERT_TRUE(session_->CreateBuffer(1, n * 4).ok());
  std::vector<std::uint8_t> bytes(n * 4);
  std::vector<std::int32_t> values(n);
  for (int i = 0; i < n; ++i) values[i] = i;
  std::memcpy(bytes.data(), values.data(), bytes.size());
  ASSERT_TRUE(session_->WriteBuffer(1, 0, bytes).ok());

  net::LaunchKernelRequest launch;
  launch.program_id = 5;
  launch.kernel_name = "doubler";
  net::WireKernelArg buffer_arg;
  buffer_arg.kind = net::WireKernelArg::Kind::kBuffer;
  buffer_arg.buffer_id = 1;
  net::WireKernelArg scalar_arg;
  scalar_arg.kind = net::WireKernelArg::Kind::kScalar;
  scalar_arg.scalar_bytes.resize(4);
  std::memcpy(scalar_arg.scalar_bytes.data(), &n, 4);
  launch.args = {buffer_arg, scalar_arg};
  launch.work_dim = 1;
  launch.global[0] = 128;

  auto reply = session_->LaunchKernel(launch);
  ASSERT_EQ(reply.status_code, 0) << reply.error_message;
  EXPECT_GT(reply.modeled_seconds, 0.0);
  EXPECT_GT(reply.modeled_joules, 0.0);

  auto read = session_->ReadBuffer(1, 0, n * 4);
  ASSERT_TRUE(read.ok());
  std::memcpy(values.data(), read->bytes.data(), read->bytes.size());
  for (int i = 0; i < n; ++i) ASSERT_EQ(values[i], 2 * i);
}

TEST_F(DeviceSessionTest, BuildFailureCarriesLog) {
  auto build = session_->BuildProgram(1, "__kernel void broken( {");
  EXPECT_NE(build.status_code, 0);
  EXPECT_FALSE(build.build_log.empty());
  EXPECT_EQ(session_->program_count(), 0u);
}

TEST_F(DeviceSessionTest, LaunchErrors) {
  auto build = session_->BuildProgram(1, R"(
    __kernel void k(__global int* data, int n) { data[0] = n; })");
  ASSERT_EQ(build.status_code, 0);

  net::LaunchKernelRequest launch;
  launch.program_id = 99;  // No such program.
  launch.kernel_name = "k";
  EXPECT_EQ(session_->LaunchKernel(launch).status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidProgram));

  launch.program_id = 1;
  launch.kernel_name = "missing";
  EXPECT_EQ(session_->LaunchKernel(launch).status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidKernelName));

  launch.kernel_name = "k";
  launch.args = {};  // Wrong arity.
  EXPECT_EQ(session_->LaunchKernel(launch).status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidKernelArgs));

  // Dangling buffer id.
  net::WireKernelArg buffer_arg;
  buffer_arg.kind = net::WireKernelArg::Kind::kBuffer;
  buffer_arg.buffer_id = 42;
  net::WireKernelArg scalar_arg;
  scalar_arg.kind = net::WireKernelArg::Kind::kScalar;
  scalar_arg.scalar_bytes.resize(4);
  launch.args = {buffer_arg, scalar_arg};
  launch.global[0] = 1;
  EXPECT_EQ(session_->LaunchKernel(launch).status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidMemObject));

  // Wrong scalar width.
  ASSERT_TRUE(session_->CreateBuffer(42, 16).ok());
  scalar_arg.scalar_bytes.resize(2);
  launch.args = {buffer_arg, scalar_arg};
  EXPECT_EQ(session_->LaunchKernel(launch).status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidArgSize));
}

TEST_F(DeviceSessionTest, ScalarSignExtension) {
  auto build = session_->BuildProgram(1, R"(
    __kernel void store(__global long* out, int v, char c) {
      out[0] = v;
      out[1] = c;
    })");
  ASSERT_EQ(build.status_code, 0) << build.build_log;
  ASSERT_TRUE(session_->CreateBuffer(1, 16).ok());

  net::LaunchKernelRequest launch;
  launch.program_id = 1;
  launch.kernel_name = "store";
  net::WireKernelArg buffer_arg;
  buffer_arg.kind = net::WireKernelArg::Kind::kBuffer;
  buffer_arg.buffer_id = 1;
  net::WireKernelArg int_arg;
  int_arg.kind = net::WireKernelArg::Kind::kScalar;
  const std::int32_t v = -123456;
  int_arg.scalar_bytes.resize(4);
  std::memcpy(int_arg.scalar_bytes.data(), &v, 4);
  net::WireKernelArg char_arg;
  char_arg.kind = net::WireKernelArg::Kind::kScalar;
  const std::int8_t c = -7;
  char_arg.scalar_bytes.resize(1);
  std::memcpy(char_arg.scalar_bytes.data(), &c, 1);
  launch.args = {buffer_arg, int_arg, char_arg};
  launch.global[0] = 1;

  auto reply = session_->LaunchKernel(launch);
  ASSERT_EQ(reply.status_code, 0) << reply.error_message;
  auto read = session_->ReadBuffer(1, 0, 16);
  ASSERT_TRUE(read.ok());
  std::int64_t out[2];
  std::memcpy(out, read->bytes.data(), 16);
  EXPECT_EQ(out[0], -123456);
  EXPECT_EQ(out[1], -7);
}

TEST(DeviceSessionMemoryTest, PoolTracksResidencyAndEnforcesCapacity) {
  // A 1 KiB device: writes materialize regions, the ledger charges them,
  // and a write that would not fit fails as the device OOM it models.
  sim::DeviceSpec spec = sim::TeslaP4();
  spec.mem_capacity_bytes = 1024;
  auto driver = driver::MakeSimulatedDriver(spec);
  DeviceSession session(driver.get());
  ASSERT_TRUE(session.CreateBuffer(1, 4096).ok());  // Address space only.
  EXPECT_EQ(session.resident_bytes(), 0u);
  std::vector<std::uint8_t> chunk(512, 0xAB);
  ASSERT_TRUE(session.WriteBuffer(1, 0, chunk).ok());
  EXPECT_EQ(session.resident_bytes(), 512u);
  // Rewriting the same region charges nothing new.
  ASSERT_TRUE(session.WriteBuffer(1, 0, chunk).ok());
  EXPECT_EQ(session.resident_bytes(), 512u);
  ASSERT_TRUE(session.WriteBuffer(1, 512, chunk).ok());
  EXPECT_EQ(session.resident_bytes(), 1024u);
  // One more byte range would exceed the device.
  EXPECT_EQ(session.WriteBuffer(1, 1024, chunk).code(),
            ErrorCode::kMemObjectAllocationFailure);
  EXPECT_EQ(session.resident_bytes(), 1024u);

  // A host eviction notice releases the accounted bytes; a reservation
  // notice charges them back (discard migrations).
  net::MemoryNoticeRequest evict;
  evict.buffer_id = 1;
  evict.reserve = false;
  evict.regions = {{0, 512}};
  ASSERT_TRUE(session.MemoryNotice(evict).ok());
  EXPECT_EQ(session.resident_bytes(), 512u);
  net::MemoryNoticeRequest reserve;
  reserve.buffer_id = 1;
  reserve.reserve = true;
  reserve.regions = {{0, 256}};
  ASSERT_TRUE(session.MemoryNotice(reserve).ok());
  EXPECT_EQ(session.resident_bytes(), 768u);
  // Releasing the buffer frees its whole ledger.
  ASSERT_TRUE(session.ReleaseBuffer(1).ok());
  EXPECT_EQ(session.resident_bytes(), 0u);
}

TEST(DeviceSessionMemoryTest, KernelWritesChargeTheLedger) {
  sim::DeviceSpec spec = sim::TeslaP4();
  spec.mem_capacity_bytes = 1024;
  auto driver = driver::MakeSimulatedDriver(spec);
  DeviceSession session(driver.get());
  auto build = session.BuildProgram(1, R"(
    __kernel void fill(__global int* o) { o[get_global_id(0)] = 7; })");
  ASSERT_EQ(build.status_code, 0) << build.build_log;
  ASSERT_TRUE(session.CreateBuffer(1, 512).ok());
  net::LaunchKernelRequest launch;
  launch.program_id = 1;
  launch.kernel_name = "fill";
  net::WireKernelArg arg;
  arg.kind = net::WireKernelArg::Kind::kBuffer;
  arg.buffer_id = 1;
  arg.written_begin = 0;
  arg.written_end = 512;
  launch.args = {arg};
  launch.global[0] = 128;
  auto reply = session.LaunchKernel(launch);
  ASSERT_EQ(reply.status_code, 0) << reply.error_message;
  EXPECT_EQ(session.resident_bytes(), 512u);
  // A written range past the buffer end is rejected before execution.
  ASSERT_TRUE(session.CreateBuffer(2, 64).ok());
  arg.buffer_id = 2;
  arg.written_end = 128;
  launch.args = {arg};
  auto bad = session.LaunchKernel(launch);
  EXPECT_EQ(bad.status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidValue));
}

TEST(FpgaSessionTest, RequiresPrebuiltBitstream) {
  auto driver = driver::IcdRegistry::Instance().Create(NodeType::kFpga);
  ASSERT_TRUE(driver.ok());
  DeviceSession session(driver->get());
  auto build = session.BuildProgram(1, R"(
    __kernel void unknown_kernel(__global int* o) { o[0] = 1; })");
  ASSERT_EQ(build.status_code, 0);
  ASSERT_TRUE(session.CreateBuffer(1, 4).ok());
  net::LaunchKernelRequest launch;
  launch.program_id = 1;
  launch.kernel_name = "unknown_kernel";
  net::WireKernelArg arg;
  arg.kind = net::WireKernelArg::Kind::kBuffer;
  arg.buffer_id = 1;
  launch.args = {arg};
  launch.global[0] = 1;
  auto reply = session.LaunchKernel(launch);
  EXPECT_EQ(reply.status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidProgramExecutable));
  EXPECT_NE(reply.error_message.find("bitstream"), std::string::npos);
}

}  // namespace
}  // namespace haocl::runtime
