// Issue-ahead on one node: a write, launch or read queued behind in-flight
// work on the same node sends its frame at once, the node skips what
// follows a failure, and the host re-runs a skipped command on its classic
// path. Each test holds node 0's driver, the host's sends or the replies
// coming back, so which frames have left is fixed by the test, not by
// timing.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "api/hao_cl.h"
#include "api/runtime_binding.h"
#include "driver/device_driver.h"
#include "host/cluster_runtime.h"
#include "net/sim_transport.h"
#include "nmp/node_server.h"

namespace haocl::host {
namespace {

using net::Message;
using net::MsgType;

// Every wait in these tests gives up after this long, so a regression
// fails instead of hanging.
constexpr auto kBound = std::chrono::seconds(10);
// How long a test watches for a frame that must not leave.
constexpr auto kQuiet = std::chrono::milliseconds(300);

// A latch the test closes and opens; Pass() waits while it is closed.
class Latch {
 public:
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  // Counts the caller as parked, then waits for the latch (bounded).
  void Pass() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++parked_;
    cv_.notify_all();
    cv_.wait_for(lock, kBound, [this] { return open_; });
  }
  // Waits until `n` callers have reached Pass() in total.
  bool WaitParked(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, kBound, [&] { return parked_ >= n; });
  }
  [[nodiscard]] int parked() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return parked_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = true;
  int parked_ = 0;
};

// Node 0's driver: every launch passes the latch first.
class HeldDriver final : public driver::DeviceDriver {
 public:
  HeldDriver(std::unique_ptr<driver::DeviceDriver> inner, Latch* latch)
      : inner_(std::move(inner)), latch_(latch) {}
  const sim::DeviceSpec& spec() const override { return inner_->spec(); }
  Expected<std::shared_ptr<const oclc::Module>> Build(
      const std::string& source, std::string* build_log) override {
    return inner_->Build(source, build_log);
  }
  Status Launch(const oclc::Module& module, const std::string& kernel_name,
                const std::vector<oclc::ArgBinding>& args,
                const oclc::NDRange& range, driver::LaunchProfile* profile,
                const sim::KernelCost* cost_hint) override {
    latch_->Pass();
    return inner_->Launch(module, kernel_name, args, range, profile,
                          cost_hint);
  }

 private:
  std::unique_ptr<driver::DeviceDriver> inner_;
  Latch* latch_;
};

// The host end of node 0's connection: records every frame it delivers,
// parks each WriteBuffer send on `writes` and each incoming status reply
// on `replies`.
class WatchedConnection final : public net::Connection {
 public:
  explicit WatchedConnection(net::ConnectionPtr inner)
      : inner_(std::move(inner)) {}
  ~WatchedConnection() override { Close(); }

  Status Send(const Message& message) override {
    if (message.type == MsgType::kWriteBuffer) writes.Pass();
    const Status sent = inner_->Send(message);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sent_.push_back(message.type);
    }
    cv_.notify_all();
    return sent;
  }
  void Start(net::MessageHandler handler) override {
    inner_->Start([this, handler = std::move(handler)](Message message) {
      if (message.type == MsgType::kStatusReply) replies.Pass();
      handler(std::move(message));
    });
  }
  void SetSink(net::FrameSink sink) override {
    inner_->SetSink(std::move(sink));
  }
  void Close() override {
    writes.Open();
    replies.Open();
    inner_->Close();
  }
  [[nodiscard]] std::uint64_t bytes_sent() const override {
    return inner_->bytes_sent();
  }
  [[nodiscard]] std::uint64_t messages_sent() const override {
    return inner_->messages_sent();
  }

  // The frames delivered so far.
  [[nodiscard]] std::vector<MsgType> Sent() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sent_;
  }
  // Frames of `type` delivered after the first `mark`.
  [[nodiscard]] int CountSince(std::size_t mark, MsgType type) const {
    std::lock_guard<std::mutex> lock(mutex_);
    int count = 0;
    for (std::size_t i = mark; i < sent_.size(); ++i) count += sent_[i] == type;
    return count;
  }
  // Waits up to `limit` for `n` frames of `type` after `mark`.
  bool WaitCountSince(std::size_t mark, MsgType type, int n,
                      std::chrono::milliseconds limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, limit, [&] {
      int count = 0;
      for (std::size_t i = mark; i < sent_.size(); ++i) {
        count += sent_[i] == type;
      }
      return count >= n;
    });
  }

  Latch writes;
  Latch replies;

 private:
  net::ConnectionPtr inner_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<MsgType> sent_;
};

// Two GPU nodes over in-process links, node 0 with a HeldDriver and a
// WatchedConnection.
struct Rig {
  Latch launches;
  std::vector<std::unique_ptr<nmp::NodeServer>> servers;
  WatchedConnection* link = nullptr;  // Owned by the runtime.
  std::unique_ptr<ClusterRuntime> runtime;

  ~Rig() {
    launches.Open();
    api::UnbindRuntime();
    if (runtime != nullptr) runtime->Disconnect();
    for (auto& server : servers) server->Shutdown();
  }
};

std::unique_ptr<Rig> MakeRig(RuntimeOptions options = {}) {
  auto rig = std::make_unique<Rig>();
  for (int i = 0; i < 2; ++i) {
    auto driver =
        driver::MakeSimulatedDriver(sim::SpecForType(NodeType::kGpu));
    if (i == 0) {
      driver = std::make_unique<HeldDriver>(std::move(driver), &rig->launches);
    }
    rig->servers.push_back(std::make_unique<nmp::NodeServer>(
        "gpu" + std::to_string(i), NodeType::kGpu, std::move(driver)));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    auto [client_end, server_end] = net::CreateSimChannel();
    rig->servers[i]->ConnectPeer(1 - i, std::move(client_end));
    rig->servers[1 - i]->Serve(std::move(server_end));
  }
  std::vector<net::ConnectionPtr> hosts;
  for (std::size_t i = 0; i < 2; ++i) {
    auto [host_end, node_end] = net::CreateSimChannel();
    rig->servers[i]->Serve(std::move(node_end));
    if (i == 0) {
      auto watched = std::make_unique<WatchedConnection>(std::move(host_end));
      rig->link = watched.get();
      host_end = std::move(watched);
    }
    hosts.push_back(std::move(host_end));
  }
  auto runtime = ClusterRuntime::Connect(std::move(hosts), std::move(options));
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  if (!runtime.ok()) return nullptr;
  rig->runtime = *std::move(runtime);
  return rig;
}

// ------------------------------------------------- launch_small, via the shim

constexpr char kSaxpy[] = R"(
__kernel void ia_saxpy(__global float* y, __global const float* x, float a) {
  int i = get_global_id(0);
  y[i] = a * x[i] + y[i];
})";

// perfbench's launch_small on node 0's queue: a 4 KiB write, a 1024-item
// saxpy and a 4 KiB read.
class LaunchSmall {
 public:
  static constexpr std::size_t kItems = 1024;
  static constexpr std::size_t kBytes = kItems * sizeof(float);
  static constexpr float kA = 1.5f;

  explicit LaunchSmall(ClusterRuntime* runtime) : x_(kItems) {
    api::BindRuntime(runtime);
    for (std::size_t i = 0; i < kItems; ++i) x_[i] = 0.25f * i;
    cl_platform_id platform = nullptr;
    EXPECT_EQ(clGetPlatformIDs(1, &platform, nullptr), CL_SUCCESS);
    cl_device_id devices[3] = {};
    EXPECT_EQ(clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL, 3, devices, nullptr),
              CL_SUCCESS);
    cl_int rc = CL_SUCCESS;
    context_ = clCreateContext(nullptr, 1, &devices[1], nullptr, nullptr, &rc);
    queue = clCreateCommandQueue(context_, devices[1], 0, &rc);
    const char* source = kSaxpy;
    program_ = clCreateProgramWithSource(context_, 1, &source, nullptr, &rc);
    EXPECT_EQ(clBuildProgram(program_, 0, nullptr, "", nullptr, nullptr),
              CL_SUCCESS);
    kernel_ = clCreateKernel(program_, "ia_saxpy", &rc);
    x_mem_ = clCreateBuffer(context_, CL_MEM_READ_WRITE, kBytes, nullptr, &rc);
    y_mem_ = clCreateBuffer(context_, CL_MEM_READ_WRITE, kBytes, nullptr, &rc);
    EXPECT_EQ(clSetKernelArg(kernel_, 0, sizeof(cl_mem), &y_mem_), CL_SUCCESS);
    EXPECT_EQ(clSetKernelArg(kernel_, 1, sizeof(cl_mem), &x_mem_), CL_SUCCESS);
    EXPECT_EQ(clSetKernelArg(kernel_, 2, sizeof(float), &kA), CL_SUCCESS);
    EXPECT_EQ(clEnqueueWriteBuffer(queue, x_mem_, CL_TRUE, 0, kBytes,
                                   x_.data(), 0, nullptr, nullptr),
              CL_SUCCESS);
  }
  ~LaunchSmall() {
    clFinish(queue);
    clReleaseKernel(kernel_);
    clReleaseMemObject(x_mem_);
    clReleaseMemObject(y_mem_);
    clReleaseCommandQueue(queue);
    clReleaseProgram(program_);
    clReleaseContext(context_);
  }

  // A fresh y input and the saxpy of it.
  std::vector<float> Input(int round) const {
    std::vector<float> y(kItems);
    for (std::size_t i = 0; i < kItems; ++i) y[i] = round - 0.5f * i;
    return y;
  }
  std::vector<float> Expected(const std::vector<float>& y) const {
    std::vector<float> out(kItems);
    for (std::size_t i = 0; i < kItems; ++i) out[i] = kA * x_[i] + y[i];
    return out;
  }

  cl_int Write(const std::vector<float>& y) {
    return clEnqueueWriteBuffer(queue, y_mem_, CL_FALSE, 0, kBytes, y.data(),
                                0, nullptr, nullptr);
  }
  cl_int Launch() {
    const std::size_t global = kItems;
    const std::size_t local = 64;
    return clEnqueueNDRangeKernel(queue, kernel_, 1, nullptr, &global, &local,
                                  0, nullptr, nullptr);
  }
  cl_int Read(std::vector<float>* out, cl_bool blocking, cl_event* done) {
    out->resize(kItems);
    return clEnqueueReadBuffer(queue, y_mem_, blocking, 0, kBytes, out->data(),
                               0, nullptr, done);
  }
  // One whole iteration, waited for; returns whether it read back right.
  bool Iterate(int round) {
    const std::vector<float> y = Input(round);
    std::vector<float> out;
    return Write(y) == CL_SUCCESS && Launch() == CL_SUCCESS &&
           Read(&out, CL_TRUE, nullptr) == CL_SUCCESS && out == Expected(y);
  }

  cl_command_queue queue = nullptr;

 private:
  std::vector<float> x_;
  cl_context context_ = nullptr;
  cl_program program_ = nullptr;
  cl_kernel kernel_ = nullptr;
  cl_mem x_mem_ = nullptr;
  cl_mem y_mem_ = nullptr;
};

TEST(IssueAheadTest, ReadLeavesWhileTheNodeRunsTheLaunch) {
  auto rig = MakeRig();
  ASSERT_NE(rig, nullptr);
  LaunchSmall app(rig->runtime.get());
  // The first iteration allocates y, builds the program and makes node 0
  // the owner of both buffers: the next one can issue ahead.
  ASSERT_TRUE(app.Iterate(0));

  rig->launches.Close();
  const int parked = rig->launches.parked();
  const std::size_t mark = rig->link->Sent().size();
  const std::vector<float> y = app.Input(1);
  std::vector<float> out;
  cl_event done = nullptr;
  ASSERT_EQ(app.Write(y), CL_SUCCESS);
  ASSERT_EQ(app.Launch(), CL_SUCCESS);
  ASSERT_EQ(app.Read(&out, CL_FALSE, &done), CL_SUCCESS);
  ASSERT_TRUE(rig->launches.WaitParked(parked + 1));
  // Node 0's driver holds the saxpy, and the read's frame has left too.
  EXPECT_TRUE(rig->link->WaitCountSince(mark, MsgType::kReadBuffer, 1,
                                        std::chrono::milliseconds(2000)));
  EXPECT_EQ(rig->link->CountSince(mark, MsgType::kWriteBuffer), 1);
  EXPECT_EQ(rig->link->CountSince(mark, MsgType::kLaunchKernel), 1);
  EXPECT_EQ(rig->link->CountSince(mark, MsgType::kReadBuffer), 1);
  rig->launches.Open();
  ASSERT_EQ(clWaitForEvents(1, &done), CL_SUCCESS);
  EXPECT_EQ(out, app.Expected(y));
  clReleaseEvent(done);
}

TEST(IssueAheadTest, WriteAndLaunchReturnWhileTheWriteIsBeingSent) {
  auto rig = MakeRig();
  ASSERT_NE(rig, nullptr);
  LaunchSmall app(rig->runtime.get());
  ASSERT_TRUE(app.Iterate(0));

  rig->link->writes.Close();
  rig->link->replies.Close();
  const int parked = rig->link->writes.parked();
  const std::size_t mark = rig->link->Sent().size();
  const std::vector<float> y = app.Input(1);
  // The write's bytes leave from a graph worker, which the host end now
  // holds in Send; neither enqueue waits for it.
  ASSERT_EQ(app.Write(y), CL_SUCCESS);
  ASSERT_TRUE(rig->link->writes.WaitParked(parked + 1));
  ASSERT_EQ(app.Launch(), CL_SUCCESS);
  std::this_thread::sleep_for(kQuiet);
  EXPECT_TRUE(rig->link->Sent().size() == mark);
  // Released, the write goes out and the launch right behind it, while
  // the write's reply is still held back.
  rig->link->writes.Open();
  ASSERT_TRUE(rig->link->WaitCountSince(mark, MsgType::kLaunchKernel, 1,
                                        std::chrono::milliseconds(2000)));
  const std::vector<MsgType> sent = rig->link->Sent();
  ASSERT_GE(sent.size(), mark + 2);
  EXPECT_EQ(sent[mark], MsgType::kWriteBuffer);
  EXPECT_EQ(sent[mark + 1], MsgType::kLaunchKernel);
  rig->link->replies.Open();
  std::vector<float> out;
  ASSERT_EQ(app.Read(&out, CL_TRUE, nullptr), CL_SUCCESS);
  EXPECT_EQ(out, app.Expected(y));
}

// ------------------------------------------- skips, re-runs and equivalence

constexpr char kKernels[] = R"(
__kernel void ia_double(__global int* d, int n) {
  int i = get_global_id(0);
  if (i < n) d[i] = d[i] * 2;
}
__kernel void ia_trap(__global int* d, int shift) {
  int i = get_global_id(0);
  d[i] = d[i + shift];
})";

ClusterRuntime::LaunchSpec OnNode0(ProgramId program, const char* kernel,
                                   BufferId buffer, std::int32_t scalar,
                                   std::uint64_t items) {
  ClusterRuntime::LaunchSpec spec;
  spec.program = program;
  spec.kernel_name = kernel;
  spec.args = {KernelArgValue::Buffer(buffer),
               KernelArgValue::Scalar<std::int32_t>(scalar)};
  spec.global[0] = items;
  spec.preferred_node = 0;
  return spec;
}

// What a run of the quota scenario ends with.
struct QuotaOutcome {
  std::vector<ErrorCode> codes;  // Write, launch, read.
  std::vector<std::int32_t> bytes;
  std::uint64_t host_ledger = 0;
  std::uint64_t node_ledger = 0;
  int launch_frames = 0;  // LaunchKernel frames sent for the three.
};

// Node 0 holds 2 KiB of an 8 KiB buffer under a 4 KiB quota; then a write
// of the other 6 KiB (refused by the node's quota), a doubling launch
// over the whole buffer and a read of it, on node 0's queue.
QuotaOutcome RunQuotaScenario(bool pipelined) {
  RuntimeOptions options;
  options.tenant_mem_quota_bytes = 4096;
  auto rig = MakeRig(options);
  EXPECT_NE(rig, nullptr);
  if (rig == nullptr) return {};
  ClusterRuntime& rt = *rig->runtime;
  auto program = rt.BuildProgram(kKernels);
  EXPECT_TRUE(program.ok());
  // A small launch builds the program on node 0.
  auto warm = rt.CreateBuffer(64);
  std::vector<std::int32_t> ones(16, 1);
  EXPECT_TRUE(rt.Wait(*rt.SubmitWrite(*warm, 0, ones.data(), 64, 0)).ok());
  EXPECT_TRUE(rt.LaunchKernel(OnNode0(*program, "ia_double", *warm, 16, 16))
                  .ok());
  auto buffer = rt.CreateBuffer(8192);
  std::vector<std::int32_t> head(512, 7);
  std::vector<std::int32_t> tail(1536);
  for (std::size_t i = 0; i < tail.size(); ++i) tail[i] = 3 * i + 1;
  EXPECT_TRUE(rt.Wait(*rt.SubmitWrite(*buffer, 0, head.data(), 2048, 0)).ok());

  QuotaOutcome outcome;
  outcome.bytes.resize(2048);
  const std::size_t mark = rig->link->Sent().size();
  const auto spec = OnNode0(*program, "ia_double", *buffer, 2048, 2048);
  std::vector<CommandHandle> handles;
  if (pipelined) {
    // Hold the write's send until all three are queued.
    rig->link->writes.Close();
    auto write = rt.SubmitWrite(*buffer, 2048, tail.data(), 6144, 0);
    auto launch = rt.SubmitLaunch(spec, {}, {*write});
    auto read =
        rt.SubmitRead(*buffer, 0, outcome.bytes.data(), 8192, {}, {*launch});
    rig->link->writes.Open();
    handles = {*write, *launch, *read};
  } else {
    auto write = rt.SubmitWrite(*buffer, 2048, tail.data(), 6144, 0);
    (void)rt.Wait(*write);
    auto launch = rt.SubmitLaunch(spec, {}, {*write});
    (void)rt.Wait(*launch);
    auto read =
        rt.SubmitRead(*buffer, 0, outcome.bytes.data(), 8192, {}, {*launch});
    handles = {*write, *launch, *read};
  }
  for (const CommandHandle& handle : handles) {
    outcome.codes.push_back(rt.Wait(handle).code());
  }
  EXPECT_TRUE(rt.Finish().ok());
  outcome.host_ledger = rt.NodeMemoryStatsOf(0)->resident_bytes;
  outcome.node_ledger = rig->servers[0]->bytes_resident();
  outcome.launch_frames = rig->link->CountSince(mark, MsgType::kLaunchKernel);
  return outcome;
}

TEST(IssueAheadTest,
     QuotaRefusedWriteThenIssuedAheadLaunchAndReadMatchOneByOne) {
  const QuotaOutcome one_by_one = RunQuotaScenario(false);
  const QuotaOutcome pipelined = RunQuotaScenario(true);
  const std::vector<ErrorCode> codes = {
      ErrorCode::kOk, ErrorCode::kMemObjectAllocationFailure, ErrorCode::kOk};
  EXPECT_EQ(one_by_one.codes, codes);
  EXPECT_EQ(pipelined.codes, codes);
  EXPECT_EQ(pipelined.bytes, one_by_one.bytes);
  EXPECT_EQ(pipelined.bytes[0], 7);      // Node 0's head, never doubled.
  EXPECT_EQ(pipelined.bytes[512], 1);    // The refused write, in the shadow.
  EXPECT_EQ(pipelined.host_ledger, one_by_one.host_ledger);
  EXPECT_EQ(pipelined.node_ledger, one_by_one.node_ledger);
  EXPECT_EQ(pipelined.host_ledger, pipelined.node_ledger);
  // Waited for one by one, the launch fails in its prologue and never
  // sends a frame. Issued ahead it did, and node 0 skipped it behind the
  // refused write; its classic re-run then failed like the one above.
  EXPECT_EQ(one_by_one.launch_frames, 0);
  EXPECT_EQ(pipelined.launch_frames, 1);
}

TEST(IssueAheadTest, ReadBehindATrappingLaunchReturnsTheBytesFromBefore) {
  auto rig = MakeRig();
  ASSERT_NE(rig, nullptr);
  ClusterRuntime& rt = *rig->runtime;
  auto program = rt.BuildProgram(kKernels);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto buffer = rt.CreateBuffer(1024);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> before(256);
  for (std::size_t i = 0; i < before.size(); ++i) before[i] = 11 * i;
  ASSERT_TRUE(
      rt.Wait(*rt.SubmitWrite(*buffer, 0, before.data(), 1024, 0)).ok());
  // A shift of 0 copies each word onto itself: builds the program on node 0
  // and leaves node 0 the owner, bytes unchanged.
  ASSERT_TRUE(rt.LaunchKernel(OnNode0(*program, "ia_trap", *buffer, 0, 256))
                  .ok());

  rig->launches.Close();
  const int parked = rig->launches.parked();
  const std::size_t mark = rig->link->Sent().size();
  auto launch = rt.SubmitLaunch(
      OnNode0(*program, "ia_trap", *buffer, 1 << 24, 256));
  ASSERT_TRUE(launch.ok());
  std::vector<std::int32_t> got(256, -1);
  auto read = rt.SubmitRead(*buffer, 0, got.data(), 1024, {}, {*launch});
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(rig->launches.WaitParked(parked + 1));
  rig->launches.Open();
  EXPECT_FALSE(rt.Wait(*launch).ok());
  ASSERT_TRUE(rt.Wait(*read).ok());
  EXPECT_EQ(got, before);
  // The read left behind the launch, was skipped, and re-ran classic.
  EXPECT_EQ(rig->link->CountSince(mark, MsgType::kReadBuffer), 2);
}

}  // namespace
}  // namespace haocl::host
