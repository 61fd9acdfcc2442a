#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <initializer_list>
#include <thread>

#include "api/runtime_binding.h"
#include "driver/device_driver.h"
#include "inputs.h"
#include "stats.h"

namespace perfbench {

using haocl::Expected;
using haocl::Status;

// ------------------------------------------------------------- Deployment

Expected<std::unique_ptr<Deployment>> Deployment::Start(
    const std::string& scheduler, TraceRecorder* trace) {
  constexpr std::size_t kNodes = 2;
  std::unique_ptr<Deployment> d(new Deployment());
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < kNodes; ++i) {
    haocl::sim::DeviceSpec spec = haocl::sim::TeslaP4();
    spec.compute_units = static_cast<int>(std::max<std::size_t>(1, cores / kNodes));
    auto server = std::make_unique<haocl::nmp::NodeServer>(
        "gpu" + std::to_string(i), haocl::NodeType::kGpu,
        TraceDriver(haocl::driver::MakeSimulatedDriver(spec), trace));
    auto listener = std::make_unique<haocl::net::TcpListener>(0);
    haocl::nmp::NodeServer* raw = server.get();
    // The peer mesh is dialed before the host connects, and a listen
    // backlog accepts in order, so the first kNodes - 1 connections a
    // daemon accepts are its peer links.
    auto accepted = std::make_shared<std::atomic<std::size_t>>(0);
    Status started = listener->Start(
        [raw, trace, accepted](haocl::net::ConnectionPtr connection) {
          const bool peer = accepted->fetch_add(1) < kNodes - 1;
          raw->Serve(MaybeTrace(std::move(connection), trace,
                                TracingConnection::End::kServer, peer));
        });
    if (!started.ok()) return started;
    ports.push_back(listener->port());
    d->servers_.push_back(std::move(server));
    d->listeners_.push_back(std::move(listener));
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (i == j) continue;
      auto link = haocl::net::TcpConnect("127.0.0.1", ports[j]);
      if (!link.ok()) return link.status();
      d->servers_[i]->ConnectPeer(
          j, MaybeTrace(*std::move(link), trace,
                        TracingConnection::End::kClient, true));
    }
  }
  std::vector<haocl::net::ConnectionPtr> hosts;
  for (std::uint16_t port : ports) {
    auto link = haocl::net::TcpConnect("127.0.0.1", port);
    if (!link.ok()) return link.status();
    hosts.push_back(MaybeTrace(*std::move(link), trace,
                               TracingConnection::End::kClient, false));
  }
  haocl::host::RuntimeOptions options;
  options.scheduler = scheduler;
  auto runtime =
      haocl::host::ClusterRuntime::Connect(std::move(hosts), options);
  if (!runtime.ok()) return runtime.status();
  d->runtime_ = *std::move(runtime);
  haocl::api::BindRuntime(d->runtime_.get());
  return d;
}

Deployment::~Deployment() {
  haocl::api::UnbindRuntime();
  if (runtime_ != nullptr) runtime_->Disconnect();
  runtime_.reset();
  for (auto& server : servers_) server->Shutdown();
  for (auto& listener : listeners_) listener->Stop();
}

namespace {

// ------------------------------------------------------ OpenCL plumbing

bool Check(cl_int rc, const char* what, std::string* error) {
  if (rc == CL_SUCCESS) return true;
  *error = std::string(what) + " failed with " + std::to_string(rc);
  return false;
}

// The first failing code of a batch of calls (all of them run).
cl_int FirstError(std::initializer_list<cl_int> codes) {
  for (cl_int code : codes) {
    if (code != CL_SUCCESS) return code;
  }
  return CL_SUCCESS;
}

// Context, queue and built program on one device of the bound cluster:
// the virtual cluster device (scheduler places) or node 0.
struct ClProgram {
  cl_context context = nullptr;
  cl_command_queue queue = nullptr;
  cl_program program = nullptr;

  bool Open(bool cluster_device, const char* source, std::string* error) {
    cl_platform_id platform = nullptr;
    if (!Check(clGetPlatformIDs(1, &platform, nullptr), "clGetPlatformIDs",
               error)) {
      return false;
    }
    // Device 0 is the cluster device, then one device per node.
    cl_device_id devices[3] = {};
    cl_uint count = 0;
    if (!Check(clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL, 3, devices, &count),
               "clGetDeviceIDs", error)) {
      return false;
    }
    if (count < 3) {
      *error = "expected a cluster device plus two nodes";
      return false;
    }
    cl_device_id device = cluster_device ? devices[0] : devices[1];
    cl_int rc = CL_SUCCESS;
    context = clCreateContext(nullptr, 1, &device, nullptr, nullptr, &rc);
    if (!Check(rc, "clCreateContext", error)) return false;
    queue = clCreateCommandQueue(context, device, 0, &rc);
    if (!Check(rc, "clCreateCommandQueue", error)) return false;
    program = clCreateProgramWithSource(context, 1, &source, nullptr, &rc);
    if (!Check(rc, "clCreateProgramWithSource", error)) return false;
    return Check(clBuildProgram(program, 0, nullptr, "", nullptr, nullptr),
                 "clBuildProgram", error);
  }

  cl_kernel Kernel(const char* name, std::string* error) const {
    cl_int rc = CL_SUCCESS;
    cl_kernel kernel = clCreateKernel(program, name, &rc);
    Check(rc, "clCreateKernel", error);
    return kernel;
  }

  cl_mem Buffer(std::size_t bytes, std::string* error) const {
    cl_int rc = CL_SUCCESS;
    cl_mem mem = clCreateBuffer(context, CL_MEM_READ_WRITE, bytes, nullptr, &rc);
    Check(rc, "clCreateBuffer", error);
    return mem;
  }

  void Close() {
    if (queue != nullptr) {
      clFinish(queue);
      clReleaseCommandQueue(queue);
    }
    if (program != nullptr) clReleaseProgram(program);
    if (context != nullptr) clReleaseContext(context);
    *this = {};
  }
};

template <typename T>
cl_int SetArg(cl_kernel kernel, cl_uint index, const T& value) {
  return clSetKernelArg(kernel, index, sizeof(T), &value);
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ----------------------------------------------------------- launch_small
// Every fixed per-command cost sits on the critical path three times per
// iteration; payload and VM arithmetic are negligible.

constexpr const char* kSaxpySource = R"(
__kernel void pb_saxpy(__global float* y, __global const float* x, float a) {
  int i = get_global_id(0);
  y[i] = a * x[i] + y[i];
})";

class LaunchSmall final : public Workload {
 public:
  static constexpr std::size_t kItems = 1024;
  static constexpr std::size_t kBytes = kItems * sizeof(float);
  static constexpr std::size_t kPool = 16;   // Distinct inputs, rotated.
  static constexpr int kWarmup = 20;

  explicit LaunchSmall(std::uint64_t seed)
      : a_(Rng(seed, 1).Uniform(0.5f, 2.0f)),
        x_(UniformFloats(seed, 2, kItems, -1.0f, 1.0f)),
        out_(kItems) {
    for (std::size_t p = 0; p < kPool; ++p) {
      y_in_.push_back(UniformFloats(seed, 100 + p, kItems, -1.0f, 1.0f));
      expected_.emplace_back();
      SaxpyReference(a_, x_, y_in_.back(), &expected_.back());
    }
  }

  const char* name() const override { return "launch_small"; }
  double flops_per_iteration() const override { return 2.0 * kItems; }
  std::vector<std::string> kernel_names() const override { return {"pb_saxpy"}; }

  bool Setup(ApiTimer api, std::string* error) override {
    if (!cl_.Open(false, kSaxpySource, error)) return false;
    kernel_ = cl_.Kernel("pb_saxpy", error);
    x_mem_ = cl_.Buffer(kBytes, error);
    y_mem_ = cl_.Buffer(kBytes, error);
    if (kernel_ == nullptr || x_mem_ == nullptr || y_mem_ == nullptr) {
      return false;
    }
    if (!Check(FirstError({SetArg(kernel_, 0, y_mem_), SetArg(kernel_, 1, x_mem_),
                           SetArg(kernel_, 2, a_)}),
               "clSetKernelArg", error) ||
        !Check(clEnqueueWriteBuffer(cl_.queue, x_mem_, CL_TRUE, 0, kBytes,
                                    x_.data(), 0, nullptr, nullptr),
               "clEnqueueWriteBuffer", error)) {
      return false;
    }
    for (int i = 0; i < kWarmup; ++i) {
      if (!Iterate(api).ok) {
        *error = "launch_small warm-up iteration failed";
        return false;
      }
    }
    return true;
  }

  Iteration Iterate(ApiTimer api) override {
    const std::size_t p = count_++ % kPool;
    Iteration it;
    it.begin_ns = NowNs();
    cl_int rc = api("clEnqueueWriteBuffer", false, [&] {
      return clEnqueueWriteBuffer(cl_.queue, y_mem_, CL_FALSE, 0, kBytes,
                                  y_in_[p].data(), 0, nullptr, nullptr);
    });
    if (rc == CL_SUCCESS) {
      rc = api("clEnqueueNDRangeKernel", false, [&] {
        const std::size_t global = kItems;
        const std::size_t local = 64;
        return clEnqueueNDRangeKernel(cl_.queue, kernel_, 1, nullptr, &global,
                                      &local, 0, nullptr, nullptr);
      });
    }
    if (rc == CL_SUCCESS) {
      rc = api("clEnqueueReadBuffer", true, [&] {
        return clEnqueueReadBuffer(cl_.queue, y_mem_, CL_TRUE, 0, kBytes,
                                   out_.data(), 0, nullptr, nullptr);
      });
    }
    it.end_ns = NowNs();
    it.ok = rc == CL_SUCCESS &&
            std::memcmp(out_.data(), expected_[p].data(), kBytes) == 0;
    return it;
  }

  InstanceCheck Finish(haocl::host::ClusterRuntime&,
                       const haocl::host::TransferStats&,
                       std::uint64_t) override {
    InstanceCheck check;
    constexpr int kReps = 1000;
    std::vector<float> out;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) SaxpyReference(a_, x_, y_in_[r % kPool], &out);
    check.ref_ms = MillisSince(start) / kReps;
    if (out != expected_[(kReps - 1) % kPool]) {
      check.violations.push_back("saxpy reference is not deterministic");
    }
    return check;
  }

  void Teardown() override {
    if (kernel_ != nullptr) clReleaseKernel(kernel_);
    if (x_mem_ != nullptr) clReleaseMemObject(x_mem_);
    if (y_mem_ != nullptr) clReleaseMemObject(y_mem_);
    kernel_ = nullptr;
    x_mem_ = y_mem_ = nullptr;
    cl_.Close();
    count_ = 0;
  }

 private:
  float a_;
  std::vector<float> x_;
  std::vector<std::vector<float>> y_in_;
  std::vector<std::vector<float>> expected_;
  std::vector<float> out_;
  ClProgram cl_;
  cl_kernel kernel_ = nullptr;
  cl_mem x_mem_ = nullptr;
  cl_mem y_mem_ = nullptr;
  std::size_t count_ = 0;
};

// ---------------------------------------------------------------- bulk_rw
// A 64 MiB write, a one-work-item kernel that stamps one word of the
// buffer (a non-const __global arg: the runtime ships the whole buffer to
// the node and marks it node-owned), clFinish, then a blocking 64 MiB read
// that gathers it back. Host and node copy paths, protocol encode/decode
// and TCP carry the time in both directions.

constexpr const char* kStampSource = R"(
__kernel void pb_stamp(__global uint* data, uint index, uint value) {
  data[index] = value;
})";

class BulkRw final : public Workload {
 public:
  static constexpr std::size_t kBytes = 64u << 20;
  static constexpr std::size_t kWords = kBytes / sizeof(std::uint32_t);

  explicit BulkRw(std::uint64_t seed) : stamps_(seed, 3), out_(kWords) {
    // Alternating patterns: a read that moved nothing would still hold
    // the previous iteration's pattern and fail the check.
    for (std::size_t p = 0; p < 2; ++p) {
      patterns_[p].resize(kWords);
      FillWords(seed, 10 + p, &patterns_[p]);
    }
  }

  const char* name() const override { return "bulk_rw"; }
  std::uint64_t leg_bytes() const override { return kBytes; }
  std::vector<std::string> kernel_names() const override { return {"pb_stamp"}; }

  bool Setup(ApiTimer api, std::string* error) override {
    if (!cl_.Open(false, kStampSource, error)) return false;
    kernel_ = cl_.Kernel("pb_stamp", error);
    mem_ = cl_.Buffer(kBytes, error);
    if (kernel_ == nullptr || mem_ == nullptr) return false;
    if (!Check(SetArg(kernel_, 0, mem_), "clSetKernelArg", error)) return false;
    if (!Iterate(api).ok) {
      *error = "bulk_rw warm-up iteration failed";
      return false;
    }
    return true;
  }

  Iteration Iterate(ApiTimer api) override {
    const std::vector<std::uint32_t>& pattern = patterns_[count_++ % 2];
    const auto index = static_cast<cl_uint>(stamps_.Next() % kWords);
    const cl_uint value = ~pattern[index];
    Iteration it;
    if (SetArg(kernel_, 1, index) != CL_SUCCESS ||
        SetArg(kernel_, 2, value) != CL_SUCCESS) {
      return it;
    }
    it.begin_ns = NowNs();
    cl_int rc = api("clEnqueueWriteBuffer", false, [&] {
      return clEnqueueWriteBuffer(cl_.queue, mem_, CL_FALSE, 0, kBytes,
                                  pattern.data(), 0, nullptr, nullptr);
    });
    if (rc == CL_SUCCESS) {
      rc = api("clEnqueueNDRangeKernel", false, [&] {
        const std::size_t one = 1;
        return clEnqueueNDRangeKernel(cl_.queue, kernel_, 1, nullptr, &one,
                                      &one, 0, nullptr, nullptr);
      });
    }
    if (rc == CL_SUCCESS) {
      rc = api("clFinish", true, [&] { return clFinish(cl_.queue); });
    }
    const std::int64_t mid = NowNs();
    if (rc == CL_SUCCESS) {
      rc = api("clEnqueueReadBuffer", true, [&] {
        return clEnqueueReadBuffer(cl_.queue, mem_, CL_TRUE, 0, kBytes,
                                   out_.data(), 0, nullptr, nullptr);
      });
    }
    it.end_ns = NowNs();
    it.write_s = static_cast<double>(mid - it.begin_ns) / 1e9;
    it.read_s = static_cast<double>(it.end_ns - mid) / 1e9;
    const std::size_t head = index * sizeof(std::uint32_t);
    it.ok = rc == CL_SUCCESS && out_[index] == value &&
            std::memcmp(out_.data(), pattern.data(), head) == 0 &&
            std::memcmp(out_.data() + index + 1, pattern.data() + index + 1,
                        kBytes - head - sizeof(std::uint32_t)) == 0;
    return it;
  }

  InstanceCheck Finish(haocl::host::ClusterRuntime& runtime,
                       const haocl::host::TransferStats& before,
                       std::uint64_t iterations) override {
    InstanceCheck check;
    const haocl::host::TransferStats after = runtime.transfer_stats();
    // Per iteration the launch ships the whole buffer host -> node and the
    // read gathers it back: exactly two buffers of host payload.
    const std::uint64_t payload =
        after.host_payload_bytes() - before.host_payload_bytes();
    if (payload != 2 * kBytes * iterations) {
      check.violations.push_back(
          "bulk_rw host payload " + std::to_string(payload) + " != 2 x " +
          std::to_string(kBytes) + " x " + std::to_string(iterations));
    }
    // Plain C++ of one iteration: copy in, stamp, copy out.
    std::vector<std::uint32_t> device(kWords);
    const auto start = std::chrono::steady_clock::now();
    std::memcpy(device.data(), patterns_[0].data(), kBytes);
    device[kWords / 2] = ~device[kWords / 2];
    std::memcpy(out_.data(), device.data(), kBytes);
    check.ref_ms = MillisSince(start);
    return check;
  }

  void Teardown() override {
    if (kernel_ != nullptr) clReleaseKernel(kernel_);
    if (mem_ != nullptr) clReleaseMemObject(mem_);
    kernel_ = nullptr;
    mem_ = nullptr;
    cl_.Close();
    count_ = 0;
  }

 private:
  Rng stamps_;
  std::vector<std::uint32_t> patterns_[2];
  std::vector<std::uint32_t> out_;
  ClProgram cl_;
  cl_kernel kernel_ = nullptr;
  cl_mem mem_ = nullptr;
  std::size_t count_ = 0;
};

// ----------------------------------------------------------- matmul_chain
// X_{k+1} = A * X_k under hetero_split: A and X_{k+1} are row-partitioned
// (kPartitionedDim0), X_k replicated, so each launch runs as two shards
// and each shard pulls the other node's half of X_k straight from it.
// The VM, the placement plan and node-to-node pulls carry the time; in
// steady state no payload crosses the host.

constexpr const char* kMatmulSource = R"(
__kernel void pb_matmul(__global const float* a, __global const float* x,
                        __global float* y, int n) {
  int row = get_global_id(0);
  int col = get_global_id(1);
  float acc = 0.0f;
  for (int k = 0; k < n; k++) {
    acc = acc + a[row * n + k] * x[k * n + col];
  }
  y[row * n + col] = acc;
})";

class MatmulChain final : public Workload {
 public:
  static constexpr int kN = 384;
  static constexpr std::size_t kElems = static_cast<std::size_t>(kN) * kN;
  static constexpr std::size_t kBytes = kElems * sizeof(float);
  static constexpr std::size_t kRowBytes = kN * sizeof(float);
  // The first launch ships A and X_0 from the host; the second is the
  // first whose inputs are all node-owned. Steady state starts after.
  static constexpr int kWarmup = 2;

  explicit MatmulChain(std::uint64_t seed)
      : a_(StochasticMatrix(seed, 4, kN)),
        x0_(UniformFloats(seed, 5, kElems, -1.0f, 1.0f)) {}

  const char* name() const override { return "matmul_chain"; }
  const char* scheduler() const override { return "hetero_split"; }
  double flops_per_iteration() const override {
    return 2.0 * kN * static_cast<double>(kN) * kN;
  }
  std::vector<std::string> kernel_names() const override { return {"pb_matmul"}; }

  bool Setup(ApiTimer api, std::string* error) override {
    if (!cl_.Open(true, kMatmulSource, error)) return false;
    a_mem_ = cl_.Buffer(kBytes, error);
    x_mem_[0] = cl_.Buffer(kBytes, error);
    x_mem_[1] = cl_.Buffer(kBytes, error);
    if (a_mem_ == nullptr || x_mem_[0] == nullptr || x_mem_[1] == nullptr) {
      return false;
    }
    // kernel_[k] reads x_mem_[k] and writes x_mem_[1 - k].
    for (int k = 0; k < 2; ++k) {
      kernel_[k] = cl_.Kernel("pb_matmul", error);
      if (kernel_[k] == nullptr) return false;
      const int n = kN;
      if (!Check(FirstError({SetArg(kernel_[k], 0, a_mem_),
                             SetArg(kernel_[k], 1, x_mem_[k]),
                             SetArg(kernel_[k], 2, x_mem_[1 - k]),
                             SetArg(kernel_[k], 3, n),
                             clSetKernelArgAccessPatternHAOCL(
                                 kernel_[k], 0,
                                 CL_HAOCL_ARG_ACCESS_PARTITIONED_DIM0, kRowBytes),
                             clSetKernelArgAccessPatternHAOCL(
                                 kernel_[k], 2,
                                 CL_HAOCL_ARG_ACCESS_PARTITIONED_DIM0, kRowBytes)}),
                 "clSetKernelArg", error)) {
        return false;
      }
    }
    if (!Check(FirstError({clEnqueueWriteBuffer(cl_.queue, a_mem_, CL_TRUE, 0,
                                                kBytes, a_.data(), 0, nullptr,
                                                nullptr),
                           clEnqueueWriteBuffer(cl_.queue, x_mem_[0], CL_TRUE, 0,
                                                kBytes, x0_.data(), 0, nullptr,
                                                nullptr)}),
               "clEnqueueWriteBuffer", error)) {
      return false;
    }
    for (int i = 0; i < kWarmup; ++i) {
      if (!Iterate(api).ok) {
        *error = "matmul_chain warm-up iteration failed";
        return false;
      }
    }
    return true;
  }

  Iteration Iterate(ApiTimer api) override {
    cl_kernel kernel = kernel_[count_++ % 2];
    Iteration it;
    it.begin_ns = NowNs();
    cl_int rc = api("clEnqueueNDRangeKernel", false, [&] {
      const std::size_t global[2] = {kN, kN};
      const std::size_t local[2] = {1, 64};
      return clEnqueueNDRangeKernel(cl_.queue, kernel, 2, nullptr, global,
                                    local, 0, nullptr, nullptr);
    });
    if (rc == CL_SUCCESS) {
      rc = api("clFinish", true, [&] { return clFinish(cl_.queue); });
    }
    it.end_ns = NowNs();
    it.ok = rc == CL_SUCCESS;  // The chained output is checked in Finish.
    return it;
  }

  InstanceCheck Finish(haocl::host::ClusterRuntime& runtime,
                       const haocl::host::TransferStats& before,
                       std::uint64_t iterations) override {
    InstanceCheck check;
    const haocl::host::TransferStats after = runtime.transfer_stats();
    const std::uint64_t payload =
        after.host_payload_bytes() - before.host_payload_bytes();
    const std::uint64_t p2p = after.p2p_bytes - before.p2p_bytes;
    if (payload != 0) {
      check.violations.push_back("matmul_chain steady-state host payload " +
                                 std::to_string(payload) + " != 0");
    }
    // Each shard pulls the other shard's rows of X_k: n*n*4 bytes in all.
    if (p2p != kBytes * iterations) {
      check.violations.push_back(
          "matmul_chain p2p bytes " + std::to_string(p2p) + " != " +
          std::to_string(kBytes) + " x " + std::to_string(iterations));
    }
    std::vector<float> device(kElems);
    if (clEnqueueReadBuffer(cl_.queue, x_mem_[count_ % 2], CL_TRUE, 0, kBytes,
                            device.data(), 0, nullptr, nullptr) != CL_SUCCESS) {
      check.violations.push_back("matmul_chain read-back failed");
      check.failed_iterations = iterations;
      return check;
    }
    std::vector<float> x = x0_;
    std::vector<float> next;
    std::vector<double> step_ms;
    for (std::size_t i = 0; i < count_; ++i) {
      const auto start = std::chrono::steady_clock::now();
      MatmulReference(a_, x, kN, &next);
      step_ms.push_back(MillisSince(start));
      x.swap(next);
    }
    check.ref_ms = step_ms.empty() ? 0.0 : Median(step_ms);
    if (std::memcmp(device.data(), x.data(), kBytes) != 0) {
      check.violations.push_back("matmul_chain diverged from host reference");
      check.failed_iterations = iterations;
    }
    return check;
  }

  void Teardown() override {
    for (cl_kernel& k : kernel_) {
      if (k != nullptr) clReleaseKernel(k);
      k = nullptr;
    }
    for (cl_mem* m : {&a_mem_, &x_mem_[0], &x_mem_[1]}) {
      if (*m != nullptr) clReleaseMemObject(*m);
      *m = nullptr;
    }
    cl_.Close();
    count_ = 0;
  }

 private:
  std::vector<float> a_;
  std::vector<float> x0_;
  ClProgram cl_;
  cl_kernel kernel_[2] = {};
  cl_mem a_mem_ = nullptr;
  cl_mem x_mem_[2] = {};
  std::size_t count_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "launch_small") return std::make_unique<LaunchSmall>(seed);
  if (name == "bulk_rw") return std::make_unique<BulkRw>(seed);
  if (name == "matmul_chain") return std::make_unique<MatmulChain>(seed);
  return nullptr;
}

}  // namespace perfbench
