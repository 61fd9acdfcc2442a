// The OpenCL Wrapper Lib: an unmodified OpenCL 1.2 host program written
// against cl* entry points must run on the distributed cluster. Also
// covers error-code conformance on misuse.
#include "api/hao_cl.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "api/runtime_binding.h"
#include "workloads/workload.h"

namespace {

using haocl::api::BindSimCluster;
using haocl::api::UnbindRuntime;

class HaoClApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    haocl::workloads::RegisterAllNativeKernels();
    haocl::host::SimCluster::Shape shape;
    shape.gpu_nodes = 2;
    shape.fpga_nodes = 1;
    ASSERT_TRUE(BindSimCluster(shape).ok());
    ASSERT_EQ(clGetPlatformIDs(1, &platform_, nullptr), CL_SUCCESS);
  }
  void TearDown() override { UnbindRuntime(); }

  cl_platform_id platform_ = nullptr;
};

TEST_F(HaoClApiTest, DeviceMemorySizesAreHonest) {
  // Devices report the capacities the tiered-memory subsystem manages:
  // each node its own device memory, the virtual cluster device the
  // cluster-wide sum — and allocations past that sum fail.
  cl_device_id cluster = nullptr;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_DEFAULT, 1, &cluster,
                           nullptr),
            CL_SUCCESS);
  cl_ulong cluster_bytes = 0;
  ASSERT_EQ(clGetDeviceInfo(cluster, CL_DEVICE_GLOBAL_MEM_SIZE,
                            sizeof(cluster_bytes), &cluster_bytes, nullptr),
            CL_SUCCESS);
  // 2 GPUs (8 GiB each) + 1 FPGA (16 GiB).
  EXPECT_EQ(cluster_bytes, 32ull << 30);

  cl_device_id gpu = nullptr;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 1, &gpu, nullptr),
            CL_SUCCESS);
  cl_ulong gpu_bytes = 0;
  ASSERT_EQ(clGetDeviceInfo(gpu, CL_DEVICE_GLOBAL_MEM_SIZE,
                            sizeof(gpu_bytes), &gpu_bytes, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(gpu_bytes, 8ull << 30);
  cl_ulong max_alloc = 0;
  ASSERT_EQ(clGetDeviceInfo(gpu, CL_DEVICE_MAX_MEM_ALLOC_SIZE,
                            sizeof(max_alloc), &max_alloc, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(max_alloc, 8ull << 30);

  cl_int err = CL_SUCCESS;
  cl_context context =
      clCreateContext(nullptr, 1, &cluster, nullptr, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  // Beyond the cluster-wide capacity: an honest allocation failure
  // instead of a buffer no device set could ever hold.
  cl_mem too_big = clCreateBuffer(context, 0, (32ull << 30) + 1, nullptr,
                                  &err);
  EXPECT_EQ(too_big, nullptr);
  EXPECT_EQ(err, CL_MEM_OBJECT_ALLOCATION_FAILURE);
  clReleaseContext(context);
}

TEST_F(HaoClApiTest, PlatformAndDeviceDiscovery) {
  cl_uint num_platforms = 0;
  ASSERT_EQ(clGetPlatformIDs(0, nullptr, &num_platforms), CL_SUCCESS);
  EXPECT_EQ(num_platforms, 1u);

  char name[64];
  ASSERT_EQ(clGetPlatformInfo(platform_, CL_PLATFORM_NAME, sizeof(name), name,
                              nullptr),
            CL_SUCCESS);
  EXPECT_STREQ(name, "HaoCL");

  cl_uint num_devices = 0;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_ALL, 0, nullptr,
                           &num_devices),
            CL_SUCCESS);
  EXPECT_EQ(num_devices, 4u);  // Virtual cluster device + 3 nodes.

  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 0, nullptr,
                           &num_devices),
            CL_SUCCESS);
  EXPECT_EQ(num_devices, 2u);
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_ACCELERATOR, 0, nullptr,
                           &num_devices),
            CL_SUCCESS);
  EXPECT_EQ(num_devices, 1u);

  cl_device_id first = nullptr;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_DEFAULT, 1, &first,
                           nullptr),
            CL_SUCCESS);
  char device_name[128];
  ASSERT_EQ(clGetDeviceInfo(first, CL_DEVICE_NAME, sizeof(device_name),
                            device_name, nullptr),
            CL_SUCCESS);
  EXPECT_NE(std::string(device_name).find("HaoCL Cluster"),
            std::string::npos);
}

// The canonical unmodified OpenCL host program: vector addition. This is
// the paper's core usability claim end-to-end.
TEST_F(HaoClApiTest, UnmodifiedVectorAddProgram) {
  cl_device_id device = nullptr;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 1, &device,
                           nullptr),
            CL_SUCCESS);

  cl_int err = CL_SUCCESS;
  cl_context context = clCreateContext(nullptr, 1, &device, nullptr, nullptr,
                                       &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_command_queue queue =
      clCreateCommandQueue(context, device, CL_QUEUE_PROFILING_ENABLE, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  const int n = 1000;
  std::vector<float> a(n), b(n), c(n, 0.0f);
  for (int i = 0; i < n; ++i) {
    a[i] = static_cast<float>(i);
    b[i] = static_cast<float>(3 * i);
  }
  cl_mem a_mem = clCreateBuffer(context, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR,
                                n * sizeof(float), a.data(), &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_mem b_mem = clCreateBuffer(context, CL_MEM_READ_ONLY, n * sizeof(float),
                                nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_mem c_mem = clCreateBuffer(context, CL_MEM_WRITE_ONLY, n * sizeof(float),
                                nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clEnqueueWriteBuffer(queue, b_mem, CL_TRUE, 0, n * sizeof(float),
                                 b.data(), 0, nullptr, nullptr),
            CL_SUCCESS);

  const char* source = R"(
    __kernel void vadd(__global const float* a, __global const float* b,
                       __global float* c, int n) {
      int i = get_global_id(0);
      if (i < n) c[i] = a[i] + b[i];
    })";
  cl_program program =
      clCreateProgramWithSource(context, 1, &source, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clBuildProgram(program, 1, &device, "", nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "vadd", &err);
  ASSERT_EQ(err, CL_SUCCESS);

  ASSERT_EQ(clSetKernelArg(kernel, 0, sizeof(cl_mem), &a_mem), CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 1, sizeof(cl_mem), &b_mem), CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 2, sizeof(cl_mem), &c_mem), CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 3, sizeof(int), &n), CL_SUCCESS);

  const size_t global = 1024;
  cl_event event = nullptr;
  ASSERT_EQ(clEnqueueNDRangeKernel(queue, kernel, 1, nullptr, &global,
                                   nullptr, 0, nullptr, &event),
            CL_SUCCESS);
  ASSERT_EQ(clWaitForEvents(1, &event), CL_SUCCESS);
  ASSERT_EQ(clEnqueueReadBuffer(queue, c_mem, CL_TRUE, 0, n * sizeof(float),
                                c.data(), 0, nullptr, nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clFinish(queue), CL_SUCCESS);

  for (int i = 0; i < n; ++i) {
    ASSERT_FLOAT_EQ(c[i], static_cast<float>(4 * i)) << i;
  }

  // Profiling: end >= start, both nonzero after a real kernel.
  cl_ulong start_ns = 0;
  cl_ulong end_ns = 0;
  ASSERT_EQ(clGetEventProfilingInfo(event, CL_PROFILING_COMMAND_START,
                                    sizeof(start_ns), &start_ns, nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clGetEventProfilingInfo(event, CL_PROFILING_COMMAND_END,
                                    sizeof(end_ns), &end_ns, nullptr),
            CL_SUCCESS);
  EXPECT_GT(end_ns, start_ns);

  EXPECT_EQ(clReleaseEvent(event), CL_SUCCESS);
  EXPECT_EQ(clReleaseKernel(kernel), CL_SUCCESS);
  EXPECT_EQ(clReleaseProgram(program), CL_SUCCESS);
  for (cl_mem mem : {a_mem, b_mem, c_mem}) {
    EXPECT_EQ(clReleaseMemObject(mem), CL_SUCCESS);
  }
  EXPECT_EQ(clReleaseCommandQueue(queue), CL_SUCCESS);
  EXPECT_EQ(clReleaseContext(context), CL_SUCCESS);
}

TEST_F(HaoClApiTest, ClusterDeviceSchedulesAutomatically) {
  // Queue on the virtual cluster device: the scheduler places kernels.
  auto* runtime = haocl::api::BoundRuntime();
  ASSERT_TRUE(runtime->SetScheduler("leastloaded").ok());

  cl_device_id cluster_device = nullptr;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_DEFAULT, 1,
                           &cluster_device, nullptr),
            CL_SUCCESS);
  cl_int err;
  cl_context context = clCreateContext(nullptr, 1, &cluster_device, nullptr,
                                       nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_command_queue queue =
      clCreateCommandQueue(context, cluster_device, 0, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  const char* source = R"(
    __kernel void inc(__global int* data) {
      data[get_global_id(0)] += 1;
    })";
  cl_program program =
      clCreateProgramWithSource(context, 1, &source, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "inc", &err);
  ASSERT_EQ(err, CL_SUCCESS);

  std::vector<int> data(64, 41);
  cl_mem mem = clCreateBuffer(context, CL_MEM_COPY_HOST_PTR, 64 * 4,
                              data.data(), &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 0, sizeof(cl_mem), &mem), CL_SUCCESS);
  const size_t global = 64;
  ASSERT_EQ(clEnqueueNDRangeKernel(queue, kernel, 1, nullptr, &global,
                                   nullptr, 0, nullptr, nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clEnqueueReadBuffer(queue, mem, CL_TRUE, 0, 64 * 4, data.data(),
                                0, nullptr, nullptr),
            CL_SUCCESS);
  for (int v : data) ASSERT_EQ(v, 42);

  clReleaseMemObject(mem);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  clReleaseCommandQueue(queue);
  clReleaseContext(context);
}

TEST_F(HaoClApiTest, BuildFailureReportsLog) {
  cl_device_id device;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 1, &device,
                           nullptr),
            CL_SUCCESS);
  cl_int err;
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  const char* bad = "__kernel void broken( {";
  cl_program program =
      clCreateProgramWithSource(context, 1, &bad, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  EXPECT_EQ(clBuildProgram(program, 1, &device, nullptr, nullptr, nullptr),
            CL_BUILD_PROGRAM_FAILURE);

  cl_int status = CL_SUCCESS;
  ASSERT_EQ(clGetProgramBuildInfo(program, device, CL_PROGRAM_BUILD_STATUS,
                                  sizeof(status), &status, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(status, CL_BUILD_PROGRAM_FAILURE);

  size_t log_size = 0;
  ASSERT_EQ(clGetProgramBuildInfo(program, device, CL_PROGRAM_BUILD_LOG, 0,
                                  nullptr, &log_size),
            CL_SUCCESS);
  EXPECT_GT(log_size, 1u);

  // Kernel creation on an unbuilt program fails cleanly.
  cl_kernel kernel = clCreateKernel(program, "broken", &err);
  EXPECT_EQ(kernel, nullptr);
  EXPECT_EQ(err, CL_INVALID_PROGRAM_EXECUTABLE);

  clReleaseProgram(program);
  clReleaseContext(context);
}

TEST_F(HaoClApiTest, ErrorCodesOnMisuse) {
  // Invalid handles are detected, not dereferenced.
  EXPECT_EQ(clRetainContext(nullptr), CL_INVALID_CONTEXT);
  EXPECT_EQ(clReleaseMemObject(nullptr), CL_INVALID_MEM_OBJECT);
  EXPECT_EQ(clFinish(nullptr), CL_INVALID_COMMAND_QUEUE);
  EXPECT_EQ(clWaitForEvents(0, nullptr), CL_INVALID_VALUE);

  cl_device_id device;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 1, &device,
                           nullptr),
            CL_SUCCESS);
  cl_int err;
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);

  // Zero-size buffer.
  cl_mem mem = clCreateBuffer(context, CL_MEM_READ_WRITE, 0, nullptr, &err);
  EXPECT_EQ(mem, nullptr);
  EXPECT_EQ(err, CL_INVALID_BUFFER_SIZE);
  // COPY_HOST_PTR without a pointer.
  mem = clCreateBuffer(context, CL_MEM_COPY_HOST_PTR, 16, nullptr, &err);
  EXPECT_EQ(mem, nullptr);
  EXPECT_EQ(err, CL_INVALID_VALUE);

  const char* source = R"(
    __kernel void two(__global int* buf, float scale) { buf[0] = (int)scale; }
  )";
  cl_program program =
      clCreateProgramWithSource(context, 1, &source, nullptr, &err);
  ASSERT_EQ(clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "two", &err);
  ASSERT_EQ(err, CL_SUCCESS);
  EXPECT_EQ(clCreateKernel(program, "nosuch", &err), nullptr);
  EXPECT_EQ(err, CL_INVALID_KERNEL_NAME);

  // Arg index/size validation against the compiled signature.
  float scale = 2.0f;
  EXPECT_EQ(clSetKernelArg(kernel, 7, sizeof(float), &scale),
            CL_INVALID_ARG_INDEX);
  EXPECT_EQ(clSetKernelArg(kernel, 1, sizeof(double), &scale),
            CL_INVALID_ARG_SIZE);
  EXPECT_EQ(clSetKernelArg(kernel, 0, sizeof(float), &scale),
            CL_INVALID_ARG_SIZE);  // Buffer arg needs cl_mem.

  // Launch with unset args is rejected.
  cl_command_queue queue = clCreateCommandQueue(context, device, 0, &err);
  const size_t global = 1;
  EXPECT_EQ(clEnqueueNDRangeKernel(queue, kernel, 1, nullptr, &global,
                                   nullptr, 0, nullptr, nullptr),
            CL_INVALID_KERNEL_ARGS);
  // Bad work dimension.
  EXPECT_EQ(clEnqueueNDRangeKernel(queue, kernel, 4, nullptr, &global,
                                   nullptr, 0, nullptr, nullptr),
            CL_INVALID_WORK_DIMENSION);

  clReleaseKernel(kernel);
  clReleaseProgram(program);
  clReleaseCommandQueue(queue);
  clReleaseContext(context);
}

TEST_F(HaoClApiTest, LocalMemoryKernelThroughApi) {
  cl_device_id device;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 1, &device,
                           nullptr),
            CL_SUCCESS);
  cl_int err;
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  cl_command_queue queue = clCreateCommandQueue(context, device, 0, &err);

  const char* source = R"(
    __kernel void reduce(__global const int* in, __global int* out,
                         __local int* scratch) {
      int lid = get_local_id(0);
      scratch[lid] = in[get_global_id(0)];
      barrier(1);
      for (int off = (int)get_local_size(0) / 2; off > 0; off /= 2) {
        if (lid < off) scratch[lid] += scratch[lid + off];
        barrier(1);
      }
      if (lid == 0) out[get_group_id(0)] = scratch[0];
    })";
  cl_program program =
      clCreateProgramWithSource(context, 1, &source, nullptr, &err);
  ASSERT_EQ(clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "reduce", &err);

  const int n = 256;
  const int local = 64;
  std::vector<int> in(n, 1);
  std::vector<int> out(n / local, 0);
  cl_mem in_mem = clCreateBuffer(context, CL_MEM_COPY_HOST_PTR, n * 4,
                                 in.data(), &err);
  cl_mem out_mem =
      clCreateBuffer(context, CL_MEM_WRITE_ONLY, out.size() * 4, nullptr,
                     &err);
  ASSERT_EQ(clSetKernelArg(kernel, 0, sizeof(cl_mem), &in_mem), CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 1, sizeof(cl_mem), &out_mem), CL_SUCCESS);
  // Local pointer arg: NULL value + byte size, per the OpenCL spec.
  ASSERT_EQ(clSetKernelArg(kernel, 2, local * 4, nullptr), CL_SUCCESS);

  const size_t global_size = n;
  const size_t local_size = local;
  ASSERT_EQ(clEnqueueNDRangeKernel(queue, kernel, 1, nullptr, &global_size,
                                   &local_size, 0, nullptr, nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clEnqueueReadBuffer(queue, out_mem, CL_TRUE, 0, out.size() * 4,
                                out.data(), 0, nullptr, nullptr),
            CL_SUCCESS);
  for (int v : out) ASSERT_EQ(v, local);

  clReleaseMemObject(in_mem);
  clReleaseMemObject(out_mem);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  clReleaseCommandQueue(queue);
  clReleaseContext(context);
}

TEST_F(HaoClApiTest, RetainReleaseRefcounts) {
  cl_device_id device;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 1, &device,
                           nullptr),
            CL_SUCCESS);
  cl_int err;
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  ASSERT_EQ(clRetainContext(context), CL_SUCCESS);
  EXPECT_EQ(clReleaseContext(context), CL_SUCCESS);  // refs 2 -> 1.
  EXPECT_EQ(clReleaseContext(context), CL_SUCCESS);  // refs 1 -> 0, freed.

  cl_mem mem;
  {
    cl_context c2 = clCreateContext(nullptr, 1, &device, nullptr, nullptr,
                                    &err);
    mem = clCreateBuffer(c2, CL_MEM_READ_WRITE, 64, nullptr, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    ASSERT_EQ(clRetainMemObject(mem), CL_SUCCESS);
    EXPECT_EQ(clReleaseMemObject(mem), CL_SUCCESS);
    EXPECT_EQ(clReleaseMemObject(mem), CL_SUCCESS);
    clReleaseContext(c2);
  }
}

// ---- Deferred queues, real events, async semantics -----------------------

class HaoClAsyncTest : public HaoClApiTest {
 protected:
  void SetUpPipeline() {
    cl_int err;
    ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 1, &device_,
                             nullptr),
              CL_SUCCESS);
    context_ = clCreateContext(nullptr, 1, &device_, nullptr, nullptr, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    queue_ = clCreateCommandQueue(context_, device_,
                                  CL_QUEUE_PROFILING_ENABLE, &err);
    ASSERT_EQ(err, CL_SUCCESS);
  }
  void TearDownPipeline() {
    if (queue_ != nullptr) clReleaseCommandQueue(queue_);
    if (context_ != nullptr) clReleaseContext(context_);
  }

  cl_device_id device_ = nullptr;
  cl_context context_ = nullptr;
  cl_command_queue queue_ = nullptr;
};

TEST_F(HaoClAsyncTest, UserEventGateDefersNonBlockingRead) {
  SetUpPipeline();
  cl_int err;
  std::vector<std::int32_t> init(8, 123);
  cl_mem mem = clCreateBuffer(context_, CL_MEM_COPY_HOST_PTR, 32,
                              init.data(), &err);
  ASSERT_EQ(err, CL_SUCCESS);

  cl_event gate = clCreateUserEvent(context_, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_int gate_status = -1;
  ASSERT_EQ(clGetEventInfo(gate, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof(gate_status), &gate_status, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(gate_status, CL_SUBMITTED);

  // Non-blocking read gated on the user event: the enqueue returns
  // immediately and the destination must stay untouched — the node RPC
  // cannot even start until the gate resolves.
  std::vector<std::int32_t> sink(8, -1);
  cl_event read_event = nullptr;
  ASSERT_EQ(clEnqueueReadBuffer(queue_, mem, CL_FALSE, 0, 32, sink.data(), 1,
                                &gate, &read_event),
            CL_SUCCESS);
  cl_int read_status = -1;
  ASSERT_EQ(clGetEventInfo(read_event, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof(read_status), &read_status, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(read_status, CL_QUEUED);
  EXPECT_EQ(sink[0], -1);

  ASSERT_EQ(clSetUserEventStatus(gate, CL_COMPLETE), CL_SUCCESS);
  ASSERT_EQ(clWaitForEvents(1, &read_event), CL_SUCCESS);
  EXPECT_EQ(sink[0], 123);
  ASSERT_EQ(clGetEventInfo(read_event, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof(read_status), &read_status, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(read_status, CL_COMPLETE);

  // Setting a resolved user event again is rejected.
  EXPECT_EQ(clSetUserEventStatus(gate, CL_COMPLETE), CL_INVALID_OPERATION);

  clReleaseEvent(read_event);
  clReleaseEvent(gate);
  clReleaseMemObject(mem);
  TearDownPipeline();
}

TEST_F(HaoClAsyncTest, NonBlockingWriteReadsSourceWhenItExecutes) {
  SetUpPipeline();
  cl_int err;
  cl_mem mem = clCreateBuffer(context_, CL_MEM_READ_WRITE, 32, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_event gate = clCreateUserEvent(context_, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  std::vector<std::int32_t> source(8, 55);
  ASSERT_EQ(clEnqueueWriteBuffer(queue_, mem, CL_FALSE, 0, 32, source.data(),
                                 1, &gate, nullptr),
            CL_SUCCESS);
  // OpenCL 1.2 §5.2.2: `ptr` belongs to the write until it completes, so
  // the command copies it when it executes, not at enqueue. Bytes changed
  // before the gate opens are the bytes written.
  std::fill(source.begin(), source.end(), -999);
  ASSERT_EQ(clSetUserEventStatus(gate, CL_COMPLETE), CL_SUCCESS);
  ASSERT_EQ(clFinish(queue_), CL_SUCCESS);

  std::vector<std::int32_t> got(8, 0);
  ASSERT_EQ(clEnqueueReadBuffer(queue_, mem, CL_TRUE, 0, 32, got.data(), 0,
                                nullptr, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(got, source);

  clReleaseEvent(gate);
  clReleaseMemObject(mem);
  TearDownPipeline();
}

TEST_F(HaoClAsyncTest, WaitListOrdersCommandsAcrossQueues) {
  SetUpPipeline();
  cl_int err;
  cl_command_queue other_queue =
      clCreateCommandQueue(context_, device_, 0, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  const char* source = R"(
    __kernel void fill7(__global int* data) {
      data[get_global_id(0)] = 7;
    })";
  cl_program program =
      clCreateProgramWithSource(context_, 1, &source, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "fill7", &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_mem mem = clCreateBuffer(context_, CL_MEM_READ_WRITE, 64 * 4, nullptr,
                              &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 0, sizeof(cl_mem), &mem), CL_SUCCESS);

  // Gate the producer kernel on queue 1; consumer read lives on queue 2
  // and is ordered ONLY by its wait list (queues are independent).
  cl_event gate = clCreateUserEvent(context_, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  const size_t global = 64;
  cl_event kernel_event = nullptr;
  ASSERT_EQ(clEnqueueNDRangeKernel(queue_, kernel, 1, nullptr, &global,
                                   nullptr, 1, &gate, &kernel_event),
            CL_SUCCESS);
  std::vector<std::int32_t> got(64, 0);
  cl_event read_event = nullptr;
  ASSERT_EQ(clEnqueueReadBuffer(other_queue, mem, CL_FALSE, 0, 64 * 4,
                                got.data(), 1, &kernel_event, &read_event),
            CL_SUCCESS);

  // Whole pipeline is still gated.
  cl_int status = -1;
  ASSERT_EQ(clGetEventInfo(read_event, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof(status), &status, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(status, CL_QUEUED);

  ASSERT_EQ(clSetUserEventStatus(gate, CL_COMPLETE), CL_SUCCESS);
  ASSERT_EQ(clWaitForEvents(1, &read_event), CL_SUCCESS);
  for (int v : got) ASSERT_EQ(v, 7);

  clReleaseEvent(gate);
  clReleaseEvent(kernel_event);
  clReleaseEvent(read_event);
  clReleaseMemObject(mem);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  clReleaseCommandQueue(other_queue);
  TearDownPipeline();
}

TEST_F(HaoClAsyncTest, FinishDrainsDeferredPipeline) {
  SetUpPipeline();
  cl_int err;
  const char* source = R"(
    __kernel void doubler(__global int* data, int n) {
      int i = get_global_id(0);
      if (i < n) data[i] = data[i] * 2;
    })";
  cl_program program =
      clCreateProgramWithSource(context_, 1, &source, nullptr, &err);
  ASSERT_EQ(clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "doubler", &err);
  ASSERT_EQ(err, CL_SUCCESS);

  const int n = 256;
  std::vector<std::int32_t> data(n, 3);
  cl_mem mem = clCreateBuffer(context_, CL_MEM_READ_WRITE, n * 4, nullptr,
                              &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 0, sizeof(cl_mem), &mem), CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 1, sizeof(int), &n), CL_SUCCESS);

  // Everything non-blocking: write, two chained launches, read. clFinish
  // is the only synchronization point.
  ASSERT_EQ(clEnqueueWriteBuffer(queue_, mem, CL_FALSE, 0, n * 4,
                                 data.data(), 0, nullptr, nullptr),
            CL_SUCCESS);
  const size_t global = n;
  ASSERT_EQ(clEnqueueNDRangeKernel(queue_, kernel, 1, nullptr, &global,
                                   nullptr, 0, nullptr, nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clEnqueueNDRangeKernel(queue_, kernel, 1, nullptr, &global,
                                   nullptr, 0, nullptr, nullptr),
            CL_SUCCESS);
  std::vector<std::int32_t> got(n, 0);
  ASSERT_EQ(clEnqueueReadBuffer(queue_, mem, CL_FALSE, 0, n * 4, got.data(),
                                0, nullptr, nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clFinish(queue_), CL_SUCCESS);
  for (int v : got) ASSERT_EQ(v, 12);  // 3 * 2 * 2.

  clReleaseMemObject(mem);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  TearDownPipeline();
}

TEST_F(HaoClAsyncTest, ProfilingStampsFollowLifecycleOrder) {
  SetUpPipeline();
  cl_int err;
  const char* source = R"(
    __kernel void inc(__global int* data) {
      data[get_global_id(0)] += 1;
    })";
  cl_program program =
      clCreateProgramWithSource(context_, 1, &source, nullptr, &err);
  ASSERT_EQ(clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "inc", &err);
  cl_mem mem = clCreateBuffer(context_, CL_MEM_READ_WRITE, 64 * 4, nullptr,
                              &err);
  ASSERT_EQ(clSetKernelArg(kernel, 0, sizeof(cl_mem), &mem), CL_SUCCESS);

  const size_t global = 64;
  cl_event event = nullptr;
  ASSERT_EQ(clEnqueueNDRangeKernel(queue_, kernel, 1, nullptr, &global,
                                   nullptr, 0, nullptr, &event),
            CL_SUCCESS);

  // Profiling info is unavailable while the command may still be in
  // flight... (the event resolves lazily, so probe once drained).
  ASSERT_EQ(clFinish(queue_), CL_SUCCESS);
  cl_ulong queued = 0, submit = 0, start = 0, end = 0;
  ASSERT_EQ(clGetEventProfilingInfo(event, CL_PROFILING_COMMAND_QUEUED,
                                    sizeof(queued), &queued, nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clGetEventProfilingInfo(event, CL_PROFILING_COMMAND_SUBMIT,
                                    sizeof(submit), &submit, nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clGetEventProfilingInfo(event, CL_PROFILING_COMMAND_START,
                                    sizeof(start), &start, nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clGetEventProfilingInfo(event, CL_PROFILING_COMMAND_END,
                                    sizeof(end), &end, nullptr),
            CL_SUCCESS);
  // The satellite contract: QUEUED < SUBMIT <= START <= END, END > START
  // for a real kernel.
  EXPECT_LT(queued, submit);
  EXPECT_LE(submit, start);
  EXPECT_LT(start, end);

  clReleaseEvent(event);
  clReleaseMemObject(mem);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  TearDownPipeline();
}

TEST_F(HaoClAsyncTest, MigrateMemObjectsPrefetchesAndChains) {
  SetUpPipeline();
  cl_int err;
  cl_mem mem = clCreateBuffer(context_, CL_MEM_READ_WRITE, 256, nullptr,
                              &err);
  cl_mem other = clCreateBuffer(context_, CL_MEM_READ_WRITE, 256, nullptr,
                                &err);
  ASSERT_EQ(err, CL_SUCCESS);
  std::vector<std::int32_t> init(64, 11);
  ASSERT_EQ(clEnqueueWriteBuffer(queue_, mem, CL_FALSE, 0, 256, init.data(),
                                 0, nullptr, nullptr),
            CL_SUCCESS);

  // Device-directed migration of both buffers, one event for the batch;
  // it chains on the in-order queue behind the write.
  cl_mem mems[2] = {mem, other};
  cl_event event = nullptr;
  ASSERT_EQ(clEnqueueMigrateMemObjects(queue_, 2, mems, 0, 0, nullptr,
                                       &event),
            CL_SUCCESS);
  ASSERT_NE(event, nullptr);
  ASSERT_EQ(clWaitForEvents(1, &event), CL_SUCCESS);
  cl_int exec_status = CL_QUEUED;
  ASSERT_EQ(clGetEventInfo(event, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof exec_status, &exec_status, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(exec_status, CL_COMPLETE);
  clReleaseEvent(event);

  // Migrating back to the host (the explicit lazy gather) and reading
  // still sees the written values.
  ASSERT_EQ(clEnqueueMigrateMemObjects(queue_, 1, &mem,
                                       CL_MIGRATE_MEM_OBJECT_HOST, 0,
                                       nullptr, nullptr),
            CL_SUCCESS);
  std::vector<std::int32_t> got(64, 0);
  ASSERT_EQ(clEnqueueReadBuffer(queue_, mem, CL_TRUE, 0, 256, got.data(), 0,
                                nullptr, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(got, init);

  // CONTENT_UNDEFINED is accepted (pure ownership move).
  ASSERT_EQ(clEnqueueMigrateMemObjects(
                queue_, 1, &other,
                CL_MIGRATE_MEM_OBJECT_CONTENT_UNDEFINED, 0, nullptr,
                nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clFinish(queue_), CL_SUCCESS);

  // Misuse: no mem objects, bad handle, unknown flag bits.
  EXPECT_EQ(clEnqueueMigrateMemObjects(queue_, 0, nullptr, 0, 0, nullptr,
                                       nullptr),
            CL_INVALID_VALUE);
  cl_mem bogus = nullptr;
  EXPECT_EQ(clEnqueueMigrateMemObjects(queue_, 1, &bogus, 0, 0, nullptr,
                                       nullptr),
            CL_INVALID_MEM_OBJECT);
  EXPECT_EQ(clEnqueueMigrateMemObjects(queue_, 1, &mem, 1u << 7, 0, nullptr,
                                       nullptr),
            CL_INVALID_VALUE);

  clReleaseMemObject(mem);
  clReleaseMemObject(other);
  TearDownPipeline();
}

TEST_F(HaoClApiTest, MigrateOnClusterDeviceIsAnOrderedNoOp) {
  // The virtual cluster device has no fixed placement: a device-directed
  // migration is the legal no-op hint, but it must still behave as an
  // in-order command (event completes after the queue's earlier work).
  cl_int err;
  cl_device_id device;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_DEFAULT, 1, &device,
                           nullptr),
            CL_SUCCESS);
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_command_queue queue = clCreateCommandQueue(context, device, 0, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_mem mem = clCreateBuffer(context, CL_MEM_READ_WRITE, 64, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  std::vector<std::uint8_t> data(64, 42);
  ASSERT_EQ(clEnqueueWriteBuffer(queue, mem, CL_FALSE, 0, 64, data.data(),
                                 0, nullptr, nullptr),
            CL_SUCCESS);
  cl_event event = nullptr;
  ASSERT_EQ(clEnqueueMigrateMemObjects(queue, 1, &mem, 0, 0, nullptr,
                                       &event),
            CL_SUCCESS);
  ASSERT_EQ(clWaitForEvents(1, &event), CL_SUCCESS);
  std::vector<std::uint8_t> got(64, 0);
  ASSERT_EQ(clEnqueueReadBuffer(queue, mem, CL_TRUE, 0, 64, got.data(), 0,
                                nullptr, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(got, data);
  clReleaseEvent(event);
  clReleaseMemObject(mem);
  clReleaseCommandQueue(queue);
  clReleaseContext(context);
}

TEST_F(HaoClAsyncTest, EnqueueBoundsAreValidated) {
  SetUpPipeline();
  cl_int err;
  cl_mem mem = clCreateBuffer(context_, CL_MEM_READ_WRITE, 64, nullptr, &err);
  cl_mem other = clCreateBuffer(context_, CL_MEM_READ_WRITE, 32, nullptr,
                                &err);
  ASSERT_EQ(err, CL_SUCCESS);
  std::vector<std::uint8_t> host(128, 0);

  // offset + size beyond the buffer: CL_INVALID_VALUE from the shim, for
  // reads, writes, and both ends of a copy.
  EXPECT_EQ(clEnqueueWriteBuffer(queue_, mem, CL_TRUE, 32, 64, host.data(),
                                 0, nullptr, nullptr),
            CL_INVALID_VALUE);
  EXPECT_EQ(clEnqueueReadBuffer(queue_, mem, CL_TRUE, 60, 8, host.data(), 0,
                                nullptr, nullptr),
            CL_INVALID_VALUE);
  EXPECT_EQ(clEnqueueCopyBuffer(queue_, mem, other, 0, 0, 48, 0, nullptr,
                                nullptr),
            CL_INVALID_VALUE);  // dst too small.
  EXPECT_EQ(clEnqueueCopyBuffer(queue_, mem, other, 48, 0, 32, 0, nullptr,
                                nullptr),
            CL_INVALID_VALUE);  // src over-read.
  // Zero-size transfers are invalid too.
  EXPECT_EQ(clEnqueueWriteBuffer(queue_, mem, CL_TRUE, 0, 0, host.data(), 0,
                                 nullptr, nullptr),
            CL_INVALID_VALUE);
  // offset + size wrapping around size_t must not sneak past the check.
  EXPECT_EQ(clEnqueueWriteBuffer(queue_, mem, CL_TRUE,
                                 std::numeric_limits<size_t>::max() - 4, 8,
                                 host.data(), 0, nullptr, nullptr),
            CL_INVALID_VALUE);
  // In-range still works.
  EXPECT_EQ(clEnqueueWriteBuffer(queue_, mem, CL_TRUE, 32, 32, host.data(),
                                 0, nullptr, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(clEnqueueCopyBuffer(queue_, mem, other, 32, 0, 32, 0, nullptr,
                                nullptr),
            CL_SUCCESS);
  ASSERT_EQ(clFinish(queue_), CL_SUCCESS);

  clReleaseMemObject(mem);
  clReleaseMemObject(other);
  TearDownPipeline();
}

TEST_F(HaoClAsyncTest, FailedUserEventFailsDependentsAndFinish) {
  SetUpPipeline();
  cl_int err;
  std::vector<std::int32_t> init(8, 5);
  cl_mem mem = clCreateBuffer(context_, CL_MEM_COPY_HOST_PTR, 32,
                              init.data(), &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_event gate = clCreateUserEvent(context_, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  std::vector<std::int32_t> sink(8, -1);
  cl_event read_event = nullptr;
  ASSERT_EQ(clEnqueueReadBuffer(queue_, mem, CL_FALSE, 0, 32, sink.data(), 1,
                                &gate, &read_event),
            CL_SUCCESS);
  ASSERT_EQ(clSetUserEventStatus(gate, -1), CL_SUCCESS);

  EXPECT_EQ(clWaitForEvents(1, &read_event),
            CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST);
  cl_int status = 0;
  ASSERT_EQ(clGetEventInfo(read_event, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof(status), &status, nullptr),
            CL_SUCCESS);
  EXPECT_LT(status, 0);
  EXPECT_EQ(sink[0], -1);  // The gated read never ran.
  // The queue's tail failed; clFinish reports it.
  EXPECT_EQ(clFinish(queue_), CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST);

  // One failed command does NOT poison the in-order queue: a subsequent
  // independent enqueue still executes (queue chaining is ordering-only).
  ASSERT_EQ(clEnqueueReadBuffer(queue_, mem, CL_TRUE, 0, 32, sink.data(), 0,
                                nullptr, nullptr),
            CL_SUCCESS);
  EXPECT_EQ(sink[0], 5);
  EXPECT_EQ(clFinish(queue_), CL_SUCCESS);

  clReleaseEvent(gate);
  clReleaseEvent(read_event);
  clReleaseMemObject(mem);
  TearDownPipeline();
}

TEST_F(HaoClAsyncTest, GlobalWorkOffsetShiftsGlobalIds) {
  // clEnqueueNDRangeKernel's global_work_offset (OpenCL 1.1+) maps through
  // the wire protocol: only ids [16, 48) run, so only that slice changes.
  SetUpPipeline();
  const char* source = R"(
    __kernel void mark(__global int* data) {
      data[get_global_id(0)] = (int)get_global_id(0) + 1;
    })";
  cl_int err;
  cl_program program =
      clCreateProgramWithSource(context_, 1, &source, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "mark", &err);
  ASSERT_EQ(err, CL_SUCCESS);

  std::vector<cl_int> zeros(64, 0);
  cl_mem buffer = clCreateBuffer(context_, CL_MEM_COPY_HOST_PTR,
                                 zeros.size() * 4, zeros.data(), &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 0, sizeof(buffer), &buffer), CL_SUCCESS);

  const size_t offset = 16;
  const size_t size = 32;
  ASSERT_EQ(clEnqueueNDRangeKernel(queue_, kernel, 1, &offset, &size,
                                   nullptr, 0, nullptr, nullptr),
            CL_SUCCESS);
  std::vector<cl_int> got(64, -1);
  ASSERT_EQ(clEnqueueReadBuffer(queue_, buffer, CL_TRUE, 0, got.size() * 4,
                                got.data(), 0, nullptr, nullptr),
            CL_SUCCESS);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(got[i], i >= 16 && i < 48 ? i + 1 : 0) << i;
  }
  clReleaseMemObject(buffer);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  TearDownPipeline();
}

TEST_F(HaoClAsyncTest, PartitionedAnnotationSplitsAcrossNodes) {
  // The HaoCL extension end-to-end: annotate the output buffer as
  // row-partitioned, schedule on the virtual cluster device with the
  // splitting policy, and the single enqueue co-executes across nodes
  // while producing exactly the sequential result.
  cl_int err;
  cl_device_id cluster_device = nullptr;
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_DEFAULT, 1,
                           &cluster_device, nullptr),
            CL_SUCCESS);
  context_ = clCreateContext(nullptr, 1, &cluster_device, nullptr, nullptr,
                             &err);
  ASSERT_EQ(err, CL_SUCCESS);
  queue_ = clCreateCommandQueue(context_, cluster_device, 0, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_TRUE(haocl::api::BoundRuntime()
                  ->SetScheduler("hetero_split")
                  .ok());

  const char* source = R"(
    __kernel void fill(__global int* data, int n) {
      int i = get_global_id(0);
      if (i < n) data[i] = 3 * i + 7;
    })";
  cl_program program =
      clCreateProgramWithSource(context_, 1, &source, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "fill", &err);
  ASSERT_EQ(err, CL_SUCCESS);

  const cl_int n = 1024;
  cl_mem buffer =
      clCreateBuffer(context_, CL_MEM_READ_WRITE, n * 4, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 0, sizeof(buffer), &buffer), CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 1, sizeof(n), &n), CL_SUCCESS);
  ASSERT_EQ(clSetKernelArgAccessPatternHAOCL(
                kernel, 0, CL_HAOCL_ARG_ACCESS_PARTITIONED_DIM0, 4),
            CL_SUCCESS);
  // Misuse is rejected: scalar args carry no access pattern, and
  // PARTITIONED needs a stride.
  EXPECT_EQ(clSetKernelArgAccessPatternHAOCL(
                kernel, 1, CL_HAOCL_ARG_ACCESS_PARTITIONED_DIM0, 4),
            CL_INVALID_ARG_VALUE);
  EXPECT_EQ(clSetKernelArgAccessPatternHAOCL(
                kernel, 0, CL_HAOCL_ARG_ACCESS_PARTITIONED_DIM0, 0),
            CL_INVALID_ARG_VALUE);

  const size_t size = n;
  cl_event done = nullptr;
  ASSERT_EQ(clEnqueueNDRangeKernel(queue_, kernel, 1, nullptr, &size,
                                   nullptr, 0, nullptr, &done),
            CL_SUCCESS);
  std::vector<cl_int> got(n, 0);
  ASSERT_EQ(clEnqueueReadBuffer(queue_, buffer, CL_TRUE, 0, n * 4,
                                got.data(), 1, &done, nullptr),
            CL_SUCCESS);
  for (cl_int i = 0; i < n; ++i) ASSERT_EQ(got[i], 3 * i + 7);
  clReleaseEvent(done);
  clReleaseMemObject(buffer);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  TearDownPipeline();
}

TEST_F(HaoClAsyncTest, NodeQueueWritePullsPeerToPeerAndReadsOnce) {
  // A write on node 0's queue goes to node 0; a launch on node 1's queue
  // pulls that range node-to-node; a read on node 1's queue takes the
  // result straight back. Host payload: exactly the write and the read.
  cl_int err;
  cl_device_id gpus[2] = {};
  ASSERT_EQ(clGetDeviceIDs(platform_, CL_DEVICE_TYPE_GPU, 2, gpus, nullptr),
            CL_SUCCESS);
  context_ = clCreateContext(nullptr, 2, gpus, nullptr, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  cl_command_queue queues[2] = {};
  for (int i = 0; i < 2; ++i) {
    queues[i] = clCreateCommandQueue(context_, gpus[i], 0, &err);
    ASSERT_EQ(err, CL_SUCCESS);
  }
  const char* source = R"(
    __kernel void axpb(__global int* data, int n) {
      int i = get_global_id(0);
      if (i < n) data[i] = 5 * data[i] + 3;
    })";
  cl_program program =
      clCreateProgramWithSource(context_, 1, &source, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "axpb", &err);
  ASSERT_EQ(err, CL_SUCCESS);
  const cl_int n = 4096;
  const std::size_t bytes = n * sizeof(cl_int);
  cl_mem buffer =
      clCreateBuffer(context_, CL_MEM_READ_WRITE, bytes, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 0, sizeof(buffer), &buffer), CL_SUCCESS);
  ASSERT_EQ(clSetKernelArg(kernel, 1, sizeof(n), &n), CL_SUCCESS);

  auto* runtime = haocl::api::BoundRuntime();
  const haocl::host::TransferStats before = runtime->transfer_stats();
  std::vector<cl_int> input(n);
  for (cl_int i = 0; i < n; ++i) input[i] = i * 7 - 5000;
  cl_event written = nullptr;
  ASSERT_EQ(clEnqueueWriteBuffer(queues[0], buffer, CL_FALSE, 0, bytes,
                                 input.data(), 0, nullptr, &written),
            CL_SUCCESS);
  const size_t global = n;
  ASSERT_EQ(clEnqueueNDRangeKernel(queues[1], kernel, 1, nullptr, &global,
                                   nullptr, 1, &written, nullptr),
            CL_SUCCESS);
  std::vector<cl_int> got(n, 0);
  ASSERT_EQ(clEnqueueReadBuffer(queues[1], buffer, CL_TRUE, 0, bytes,
                                got.data(), 0, nullptr, nullptr),
            CL_SUCCESS);
  for (cl_int i = 0; i < n; ++i) ASSERT_EQ(got[i], 5 * input[i] + 3) << i;

  const haocl::host::TransferStats after = runtime->transfer_stats();
  EXPECT_EQ(after.host_bytes_out - before.host_bytes_out, bytes);
  EXPECT_EQ(after.host_bytes_in - before.host_bytes_in, bytes);
  EXPECT_EQ(after.p2p_bytes - before.p2p_bytes, bytes);
  EXPECT_EQ(after.relay_bytes - before.relay_bytes, 0u);

  clReleaseEvent(written);
  clReleaseMemObject(buffer);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  for (cl_command_queue queue : queues) clReleaseCommandQueue(queue);
  TearDownPipeline();
}

TEST(HaoClUnboundTest, NoPlatformWithoutCluster) {
  UnbindRuntime();
  cl_uint num_platforms = 99;
  EXPECT_EQ(clGetPlatformIDs(0, nullptr, &num_platforms), CL_SUCCESS);
  EXPECT_EQ(num_platforms, 0u);
}

}  // namespace
