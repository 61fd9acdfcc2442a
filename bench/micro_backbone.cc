// Microbenchmarks supporting the paper's "negligible overhead" claim:
// wire-codec throughput, in-process and TCP round trips, synchronous vs
// pipelined RPC (the async-backbone ablation), compile latency, and
// scheduler decision cost.
#include <benchmark/benchmark.h>

#include "common/sync.h"
#include "common/wire.h"
#include "net/protocol.h"
#include "net/rpc.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"
#include "oclc/program.h"
#include "sched/scheduler.h"

namespace {

using haocl::net::CreateSimChannel;
using haocl::net::Message;
using haocl::net::MsgType;

void BM_WireEncodeLaunchRequest(benchmark::State& state) {
  haocl::net::LaunchKernelRequest request;
  request.program_id = 1;
  request.kernel_name = "matmul_partition";
  for (int i = 0; i < 5; ++i) {
    haocl::net::WireKernelArg arg;
    arg.kind = haocl::net::WireKernelArg::Kind::kBuffer;
    arg.buffer_id = i;
    request.args.push_back(arg);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(haocl::net::Encode(request));
  }
}
BENCHMARK(BM_WireEncodeLaunchRequest);

void BM_WireDecodeLaunchRequest(benchmark::State& state) {
  haocl::net::LaunchKernelRequest request;
  request.kernel_name = "spmv_compute";
  haocl::net::WireKernelArg arg;
  arg.kind = haocl::net::WireKernelArg::Kind::kScalar;
  arg.scalar_bytes = {1, 2, 3, 4};
  request.args = {arg, arg, arg};
  const auto bytes = haocl::net::Encode(request);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        haocl::net::Decode<haocl::net::LaunchKernelRequest>(bytes));
  }
}
BENCHMARK(BM_WireDecodeLaunchRequest);

// A data package as a stream transport sends it: encoded fields plus the
// bulk bytes as the frame's borrowed tail, flattened by Serialize.
void BM_WireDataPackage(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(size, 0x5A);
  for (auto _ : state) {
    haocl::net::WriteBufferRequest request;
    request.buffer_id = 1;
    request.data = data;
    Message msg;
    msg.type = MsgType::kWriteBuffer;
    msg.payload = haocl::net::Encode(request);
    msg.tail = request.data;
    benchmark::DoNotOptimize(msg.Serialize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_WireDataPackage)->Range(1 << 10, 1 << 22);

void BM_SimChannelRoundTrip(benchmark::State& state) {
  auto [a, b] = CreateSimChannel();
  auto* b_raw = b.get();
  b->Start([b_raw](Message m) { (void)b_raw->Send(m); });
  haocl::BlockingQueue<Message> replies;
  a->Start([&replies](Message m) { replies.Push(std::move(m)); });
  Message msg;
  msg.type = MsgType::kHeartbeat;
  for (auto _ : state) {
    msg.seq++;
    (void)a->Send(msg);
    benchmark::DoNotOptimize(replies.Pop());
  }
  a->Close();
  b->Close();
}
BENCHMARK(BM_SimChannelRoundTrip);

void BM_TcpLoopbackRoundTrip(benchmark::State& state) {
  haocl::net::TcpListener listener(0);
  haocl::BlockingQueue<haocl::net::ConnectionPtr> accepted;
  if (!listener
           .Start([&](haocl::net::ConnectionPtr c) {
             accepted.Push(std::move(c));
           })
           .ok()) {
    state.SkipWithError("listen failed");
    return;
  }
  auto client = haocl::net::TcpConnect("127.0.0.1", listener.port());
  if (!client.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  auto server = accepted.Pop();
  auto* server_raw = server->get();
  (*server)->Start([server_raw](Message m) { (void)server_raw->Send(m); });
  haocl::BlockingQueue<Message> replies;
  (*client)->Start([&replies](Message m) { replies.Push(std::move(m)); });
  Message msg;
  msg.type = MsgType::kHeartbeat;
  msg.payload.resize(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    msg.seq++;
    (void)(*client)->Send(msg);
    benchmark::DoNotOptimize(replies.Pop());
  }
  (*client)->Close();
  (*server)->Close();
  listener.Stop();
}
BENCHMARK(BM_TcpLoopbackRoundTrip)->Arg(64)->Arg(64 << 10);

// Synchronous call chain vs pipelined async calls: the design choice the
// paper makes differently for the host (sync) and nodes (async).
void BM_RpcSequentialCalls(benchmark::State& state) {
  auto [host_end, node_end] = CreateSimChannel();
  auto* node_raw = node_end.get();
  node_end->Start([node_raw](Message m) {
    Message reply;
    reply.type = MsgType::kStatusReply;
    reply.seq = m.seq;
    (void)node_raw->Send(reply);
  });
  haocl::net::RpcClient client(std::move(host_end));
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      benchmark::DoNotOptimize(client.Call(MsgType::kHeartbeat, 1, {}));
    }
  }
  client.Close();
  node_raw->Close();
}
BENCHMARK(BM_RpcSequentialCalls);

void BM_RpcPipelinedCalls(benchmark::State& state) {
  auto [host_end, node_end] = CreateSimChannel();
  auto* node_raw = node_end.get();
  node_end->Start([node_raw](Message m) {
    Message reply;
    reply.type = MsgType::kStatusReply;
    reply.seq = m.seq;
    (void)node_raw->Send(reply);
  });
  haocl::net::RpcClient client(std::move(host_end));
  for (auto _ : state) {
    std::vector<haocl::net::RpcClient::ReplyFuture> futures;
    futures.reserve(16);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(client.CallAsync(MsgType::kHeartbeat, 1, {}));
    }
    for (auto& future : futures) {
      benchmark::DoNotOptimize(future->Wait());
    }
  }
  client.Close();
  node_raw->Close();
}
BENCHMARK(BM_RpcPipelinedCalls);

void BM_CompileMatmulKernel(benchmark::State& state) {
  const std::string source = R"(
    __kernel void matmul(__global const float* a, __global const float* b,
                         __global float* c, int n, int rows) {
      int col = get_global_id(0);
      int row = get_global_id(1);
      if (row >= rows || col >= n) return;
      float acc = 0.0f;
      for (int k = 0; k < n; k++) acc += a[row * n + k] * b[k * n + col];
      c[row * n + col] = acc;
    })";
  for (auto _ : state) {
    benchmark::DoNotOptimize(haocl::oclc::Compile(source));
  }
}
BENCHMARK(BM_CompileMatmulKernel);

void BM_SchedulerDecision(benchmark::State& state) {
  auto policy = haocl::sched::MakeHeterogeneityAwarePolicy();
  haocl::sched::ClusterView cluster;
  for (int i = 0; i < 20; ++i) {
    haocl::sched::NodeView node;
    node.name = "n" + std::to_string(i);
    node.type = i % 4 == 0 ? haocl::NodeType::kFpga : haocl::NodeType::kGpu;
    node.spec = haocl::sim::SpecForType(node.type);
    node.busy_seconds_ahead = 0.01 * i;
    cluster.nodes.push_back(node);
  }
  haocl::sched::TaskInfo task;
  task.kernel_name = "spmv_compute";
  task.cost.flops = 1e9;
  task.cost.bytes = 1e8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->SelectNode(task, cluster));
  }
}
BENCHMARK(BM_SchedulerDecision);

void BM_InterpreterThroughput(benchmark::State& state) {
  auto module = haocl::oclc::Compile(R"(
    __kernel void saxpy(__global float* y, __global const float* x,
                        float a, int n) {
      int i = get_global_id(0);
      if (i < n) y[i] = a * x[i] + y[i];
    })");
  if (!module.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  const auto* kernel = (*module)->FindKernel("saxpy");
  const int n = 4096;
  std::vector<float> x(n, 1.0f);
  std::vector<float> y(n, 2.0f);
  haocl::oclc::NDRange range;
  range.global[0] = n;
  for (auto _ : state) {
    (void)haocl::oclc::LaunchKernel(
        **module, *kernel,
        {haocl::oclc::ArgBinding::Buffer(y.data(), n * 4),
         haocl::oclc::ArgBinding::Buffer(x.data(), n * 4),
         haocl::oclc::ArgBinding::Float(2.0f),
         haocl::oclc::ArgBinding::Int(n)},
        range);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_InterpreterThroughput);

}  // namespace

BENCHMARK_MAIN();
