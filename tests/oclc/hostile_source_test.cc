// Hostile OpenCL C: source nested or chained past the parser's limit must
// come back as a build log naming the limit — from the compiler, from the
// host's BuildProgram and from a TCP node, which keeps serving — and
// mutated workload kernels must compile or fail with a log, never crash.
#include <gtest/gtest.h>

#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "common/sync.h"
#include "host/sim_cluster.h"
#include "net/protocol.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"
#include "nmp/node_server.h"
#include "oclc/parser.h"
#include "oclc/program.h"
#include "workloads/workload.h"

namespace haocl::oclc {
namespace {

enum class Shape { kParens, kBlocks, kUnaryMinus, kElseIfChain, kFlatSum };

const char* Name(Shape shape) {
  switch (shape) {
    case Shape::kParens: return "Parens";
    case Shape::kBlocks: return "Blocks";
    case Shape::kUnaryMinus: return "UnaryMinus";
    case Shape::kElseIfChain: return "ElseIfChain";
    case Shape::kFlatSum: return "FlatSum";
  }
  return "?";
}

// Test names show the shape, not the enum's bytes.
void PrintTo(Shape shape, std::ostream* os) { *os << Name(shape); }

std::string ShapeName(const ::testing::TestParamInfo<Shape>& info) {
  return Name(info.param);
}

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  out.reserve(piece.size() * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

// A kernel whose body nests (or chains) `n` levels of `shape`.
std::string Kernel(Shape shape, int n) {
  std::string body;
  switch (shape) {
    case Shape::kParens:
      body = "a[0] = " + Repeat("(", n) + "a[1]" + Repeat(")", n) + ";";
      break;
    case Shape::kBlocks:
      body = Repeat("{", n) + "a[0] = 1.0f;" + Repeat("}", n);
      break;
    case Shape::kUnaryMinus:
      body = "a[0] = " + Repeat("- ", n) + "a[1];";
      break;
    case Shape::kElseIfChain:
      body = "if (a[1] > 0.0f) a[0] = 1.0f;" +
             Repeat(" else if (a[1] > 0.0f) a[0] = 1.0f;", n);
      break;
    case Shape::kFlatSum:
      body = "a[0] = a[1]" + Repeat("+a[1]", n) + ";";
      break;
  }
  return "__kernel void k(__global float* a) { " + body + " }";
}

// The shape at 1 MiB of source.
std::string MebibyteKernel(Shape shape) {
  const std::size_t per_level =
      Kernel(shape, 2).size() - Kernel(shape, 1).size();
  return Kernel(shape, static_cast<int>((1u << 20) / per_level) + 1);
}

bool NamesTheLimit(const std::string& log) {
  return log.find("nesting deeper than the limit of " +
                  std::to_string(kMaxNestingDepth)) != std::string::npos;
}

class HostileSourceTest : public ::testing::TestWithParam<Shape> {};

TEST_P(HostileSourceTest, CompileWithLogNamesTheLimit) {
  const std::string source = MebibyteKernel(GetParam());
  ASSERT_GE(source.size(), 1u << 20);
  CompileResult result = CompileWithLog(source);
  EXPECT_EQ(result.module, nullptr);
  EXPECT_TRUE(NamesTheLimit(result.build_log)) << result.build_log;
}

TEST_P(HostileSourceTest, JustUnderTheLimitCompiles) {
  // The deepest legal trees also pass sema and codegen on the stack.
  CompileResult result =
      CompileWithLog(Kernel(GetParam(), kMaxNestingDepth - 16));
  EXPECT_NE(result.module, nullptr) << result.build_log;
}

TEST_P(HostileSourceTest, HostBuildProgramReturnsTheLog) {
  auto cluster = host::SimCluster::Create({.gpu_nodes = 1});
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto program =
      (*cluster)->runtime().BuildProgram(MebibyteKernel(GetParam()));
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.code(), ErrorCode::kBuildProgramFailure);
  EXPECT_TRUE(NamesTheLimit(program.status().message()))
      << program.status().message();
}

TEST_P(HostileSourceTest, TcpNodeAnswersWithTheLogAndKeepsServing) {
  auto server = nmp::NodeServer::Create("gpu0", NodeType::kGpu);
  ASSERT_TRUE(server.ok());
  net::TcpListener listener(0);
  BlockingQueue<net::ConnectionPtr> accepted;
  ASSERT_TRUE(listener
                  .Start([&](net::ConnectionPtr c) {
                    accepted.Push(std::move(c));
                  })
                  .ok());
  auto client_conn = net::TcpConnect("127.0.0.1", listener.port());
  ASSERT_TRUE(client_conn.ok());
  auto server_conn = accepted.Pop();
  ASSERT_TRUE(server_conn.has_value());
  (*server)->Serve(*std::move(server_conn));
  net::RpcClient client(*std::move(client_conn));

  net::BuildProgramRequest build;
  build.program_id = 1;
  build.source = MebibyteKernel(GetParam());
  auto reply =
      client.Call(net::MsgType::kBuildProgram, 1, net::Encode(build));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, net::MsgType::kBuildReply);
  auto decoded = net::Decode<net::BuildProgramReply>(reply->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status_code,
            static_cast<std::int32_t>(ErrorCode::kBuildProgramFailure));
  EXPECT_TRUE(NamesTheLimit(decoded->build_log)) << decoded->build_log;

  auto heartbeat = client.Call(net::MsgType::kHeartbeat, 1, {});
  ASSERT_TRUE(heartbeat.ok()) << heartbeat.status().ToString();
  EXPECT_TRUE(net::CheckReply(heartbeat, net::MsgType::kStatusReply).ok());

  client.Close();
  (*server)->Shutdown();
  listener.Stop();
}

INSTANTIATE_TEST_SUITE_P(Shapes, HostileSourceTest,
                         ::testing::Values(Shape::kParens, Shape::kBlocks,
                                           Shape::kUnaryMinus,
                                           Shape::kElseIfChain,
                                           Shape::kFlatSum),
                         ShapeName);

// Seeded mutants of the five workload kernel sources: byte flips,
// truncations, and runs of brackets and operators spliced in. Each must
// compile or fail with a non-empty build log.
TEST(HostileSourceMutationTest, WorkloadKernelMutantsYieldModuleOrLog) {
  constexpr int kMutantsPerSource = 120;
  const std::string kRunChars = "(){}[]-+!~*/<>=?:;,";
  std::mt19937 rng(20261017);
  auto pick = [&rng](std::size_t bound) {
    return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng);
  };
  int compiled = 0;
  int rejected = 0;
  for (const auto& workload : workloads::AllWorkloads()) {
    const std::string original = workload->kernel_source();
    ASSERT_NE(CompileWithLog(original).module, nullptr) << workload->name();
    for (int m = 0; m < kMutantsPerSource; ++m) {
      std::string source = original;
      const int edits = 1 + static_cast<int>(pick(3));
      for (int e = 0; e < edits && !source.empty(); ++e) {
        const std::size_t at = pick(source.size());
        switch (pick(3)) {
          case 0:
            source[at] = static_cast<char>(source[at] ^ (1 << pick(8)));
            break;
          case 1:
            source.resize(at);
            break;
          case 2:
            source.insert(at, std::string(1 + pick(4000),
                                          kRunChars[pick(kRunChars.size())]));
            break;
        }
      }
      SCOPED_TRACE(workload->name() + " mutant " + std::to_string(m));
      CompileResult result = CompileWithLog(source);
      if (result.module != nullptr) {
        ++compiled;
      } else {
        ++rejected;
        EXPECT_FALSE(result.build_log.empty());
      }
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(compiled + rejected, 5 * kMutantsPerSource);
}

}  // namespace
}  // namespace haocl::oclc
