// VM engine benchmark: the per-work-item interpreter against the batched
// engine (fused superops, the vector tier, typed rows, partial-lane
// masking and the counted-loop superop) on IDENTICAL bytecode.
// Single-threaded so the numbers are the per-group engine speedup, not
// pool parallelism. Outputs are compared byte-for-byte — a speedup that
// changes bits is a bug, and the harness exits nonzero.
//
// Emits BENCH_vm.json with one row per kernel family. The two engines run
// in turn for at least kMinRounds rounds and kMinSeconds, and each is
// timed by its best run, so a slow spell on a busy machine cannot move a
// ratio. Gates (bench::Gates, exit 1 on a miss):
//  - both engines' outputs byte-identical,
//  - matmul takes at least 3 vector-tier dispatches per group, so a
//    change that stops the vector tier from running misses it, and fewer
//    than n batch steps per group: the k-loop runs as one counted-loop
//    superop, where stepping needs at least 5 dispatches per trip,
//  - bfs_frontier completes with ZERO whole-group bail-outs (the masked
//    divergence path),
//  - the straight-line saxpy >= 4x the interpreter: no loop, so its
//    per-lane rows (work-item query, conversions, pointer loads, store)
//    carry its time,
//  - matmul >= 20x the interpreter (only when the build has a vector
//    backend).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/simd.h"
#include "oclc/program.h"
#include "oclc/vm.h"

namespace {

using namespace haocl;
using Clock = std::chrono::steady_clock;

struct BenchCase {
  std::string name;
  std::string kernel;
  std::string source;
  std::vector<std::vector<std::uint8_t>> buffers;
  std::vector<oclc::ArgBinding> scalar_tail;
  oclc::NDRange range;
};

constexpr int kMinRounds = 7;
constexpr int kMatmulN = 128;
constexpr int kMatmulSimdPerGroup = 3;
constexpr double kMatmulInterpGate = 20.0;
constexpr double kSaxpyInterpGate = 4.0;
constexpr double kMinSeconds = 0.5;

struct BenchResult {
  std::string name;
  double interp_seconds = 0.0;
  double batched_seconds = 0.0;
  double speedup_vs_interp = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t batch_steps = 0;
  std::uint64_t fused_steps = 0;
  std::uint64_t simd_steps = 0;
  std::uint64_t masked_steps = 0;
  std::uint64_t bailouts = 0;
  std::uint64_t groups = 0;
  bool identical = false;
};

std::vector<std::uint8_t> RandomFloats(std::mt19937& rng, std::size_t count) {
  std::uniform_real_distribution<float> val(-1.0f, 1.0f);
  std::vector<float> v(count);
  for (float& x : v) x = val(rng);
  std::vector<std::uint8_t> bytes(count * 4);
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

std::vector<std::uint8_t> RandomBits(std::mt19937& rng, std::size_t count) {
  std::uniform_int_distribution<int> bit(0, 1);
  std::vector<std::int32_t> v(count);
  for (auto& x : v) x = bit(rng);
  std::vector<std::uint8_t> bytes(count * 4);
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

// Runs one engine config once over private copies of the case's buffers;
// returns the wall seconds and leaves the mutated buffers in `out`.
double RunEngine(const oclc::Module& module, const BenchCase& bench,
                 const oclc::LaunchOptions& base_options,
                 oclc::VmStats* stats,
                 std::vector<std::vector<std::uint8_t>>* out) {
  const oclc::CompiledFunction* fn = module.FindKernel(bench.kernel);
  if (fn == nullptr) {
    std::fprintf(stderr, "no kernel '%s'\n", bench.kernel.c_str());
    std::exit(1);
  }
  std::vector<std::vector<std::uint8_t>> buffers = bench.buffers;
  std::vector<oclc::ArgBinding> args;
  for (auto& b : buffers) {
    args.push_back(oclc::ArgBinding::Buffer(b.data(), b.size()));
  }
  for (const auto& s : bench.scalar_tail) args.push_back(s);
  oclc::LaunchOptions options = base_options;
  options.num_threads = 1;
  const auto t0 = Clock::now();
  Status s = LaunchKernel(module, *fn, args, bench.range, options, stats);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", bench.name.c_str(),
                 s.ToString().c_str());
    std::exit(1);
  }
  *out = std::move(buffers);
  return seconds;
}

BenchResult RunCase(const BenchCase& bench) {
  auto module = oclc::Compile(bench.source);
  if (!module.ok()) {
    std::fprintf(stderr, "%s: %s\n", bench.name.c_str(),
                 module.status().ToString().c_str());
    std::exit(1);
  }
  BenchResult result;
  result.name = bench.name;

  oclc::LaunchOptions interp;
  interp.engine = oclc::VmEngine::kInterpreter;
  oclc::LaunchOptions batched;
  batched.engine = oclc::VmEngine::kBatched;

  std::vector<std::vector<std::uint8_t>> interp_out, batched_out;
  oclc::VmStats interp_stats, batched_stats;
  // The engines take turns, so a slow spell on a shared machine hits both
  // alike, and each keeps its best run of the rounds.
  result.interp_seconds = result.batched_seconds = 1e300;
  double elapsed = 0.0;
  for (int round = 0; round < kMinRounds || elapsed < kMinSeconds; ++round) {
    const double i = RunEngine(**module, bench, interp, &interp_stats,
                               &interp_out);
    const double v = RunEngine(**module, bench, batched, &batched_stats,
                               &batched_out);
    result.interp_seconds = std::min(result.interp_seconds, i);
    result.batched_seconds = std::min(result.batched_seconds, v);
    elapsed += i + v;
  }
  result.speedup_vs_interp = result.interp_seconds / result.batched_seconds;
  result.instructions = batched_stats.instructions;
  result.batch_steps = batched_stats.batch_steps;
  result.fused_steps = batched_stats.fused_steps;
  result.simd_steps = batched_stats.simd_steps;
  result.masked_steps = batched_stats.masked_steps;
  result.bailouts = batched_stats.bailouts;
  result.groups = batched_stats.groups;
  result.identical = interp_out == batched_out;
  return result;
}

}  // namespace

int main() {
  std::mt19937 rng(20200707);
  std::vector<BenchCase> cases;

  {
    // The headline: the matmul MAC inner loop (acc += a[..]*b[..]), the
    // hottest bytecode the Table I workloads run. The B-load is contiguous
    // in the lane id, the A-load gathers, and the MAC vectorizes with two
    // roundings per step (never an FMA).
    BenchCase c;
    c.name = "matmul";
    c.kernel = "matmul";
    c.source = R"(
      __kernel void matmul(__global const float* a, __global const float* b,
                           __global float* c, int n) {
        int col = get_global_id(0);  // Lanes run along columns, so the
        int row = get_global_id(1);  // B-load is a contiguous vector load
                                     // and the A-load broadcasts.
        float acc = 0.0f;
        for (int k = 0; k < n; k++) {
          acc += a[row * n + k] * b[k * n + col];
        }
        c[row * n + col] = acc;
      })";
    const int n = kMatmulN;
    c.buffers = {RandomFloats(rng, static_cast<std::size_t>(n) * n),
                 RandomFloats(rng, static_cast<std::size_t>(n) * n),
                 std::vector<std::uint8_t>(static_cast<std::size_t>(n) * n * 4,
                                           0)};
    c.scalar_tail = {oclc::ArgBinding::Int(n)};
    c.range.work_dim = 2;
    c.range.global[0] = n;
    c.range.global[1] = n;
    cases.push_back(std::move(c));
  }
  {
    // Streaming stencil: uniform control flow, memory heavy.
    BenchCase c;
    c.name = "stencil";
    c.kernel = "stencil";
    c.source = R"(
      __kernel void stencil(__global const float* in, __global float* out,
                            int n) {
        int i = get_global_id(0);
        float left = i > 0 ? in[i - 1] : 0.0f;
        float right = i < n - 1 ? in[i + 1] : 0.0f;
        out[i] = 0.25f * left + 0.5f * in[i] + 0.25f * right;
      })";
    const int n = 1 << 20;
    c.buffers = {RandomFloats(rng, n),
                 std::vector<std::uint8_t>(static_cast<std::size_t>(n) * 4, 0)};
    c.scalar_tail = {oclc::ArgBinding::Int(n)};
    c.range.global[0] = n;
    cases.push_back(std::move(c));
  }
  {
    // Divergent top-K insertion: the bail-out path's worst case — the
    // batched engine should never be much SLOWER than the interpreter.
    BenchCase c;
    c.name = "topk_divergent";
    c.kernel = "topk";
    c.source = R"(
      __kernel void topk(__global const float* dist, __global float* best,
                         int n) {
        int t = get_global_id(0);
        int stride = (int)get_global_size(0);
        float best_d = 1.0e30f;
        for (int i = t; i < n; i += stride) {
          if (dist[i] < best_d) best_d = dist[i];
        }
        best[t] = best_d;
      })";
    const int n = 1 << 18;
    c.buffers = {RandomFloats(rng, n),
                 std::vector<std::uint8_t>(256 * 4, 0)};
    c.scalar_tail = {oclc::ArgBinding::Int(n)};
    c.range.global[0] = 256;
    cases.push_back(std::move(c));
  }
  {
    // BFS frontier expansion: a per-lane guard (bitwise & so the condition
    // compiles branch-free) around a straight-line scatter. Before lane
    // masking every divergent group bailed out to the interpreter; the
    // gate below requires ZERO bail-outs now.
    BenchCase c;
    c.name = "bfs_frontier";
    c.kernel = "bfs_frontier";
    c.source = R"(
      __kernel void bfs_frontier(__global const int* frontier,
                                 __global const int* adj,
                                 __global int* next, int n) {
        int v = get_global_id(0);
        int nb = adj[v];
        if ((frontier[v] != 0) & (nb >= 0) & (nb < n)) {
          next[nb] = 1;
        }
      })";
    const int n = 1 << 18;
    std::vector<std::int32_t> adj(n);
    std::uniform_int_distribution<std::int32_t> nb(-1, n - 1);
    for (auto& x : adj) x = nb(rng);  // -1 = no neighbour (padded row).
    std::vector<std::uint8_t> adj_bytes(static_cast<std::size_t>(n) * 4);
    std::memcpy(adj_bytes.data(), adj.data(), adj_bytes.size());
    c.buffers = {RandomBits(rng, n), std::move(adj_bytes),
                 std::vector<std::uint8_t>(static_cast<std::size_t>(n) * 4, 0)};
    c.scalar_tail = {oclc::ArgBinding::Int(n)};
    c.range.global[0] = n;
    cases.push_back(std::move(c));
  }

  {
    // Last, so the cases above draw the same inputs as before it existed.
    // Straight-line: perfbench's launch_small kernel over 1M items. No
    // loop, so its cost is the per-lane rows every kernel runs: the
    // work-item query, the index conversions, the pointer loads and the
    // store.
    BenchCase c;
    c.name = "saxpy";
    c.kernel = "saxpy";
    c.source = R"(
      __kernel void saxpy(__global float* y, __global const float* x,
                          float a) {
        int i = get_global_id(0);
        y[i] = a * x[i] + y[i];
      })";
    const int n = 1 << 20;
    c.buffers = {RandomFloats(rng, n), RandomFloats(rng, n)};
    c.scalar_tail = {oclc::ArgBinding::Float(1.5f)};
    c.range.global[0] = n;
    cases.push_back(std::move(c));
  }

  std::vector<BenchResult> results;
  bool all_identical = true;
  double matmul_vs_interp = 0.0;
  double saxpy_vs_interp = 0.0;
  double matmul_steps_per_group = 0.0;
  double matmul_simd_per_group = 0.0;
  std::uint64_t bfs_bailouts = ~0ull;
  for (const BenchCase& bench : cases) {
    BenchResult r = RunCase(bench);
    std::printf("%-16s interp %8.4fs  batched %8.4fs  x-interp %6.2f  "
                "simd %llu  masked %llu  bailouts %llu  %s\n",
                r.name.c_str(), r.interp_seconds, r.batched_seconds,
                r.speedup_vs_interp,
                static_cast<unsigned long long>(r.simd_steps),
                static_cast<unsigned long long>(r.masked_steps),
                static_cast<unsigned long long>(r.bailouts),
                r.identical ? "bit-identical" : "OUTPUTS DIVERGED");
    all_identical = all_identical && r.identical;
    if (r.name == "matmul") {
      matmul_vs_interp = r.speedup_vs_interp;
      matmul_steps_per_group =
          static_cast<double>(r.batch_steps) / static_cast<double>(r.groups);
      matmul_simd_per_group =
          static_cast<double>(r.simd_steps) / static_cast<double>(r.groups);
    }
    if (r.name == "bfs_frontier") bfs_bailouts = r.bailouts;
    if (r.name == "saxpy") saxpy_vs_interp = r.speedup_vs_interp;
    results.push_back(std::move(r));
  }

  FILE* json = std::fopen("BENCH_vm.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_vm.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"simd_backend\": \"%s\",\n  \"kernels\": [\n",
               simd::kIsaName);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"interp_seconds\": %.6f, "
        "\"batched_seconds\": %.6f, \"speedup_vs_interp\": %.2f, "
        "\"instructions\": %llu, \"batch_steps\": %llu, "
        "\"fused_steps\": %llu, \"simd_steps\": %llu, "
        "\"masked_steps\": %llu, \"bailouts\": %llu, \"groups\": %llu, "
        "\"bit_identical\": %s}%s\n",
        r.name.c_str(), r.interp_seconds, r.batched_seconds,
        r.speedup_vs_interp,
        static_cast<unsigned long long>(r.instructions),
        static_cast<unsigned long long>(r.batch_steps),
        static_cast<unsigned long long>(r.fused_steps),
        static_cast<unsigned long long>(r.simd_steps),
        static_cast<unsigned long long>(r.masked_steps),
        static_cast<unsigned long long>(r.bailouts),
        static_cast<unsigned long long>(r.groups),
        r.identical ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"matmul_interp_gate\": %.1f,\n"
               "  \"saxpy_interp_gate\": %.1f,\n"
               "  \"matmul_simd_per_group_gate\": %d,\n"
               "  \"matmul_steps_per_group_gate\": %d\n}\n",
               kMatmulInterpGate, kSaxpyInterpGate, kMatmulSimdPerGroup,
               kMatmulN);
  std::fclose(json);
  std::printf("wrote BENCH_vm.json (backend %s)\n", simd::kIsaName);

  bench::Gates gates;
  gates.Check(all_identical, "both engines' outputs bit-identical");
  gates.Check(bfs_bailouts == 0,
              "bfs_frontier takes 0 whole-group bail-outs (got " +
                  std::to_string(bfs_bailouts) + ")");
  gates.Check(matmul_simd_per_group >= kMatmulSimdPerGroup,
              "matmul vector dispatches per group >= " +
                  std::to_string(kMatmulSimdPerGroup) + " (got " +
                  std::to_string(matmul_simd_per_group) + ")");
  gates.Check(matmul_steps_per_group < kMatmulN,
              "matmul batch steps per group < n = " +
                  std::to_string(kMatmulN) + " (got " +
                  std::to_string(matmul_steps_per_group) + ")");
  gates.Check(saxpy_vs_interp >= kSaxpyInterpGate,
              "saxpy >= 4x the interpreter (got " +
                  std::to_string(saxpy_vs_interp) + "x)");
  if (simd::kEnabled) {
    gates.Check(matmul_vs_interp >= kMatmulInterpGate,
                "matmul >= 20x the interpreter (got " +
                    std::to_string(matmul_vs_interp) + "x)");
  }
  return gates.ExitCode();
}
