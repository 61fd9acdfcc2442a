// Seeded differential fuzzer over well-formed kernels. Each program is
// random OpenCL C built from counted loops (random init, bound, step and
// compare), affine and masked indices, guards, ternaries, min/fmax and
// int/float/double mixes; some indices leave their buffer. Every program
// runs on the interpreter (the oracle) and the batched engine. A program
// the interpreter finishes must give the same output bytes and
// VmStats::instructions on the batched engine; one it traps on must fail
// there with the same error code. Each work-item stores only its own
// output elements, so no program has a racy store that the engines could
// legitimately order differently.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "oclc/program.h"
#include "oclc/vm.h"

namespace haocl::oclc {
namespace {

constexpr std::uint32_t kSeed = 20261017;
constexpr int kPrograms = 1500;
constexpr std::size_t kInputElems = 2048;
constexpr std::uint64_t kBudget = 40000;  // Runaway loops trap quickly.

class KernelGen {
 public:
  explicit KernelGen(std::uint32_t seed) : rng_(seed) {}

  std::string Generate() {
    vars_ = {"i", "r", "col", "p", "n", "m"};
    next_loop_ = 0;
    std::string body;
    const int stmts = 1 + Pick(3);
    for (int s = 0; s < stmts; ++s) body += Stmt(1);
    return std::string(R"(
__kernel void fz(__global const float* fa, __global const float* fb,
                 __global const int* ia, __global const double* da,
                 __global float* out, __global int* iout,
                 __global double* dout, int n, int m) {
  int r = get_global_id(0);
  int col = get_global_id(1);
  int i = col * get_global_size(0) + r;
  int p = i ^ 1;  // Spans a ramp's range in an even group, but no ramp.
  __global const float* fc = fa + m;
  float acc = )") +
           (Chance(50) ? "0.0f" : "fa[i & 255]") + ";\n  int iacc = " +
           (Chance(50) ? "0" : "ia[i & 127]") +
           ";\n  double dacc = 0.5;\n" + body +
           "  out[i] = acc;\n  iout[i] = iacc;\n  dout[i] = dacc;\n}\n";
  }

 private:
  int Pick(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng_);
  }
  bool Chance(int percent) { return Pick(100) < percent; }
  const std::string& Var() {
    return vars_[Pick(static_cast<int>(vars_.size()))];
  }
  // fc is fa read through a base pointer that carries an offset.
  const char* FloatBuf() { return Chance(25) ? "fc" : "fa"; }
  // Loop counters are the likeliest index terms: the superop's shapes.
  const std::string& LoopVarOr() {
    return vars_.size() > kFixedVars && Chance(70)
               ? vars_[kFixedVars + Pick(static_cast<int>(vars_.size()) -
                                         kFixedVars)]
               : Var();
  }

  std::string Index() {
    switch (Pick(8)) {
      case 0:
      case 1:
        return Var() + " * n + " + LoopVarOr();  // a[row * n + k]
      case 2:
        return LoopVarOr() + " * n + " + Var();  // b[k * n + col]
      case 3:
        return LoopVarOr() + " * m + " + Var();
      case 4:
        return LoopVarOr();
      case 5:
        return "(" + Var() + " + " + LoopVarOr() + ") & 63";  // Masked.
      case 6:
        return "(" + LoopVarOr() + " * 3 + " + Var() + ") % 61";
      default:
        return Chance(80) ? Var() : "iacc & 1023";
    }
  }

  std::string Cond() {
    switch (Pick(6)) {
      case 0: return "i < n * 4";
      case 1: return "(ia[" + Index() + "] & 1) == 0";
      case 2: return LoopVarOr() + " > 2";
      case 3: return "(i & 3) != 1";
      case 4: return "acc > 0.0f";
      default: return "fa[" + Index() + "] < fb[" + Index() + "]";
    }
  }

  std::string Stmt(int depth) {
    const std::string pad(2 * depth, ' ');
    const int pick = Pick(depth < 3 ? 16 : 12);
    switch (pick) {
      case 0:
      case 1:
        return pad + "acc = acc + " + FloatBuf() + "[" + Index() + "] * fb[" +
               Index() + "];\n";
      case 2:
        return pad + "acc += fb[" + Index() + "] * " + FloatBuf() + "[" +
               Index() + "];\n";
      case 3:
        return pad + "dacc = dacc + da[" + Index() + "] * da[" + Index() +
               "];\n";
      case 4:
        return pad + "acc = acc * 0.5f + fa[" + Index() + "];\n";
      case 5:
        return pad + "acc = (" + Cond() + ") ? acc + fb[" + Index() +
               "] : fmax(acc, fa[" + Index() + "]);\n";
      case 6:
        return pad + "iacc = iacc + ia[" + Index() + "];\n";
      case 7:
        return pad + "iacc = min(iacc, ia[" + Index() + "] * 3 + " + Var() +
               ");\n";
      case 8:
        return pad + "iacc = iacc ^ (ia[" + Index() + "] + " + Var() + ");\n";
      case 9:
        return pad + "acc = acc + (float)iacc * 0.125f;\n";
      case 10:
        return pad + "iacc = iacc + (int)(fa[" + Index() + "] * 8.0f);\n";
      case 11:
        return pad + (Chance(50) ? "acc = fmin(acc, 64.0f);\n"
                                 : "dacc = dacc + (double)acc;\n");
      case 12:
      case 13: {
        std::string s = pad + "if (" + Cond() + ") {\n" + Stmt(depth + 1);
        if (Chance(40)) s += pad + "} else {\n" + Stmt(depth + 1);
        return s + pad + "}\n";
      }
      default:
        return Loop(depth);
    }
  }

  std::string Loop(int depth) {
    const std::string pad(2 * depth, ' ');
    const std::string k = "k" + std::to_string(next_loop_++);
    const char* inits[] = {"0", "0", "1", "n - 6", "i & 3", "-2"};
    const char* bounds[] = {"n", "n", "m", "n + m", "(i & 3) + 2", "7"};
    const std::string init = inits[Pick(6)];
    const std::string bound = bounds[Pick(6)];
    // Sometimes the counter outlives the loop and its final value is read.
    const bool outlives = Chance(25);
    const std::string decl = outlives ? "" : "int ";
    std::string head;
    if (Chance(75)) {
      const int cmp = Pick(100);
      const char* op = cmp < 65 ? " < " : cmp < 88 ? " <= " : " != ";
      const int step = op[1] == '!' ? 1 : 1 + Pick(3);
      head = "for (" + decl + k + " = " + init + "; " + k + op + bound +
             "; " +
             (step == 1 ? (Chance(50) ? k + "++" : "++" + k)
                        : k + " += " + std::to_string(step)) +
             ")";
    } else {
      head = "for (" + decl + k + " = " + bound + "; " + k +
             (Chance(50) ? " >= " : " > ") + init + "; " +
             (Chance(70) ? k + "--" : k + " -= 2") + ")";
    }
    vars_.push_back(k);
    std::string body = Stmt(depth + 1);
    if (Chance(40)) body += Stmt(depth + 1);
    vars_.pop_back();
    std::string loop = pad + head + " {\n" + body + pad + "}\n";
    if (outlives) {
      loop = pad + "int " + k + ";\n" + loop + pad + "iacc = iacc + " + k +
             ";\n";
    }
    return loop;
  }

  static constexpr int kFixedVars = 6;  // i, r, col, p, n, m.
  std::mt19937 rng_;
  std::vector<std::string> vars_;
  int next_loop_ = 0;
};

template <class T>
std::vector<std::uint8_t> Bytes(const std::vector<T>& values) {
  std::vector<std::uint8_t> bytes(values.size() * sizeof(T));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

struct EngineRun {
  Status status;
  std::vector<std::vector<std::uint8_t>> buffers;
  VmStats stats;
};

TEST(VmFuzzTest, RandomWellFormedKernelsAgreeAcrossEngines) {
  KernelGen gen(kSeed);
  std::mt19937 rng(kSeed + 1);
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  int finished = 0;
  int trapped = 0;
  for (int p = 0; p < kPrograms; ++p) {
    const std::string source = gen.Generate();
    auto module = Compile(source);
    ASSERT_TRUE(module.ok()) << module.status().ToString() << "\n" << source;

    NDRange range;
    if (pick(5) == 0) {  // A {1, L} group like perfbench's matmul.
      const std::uint64_t lanes[] = {16, 32, 64};
      range.work_dim = 2;
      range.global[0] = 1 + pick(2);
      range.global[1] = lanes[pick(3)];
      range.local[1] = range.global[1] / (1 + pick(2));
    } else {
      const std::uint64_t locals[] = {1, 2, 3, 4, 6, 8, 16, 32, 36, 64};
      range.local[0] = locals[pick(10)];
      range.global[0] = range.local[0] * (1 + pick(3));
      if (pick(10) < 3) range.offset[0] = pick(40);
    }
    range.local_specified = true;
    const std::size_t items =
        range.offset[0] + range.global[0] * range.global[1];

    std::vector<float> fa(kInputElems), fb(kInputElems);
    std::vector<double> da(kInputElems);
    std::vector<std::int32_t> ia(kInputElems);
    for (std::size_t e = 0; e < kInputElems; ++e) {
      fa[e] = unit(rng);
      fb[e] = unit(rng);
      da[e] = unit(rng);
      ia[e] = pick(101) - 50;
    }
    const std::vector<std::vector<std::uint8_t>> inputs = {
        Bytes(fa),
        Bytes(fb),
        Bytes(ia),
        Bytes(da),
        std::vector<std::uint8_t>(items * 4),
        std::vector<std::uint8_t>(items * 4),
        std::vector<std::uint8_t>(items * 8)};
    const int n = 1 + pick(10);
    const int m = 1 + pick(10);

    auto run = [&](VmEngine engine) {
      EngineRun out;
      out.buffers = inputs;
      std::vector<ArgBinding> args;
      for (auto& buf : out.buffers) {
        args.push_back(ArgBinding::Buffer(buf.data(), buf.size()));
      }
      args.push_back(ArgBinding::Int(n));
      args.push_back(ArgBinding::Int(m));
      LaunchOptions options;
      options.num_threads = 1;
      options.max_instructions_per_item = kBudget;
      options.engine = engine;
      out.status = LaunchKernel(**module, *(*module)->FindKernel("fz"), args,
                                range, options, &out.stats);
      return out;
    };
    const EngineRun oracle = run(VmEngine::kInterpreter);
    const EngineRun batched = run(VmEngine::kBatched);
    if (oracle.status.ok()) {
      ASSERT_TRUE(batched.status.ok())
          << batched.status.ToString() << "\n" << source;
      ASSERT_TRUE(batched.buffers == oracle.buffers)
          << "output differs, n=" << n << " m=" << m << "\n" << source;
      ASSERT_EQ(batched.stats.instructions, oracle.stats.instructions)
          << source;
    } else {
      ASSERT_EQ(batched.status.code(), oracle.status.code())
          << batched.status.ToString() << " vs " << oracle.status.ToString()
          << "\n" << source;
    }
    ++(oracle.status.ok() ? finished : trapped);
  }
  // Keep the mix honest: most programs must run to completion.
  EXPECT_GT(finished, kPrograms / 2) << trapped << " trapped";
  RecordProperty("finished", finished);
  RecordProperty("trapped", trapped);
}

}  // namespace
}  // namespace haocl::oclc
