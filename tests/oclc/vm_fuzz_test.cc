// Seeded differential fuzzer over well-formed kernels. Each program is
// random OpenCL C built from counted loops (random init, bound, step and
// compare), affine and masked indices, guards, ternaries, min/fmax,
// int/uint/long/ulong/float/double mixes with casts among all six types
// from edge values, every work-item query on dims 0-2 (and 3, and a
// lane-varying dim) under 1-, 2- and 3-D ranges with offsets, __local and
// __private array stores, and a store whose lanes name two buffers; some
// indices leave their buffer, and some programs store past the end of
// iout at one middle item. Every program runs on the interpreter (the
// oracle) and the batched engine. A program the interpreter finishes must
// give the same output bytes and VmStats::instructions on the batched
// engine; one it traps on must fail there with the same error code. Each
// work-item stores only its own elements, so no program has a racy store
// that the engines could legitimately order differently. Float-to-integer
// casts only see values inside the target's range.
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
    vars_ = {"i", "r", "col", "p", "n", "m", "gz", "lid"};
    next_loop_ = 0;
    std::string body;
    const int stmts = 1 + Pick(3);
    for (int s = 0; s < stmts; ++s) body += Stmt(1);
    // Now and then iout's store leaves the buffer at one item, which may
    // be any lane of a group or no item at all.
    const std::string iout_at =
        Chance(8) ? "i + (i == " + std::to_string(Pick(400)) + ") * 16777216"
                  : "i";
    return std::string(R"(
__kernel void fz(__global const float* fa, __global const float* fb,
                 __global const int* ia, __global const double* da,
                 __global float* out, __global int* iout,
                 __global double* dout, __global float* out2,
                 __global uint* uout, __global long* lout,
                 __global ulong* luout, int n, int m) {
  int r = get_global_id(0);
  int col = get_global_id(1);
  int gz = get_global_id(2);
  int i = (gz * (int)get_global_size(1) + col) * get_global_size(0) + r;
  int p = i ^ 1;  // Spans a ramp's range in an even group, but no ramp.
  int lid = get_local_id(0) + get_local_size(0) *
            (get_local_id(1) + get_local_size(1) * get_local_id(2));
  __global const float* fc = fa + m;
  __global float* two = out;
  if ((i & 1) != 0) two = out2;  // One store, two buffers across lanes.
  __local int lmem[64];
  float pmem[4];
  float acc = )") +
           (Chance(50) ? "0.0f" : "fa[i & 255]") + ";\n  int iacc = " +
           (Chance(50) ? "0" : "ia[i & 127]") +
           ";\n  double dacc = 0.5;\n  uint uacc = " +
           (Chance(50) ? "4294967295u" : "(uint)(ia[i & 127] - 60)") +
           ";\n  long lacc = " +
           (Chance(50) ? "(-9223372036854775807L - 1L)" : "(long)i * -3L") +
           ";\n  ulong ulacc = " +
           (Chance(50) ? "18446744073709551615ul" : "(ulong)(r - 7)") +
           ";\n" + body + "  out[i] = acc;\n  iout[" + iout_at +
           "] = iacc;\n" + R"(  dout[i] = dacc;
  two[i] = acc + 1.0f;
  uout[i] = uacc;
  lout[i] = lacc;
  luout[i] = ulacc;
}
)";
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

  // `to_acc = to_acc op (T)(source)` for T and the source's type among
  // int, uint, long, ulong, float and double. Integer sources include
  // INT32_MIN/MAX, UINT32_MAX, the i64/u64 extremes and negative values
  // cast to unsigned; float sources feeding an integer type are
  // fractional values inside its range.
  std::string Cast() {
    static const char* const kTypes[] = {"int",   "uint",  "long",
                                         "ulong", "float", "double"};
    static const char* const kAccs[] = {"iacc",  "uacc", "lacc",
                                        "ulacc", "acc",  "dacc"};
    const int to = Pick(6);
    const bool to_int = to < 4;
    const bool to_unsigned = to == 1 || to == 3;
    std::string src;
    switch (Pick(6)) {
      case 0: {
        const std::string v[] = {"iacc", "(-2147483647 - 1)", "2147483647",
                                 "(ia[" + Index() + "] - 60)"};
        src = v[Pick(4)];
        break;
      }
      case 1: {
        const std::string v[] = {"uacc", "4294967295u", "(uint)iacc",
                                 "(uint)(ia[" + Index() + "] - 60)"};
        src = v[Pick(4)];
        break;
      }
      case 2: {
        const std::string v[] = {"lacc", "(-9223372036854775807L - 1L)",
                                 "9223372036854775807L",
                                 "(long)iacc * 4294967296L"};
        src = v[Pick(4)];
        break;
      }
      case 3: {
        const std::string v[] = {"ulacc", "18446744073709551615ul",
                                 "(ulong)lacc", "(ulong)iacc"};
        src = v[Pick(4)];
        break;
      }
      case 4:
        src = !to_int       ? "acc"
              : to_unsigned ? (Chance(50) ? "2.75f"
                                          : "(fa[" + Index() +
                                                "] + 1.0f) * 1000.5f")
                            : (Chance(50) ? "-2.75f"
                                          : "fa[" + Index() + "] * 1000.5f");
        break;
      default:
        src = !to_int       ? "dacc"
              : to_unsigned ? (Chance(50) ? "1.5"
                                          : "(da[" + Index() +
                                                "] + 1.0) * 2.0e9")
                            : (Chance(50) ? "-1.5"
                                          : "da[" + Index() + "] * 2.0e9");
        break;
    }
    return std::string(kAccs[to]) + " = " + kAccs[to] +
           (to_int ? " ^ (" : " + (") + kTypes[to] + ")(" + src + ");\n";
  }

  // A work-item query on dim 0-2, dim 3, or a lane-varying dim.
  std::string Query() {
    static const char* const kQueries[] = {
        "get_global_id",   "get_local_id",   "get_group_id",
        "get_global_size", "get_local_size", "get_num_groups",
        "get_global_offset"};
    static const char* const kDims[] = {"0", "1", "2", "0", "1",
                                        "2", "3", "(uint)(i & 3)"};
    if (Chance(8)) return "uacc = uacc * 31u + get_work_dim();\n";
    return std::string("uacc = uacc * 31u + (uint)") + kQueries[Pick(7)] +
           "(" + kDims[Pick(8)] + ");\n";
  }

  std::string Stmt(int depth) {
    const std::string pad(2 * depth, ' ');
    const int pick = Pick(depth < 3 ? 22 : 18);
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
      case 13:
        return pad + Cast();
      case 14:
        return pad + Query();
      case 15:
        return pad + "lmem[lid] = iacc + " + Var() + ";\n" + pad +
               "iacc = iacc ^ lmem[lid];\n";
      case 16:
        return pad + "pmem[" + LoopVarOr() + " & 3] = acc;\n" + pad +
               "acc = acc + pmem[(i + 1) & 3];\n";
      case 17:
        return pad + (Chance(50) ? "lacc = lacc * 6364136223846793005L + "
                                   "(long)iacc;\n"
                                 : "ulacc = ulacc * 1442695040888963407ul "
                                   "+ (ulong)uacc;\n");
      case 18:
      case 19: {
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

  static constexpr int kFixedVars = 8;  // i, r, col, p, n, m, gz, lid.
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
    const int shape = pick(10);
    if (shape < 2) {  // A {1, L} group like perfbench's matmul.
      const std::uint64_t lanes[] = {16, 32, 64};
      range.work_dim = 2;
      range.global[0] = 1 + pick(2);
      range.global[1] = lanes[pick(3)];
      range.local[1] = range.global[1] / (1 + pick(2));
    } else if (shape < 4) {  // 3-D, at most 64 lanes, offsets in each dim.
      const std::uint64_t sides[] = {1, 2, 3, 4};
      range.work_dim = 3;
      for (int d = 0; d < 3; ++d) {
        range.local[d] = sides[pick(4)];
        range.global[d] = range.local[d] * (1 + pick(2));
        range.offset[d] = pick(6);
      }
    } else {
      const std::uint64_t locals[] = {1, 2, 3, 4, 6, 8, 16, 32, 36, 64};
      range.local[0] = locals[pick(10)];
      range.global[0] = range.local[0] * (1 + pick(3));
      if (pick(10) < 3) range.offset[0] = pick(40);
    }
    range.local_specified = true;
    // i = (gz * G1 + col) * G0 + r, with each id past its dim's offset.
    const std::size_t items =
        ((range.offset[2] + range.global[2]) * range.global[1] +
         range.offset[1]) *
            range.global[0] +
        range.offset[0];

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
        std::vector<std::uint8_t>(items * 8),
        std::vector<std::uint8_t>(items * 4),
        std::vector<std::uint8_t>(items * 4),
        std::vector<std::uint8_t>(items * 8),
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
