// Semantic-analysis rejection tests: every diagnostic the compiler can
// produce should fire on a minimal program (these surface as
// CL_BUILD_PROGRAM_FAILURE build logs through the public API).
#include "oclc/sema.h"

#include <gtest/gtest.h>

#include "oclc/parser.h"

namespace haocl::oclc {
namespace {

Status AnalyzeSource(const std::string& source) {
  auto unit = Parse(source);
  if (!unit.ok()) return unit.status();
  return Analyze(**unit);
}

void ExpectRejected(const std::string& source, const std::string& needle) {
  Status s = AnalyzeSource(source);
  ASSERT_FALSE(s.ok()) << "expected rejection of: " << source;
  EXPECT_NE(s.message().find(needle), std::string::npos)
      << "wanted '" << needle << "' in: " << s.ToString();
}

TEST(SemaTest, AcceptsWellTypedKernel) {
  Status s = AnalyzeSource(R"(
    float helper(float a, int b) { return a * (float)b; }
    __kernel void k(__global float* out, __global const float* in, int n) {
      int i = (int)get_global_id(0);
      if (i < n) out[i] = helper(in[i], i);
    })");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(SemaTest, UndeclaredVariable) {
  ExpectRejected("__kernel void k(__global int* o) { o[0] = missing; }",
                 "undeclared");
}

TEST(SemaTest, Redefinition) {
  ExpectRejected("__kernel void k() { int a; float a; }", "redefinition");
}

TEST(SemaTest, RedefinitionOfFunction) {
  ExpectRejected("void f() {} void f() {} __kernel void k() {}",
                 "redefinition of function");
}

TEST(SemaTest, ShadowingInInnerScopeAllowed) {
  Status s = AnalyzeSource(R"(
    __kernel void k(__global int* o) {
      int a = 1;
      { int a = 2; o[0] = a; }
      o[1] = a;
    })");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(SemaTest, SubscriptOnScalar) {
  ExpectRejected("__kernel void k() { int a; a[0] = 1; }", "not a pointer");
}

TEST(SemaTest, FloatArrayIndex) {
  ExpectRejected("__kernel void k(__global int* o) { o[1.5f] = 1; }",
                 "index must be an integer");
}

TEST(SemaTest, PointerScalarComparison) {
  ExpectRejected("__kernel void k(__global int* o) { if (o == 1) o[0] = 0; }",
                 "compare pointer with scalar");
}

TEST(SemaTest, ModOnFloats) {
  ExpectRejected("__kernel void k(__global float* o) { o[0] = 1.0f % 2.0f; }",
                 "integer operation");
}

TEST(SemaTest, AssignPointerToScalar) {
  ExpectRejected("__kernel void k(__global int* o) { int x; x = o; }",
                 "cannot assign pointer");
}

TEST(SemaTest, PointerAddressSpaceMismatch) {
  ExpectRejected(R"(
    __kernel void k(__global float* g) {
      __local float l[4];
      g = l;
    })",
                 "incompatible pointer");
}

TEST(SemaTest, BreakOutsideLoop) {
  ExpectRejected("__kernel void k() { break; }", "outside of a loop");
}

TEST(SemaTest, ReturnValueFromVoid) {
  ExpectRejected("__kernel void k() { return 1; }", "void function");
}

TEST(SemaTest, MissingReturnValue) {
  ExpectRejected("int f() { return; } __kernel void k() {}",
                 "must return a value");
}

TEST(SemaTest, CallUnknownFunction) {
  ExpectRejected("__kernel void k() { nosuch(1); }", "unknown function");
}

TEST(SemaTest, CallKernelFromDevice) {
  ExpectRejected(R"(
    __kernel void a() {}
    __kernel void k() { a(); }
  )",
                 "kernels cannot be called");
}

TEST(SemaTest, WrongArgumentCount) {
  ExpectRejected(R"(
    int f(int a, int b) { return a + b; }
    __kernel void k(__global int* o) { o[0] = f(1); }
  )",
                 "wrong number of arguments");
}

TEST(SemaTest, BuiltinBadOverload) {
  ExpectRejected("__kernel void k(__global float* o) { o[0] = sqrt(o); }",
                 "no matching overload");
}

TEST(SemaTest, BarrierOutsideKernel) {
  ExpectRejected(R"(
    void helper() { barrier(1); }
    __kernel void k() { helper(); }
  )",
                 "barrier() may only be called from a kernel");
}

TEST(SemaTest, ArrayInHelperFunction) {
  ExpectRejected("void f() { float a[4]; } __kernel void k() {}",
                 "may only be declared in kernels");
}

TEST(SemaTest, NonConstantArraySize) {
  ExpectRejected("__kernel void k(int n) { float a[n]; }",
                 "constant");
}

TEST(SemaTest, ConstantFoldedArraySizeAccepted) {
  Status s = AnalyzeSource(R"(
    #define TILE 8
    __kernel void k() { __local float t[TILE * TILE + 2]; }
  )");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(SemaTest, ShadowingBuiltinName) {
  ExpectRejected("float sqrt(float x) { return x; } __kernel void k() {}",
                 "shadows a builtin");
}

TEST(SemaTest, AtomicsRequireIntPointer) {
  ExpectRejected(
      "__kernel void k(__global float* f) { atomic_add(f, 1.0f); }",
      "no matching overload");
}

TEST(SemaTest, VoidVariableRejected) {
  ExpectRejected("__kernel void k() { void v; }", "void");
}

TEST(SemaTest, TernaryBranchTypeMismatch) {
  ExpectRejected(R"(
    __kernel void k(__global int* a, __global float* b, int c) {
      __global int* p = c ? a : b;
    })",
                 "different types");
}

// Type-inference spot checks across the numeric lattice.
struct PromotionCase {
  const char* name;
  const char* expr;
  const char* comment;
};

// Printed as its expression so the listed test names do not depend on where
// the string literals happen to be loaded.
void PrintTo(const PromotionCase& c, std::ostream* os) { *os << c.expr; }

class SemaPromotionTest : public ::testing::TestWithParam<PromotionCase> {};

TEST_P(SemaPromotionTest, WellTypedArithmeticAccepted) {
  const std::string source = std::string(R"(
    __kernel void k(__global double* o, int i, uint u, long l, ulong ul,
                    float f, double d, char c, uchar uc, short s) {
      o[0] = )") + GetParam().expr + "; }";
  Status status = AnalyzeSource(source);
  EXPECT_TRUE(status.ok())
      << GetParam().comment << ": " << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Promotions, SemaPromotionTest,
    ::testing::Values(
        PromotionCase{"IntUint", "i + u", "int + uint -> uint"},
        PromotionCase{"IntLong", "i + l", "int + long -> long"},
        PromotionCase{"UintUlong", "u + ul", "uint + ulong -> ulong"},
        PromotionCase{"IntFloat", "i + f", "int + float -> float"},
        PromotionCase{"FloatDouble", "f + d", "float + double -> double"},
        PromotionCase{"CharShort", "c + s", "char + short -> int"},
        PromotionCase{"UcharChar", "uc + c", "uchar + char -> int"},
        PromotionCase{"LongFloat", "l + f", "long + float -> float"},
        PromotionCase{"Shifts", "(i << 2) + (u >> 1)",
                      "shift keeps promoted lhs"},
        PromotionCase{"Mod", "i % 3 + u % 2u", "mod on integers"}),
    [](const ::testing::TestParamInfo<PromotionCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace haocl::oclc
