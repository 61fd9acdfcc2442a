// Codegen's batchability flags: which conditional branches the lane
// analysis proves group-uniform (kInstrFlagUniformBranch), so the batch
// engine may read their condition from lane 0 alone.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "oclc/bytecode.h"
#include "oclc/program.h"

namespace haocl::oclc {
namespace {

// The uniform-branch flag of each conditional jump in `source`'s code, in
// code order.
std::vector<bool> UniformBranches(const std::string& source) {
  auto module = Compile(source);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  std::vector<bool> flags;
  if (!module.ok()) return flags;
  for (const Instruction& instr : (*module)->code) {
    if (instr.op == Opcode::kJumpIfFalse || instr.op == Opcode::kJumpIfTrue) {
      flags.push_back((instr.flags & kInstrFlagUniformBranch) != 0);
    }
  }
  return flags;
}

TEST(CodegenTest, BranchOnKernelParameterIsUniform) {
  EXPECT_EQ(UniformBranches(R"(
    __kernel void k(__global int* out, int n) {
      if (n > 4) out[get_global_id(0)] = 1;
    })"),
            std::vector<bool>{true});
}

TEST(CodegenTest, BranchOnGlobalIdIsNotUniform) {
  EXPECT_EQ(UniformBranches(R"(
    __kernel void k(__global int* out) {
      if (get_global_id(0) > 4) out[get_global_id(0)] = 1;
    })"),
            std::vector<bool>{false});
}

TEST(CodegenTest, LoopCounterFromParameterSteppedByLiteralIsUniform) {
  const std::vector<bool> flags = UniformBranches(R"(
    __kernel void k(__global int* out, int n) {
      for (int j = n; j < 64; j += 2) out[j] = 1;
    })");
  ASSERT_FALSE(flags.empty());
  for (bool uniform : flags) EXPECT_TRUE(uniform);
}

TEST(CodegenTest, BranchOnLoadedValueIsNotUniform) {
  EXPECT_EQ(UniformBranches(R"(
    __kernel void k(__global int* out, __global const int* in) {
      if (in[0] > 0) out[get_global_id(0)] = 1;
    })"),
            std::vector<bool>{false});
}

}  // namespace
}  // namespace haocl::oclc
