// Stack bytecode the codegen lowers the AST into and the VM executes.
//
// Why bytecode instead of a tree-walking interpreter: OpenCL work-groups
// synchronize at barrier() — every work-item in the group must reach the
// barrier before any proceeds. With an explicit program counter and operand
// stack per work-item, suspending at a barrier is just saving the machine
// state, which a recursive tree-walker cannot do without coroutines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "oclc/type.h"

namespace haocl::oclc {

namespace vmdetail {
struct BatchPlan;  // The lane-batch engine's fusion plan (vm_internal.h).
}  // namespace vmdetail

enum class Opcode : std::uint8_t {
  kNop,
  kPushConst,    // a = literal pool index            -> push
  kLoadLocal,    // a = slot                          -> push
  kStoreLocal,   // a = slot                          pop ->
  kDup,          // duplicate top of stack
  kPop,          // discard top of stack
  kLoadMem,      // type = element type; pop addr     -> push value
  kStoreMem,     // type = element type; pop value, addr ->
  kPtrAdd,       // a = element size; pop index(i64), ptr -> push ptr'
  kAdd, kSub, kMul, kDiv, kMod,        // type-tagged arithmetic
  kNeg,
  kBitAnd, kBitOr, kBitXor, kShl, kShr, kBitNot,
  kEq, kNe, kLt, kLe, kGt, kGe,        // push bool
  kLogicalNot,
  kConvert,      // type = source; a = target ScalarType
  kJump,         // a = target pc
  kJumpIfFalse,  // a = target pc; pop bool
  kJumpIfTrue,   // a = target pc; pop bool
  kCall,         // a = function index; args on stack
  kCallBuiltin,  // a = builtin id; b = argc
  kReturn,       // b = 1 if a value is on the stack
  kBarrier,      // work-group barrier
};

// Batchability metadata the codegen attaches to instructions. The lane-batch
// engine (vm_batch.cc) runs a whole work-group in lockstep; a branch whose
// condition is group-uniform (proven by codegen's conservative analysis)
// lets the engine take lane 0's direction without scanning every lane.
inline constexpr std::uint8_t kInstrFlagUniformBranch = 1u << 0;
// On kLoadLocal: the slot's value is an affine function of the lane id
// (stride may be 0), per codegen's lane-dependence fixpoint. The batch
// engine uses this to classify indexed-load offsets as
// contiguous/strided/uniform and hoist the per-lane bounds test to one
// whole-chunk range precheck.
inline constexpr std::uint8_t kInstrFlagLaneAffine = 1u << 1;
// On kLoadLocal: the slot is group-uniform (affine with stride 0).
inline constexpr std::uint8_t kInstrFlagLaneUniform = 1u << 2;
// On a forward kJumpIfFalse: the guarded region is straight-line and
// side-effect-maskable, and the jump target IS the re-convergence pc.
// Codegen sets this for `if`-without-`else` bodies built only from
// maskable opcodes; the batch engine may then execute the region under a
// partial-lane mask instead of bailing out on divergence.
inline constexpr std::uint8_t kInstrFlagMaskedRegion = 1u << 3;

// The opcode subset allowed inside a masked divergent region: straight-line
// data flow whose side effects (local/memory stores, builtin calls) the
// engine can suppress per-lane. No control transfer, no user calls, no
// barriers. Shared by codegen's region flagging and the batch engine's
// masked executor so the two never drift apart.
[[nodiscard]] inline constexpr bool IsMaskableOp(Opcode op) {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kPushConst:
    case Opcode::kLoadLocal:
    case Opcode::kStoreLocal:
    case Opcode::kDup:
    case Opcode::kPop:
    case Opcode::kLoadMem:
    case Opcode::kStoreMem:
    case Opcode::kPtrAdd:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kMod:
    case Opcode::kNeg:
    case Opcode::kBitAnd:
    case Opcode::kBitOr:
    case Opcode::kBitXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kBitNot:
    case Opcode::kEq:
    case Opcode::kNe:
    case Opcode::kLt:
    case Opcode::kLe:
    case Opcode::kGt:
    case Opcode::kGe:
    case Opcode::kLogicalNot:
    case Opcode::kConvert:
    case Opcode::kCallBuiltin:
      return true;
    case Opcode::kJump:
    case Opcode::kJumpIfFalse:
    case Opcode::kJumpIfTrue:
    case Opcode::kCall:
    case Opcode::kReturn:
    case Opcode::kBarrier:
      return false;
  }
  return false;
}

struct Instruction {
  Opcode op = Opcode::kNop;
  ScalarType type = ScalarType::kVoid;  // Operand type for typed ops.
  std::int32_t a = 0;                   // Primary operand (slot/target/id).
  std::int32_t b = 0;                   // Secondary operand.
  std::uint8_t flags = 0;               // kInstrFlag* bits (last: emit sites
                                        // brace-init the first four fields).
};

// Runtime representation of any scalar value. The static type is carried by
// the instruction stream, not the value, so a slot is just 8 bytes.
union Value {
  std::int64_t i;
  std::uint64_t u;
  double f;
};

// A __local or __private array declared in a function body.
struct ArrayAlloc {
  AddressSpace space = AddressSpace::kLocal;
  ScalarType element = ScalarType::kF32;
  std::uint64_t count = 0;
  [[nodiscard]] std::uint64_t ByteSize() const {
    return count * ScalarSize(element);
  }
};

// Kernel argument descriptor, used by clSetKernelArg validation and by the
// NMP to bind buffers at launch.
struct KernelArgInfo {
  std::string name;
  Type type;
  // `const T*` parameter: the launch cannot modify the buffer, so the
  // host's coherence protocol keeps replicas valid across such launches.
  bool pointee_const = false;
  [[nodiscard]] bool IsBuffer() const {
    return type.is_pointer && (type.space == AddressSpace::kGlobal ||
                               type.space == AddressSpace::kConstant);
  }
  [[nodiscard]] bool IsLocalPointer() const {
    return type.is_pointer && type.space == AddressSpace::kLocal;
  }
};

// One compiled function (kernel or helper).
struct CompiledFunction {
  std::string name;
  bool is_kernel = false;
  Type return_type;
  std::vector<KernelArgInfo> params;
  std::uint32_t entry_pc = 0;     // Index into Module::code.
  std::uint32_t local_slots = 0;  // Scalar slots incl. params.
  std::vector<ArrayAlloc> arrays;  // Body-declared local/private arrays.
  bool uses_barrier = false;
  // Peak operand-stack depth of this function's own frame (exact, computed
  // by codegen from the emitted bytecode). The lane-batch engine sizes its
  // SoA stack from this so pushes inside the dispatch loop are unchecked.
  // 0 means "unknown" and disables batched execution for the function.
  std::uint32_t max_stack_slots = 0;
};

// A compiled translation unit: shared code array + literal pool + functions.
struct Module {
  std::vector<Instruction> code;
  std::vector<Value> literals;
  std::vector<CompiledFunction> functions;
  // Built once by Compile and shared read-only by every launch.
  std::shared_ptr<const vmdetail::BatchPlan> batch_plan;

  [[nodiscard]] const CompiledFunction* FindKernel(
      const std::string& name) const {
    for (const auto& fn : functions) {
      if (fn.is_kernel && fn.name == name) return &fn;
    }
    return nullptr;
  }

  [[nodiscard]] std::vector<std::string> KernelNames() const {
    std::vector<std::string> names;
    for (const auto& fn : functions) {
      if (fn.is_kernel) names.push_back(fn.name);
    }
    return names;
  }
};

}  // namespace haocl::oclc
