// Built-in function table: OpenCL C work-item queries, math, integer and
// atomic builtins needed by the benchmark kernels. Overload resolution is
// by argument count + numeric category; the table entry decides the result
// type given the (promoted) argument types.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "oclc/type.h"

namespace haocl::oclc {

enum class BuiltinId : std::int32_t {
  // Work-item functions (evaluated against the VM's work-item context).
  kGetGlobalId = 0,
  kGetLocalId,
  kGetGroupId,
  kGetGlobalSize,
  kGetLocalSize,
  kGetNumGroups,
  kGetGlobalOffset,
  kGetWorkDim,
  // Math (float/double).
  kSqrt, kRsqrt, kFabs, kExp, kLog, kLog2, kSin, kCos, kTan,
  kPow, kFloor, kCeil, kFmod, kFmin, kFmax, kMad, kFma,
  kNativeSqrt, kNativeExp, kNativeLog,  // Map to precise versions.
  // Integer / common.
  kMin, kMax, kAbs, kClamp,
  // Atomics on __global / __local int & uint.
  kAtomicAdd, kAtomicSub, kAtomicMin, kAtomicMax,
  kAtomicInc, kAtomicDec, kAtomicOr, kAtomicAnd, kAtomicXchg,
  kAtomicCmpxchg,
  kCount,
};

inline bool IsWorkItemBuiltin(BuiltinId id) {
  return id >= BuiltinId::kGetGlobalId && id <= BuiltinId::kGetWorkDim;
}

inline bool IsAtomicBuiltin(BuiltinId id) {
  return id >= BuiltinId::kAtomicAdd && id <= BuiltinId::kAtomicCmpxchg;
}

struct BuiltinSignature {
  BuiltinId id;
  Type result;                 // Resolved result type.
};

// Resolves `name(arg_types...)`. Returns nullopt if `name` is not a
// builtin; returns an engaged optional with id kCount (and an error set by
// the caller) never — bad argument lists produce nullopt too, and sema
// reports the mismatch.
std::optional<BuiltinSignature> ResolveBuiltin(
    const std::string& name, const std::vector<Type>& arg_types);

// True if the name is a builtin under any signature (for diagnostics).
bool IsBuiltinName(const std::string& name);

const char* BuiltinName(BuiltinId id) noexcept;

}  // namespace haocl::oclc
