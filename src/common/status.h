// Status / Expected: lightweight error propagation used across HaoCL.
//
// The OpenCL-facing API layer converts these into `cl_int` error codes; the
// internal layers carry a message alongside the code so failures are
// diagnosable across the wire (an NMP can ship a Status back to the host).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace haocl {

// Mirrors the subset of OpenCL error codes HaoCL can produce, plus
// framework-specific codes in the implementation-defined negative range.
enum class ErrorCode : std::int32_t {
  kOk = 0,
  kDeviceNotFound = -1,
  kDeviceNotAvailable = -2,
  kCompilerNotAvailable = -3,
  kMemObjectAllocationFailure = -4,
  kOutOfResources = -5,
  kOutOfHostMemory = -6,
  kBuildProgramFailure = -11,
  kInvalidValue = -30,
  kInvalidDeviceType = -31,
  kInvalidPlatform = -32,
  kInvalidDevice = -33,
  kInvalidContext = -34,
  kInvalidQueueProperties = -35,
  kInvalidCommandQueue = -36,
  kInvalidMemObject = -38,
  kInvalidProgram = -44,
  kInvalidProgramExecutable = -45,
  kInvalidKernelName = -46,
  kInvalidKernel = -48,
  kInvalidArgIndex = -49,
  kInvalidArgValue = -50,
  kInvalidArgSize = -51,
  kInvalidKernelArgs = -52,
  kInvalidWorkDimension = -53,
  kInvalidWorkGroupSize = -54,
  kInvalidWorkItemSize = -55,
  kInvalidEvent = -58,
  kInvalidOperation = -59,
  kInvalidBufferSize = -61,
  // HaoCL-specific (implementation-defined range).
  kNetworkError = -1001,
  kNodeUnreachable = -1002,
  kProtocolError = -1003,
  kSchedulerError = -1004,
  kInternal = -1005,
  kUnimplemented = -1006,
  // A predecessor in the command graph failed, so this command never ran.
  kDependencyFailed = -1007,
  // A node was asked to exchange a slice with a peer it has no link to
  // (the host falls back to relaying the bytes itself).
  kPeerUnreachable = -1008,
  // The node's broker refused to admit a launch: the node is saturated
  // (admission backlog limit exceeded) and the submitting tenant is over
  // its fair share of the backlog. Transient — resubmit later or steer
  // to another node.
  kBackpressure = -1009,
  // A node stopped responding (a timed-out call whose probe also failed,
  // a missed heartbeat, or a scripted kill), or work was sent to a node
  // already declared dead. Work targeting it must be re-queued onto
  // survivors.
  kNodeLost = -1010,
};

const char* ErrorCodeName(ErrorCode code) noexcept;

// A success-or-error value. Cheap to copy on the success path (no string).
class Status {
 public:
  Status() noexcept = default;  // OK
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() noexcept { return Status(); }

  [[nodiscard]] bool ok() const noexcept { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

// A value or a Status. Analogous to std::expected (C++23), built for C++20.
template <typename T>
class Expected {
 public:
  Expected(T value) : data_(std::move(value)) {}  // NOLINT: implicit by design
  Expected(Status status) : data_(std::move(status)) {  // NOLINT
    // An OK status carries no value; force a diagnosable error instead.
    if (std::get<Status>(data_).ok()) {
      data_ = Status(ErrorCode::kInternal, "Expected constructed from OK");
    }
  }
  Expected(ErrorCode code, std::string message)
      : data_(Status(code, std::move(message))) {}

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<T>(data_);
  }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] const T& value() const& { return std::get<T>(data_); }
  [[nodiscard]] T& value() & { return std::get<T>(data_); }
  [[nodiscard]] T&& value() && { return std::get<T>(std::move(data_)); }

  [[nodiscard]] Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(data_);
  }
  [[nodiscard]] ErrorCode code() const noexcept {
    return ok() ? ErrorCode::kOk : std::get<Status>(data_).code();
  }

  const T* operator->() const { return &std::get<T>(data_); }
  T* operator->() { return &std::get<T>(data_); }
  const T& operator*() const& { return std::get<T>(data_); }
  T& operator*() & { return std::get<T>(data_); }
  T&& operator*() && { return std::get<T>(std::move(data_)); }

 private:
  std::variant<T, Status> data_;
};

// Propagate-on-error helpers, used pervasively in the runtime and NMP.
#define HAOCL_RETURN_IF_ERROR(expr)                  \
  do {                                               \
    ::haocl::Status _haocl_status = (expr);          \
    if (!_haocl_status.ok()) return _haocl_status;   \
  } while (false)

#define HAOCL_ASSIGN_OR_RETURN(lhs, expr)            \
  auto HAOCL_CONCAT_(_haocl_tmp, __LINE__) = (expr); \
  if (!HAOCL_CONCAT_(_haocl_tmp, __LINE__).ok())     \
    return HAOCL_CONCAT_(_haocl_tmp, __LINE__).status(); \
  lhs = std::move(HAOCL_CONCAT_(_haocl_tmp, __LINE__)).value()

#define HAOCL_CONCAT_INNER_(a, b) a##b
#define HAOCL_CONCAT_(a, b) HAOCL_CONCAT_INNER_(a, b)

}  // namespace haocl
