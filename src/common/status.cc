#include "common/status.h"

namespace haocl {

const char* ErrorCodeName(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kDeviceNotFound: return "DEVICE_NOT_FOUND";
    case ErrorCode::kDeviceNotAvailable: return "DEVICE_NOT_AVAILABLE";
    case ErrorCode::kCompilerNotAvailable: return "COMPILER_NOT_AVAILABLE";
    case ErrorCode::kMemObjectAllocationFailure:
      return "MEM_OBJECT_ALLOCATION_FAILURE";
    case ErrorCode::kOutOfResources: return "OUT_OF_RESOURCES";
    case ErrorCode::kOutOfHostMemory: return "OUT_OF_HOST_MEMORY";
    case ErrorCode::kBuildProgramFailure: return "BUILD_PROGRAM_FAILURE";
    case ErrorCode::kInvalidValue: return "INVALID_VALUE";
    case ErrorCode::kInvalidDeviceType: return "INVALID_DEVICE_TYPE";
    case ErrorCode::kInvalidPlatform: return "INVALID_PLATFORM";
    case ErrorCode::kInvalidDevice: return "INVALID_DEVICE";
    case ErrorCode::kInvalidContext: return "INVALID_CONTEXT";
    case ErrorCode::kInvalidQueueProperties: return "INVALID_QUEUE_PROPERTIES";
    case ErrorCode::kInvalidCommandQueue: return "INVALID_COMMAND_QUEUE";
    case ErrorCode::kInvalidMemObject: return "INVALID_MEM_OBJECT";
    case ErrorCode::kInvalidProgram: return "INVALID_PROGRAM";
    case ErrorCode::kInvalidProgramExecutable:
      return "INVALID_PROGRAM_EXECUTABLE";
    case ErrorCode::kInvalidKernelName: return "INVALID_KERNEL_NAME";
    case ErrorCode::kInvalidKernel: return "INVALID_KERNEL";
    case ErrorCode::kInvalidArgIndex: return "INVALID_ARG_INDEX";
    case ErrorCode::kInvalidArgValue: return "INVALID_ARG_VALUE";
    case ErrorCode::kInvalidArgSize: return "INVALID_ARG_SIZE";
    case ErrorCode::kInvalidKernelArgs: return "INVALID_KERNEL_ARGS";
    case ErrorCode::kInvalidWorkDimension: return "INVALID_WORK_DIMENSION";
    case ErrorCode::kInvalidWorkGroupSize: return "INVALID_WORK_GROUP_SIZE";
    case ErrorCode::kInvalidWorkItemSize: return "INVALID_WORK_ITEM_SIZE";
    case ErrorCode::kInvalidEvent: return "INVALID_EVENT";
    case ErrorCode::kInvalidOperation: return "INVALID_OPERATION";
    case ErrorCode::kInvalidBufferSize: return "INVALID_BUFFER_SIZE";
    case ErrorCode::kNetworkError: return "NETWORK_ERROR";
    case ErrorCode::kNodeUnreachable: return "NODE_UNREACHABLE";
    case ErrorCode::kProtocolError: return "PROTOCOL_ERROR";
    case ErrorCode::kSchedulerError: return "SCHEDULER_ERROR";
    case ErrorCode::kInternal: return "INTERNAL";
    case ErrorCode::kUnimplemented: return "UNIMPLEMENTED";
    case ErrorCode::kDependencyFailed: return "DEPENDENCY_FAILED";
    case ErrorCode::kPeerUnreachable: return "PEER_UNREACHABLE";
    case ErrorCode::kBackpressure: return "BACKPRESSURE";
    case ErrorCode::kNodeLost: return "NODE_LOST";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = ErrorCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace haocl
