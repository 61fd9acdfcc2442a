// Implementation of the OpenCL Wrapper Lib over ClusterRuntime.
//
// Execution model: every clEnqueue* defers into the runtime's command
// graph. A _cl_command_queue is a real in-order queue — each enqueue
// depends on the queue's previous command plus its event wait list — and a
// _cl_event is a handle onto a graph command, so clFlush/clFinish/
// clWaitForEvents and the CL_PROFILING_COMMAND_* stamps carry their
// standard semantics. Blocking read/write flags decide whether the call
// waits for the command or returns while the node RPCs are still in
// flight. Handles are heap objects with a magic tag (so a wrong handle
// fails with the right CL_INVALID_* code instead of crashing) and an
// atomic refcount driven by the standard clRetain*/clRelease* calls.
#include "api/hao_cl.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/runtime_binding.h"
#include "common/wire.h"
#include "host/cluster_runtime.h"
#include "host/command_graph.h"
#include "oclc/bytecode.h"

namespace {

constexpr std::uint32_t kPlatformMagic = 0x504C4154;  // 'PLAT'
constexpr std::uint32_t kDeviceMagic = 0x44455649;    // 'DEVI'
constexpr std::uint32_t kContextMagic = 0x43545854;   // 'CTXT'
constexpr std::uint32_t kQueueMagic = 0x51554555;     // 'QUEU'
constexpr std::uint32_t kMemMagic = 0x4D454D4F;       // 'MEMO'
constexpr std::uint32_t kProgramMagic = 0x50524F47;   // 'PROG'
constexpr std::uint32_t kKernelMagic = 0x4B524E4C;    // 'KRNL'
constexpr std::uint32_t kEventMagic = 0x45564E54;     // 'EVNT'
constexpr std::uint32_t kDeadMagic = 0xDEADDEAD;

constexpr int kClusterDeviceIndex = -1;  // The virtual scheduler device.

}  // namespace

// Handle layouts. The leading magic field doubles as a liveness tag.
struct _cl_platform_id {
  std::uint32_t magic = kPlatformMagic;
};

struct _cl_device_id {
  std::uint32_t magic = kDeviceMagic;
  int node_index = kClusterDeviceIndex;
  cl_device_type type = CL_DEVICE_TYPE_CUSTOM;
  std::string name;
  // Honest memory sizes from the tiered-memory subsystem: the node's
  // reported device capacity (the virtual cluster device reports the
  // cluster-wide sum). 0 = the node never reported one.
  std::uint64_t global_mem_bytes = 0;
  std::uint64_t max_alloc_bytes = 0;
};

struct _cl_context {
  std::uint32_t magic = kContextMagic;
  std::atomic<int> refs{1};
  std::vector<cl_device_id> devices;
};

struct _cl_command_queue {
  std::uint32_t magic = kQueueMagic;
  std::atomic<int> refs{1};
  cl_context context = nullptr;
  cl_device_id device = nullptr;
  bool profiling = false;
  // Runtime this queue's commands live in (see _cl_event::origin).
  void* origin = nullptr;
  // In-order queue: each enqueue chains on the previous one; clFinish
  // waits for the tail. Guarded by mutex (enqueues may race).
  std::mutex mutex;
  haocl::host::CommandHandle tail;
};

struct _cl_mem {
  std::uint32_t magic = kMemMagic;
  std::atomic<int> refs{1};
  haocl::host::BufferId buffer = 0;
  size_t size = 0;
};

struct _cl_program {
  std::uint32_t magic = kProgramMagic;
  std::atomic<int> refs{1};
  std::string source;
  haocl::host::ProgramId program = 0;
  bool built = false;
  cl_int build_status = CL_SUCCESS;
};

struct _cl_kernel {
  std::uint32_t magic = kKernelMagic;
  std::atomic<int> refs{1};
  cl_program program = nullptr;
  std::string name;
  const haocl::oclc::CompiledFunction* info = nullptr;
  std::vector<std::optional<haocl::host::KernelArgValue>> args;
  // Sticky per-arg access annotations (clSetKernelArgAccessPatternHAOCL);
  // applied to buffer args at enqueue time.
  struct ArgAccess {
    haocl::host::KernelArgValue::Access access =
        haocl::host::KernelArgValue::Access::kReplicated;
    std::uint64_t stride = 0;
  };
  std::vector<ArgAccess> access;
};

struct _cl_event {
  std::uint32_t magic = kEventMagic;
  std::atomic<int> refs{1};
  haocl::host::CommandHandle cmd;  // The graph command this event tracks.
  // Runtime the command belongs to. Command ids restart per runtime, so an
  // event from a previous binding must never be resolved against a newer
  // one (it would alias an unrelated command).
  void* origin = nullptr;
  bool user = false;               // Created by clCreateUserEvent.
  // Cached terminal state; filled once the command retires so the event
  // stays queryable after the runtime unbinds. Guarded by mutex.
  std::mutex mutex;
  bool resolved = false;
  cl_int exec_status = CL_QUEUED;
  // Virtual-time stamps in seconds (reported in ns via profiling info).
  double queued = 0.0;
  double submit = 0.0;
  double start = 0.0;
  double end = 0.0;
};

namespace haocl::api {
namespace {

struct ApiState {
  std::mutex mutex;
  host::ClusterRuntime* runtime = nullptr;
  std::unique_ptr<host::SimCluster> owned_cluster;
  _cl_platform_id platform;
  std::vector<std::unique_ptr<_cl_device_id>> devices;
};

ApiState& State() {
  static auto* state = new ApiState();
  return *state;
}

void RebuildDeviceTable() {
  ApiState& state = State();
  state.devices.clear();
  if (state.runtime == nullptr) return;
  // Device 0: the virtual cluster device (scheduler decides placement) —
  // unmodified applications that take the first device get transparent
  // cluster-wide scheduling.
  auto cluster = std::make_unique<_cl_device_id>();
  cluster->node_index = kClusterDeviceIndex;
  cluster->type = CL_DEVICE_TYPE_DEFAULT;
  cluster->name = "HaoCL Cluster (" +
                  std::to_string(state.runtime->devices().size()) + " nodes)";
  // The cluster device's global memory is the sum of the node capacities
  // (any node without a reported capacity makes it unbounded — reported
  // as the legacy 8 GiB placeholder so queries stay sane).
  std::uint64_t cluster_bytes = 0;
  bool bounded = !state.runtime->devices().empty();
  for (const host::DeviceInfo& info : state.runtime->devices()) {
    if (info.mem_capacity_bytes == 0) {
      bounded = false;
      break;
    }
    cluster_bytes += info.mem_capacity_bytes;
  }
  cluster->global_mem_bytes = bounded ? cluster_bytes : 8ull << 30;
  cluster->max_alloc_bytes = cluster->global_mem_bytes;
  _cl_device_id* cluster_raw = cluster.get();
  state.devices.push_back(std::move(cluster));
  for (std::size_t i = 0; i < state.runtime->devices().size(); ++i) {
    const host::DeviceInfo& info = state.runtime->devices()[i];
    auto device = std::make_unique<_cl_device_id>();
    device->node_index = static_cast<int>(i);
    switch (info.type) {
      case NodeType::kCpu: device->type = CL_DEVICE_TYPE_CPU; break;
      case NodeType::kGpu: device->type = CL_DEVICE_TYPE_GPU; break;
      case NodeType::kFpga: device->type = CL_DEVICE_TYPE_ACCELERATOR; break;
    }
    device->name = info.name + " (" + info.model + ")";
    device->global_mem_bytes = info.mem_capacity_bytes != 0
                                   ? info.mem_capacity_bytes
                                   : cluster_raw->global_mem_bytes;
    device->max_alloc_bytes = device->global_mem_bytes;
    state.devices.push_back(std::move(device));
  }
}

}  // namespace

// Snapshot of device handles matching an OpenCL device-type query. The
// virtual cluster device matches DEFAULT and ALL.
std::vector<cl_device_id> DeviceTable(cl_device_type type) {
  ApiState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<cl_device_id> out;
  for (const auto& device : state.devices) {
    const bool is_cluster = device->node_index < 0;
    bool match;
    if (type == CL_DEVICE_TYPE_ALL) {
      match = true;
    } else if (is_cluster) {
      match = (type & CL_DEVICE_TYPE_DEFAULT) != 0;
    } else {
      match = (type & device->type) != 0;
    }
    if (match) out.push_back(device.get());
  }
  return out;
}

void BindRuntime(host::ClusterRuntime* runtime) {
  ApiState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.owned_cluster.reset();
  state.runtime = runtime;
  RebuildDeviceTable();
}

Status BindSimCluster(host::SimCluster::Shape shape,
                      host::RuntimeOptions options) {
  auto cluster = host::SimCluster::Create(shape, std::move(options));
  if (!cluster.ok()) return cluster.status();
  ApiState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.owned_cluster = *std::move(cluster);
  state.runtime = &state.owned_cluster->runtime();
  RebuildDeviceTable();
  return Status::Ok();
}

Status BindSimClusterFromConfigFile(const std::string& path,
                                    host::RuntimeOptions options) {
  auto config = ClusterConfig::LoadFile(path);
  if (!config.ok()) return config.status();
  auto cluster = host::SimCluster::CreateFromConfig(*config,
                                                    std::move(options));
  if (!cluster.ok()) return cluster.status();
  ApiState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.owned_cluster = *std::move(cluster);
  state.runtime = &state.owned_cluster->runtime();
  RebuildDeviceTable();
  return Status::Ok();
}

host::ClusterRuntime* BoundRuntime() {
  ApiState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.runtime;
}

void UnbindRuntime() {
  ApiState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.runtime = nullptr;
  state.owned_cluster.reset();
  state.devices.clear();
}

}  // namespace haocl::api

// ===================================================== C API implementation

namespace {

using haocl::ErrorCode;
using haocl::Status;
using haocl::api::BoundRuntime;

template <typename Handle>
bool Valid(Handle* handle, std::uint32_t magic) {
  return handle != nullptr && handle->magic == magic;
}

cl_int ToClError(const Status& status) {
  const auto code = static_cast<cl_int>(status.code());
  // Framework-internal codes map onto the closest OpenCL code.
  switch (status.code()) {
    case ErrorCode::kNetworkError:
    case ErrorCode::kNodeUnreachable:
      return CL_DEVICE_NOT_AVAILABLE;
    case ErrorCode::kProtocolError:
    case ErrorCode::kInternal:
      return CL_OUT_OF_RESOURCES;
    case ErrorCode::kSchedulerError:
      return CL_INVALID_OPERATION;
    case ErrorCode::kUnimplemented:
      return CL_INVALID_OPERATION;
    case ErrorCode::kDependencyFailed:
      return CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST;
    default:
      return code;
  }
}

// Common helper for the *Info query calling convention.
cl_int ReturnInfo(const void* data, size_t size, size_t param_value_size,
                  void* param_value, size_t* param_value_size_ret) {
  if (param_value_size_ret != nullptr) *param_value_size_ret = size;
  if (param_value != nullptr) {
    if (param_value_size < size) return CL_INVALID_VALUE;
    std::memcpy(param_value, data, size);
  }
  return CL_SUCCESS;
}

cl_int ReturnString(const std::string& s, size_t param_value_size,
                    void* param_value, size_t* param_value_size_ret) {
  return ReturnInfo(s.c_str(), s.size() + 1, param_value_size, param_value,
                    param_value_size_ret);
}

using haocl::host::CommandHandle;
using haocl::host::CommandState;

using haocl::RangeExceeds;  // Overflow-safe bounds check (common/wire.h).

// Validates the wait list and turns it into graph dependencies. Events
// from a previous runtime binding are rejected: command ids restart per
// runtime, so a stale handle would alias an unrelated command.
cl_int CheckWaitList(cl_uint count, const cl_event* list, void* runtime,
                     std::vector<CommandHandle>* deps) {
  if ((count == 0) != (list == nullptr)) return CL_INVALID_VALUE;
  for (cl_uint i = 0; i < count; ++i) {
    if (!Valid(list[i], kEventMagic)) return CL_INVALID_EVENT;
    if (list[i]->origin != runtime) return CL_INVALID_EVENT;
    if (deps != nullptr) deps->push_back(list[i]->cmd);
  }
  return CL_SUCCESS;
}

// Hands out an event tracking `cmd` (if the application asked for one).
void EmitEvent(cl_event* event, CommandHandle cmd, bool user = false) {
  if (event == nullptr) return;
  auto* e = new _cl_event();
  e->cmd = cmd;
  e->origin = BoundRuntime();
  e->user = user;
  *event = e;
}

// The runtime this event's command lives in, or nullptr if the binding
// changed since the event was created (stale events stay inert).
haocl::host::ClusterRuntime* RuntimeFor(const _cl_event* e) {
  auto* runtime = BoundRuntime();
  return runtime != nullptr && runtime == e->origin ? runtime : nullptr;
}

// The one deferred-enqueue path all four clEnqueue* entry points share:
// validate + collect the wait list, chain on the queue's tail (weak edge —
// a failed predecessor on an in-order queue does not poison later
// independent commands; wait-list deps stay strong), submit, and honor the
// blocking flag. The out-event is only produced on success, after any
// blocking wait, per the spec. `submit` is called with (runtime, deps,
// order_after) and returns Expected<CommandHandle>.
//
// Record lifetime: the queue's tail owns the command's creation reference
// and releases the predecessor it replaces; an out-event takes its own
// reference (dropped by clReleaseEvent). This is what bounds the graph's
// record count over million-enqueue sessions.
template <typename SubmitFn>
cl_int EnqueueCommand(cl_command_queue queue, cl_uint num_events,
                      const cl_event* wait_list, cl_bool blocking,
                      cl_event* event, SubmitFn&& submit) {
  auto* runtime = BoundRuntime();
  if (runtime == nullptr) return CL_DEVICE_NOT_AVAILABLE;
  if (queue->origin != runtime) return CL_INVALID_COMMAND_QUEUE;
  std::vector<CommandHandle> deps;
  cl_int wait = CheckWaitList(num_events, wait_list, runtime, &deps);
  if (wait != CL_SUCCESS) return wait;

  std::unique_lock<std::mutex> order(queue->mutex);
  std::vector<CommandHandle> after;
  if (queue->tail.valid()) after.push_back(queue->tail);
  auto handle = submit(runtime, std::move(deps), std::move(after));
  if (!handle.ok()) return ToClError(handle.status());
  const CommandHandle replaced = queue->tail;
  queue->tail = *handle;
  // Retain inside the queue lock for the out-event AND for a blocking
  // wait: a racing enqueue could otherwise advance the tail, drop the
  // record's only reference, and a failed blocking command whose record
  // was reclaimed mid-Wait would report success.
  const bool extra_ref = event != nullptr || blocking != CL_FALSE;
  if (extra_ref) (void)runtime->RetainCommand(*handle);
  order.unlock();
  if (replaced.valid()) (void)runtime->ReleaseCommand(replaced);
  if (blocking != CL_FALSE) {
    haocl::Status status = runtime->Wait(*handle);
    if (!status.ok()) {
      // No event on failure: give back the guard reference.
      (void)runtime->ReleaseCommand(*handle);
      return ToClError(status);
    }
  }
  if (event != nullptr) {
    EmitEvent(event, *handle);  // The event owns the extra reference.
  } else if (extra_ref) {
    (void)runtime->ReleaseCommand(*handle);  // Blocking-only guard.
  }
  return CL_SUCCESS;
}

cl_int ExecStatusFromState(CommandState state) {
  switch (state) {
    case CommandState::kQueued: return CL_QUEUED;
    case CommandState::kSubmitted: return CL_SUBMITTED;
    case CommandState::kRunning: return CL_RUNNING;
    case CommandState::kComplete: return CL_COMPLETE;
    case CommandState::kFailed: break;
  }
  return CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST;
}

// Caches the terminal state + profiling stamps once the command retires,
// so events outlive the runtime binding. Returns true when resolved.
bool ResolveEvent(_cl_event* e) {
  std::lock_guard<std::mutex> lock(e->mutex);
  if (e->resolved) return true;
  auto* runtime = RuntimeFor(e);
  if (runtime == nullptr) return false;
  auto state = runtime->CommandStateOf(e->cmd);
  if (!state.ok() || !haocl::host::IsTerminal(*state)) return false;
  if (*state == CommandState::kFailed) {
    const haocl::Status status = runtime->graph().QueryStatus(e->cmd.id);
    e->exec_status = ToClError(status);
    if (e->exec_status >= 0) {
      e->exec_status = CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST;
    }
  } else {
    e->exec_status = CL_COMPLETE;
  }
  auto profile = runtime->CommandProfileOf(e->cmd);
  if (profile.ok()) {
    e->queued = profile->queued_at;
    e->submit = profile->submitted_at;
    e->start = profile->started_at;
    e->end = profile->finished_at;
  }
  e->resolved = true;
  return true;
}

// Live execution status for clGetEventInfo (terminal states come from the
// cache so they survive UnbindRuntime).
cl_int EventExecutionStatus(_cl_event* e) {
  if (ResolveEvent(e)) {
    std::lock_guard<std::mutex> lock(e->mutex);
    return e->exec_status;
  }
  auto* runtime = RuntimeFor(e);
  if (runtime == nullptr) {
    // Stale or missing binding: last cached state (default CL_QUEUED).
    std::lock_guard<std::mutex> lock(e->mutex);
    return e->exec_status;
  }
  auto state = runtime->CommandStateOf(e->cmd);
  return state.ok() ? ExecStatusFromState(*state) : CL_QUEUED;
}

}  // namespace

extern "C" {

// ----------------------------------------------------------------- Platform

cl_int clGetPlatformIDs(cl_uint num_entries, cl_platform_id* platforms,
                        cl_uint* num_platforms) {
  if (platforms == nullptr && num_platforms == nullptr) {
    return CL_INVALID_VALUE;
  }
  if (platforms != nullptr && num_entries == 0) return CL_INVALID_VALUE;
  if (BoundRuntime() == nullptr) {
    if (num_platforms != nullptr) *num_platforms = 0;
    return CL_SUCCESS;  // No platform until a cluster is bound.
  }
  if (num_platforms != nullptr) *num_platforms = 1;
  if (platforms != nullptr) {
    static _cl_platform_id platform;
    platforms[0] = &platform;
  }
  return CL_SUCCESS;
}

cl_int clGetPlatformInfo(cl_platform_id platform, cl_platform_info param_name,
                         size_t param_value_size, void* param_value,
                         size_t* param_value_size_ret) {
  if (!Valid(platform, kPlatformMagic)) return CL_INVALID_PLATFORM;
  switch (param_name) {
    case CL_PLATFORM_NAME:
      return ReturnString("HaoCL", param_value_size, param_value,
                          param_value_size_ret);
    case CL_PLATFORM_VENDOR:
      return ReturnString("HaoCL reproduction", param_value_size, param_value,
                          param_value_size_ret);
    case CL_PLATFORM_VERSION:
      return ReturnString("OpenCL 1.2 HaoCL distributed", param_value_size,
                          param_value, param_value_size_ret);
    case CL_PLATFORM_PROFILE:
      return ReturnString("FULL_PROFILE", param_value_size, param_value,
                          param_value_size_ret);
    default:
      return CL_INVALID_VALUE;
  }
}

// ------------------------------------------------------------------ Devices

cl_int clGetDeviceIDs(cl_platform_id platform, cl_device_type device_type,
                      cl_uint num_entries, cl_device_id* devices,
                      cl_uint* num_devices) {
  if (!Valid(platform, kPlatformMagic)) return CL_INVALID_PLATFORM;
  if (devices == nullptr && num_devices == nullptr) return CL_INVALID_VALUE;
  if (devices != nullptr && num_entries == 0) return CL_INVALID_VALUE;
  auto* runtime = BoundRuntime();
  if (runtime == nullptr) return CL_DEVICE_NOT_FOUND;

  const std::vector<cl_device_id> matches =
      haocl::api::DeviceTable(device_type);
  if (matches.empty()) return CL_DEVICE_NOT_FOUND;
  if (num_devices != nullptr) {
    *num_devices = static_cast<cl_uint>(matches.size());
  }
  if (devices != nullptr) {
    const cl_uint n = std::min<cl_uint>(
        num_entries, static_cast<cl_uint>(matches.size()));
    for (cl_uint i = 0; i < n; ++i) devices[i] = matches[i];
  }
  return CL_SUCCESS;
}

cl_int clGetDeviceInfo(cl_device_id device, cl_device_info param_name,
                       size_t param_value_size, void* param_value,
                       size_t* param_value_size_ret) {
  if (!Valid(device, kDeviceMagic)) return CL_INVALID_DEVICE;
  switch (param_name) {
    case CL_DEVICE_TYPE: {
      cl_device_type type = device->type;
      return ReturnInfo(&type, sizeof(type), param_value_size, param_value,
                        param_value_size_ret);
    }
    case CL_DEVICE_NAME:
      return ReturnString(device->name, param_value_size, param_value,
                          param_value_size_ret);
    case CL_DEVICE_VENDOR:
      return ReturnString("HaoCL", param_value_size, param_value,
                          param_value_size_ret);
    case CL_DEVICE_VERSION:
      return ReturnString("OpenCL 1.2 HaoCL remote", param_value_size,
                          param_value, param_value_size_ret);
    case CL_DEVICE_MAX_WORK_GROUP_SIZE: {
      size_t size = 1024;
      return ReturnInfo(&size, sizeof(size), param_value_size, param_value,
                        param_value_size_ret);
    }
    case CL_DEVICE_MAX_COMPUTE_UNITS: {
      cl_uint units = 16;
      return ReturnInfo(&units, sizeof(units), param_value_size, param_value,
                        param_value_size_ret);
    }
    case CL_DEVICE_GLOBAL_MEM_SIZE: {
      // Honest capacity from the tiered-memory subsystem: the node's
      // reported device memory; the cluster device reports the sum.
      cl_ulong bytes = device->global_mem_bytes;
      return ReturnInfo(&bytes, sizeof(bytes), param_value_size, param_value,
                        param_value_size_ret);
    }
    case CL_DEVICE_MAX_MEM_ALLOC_SIZE: {
      cl_ulong bytes = device->max_alloc_bytes;
      return ReturnInfo(&bytes, sizeof(bytes), param_value_size, param_value,
                        param_value_size_ret);
    }
    default:
      return CL_INVALID_VALUE;
  }
}

// ------------------------------------------------------------------ Context

cl_context clCreateContext(const cl_context_properties*, cl_uint num_devices,
                           const cl_device_id* devices,
                           void (*)(const char*, const void*, size_t, void*),
                           void*, cl_int* errcode_ret) {
  auto fail = [&](cl_int code) {
    if (errcode_ret != nullptr) *errcode_ret = code;
    return static_cast<cl_context>(nullptr);
  };
  if (num_devices == 0 || devices == nullptr) return fail(CL_INVALID_VALUE);
  for (cl_uint i = 0; i < num_devices; ++i) {
    if (!Valid(devices[i], kDeviceMagic)) return fail(CL_INVALID_DEVICE);
  }
  if (BoundRuntime() == nullptr) return fail(CL_DEVICE_NOT_AVAILABLE);
  auto* context = new _cl_context();
  context->devices.assign(devices, devices + num_devices);
  if (errcode_ret != nullptr) *errcode_ret = CL_SUCCESS;
  return context;
}

cl_int clRetainContext(cl_context context) {
  if (!Valid(context, kContextMagic)) return CL_INVALID_CONTEXT;
  context->refs.fetch_add(1);
  return CL_SUCCESS;
}

cl_int clReleaseContext(cl_context context) {
  if (!Valid(context, kContextMagic)) return CL_INVALID_CONTEXT;
  if (context->refs.fetch_sub(1) == 1) {
    context->magic = kDeadMagic;
    delete context;
  }
  return CL_SUCCESS;
}

// ------------------------------------------------------------------- Queues

cl_command_queue clCreateCommandQueue(cl_context context, cl_device_id device,
                                      cl_command_queue_properties properties,
                                      cl_int* errcode_ret) {
  auto fail = [&](cl_int code) {
    if (errcode_ret != nullptr) *errcode_ret = code;
    return static_cast<cl_command_queue>(nullptr);
  };
  if (!Valid(context, kContextMagic)) return fail(CL_INVALID_CONTEXT);
  if (!Valid(device, kDeviceMagic)) return fail(CL_INVALID_DEVICE);
  auto* queue = new _cl_command_queue();
  queue->context = context;
  queue->device = device;
  queue->origin = BoundRuntime();
  queue->profiling = (properties & CL_QUEUE_PROFILING_ENABLE) != 0;
  if (errcode_ret != nullptr) *errcode_ret = CL_SUCCESS;
  return queue;
}

cl_int clRetainCommandQueue(cl_command_queue queue) {
  if (!Valid(queue, kQueueMagic)) return CL_INVALID_COMMAND_QUEUE;
  queue->refs.fetch_add(1);
  return CL_SUCCESS;
}

cl_int clReleaseCommandQueue(cl_command_queue queue) {
  if (!Valid(queue, kQueueMagic)) return CL_INVALID_COMMAND_QUEUE;
  if (queue->refs.fetch_sub(1) == 1) {
    // Drop the tail's record reference (the queue owned it for ordering
    // and clFinish).
    auto* runtime = BoundRuntime();
    if (runtime != nullptr && queue->origin == runtime &&
        queue->tail.valid()) {
      (void)runtime->ReleaseCommand(queue->tail);
    }
    queue->magic = kDeadMagic;
    delete queue;
  }
  return CL_SUCCESS;
}

// ------------------------------------------------------------------ Buffers

cl_mem clCreateBuffer(cl_context context, cl_mem_flags flags, size_t size,
                      void* host_ptr, cl_int* errcode_ret) {
  auto fail = [&](cl_int code) {
    if (errcode_ret != nullptr) *errcode_ret = code;
    return static_cast<cl_mem>(nullptr);
  };
  if (!Valid(context, kContextMagic)) return fail(CL_INVALID_CONTEXT);
  if (size == 0) return fail(CL_INVALID_BUFFER_SIZE);
  const bool wants_host_ptr =
      (flags & (CL_MEM_COPY_HOST_PTR | CL_MEM_USE_HOST_PTR)) != 0;
  if (wants_host_ptr != (host_ptr != nullptr)) {
    return fail(CL_INVALID_VALUE);
  }
  auto* runtime = BoundRuntime();
  if (runtime == nullptr) return fail(CL_DEVICE_NOT_AVAILABLE);
  auto buffer = runtime->CreateBuffer(size);
  if (!buffer.ok()) return fail(ToClError(buffer.status()));
  if (host_ptr != nullptr) {
    Status written = runtime->WriteBuffer(*buffer, 0, host_ptr, size);
    if (!written.ok()) {
      (void)runtime->ReleaseBuffer(*buffer);
      return fail(ToClError(written));
    }
  }
  auto* mem = new _cl_mem();
  mem->buffer = *buffer;
  mem->size = size;
  if (errcode_ret != nullptr) *errcode_ret = CL_SUCCESS;
  return mem;
}

cl_int clRetainMemObject(cl_mem mem) {
  if (!Valid(mem, kMemMagic)) return CL_INVALID_MEM_OBJECT;
  mem->refs.fetch_add(1);
  return CL_SUCCESS;
}

cl_int clReleaseMemObject(cl_mem mem) {
  if (!Valid(mem, kMemMagic)) return CL_INVALID_MEM_OBJECT;
  if (mem->refs.fetch_sub(1) == 1) {
    auto* runtime = BoundRuntime();
    if (runtime != nullptr) (void)runtime->ReleaseBuffer(mem->buffer);
    mem->magic = kDeadMagic;
    delete mem;
  }
  return CL_SUCCESS;
}

// ----------------------------------------------------------------- Programs

cl_program clCreateProgramWithSource(cl_context context, cl_uint count,
                                     const char** strings,
                                     const size_t* lengths,
                                     cl_int* errcode_ret) {
  auto fail = [&](cl_int code) {
    if (errcode_ret != nullptr) *errcode_ret = code;
    return static_cast<cl_program>(nullptr);
  };
  if (!Valid(context, kContextMagic)) return fail(CL_INVALID_CONTEXT);
  if (count == 0 || strings == nullptr) return fail(CL_INVALID_VALUE);
  std::string source;
  for (cl_uint i = 0; i < count; ++i) {
    if (strings[i] == nullptr) return fail(CL_INVALID_VALUE);
    if (lengths != nullptr && lengths[i] != 0) {
      source.append(strings[i], lengths[i]);
    } else {
      source.append(strings[i]);
    }
  }
  auto* program = new _cl_program();
  program->source = std::move(source);
  if (errcode_ret != nullptr) *errcode_ret = CL_SUCCESS;
  return program;
}

cl_int clBuildProgram(cl_program program, cl_uint, const cl_device_id*,
                      const char*, void (*pfn_notify)(cl_program, void*),
                      void* user_data) {
  if (!Valid(program, kProgramMagic)) return CL_INVALID_PROGRAM;
  auto* runtime = BoundRuntime();
  if (runtime == nullptr) return CL_DEVICE_NOT_AVAILABLE;
  auto built = runtime->BuildProgram(program->source);
  if (built.ok()) {
    program->program = *built;
    program->built = true;
    program->build_status = CL_SUCCESS;
  } else {
    program->built = false;
    program->build_status = CL_BUILD_PROGRAM_FAILURE;
  }
  if (pfn_notify != nullptr) pfn_notify(program, user_data);
  return program->build_status;
}

cl_int clGetProgramBuildInfo(cl_program program, cl_device_id device,
                             cl_program_build_info param_name,
                             size_t param_value_size, void* param_value,
                             size_t* param_value_size_ret) {
  if (!Valid(program, kProgramMagic)) return CL_INVALID_PROGRAM;
  if (device != nullptr && !Valid(device, kDeviceMagic)) {
    return CL_INVALID_DEVICE;
  }
  auto* runtime = BoundRuntime();
  switch (param_name) {
    case CL_PROGRAM_BUILD_STATUS:
      return ReturnInfo(&program->build_status, sizeof(cl_int),
                        param_value_size, param_value, param_value_size_ret);
    case CL_PROGRAM_BUILD_LOG: {
      std::string log;
      if (runtime != nullptr && program->built) {
        log = runtime->BuildLog(program->program);
      } else if (runtime != nullptr) {
        // Re-run the local compile to produce the log for failed builds.
        auto result = runtime->BuildProgram(program->source);
        if (!result.ok()) log = result.status().message();
      }
      return ReturnString(log, param_value_size, param_value,
                          param_value_size_ret);
    }
    default:
      return CL_INVALID_VALUE;
  }
}

cl_int clRetainProgram(cl_program program) {
  if (!Valid(program, kProgramMagic)) return CL_INVALID_PROGRAM;
  program->refs.fetch_add(1);
  return CL_SUCCESS;
}

cl_int clReleaseProgram(cl_program program) {
  if (!Valid(program, kProgramMagic)) return CL_INVALID_PROGRAM;
  if (program->refs.fetch_sub(1) == 1) {
    auto* runtime = BoundRuntime();
    if (runtime != nullptr && program->built) {
      (void)runtime->ReleaseProgram(program->program);
    }
    program->magic = kDeadMagic;
    delete program;
  }
  return CL_SUCCESS;
}

// ------------------------------------------------------------------ Kernels

cl_kernel clCreateKernel(cl_program program, const char* kernel_name,
                         cl_int* errcode_ret) {
  auto fail = [&](cl_int code) {
    if (errcode_ret != nullptr) *errcode_ret = code;
    return static_cast<cl_kernel>(nullptr);
  };
  if (!Valid(program, kProgramMagic)) return fail(CL_INVALID_PROGRAM);
  if (kernel_name == nullptr) return fail(CL_INVALID_VALUE);
  if (!program->built) return fail(CL_INVALID_PROGRAM_EXECUTABLE);
  auto* runtime = BoundRuntime();
  if (runtime == nullptr) return fail(CL_DEVICE_NOT_AVAILABLE);
  auto info = runtime->FindKernel(program->program, kernel_name);
  if (!info.ok()) return fail(CL_INVALID_KERNEL_NAME);
  auto* kernel = new _cl_kernel();
  kernel->program = program;
  kernel->name = kernel_name;
  kernel->info = *info;
  kernel->args.resize((*info)->params.size());
  kernel->access.resize((*info)->params.size());
  program->refs.fetch_add(1);
  if (errcode_ret != nullptr) *errcode_ret = CL_SUCCESS;
  return kernel;
}

cl_int clSetKernelArg(cl_kernel kernel, cl_uint arg_index, size_t arg_size,
                      const void* arg_value) {
  if (!Valid(kernel, kKernelMagic)) return CL_INVALID_KERNEL;
  if (arg_index >= kernel->args.size()) return CL_INVALID_ARG_INDEX;
  const haocl::oclc::KernelArgInfo& param = kernel->info->params[arg_index];

  if (param.IsBuffer()) {
    if (arg_size != sizeof(cl_mem) || arg_value == nullptr) {
      return CL_INVALID_ARG_SIZE;
    }
    cl_mem mem = *static_cast<const cl_mem*>(arg_value);
    if (!Valid(mem, kMemMagic)) return CL_INVALID_ARG_VALUE;
    kernel->args[arg_index] =
        haocl::host::KernelArgValue::Buffer(mem->buffer);
    return CL_SUCCESS;
  }
  if (param.IsLocalPointer()) {
    if (arg_value != nullptr || arg_size == 0) return CL_INVALID_ARG_VALUE;
    kernel->args[arg_index] = haocl::host::KernelArgValue::Local(arg_size);
    return CL_SUCCESS;
  }
  // Scalar.
  const size_t want = haocl::oclc::ScalarSize(param.type.scalar);
  if (arg_size != want) return CL_INVALID_ARG_SIZE;
  if (arg_value == nullptr) return CL_INVALID_ARG_VALUE;
  haocl::host::KernelArgValue value;
  value.kind = haocl::host::KernelArgValue::Kind::kScalar;
  value.scalar_bytes.assign(
      static_cast<const std::uint8_t*>(arg_value),
      static_cast<const std::uint8_t*>(arg_value) + arg_size);
  kernel->args[arg_index] = std::move(value);
  return CL_SUCCESS;
}

cl_int clSetKernelArgAccessPatternHAOCL(cl_kernel kernel, cl_uint arg_index,
                                        cl_haocl_arg_access access,
                                        size_t partition_stride) {
  if (!Valid(kernel, kKernelMagic)) return CL_INVALID_KERNEL;
  if (arg_index >= kernel->access.size()) return CL_INVALID_ARG_INDEX;
  if (!kernel->info->params[arg_index].IsBuffer()) {
    return CL_INVALID_ARG_VALUE;  // Only buffer args have access patterns.
  }
  switch (access) {
    case CL_HAOCL_ARG_ACCESS_REPLICATED:
      kernel->access[arg_index] = {};
      return CL_SUCCESS;
    case CL_HAOCL_ARG_ACCESS_PARTITIONED_DIM0:
      if (partition_stride == 0) return CL_INVALID_ARG_VALUE;
      kernel->access[arg_index] = {
          haocl::host::KernelArgValue::Access::kPartitionedDim0,
          partition_stride};
      return CL_SUCCESS;
    default:
      return CL_INVALID_VALUE;
  }
}

cl_int clRetainKernel(cl_kernel kernel) {
  if (!Valid(kernel, kKernelMagic)) return CL_INVALID_KERNEL;
  kernel->refs.fetch_add(1);
  return CL_SUCCESS;
}

cl_int clReleaseKernel(cl_kernel kernel) {
  if (!Valid(kernel, kKernelMagic)) return CL_INVALID_KERNEL;
  if (kernel->refs.fetch_sub(1) == 1) {
    (void)clReleaseProgram(kernel->program);
    kernel->magic = kDeadMagic;
    delete kernel;
  }
  return CL_SUCCESS;
}

// ----------------------------------------------------------------- Enqueues

cl_int clEnqueueWriteBuffer(cl_command_queue queue, cl_mem buffer,
                            cl_bool blocking_write, size_t offset,
                            size_t size, const void* ptr,
                            cl_uint num_events_in_wait_list,
                            const cl_event* event_wait_list,
                            cl_event* event) {
  if (!Valid(queue, kQueueMagic)) return CL_INVALID_COMMAND_QUEUE;
  if (!Valid(buffer, kMemMagic)) return CL_INVALID_MEM_OBJECT;
  if (ptr == nullptr || size == 0) return CL_INVALID_VALUE;
  if (RangeExceeds(offset, size, buffer->size)) {
    return CL_INVALID_VALUE;
  }
  return EnqueueCommand(
      queue, num_events_in_wait_list, event_wait_list, blocking_write, event,
      [&](auto* runtime, auto deps, auto after) {
        // `ptr` is borrowed until the write completes (OpenCL 1.2 §5.2.2).
        // A node's queue ships it to that node; the cluster device (-1)
        // keeps it in the host shadow until a launch is placed.
        return runtime->SubmitWrite(buffer->buffer, offset, ptr, size,
                                    queue->device->node_index,
                                    std::move(deps), std::move(after));
      });
}

cl_int clEnqueueReadBuffer(cl_command_queue queue, cl_mem buffer,
                           cl_bool blocking_read, size_t offset, size_t size,
                           void* ptr, cl_uint num_events_in_wait_list,
                           const cl_event* event_wait_list, cl_event* event) {
  if (!Valid(queue, kQueueMagic)) return CL_INVALID_COMMAND_QUEUE;
  if (!Valid(buffer, kMemMagic)) return CL_INVALID_MEM_OBJECT;
  if (ptr == nullptr || size == 0) return CL_INVALID_VALUE;
  if (RangeExceeds(offset, size, buffer->size)) {
    return CL_INVALID_VALUE;
  }
  return EnqueueCommand(
      queue, num_events_in_wait_list, event_wait_list, blocking_read, event,
      [&](auto* runtime, auto deps, auto after) {
        return runtime->SubmitRead(buffer->buffer, offset, ptr, size,
                                   std::move(deps), std::move(after));
      });
}

cl_int clEnqueueCopyBuffer(cl_command_queue queue, cl_mem src_buffer,
                           cl_mem dst_buffer, size_t src_offset,
                           size_t dst_offset, size_t size,
                           cl_uint num_events_in_wait_list,
                           const cl_event* event_wait_list, cl_event* event) {
  if (!Valid(queue, kQueueMagic)) return CL_INVALID_COMMAND_QUEUE;
  if (!Valid(src_buffer, kMemMagic) || !Valid(dst_buffer, kMemMagic)) {
    return CL_INVALID_MEM_OBJECT;
  }
  if (size == 0) return CL_INVALID_VALUE;
  if (RangeExceeds(src_offset, size, src_buffer->size) ||
      RangeExceeds(dst_offset, size, dst_buffer->size)) {
    return CL_INVALID_VALUE;
  }
  return EnqueueCommand(
      queue, num_events_in_wait_list, event_wait_list, CL_FALSE, event,
      [&](auto* runtime, auto deps, auto after) {
        return runtime->SubmitCopy(src_buffer->buffer, src_offset,
                                   dst_buffer->buffer, dst_offset, size,
                                   std::move(deps), std::move(after));
      });
}

cl_int clEnqueueNDRangeKernel(cl_command_queue queue, cl_kernel kernel,
                              cl_uint work_dim,
                              const size_t* global_work_offset,
                              const size_t* global_work_size,
                              const size_t* local_work_size,
                              cl_uint num_events_in_wait_list,
                              const cl_event* event_wait_list,
                              cl_event* event) {
  if (!Valid(queue, kQueueMagic)) return CL_INVALID_COMMAND_QUEUE;
  if (!Valid(kernel, kKernelMagic)) return CL_INVALID_KERNEL;
  if (work_dim < 1 || work_dim > 3) return CL_INVALID_WORK_DIMENSION;
  if (global_work_size == nullptr) return CL_INVALID_VALUE;
  for (const auto& arg : kernel->args) {
    if (!arg.has_value()) return CL_INVALID_KERNEL_ARGS;
  }

  haocl::host::ClusterRuntime::LaunchSpec spec;
  spec.program = kernel->program->program;
  spec.kernel_name = kernel->name;
  for (std::size_t i = 0; i < kernel->args.size(); ++i) {
    haocl::host::KernelArgValue value = *kernel->args[i];
    if (value.kind == haocl::host::KernelArgValue::Kind::kBuffer) {
      value.access = kernel->access[i].access;
      value.partition_stride = kernel->access[i].stride;
    }
    spec.args.push_back(std::move(value));
  }
  spec.work_dim = work_dim;
  for (cl_uint d = 0; d < work_dim; ++d) {
    spec.global[d] = global_work_size[d];
    if (local_work_size != nullptr) spec.local[d] = local_work_size[d];
    if (global_work_offset != nullptr) {
      spec.global_offset[d] = global_work_offset[d];
    }
  }
  spec.local_specified = local_work_size != nullptr;
  spec.preferred_node = queue->device->node_index;  // -1 = scheduler picks.

  return EnqueueCommand(
      queue, num_events_in_wait_list, event_wait_list, CL_FALSE, event,
      [&](auto* runtime, auto deps, auto after) {
        return runtime->SubmitLaunch(spec, std::move(deps),
                                     std::move(after));
      });
}

cl_int clEnqueueMigrateMemObjects(cl_command_queue queue,
                                  cl_uint num_mem_objects,
                                  const cl_mem* mem_objects,
                                  cl_mem_migration_flags flags,
                                  cl_uint num_events_in_wait_list,
                                  const cl_event* event_wait_list,
                                  cl_event* event) {
  if (!Valid(queue, kQueueMagic)) return CL_INVALID_COMMAND_QUEUE;
  if (num_mem_objects == 0 || mem_objects == nullptr) return CL_INVALID_VALUE;
  constexpr cl_mem_migration_flags kKnownFlags =
      CL_MIGRATE_MEM_OBJECT_HOST | CL_MIGRATE_MEM_OBJECT_CONTENT_UNDEFINED;
  if ((flags & ~kKnownFlags) != 0) return CL_INVALID_VALUE;
  for (cl_uint i = 0; i < num_mem_objects; ++i) {
    if (!Valid(mem_objects[i], kMemMagic)) return CL_INVALID_MEM_OBJECT;
  }
  const bool to_host = (flags & CL_MIGRATE_MEM_OBJECT_HOST) != 0;
  const bool discard =
      (flags & CL_MIGRATE_MEM_OBJECT_CONTENT_UNDEFINED) != 0;
  const int node = queue->device->node_index;  // -1 = virtual cluster device.
  // On the virtual cluster device the scheduler owns placement, so a
  // device-directed migration has no fixed destination: treat it as the
  // legal no-op hint (still an in-order command, so the event semantics
  // hold) unless the HOST flag names the host shadow explicitly.
  const bool no_op = !to_host && node < 0;
  // One runtime command per mem object, chained in-order. The wait list
  // gates the FIRST command (validated before anything enqueues; in-order
  // chaining extends the gate to the rest); the out-event tracks the
  // LAST, which completes only after all of them.
  for (cl_uint i = 0; i < num_mem_objects; ++i) {
    cl_mem mem = mem_objects[i];
    const bool first = i == 0;
    const bool last = i + 1 == num_mem_objects;
    cl_int status = EnqueueCommand(
        queue, first ? num_events_in_wait_list : 0,
        first ? event_wait_list : nullptr, CL_FALSE, last ? event : nullptr,
        [&](auto* runtime, auto deps, auto after) {
          using Handle = haocl::Expected<haocl::host::CommandHandle>;
          if (no_op) {
            // Empty-bodied command: carries the ordering and the event,
            // moves nothing.
            std::vector<haocl::host::CommandId> dep_ids;
            std::vector<haocl::host::CommandId> order_ids;
            for (const CommandHandle& h : deps) dep_ids.push_back(h.id);
            for (const CommandHandle& h : after) order_ids.push_back(h.id);
            const haocl::host::CommandId cmd = runtime->graph().Submit(
                [](haocl::host::CommandGraph::Execution&) {
                  return haocl::Status::Ok();
                },
                std::move(dep_ids), "migrate:noop", std::move(order_ids));
            return Handle(haocl::host::CommandHandle{cmd});
          }
          return Handle(runtime->SubmitMigrate(
              mem->buffer, {},
              to_host ? haocl::host::ClusterRuntime::kMigrateToHost : node,
              discard, std::move(deps), std::move(after)));
        });
    if (status != CL_SUCCESS) return status;
  }
  return CL_SUCCESS;
}

cl_int clFlush(cl_command_queue queue) {
  // Every enqueue submits into the command graph immediately; there is
  // nothing left to push.
  return Valid(queue, kQueueMagic) ? CL_SUCCESS : CL_INVALID_COMMAND_QUEUE;
}

cl_int clFinish(cl_command_queue queue) {
  if (!Valid(queue, kQueueMagic)) return CL_INVALID_COMMAND_QUEUE;
  auto* runtime = BoundRuntime();
  if (runtime == nullptr) return CL_SUCCESS;  // Nothing can be in flight.
  if (queue->origin != runtime) return CL_SUCCESS;  // Stale binding: inert.
  CommandHandle tail;
  {
    std::lock_guard<std::mutex> order(queue->mutex);
    tail = queue->tail;
    // Hold the record across the wait: a racing enqueue advancing the
    // tail would otherwise release it mid-Wait and mask a failure.
    if (tail.valid()) (void)runtime->RetainCommand(tail);
  }
  if (!tail.valid()) return CL_SUCCESS;
  // In-order queue: the tail completing means everything before it did.
  // Note: commands gated on unresolved user events keep clFinish blocked
  // until the application sets them — the standard's semantics.
  Status status = runtime->Wait(tail);
  (void)runtime->ReleaseCommand(tail);
  return status.ok() ? CL_SUCCESS : ToClError(status);
}

// ------------------------------------------------------------------- Events

cl_int clWaitForEvents(cl_uint num_events, const cl_event* event_list) {
  if (num_events == 0 || event_list == nullptr) return CL_INVALID_VALUE;
  for (cl_uint i = 0; i < num_events; ++i) {
    if (!Valid(event_list[i], kEventMagic)) return CL_INVALID_EVENT;
  }
  cl_int result = CL_SUCCESS;
  for (cl_uint i = 0; i < num_events; ++i) {
    _cl_event* e = event_list[i];
    if (ResolveEvent(e)) {
      // Already terminal (covers events that outlived the runtime).
      std::lock_guard<std::mutex> lock(e->mutex);
      if (e->exec_status < 0) {
        result = CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST;
      }
      continue;
    }
    auto* runtime = RuntimeFor(e);
    if (runtime == nullptr) continue;  // Stale binding: nothing to wait on.
    Status status = runtime->Wait(e->cmd);
    (void)ResolveEvent(e);
    if (!status.ok()) {
      result = CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST;
    }
  }
  return result;
}

cl_int clGetEventInfo(cl_event event, cl_event_info param_name,
                      size_t param_value_size, void* param_value,
                      size_t* param_value_size_ret) {
  if (!Valid(event, kEventMagic)) return CL_INVALID_EVENT;
  switch (param_name) {
    case CL_EVENT_COMMAND_EXECUTION_STATUS: {
      const cl_int status = EventExecutionStatus(event);
      return ReturnInfo(&status, sizeof(status), param_value_size,
                        param_value, param_value_size_ret);
    }
    case CL_EVENT_REFERENCE_COUNT: {
      const cl_uint refs = static_cast<cl_uint>(event->refs.load());
      return ReturnInfo(&refs, sizeof(refs), param_value_size, param_value,
                        param_value_size_ret);
    }
    default:
      return CL_INVALID_VALUE;
  }
}

cl_int clGetEventProfilingInfo(cl_event event, cl_profiling_info param_name,
                               size_t param_value_size, void* param_value,
                               size_t* param_value_size_ret) {
  if (!Valid(event, kEventMagic)) return CL_INVALID_EVENT;
  if (event->user) return CL_PROFILING_INFO_NOT_AVAILABLE;
  if (!ResolveEvent(event)) return CL_PROFILING_INFO_NOT_AVAILABLE;
  double seconds = 0.0;
  {
    std::lock_guard<std::mutex> lock(event->mutex);
    switch (param_name) {
      case CL_PROFILING_COMMAND_QUEUED: seconds = event->queued; break;
      case CL_PROFILING_COMMAND_SUBMIT: seconds = event->submit; break;
      case CL_PROFILING_COMMAND_START: seconds = event->start; break;
      case CL_PROFILING_COMMAND_END: seconds = event->end; break;
      default:
        return CL_INVALID_VALUE;
    }
  }
  const cl_ulong nanos = static_cast<cl_ulong>(seconds * 1e9);
  return ReturnInfo(&nanos, sizeof(nanos), param_value_size, param_value,
                    param_value_size_ret);
}

cl_event clCreateUserEvent(cl_context context, cl_int* errcode_ret) {
  auto fail = [&](cl_int code) {
    if (errcode_ret != nullptr) *errcode_ret = code;
    return static_cast<cl_event>(nullptr);
  };
  if (!Valid(context, kContextMagic)) return fail(CL_INVALID_CONTEXT);
  auto* runtime = BoundRuntime();
  if (runtime == nullptr) return fail(CL_DEVICE_NOT_AVAILABLE);
  auto handle = runtime->SubmitMarker();
  if (!handle.ok()) return fail(ToClError(handle.status()));
  cl_event event = nullptr;
  EmitEvent(&event, *handle, /*user=*/true);
  if (errcode_ret != nullptr) *errcode_ret = CL_SUCCESS;
  return event;
}

cl_int clSetUserEventStatus(cl_event event, cl_int execution_status) {
  if (!Valid(event, kEventMagic)) return CL_INVALID_EVENT;
  if (!event->user) return CL_INVALID_EVENT;
  if (execution_status != CL_COMPLETE && execution_status >= 0) {
    return CL_INVALID_VALUE;
  }
  auto* runtime = RuntimeFor(event);
  if (runtime == nullptr) return CL_INVALID_OPERATION;
  Status terminal =
      execution_status == CL_COMPLETE
          ? Status::Ok()
          : Status(haocl::ErrorCode::kInternal,
                   "user event failed with status " +
                       std::to_string(execution_status));
  Status set = runtime->CompleteMarker(event->cmd, std::move(terminal));
  if (!set.ok()) {
    // Setting twice is the spec's CL_INVALID_OPERATION.
    return set.code() == haocl::ErrorCode::kInvalidOperation
               ? CL_INVALID_OPERATION
               : ToClError(set);
  }
  // Cache the exact status the application set: clGetEventInfo must echo
  // the user's own negative value, not our internal mapping of it.
  {
    std::lock_guard<std::mutex> lock(event->mutex);
    event->resolved = true;
    event->exec_status = execution_status;
  }
  return CL_SUCCESS;
}

cl_int clRetainEvent(cl_event event) {
  if (!Valid(event, kEventMagic)) return CL_INVALID_EVENT;
  event->refs.fetch_add(1);
  return CL_SUCCESS;
}

cl_int clReleaseEvent(cl_event event) {
  if (!Valid(event, kEventMagic)) return CL_INVALID_EVENT;
  if (event->refs.fetch_sub(1) == 1) {
    // Drop the event's record reference so the graph can reclaim the
    // command's bookkeeping (clReleaseEvent is what keeps long event
    // streams bounded).
    auto* runtime = RuntimeFor(event);
    if (runtime != nullptr) (void)runtime->ReleaseCommand(event->cmd);
    event->magic = kDeadMagic;
    delete event;
  }
  return CL_SUCCESS;
}

}  // extern "C"
