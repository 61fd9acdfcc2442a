#include "runtime/device_session.h"

#include <algorithm>
#include <cstring>

#include "common/wire.h"

namespace haocl::runtime {
namespace {

Status NoSuchBuffer(std::uint64_t id) {
  return Status(ErrorCode::kInvalidMemObject,
                "no buffer with id " + std::to_string(id));
}

}  // namespace

Status DeviceSession::CreateBuffer(std::uint64_t buffer_id,
                                   std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (size == 0) {
    return Status(ErrorCode::kInvalidBufferSize, "zero-sized buffer");
  }
  if (buffers_.count(buffer_id) != 0) {
    return Status(ErrorCode::kInvalidValue,
                  "buffer id " + std::to_string(buffer_id) + " already exists");
  }
  // A real allocation can fail; surface that as the OpenCL error rather
  // than letting bad_alloc escape across the protocol boundary.
  try {
    buffers_.emplace(buffer_id, std::make_shared<ZeroedBytes>(size));
  } catch (const std::bad_alloc&) {
    return Status(ErrorCode::kMemObjectAllocationFailure,
                  "cannot allocate " + std::to_string(size) + " bytes");
  }
  return Status::Ok();
}

Expected<DeviceSession::ReplicaRange> DeviceSession::RangeLocked(
    std::uint64_t buffer_id, std::uint64_t offset, std::uint64_t size,
    const char* what) {
  auto it = buffers_.find(buffer_id);
  if (it == buffers_.end()) return NoSuchBuffer(buffer_id);
  ZeroedBytes& replica = *it->second;
  if (RangeExceeds(offset, size, replica.size())) {
    return Status(ErrorCode::kInvalidValue,
                  std::string(what) + " beyond buffer end: offset " +
                      std::to_string(offset) + " + " + std::to_string(size) +
                      " > " + std::to_string(replica.size()));
  }
  return ReplicaRange{std::span(replica).subspan(offset, size), it->second};
}

Expected<DeviceSession::ReplicaRange> DeviceSession::ClaimWrite(
    std::uint64_t buffer_id, std::uint64_t offset, std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto range = RangeLocked(buffer_id, offset, size, "write");
  if (!range.ok()) return range;
  // Arriving bytes materialize device memory: charge the pool before
  // touching the replica. The host's per-node ledger charges the same
  // range around this transfer, so a failure here means the host
  // mis-budgeted — surface it as the device OOM it models.
  HAOCL_RETURN_IF_ERROR(ledger_->Reserve(buffer_id, offset, offset + size));
  return range;
}

Status DeviceSession::WriteBuffer(std::uint64_t buffer_id,
                                  std::uint64_t offset,
                                  std::span<const std::uint8_t> data) {
  auto range = ClaimWrite(buffer_id, offset, data.size());
  if (!range.ok()) return range.status();
  std::copy(data.begin(), data.end(), range->bytes.begin());
  return Status::Ok();
}

Expected<DeviceSession::ReplicaRange> DeviceSession::ReadBuffer(
    std::uint64_t buffer_id, std::uint64_t offset, std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  return RangeLocked(buffer_id, offset, size, "read");
}

Status DeviceSession::ReleaseBuffer(std::uint64_t buffer_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = buffers_.find(buffer_id);
  if (it == buffers_.end()) return NoSuchBuffer(buffer_id);
  ledger_->ReleaseBuffer(buffer_id);
  buffers_.erase(it);
  return Status::Ok();
}

Status DeviceSession::MemoryNotice(const net::MemoryNoticeRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = buffers_.find(request.buffer_id);
  if (it == buffers_.end()) return NoSuchBuffer(request.buffer_id);
  for (const net::MemoryRegion& region : request.regions) {
    if (region.size == 0 ||
        RangeExceeds(region.offset, region.size, it->second->size())) {
      return Status(ErrorCode::kInvalidValue,
                    "memory notice region beyond buffer end");
    }
    if (request.reserve) {
      HAOCL_RETURN_IF_ERROR(ledger_->Reserve(request.buffer_id, region.offset,
                                          region.offset + region.size));
    } else {
      ledger_->Release(request.buffer_id, region.offset,
                    region.offset + region.size);
    }
  }
  return Status::Ok();
}

net::BuildProgramReply DeviceSession::BuildProgram(std::uint64_t program_id,
                                                   const std::string& source) {
  std::lock_guard<std::mutex> lock(mutex_);
  net::BuildProgramReply reply;
  std::string build_log;
  auto module = driver_->Build(source, &build_log);
  if (!module.ok()) {
    reply.status_code =
        static_cast<std::int32_t>(ErrorCode::kBuildProgramFailure);
    reply.build_log = build_log.empty() ? module.status().message() : build_log;
    return reply;
  }
  ProgramEntry entry;
  entry.module = *std::move(module);
  entry.build_log = build_log;
  reply.kernel_names = entry.module->KernelNames();
  programs_[program_id] = std::move(entry);
  return reply;
}

Status DeviceSession::ReleaseProgram(std::uint64_t program_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (programs_.erase(program_id) == 0) {
    return Status(ErrorCode::kInvalidProgram,
                  "no program with id " + std::to_string(program_id));
  }
  return Status::Ok();
}

net::LaunchKernelReply DeviceSession::LaunchKernel(
    const net::LaunchKernelRequest& request) {
  std::unique_lock<std::mutex> lock(mutex_);
  net::LaunchKernelReply reply;
  auto fail = [&reply](const Status& status) {
    reply.status_code = static_cast<std::int32_t>(status.code());
    reply.error_message = status.message();
    return reply;
  };

  // The driver indexes global/local/offset[3] by work_dim, and a native
  // twin skips the VM that would otherwise reject it.
  if (request.work_dim < 1 || request.work_dim > 3) {
    return fail(Status(ErrorCode::kInvalidWorkDimension,
                       "work_dim " + std::to_string(request.work_dim) +
                           " is not 1..3"));
  }
  auto program = programs_.find(request.program_id);
  if (program == programs_.end()) {
    return fail(Status(ErrorCode::kInvalidProgram,
                       "no program " + std::to_string(request.program_id)));
  }
  const oclc::Module& module = *program->second.module;
  const oclc::CompiledFunction* kernel =
      module.FindKernel(request.kernel_name);
  if (kernel == nullptr) {
    return fail(Status(ErrorCode::kInvalidKernelName,
                       "no kernel '" + request.kernel_name + "'"));
  }
  if (request.args.size() != kernel->params.size()) {
    return fail(Status(ErrorCode::kInvalidKernelArgs,
                       "kernel '" + request.kernel_name + "' takes " +
                           std::to_string(kernel->params.size()) +
                           " args, got " +
                           std::to_string(request.args.size())));
  }

  // Bind wire arguments to VM bindings. `held` owns every bound replica
  // until the driver returns: a release arriving on another connection
  // mid-launch must not free bytes the kernel is using.
  std::vector<oclc::ArgBinding> bindings;
  bindings.reserve(request.args.size());
  std::vector<std::shared_ptr<ZeroedBytes>> held;
  for (std::size_t i = 0; i < request.args.size(); ++i) {
    const net::WireKernelArg& arg = request.args[i];
    const oclc::KernelArgInfo& param = kernel->params[i];
    switch (arg.kind) {
      case net::WireKernelArg::Kind::kBuffer: {
        auto it = buffers_.find(arg.buffer_id);
        if (it == buffers_.end()) {
          return fail(NoSuchBuffer(arg.buffer_id));
        }
        // Kernel outputs materialize device memory with no transfer this
        // session could observe: charge the written range now, mirroring
        // the host ledger's launch-epilogue charge.
        ZeroedBytes& replica = *it->second;
        if (arg.written_end > arg.written_begin) {
          if (arg.written_end > replica.size()) {
            return fail(Status(ErrorCode::kInvalidValue,
                               "written range beyond buffer end"));
          }
          Status reserved = ledger_->Reserve(arg.buffer_id, arg.written_begin,
                                          arg.written_end);
          if (!reserved.ok()) return fail(reserved);
        }
        bindings.push_back(
            oclc::ArgBinding::Buffer(replica.data(), replica.size()));
        held.push_back(it->second);
        break;
      }
      case net::WireKernelArg::Kind::kScalar: {
        if (param.type.is_pointer) {
          return fail(Status(ErrorCode::kInvalidArgValue,
                             "scalar bound to pointer arg " +
                                 std::to_string(i)));
        }
        const std::size_t want = oclc::ScalarSize(param.type.scalar);
        if (arg.scalar_bytes.size() != want) {
          return fail(Status(ErrorCode::kInvalidArgSize,
                             "arg " + std::to_string(i) + " of '" +
                                 request.kernel_name + "' expects " +
                                 std::to_string(want) + " bytes, got " +
                                 std::to_string(arg.scalar_bytes.size())));
        }
        // Reinterpret the raw bytes exactly as clSetKernelArg received
        // them, using the declared parameter type.
        oclc::ArgBinding binding;
        binding.kind = oclc::ArgBinding::Kind::kScalar;
        binding.scalar_type = param.type.scalar;
        std::uint8_t raw[8] = {0};
        std::memcpy(raw, arg.scalar_bytes.data(), want);
        switch (param.type.scalar) {
          case oclc::ScalarType::kF32: {
            float f;
            std::memcpy(&f, raw, 4);
            binding.scalar.f = f;
            break;
          }
          case oclc::ScalarType::kF64: {
            double d;
            std::memcpy(&d, raw, 8);
            binding.scalar.f = d;
            break;
          }
          default: {
            // Integers: zero-extend then sign-extend per type.
            std::uint64_t u = 0;
            std::memcpy(&u, raw, want);
            if (oclc::IsSignedInt(param.type.scalar)) {
              const int bits = static_cast<int>(want) * 8;
              const std::int64_t shifted =
                  static_cast<std::int64_t>(u << (64 - bits));
              binding.scalar.i = shifted >> (64 - bits);
            } else {
              binding.scalar.u = u;
            }
            break;
          }
        }
        bindings.push_back(binding);
        break;
      }
      case net::WireKernelArg::Kind::kLocalSize:
        bindings.push_back(oclc::ArgBinding::LocalMem(arg.local_size));
        break;
    }
  }

  oclc::NDRange range;
  range.work_dim = request.work_dim;
  for (int d = 0; d < 3; ++d) {
    range.global[d] = request.global[d];
    range.local[d] = request.local[d];
    range.offset[d] = request.global_offset[d];
  }
  range.local_specified = request.local_specified;

  driver::LaunchProfile profile;
  // Host-supplied analytic work estimate (shard-scaled): the timing model
  // profiles the work the host accounts, not the static guess.
  sim::KernelCost hint_cost;
  const sim::KernelCost* cost_hint = nullptr;
  if (request.has_cost_hint) {
    hint_cost.flops = request.hint_flops;
    hint_cost.bytes = request.hint_bytes;
    hint_cost.work_items = request.hint_work_items;
    hint_cost.irregular = request.hint_irregular;
    cost_hint = &hint_cost;
  }
  // Execute WITHOUT the session lock: peer slice exchange (and any other
  // channel sharing this session) must not stall behind a long kernel.
  // The bindings' buffer pointers stay valid — `held` owns the replicas —
  // and the host's hazard ordering keeps the ranges this kernel uses
  // unwritten by others until the launch reply. The module is pinned by
  // the shared_ptr copy below.
  const std::shared_ptr<const oclc::Module> pinned = program->second.module;
  lock.unlock();
  Status launched = driver_->Launch(*pinned, request.kernel_name, bindings,
                                    range, &profile, cost_hint);
  lock.lock();
  if (!launched.ok()) return fail(launched);

  reply.modeled_seconds = profile.modeled_seconds;
  reply.modeled_joules = profile.modeled_joules;
  reply.flops = profile.flops;
  return reply;
}

Status DeviceSession::PullSlice(const net::PullSliceRequest& request,
                                const PeerFetch& fetch) {
  // A missing allocation or a bad range fails here, before any network
  // round-trip. The claimed range stays pinned across the fetch, so a
  // release arriving meanwhile cannot free the bytes landing in it.
  auto range = ClaimWrite(request.buffer_id, request.offset, request.size);
  if (!range.ok()) return range.status();
  // Fetch WITHOUT the session lock: two nodes cross-pulling from each
  // other would otherwise each hold their own lock while waiting for the
  // peer's ReadBuffer, which needs that lock — a distributed deadlock.
  return fetch(request.source_node, request.buffer_id, request.offset,
               range->bytes);
}

}  // namespace haocl::runtime
