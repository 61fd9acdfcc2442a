#include "net/protocol.h"

namespace haocl::net {
namespace {

Status Malformed(const char* what) {
  return Status(ErrorCode::kProtocolError,
                std::string("malformed ") + what + " payload");
}

}  // namespace

// ---------------------------------------------------------------- Handshake

std::vector<std::uint8_t> HelloRequest::Encode() const {
  WireWriter w;
  w.WriteString(host_name);
  w.WriteU32(protocol_version);
  return std::move(w).Take();
}

Expected<HelloRequest> HelloRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  HelloRequest out;
  auto name = r.ReadString();
  auto version = r.ReadU32();
  if (!name.ok() || !version.ok()) return Malformed("HelloRequest");
  out.host_name = *std::move(name);
  out.protocol_version = *version;
  return out;
}

std::vector<std::uint8_t> HelloReply::Encode() const {
  WireWriter w;
  w.WriteString(node_name);
  w.WriteU8(static_cast<std::uint8_t>(device_type));
  w.WriteString(device_model);
  w.WriteF64(compute_gflops);
  w.WriteF64(mem_bandwidth_gbps);
  w.WriteU64(mem_capacity_bytes);
  w.WriteU32(simd_width);
  w.WriteU32(protocol_version);
  return std::move(w).Take();
}

Expected<HelloReply> HelloReply::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  HelloReply out;
  auto name = r.ReadString();
  auto type = r.ReadU8();
  auto model = r.ReadString();
  auto gflops = r.ReadF64();
  auto bw = r.ReadF64();
  auto capacity = r.ReadU64();
  auto simd = r.ReadU32();
  auto version = r.ReadU32();
  if (!name.ok() || !type.ok() || !model.ok() || !gflops.ok() || !bw.ok() ||
      !capacity.ok() || !simd.ok() || !version.ok() || *type > 2) {
    return Malformed("HelloReply");
  }
  out.node_name = *std::move(name);
  out.device_type = static_cast<NodeType>(*type);
  out.device_model = *std::move(model);
  out.compute_gflops = *gflops;
  out.mem_bandwidth_gbps = *bw;
  out.mem_capacity_bytes = *capacity;
  out.simd_width = *simd;
  out.protocol_version = *version;
  return out;
}

// ------------------------------------------------------------------ Buffers

std::vector<std::uint8_t> CreateBufferRequest::Encode() const {
  WireWriter w;
  w.WriteU64(buffer_id);
  w.WriteU64(size);
  return std::move(w).Take();
}

Expected<CreateBufferRequest> CreateBufferRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  CreateBufferRequest out;
  auto id = r.ReadU64();
  auto size = r.ReadU64();
  if (!id.ok() || !size.ok()) return Malformed("CreateBuffer");
  out.buffer_id = *id;
  out.size = *size;
  return out;
}

std::vector<std::uint8_t> WriteBufferRequest::Encode() const {
  WireWriter w(24);
  w.WriteU64(buffer_id);
  w.WriteU64(offset);
  w.WriteU64(data.size());  // The bytes follow as the frame's tail.
  return std::move(w).Take();
}

Expected<WriteBufferRequest> WriteBufferRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  WriteBufferRequest out;
  auto id = r.ReadU64();
  auto offset = r.ReadU64();
  auto data = r.ReadByteView();
  if (!id.ok() || !offset.ok() || !data.ok() || !r.AtEnd()) {
    return Malformed("WriteBuffer");
  }
  out.buffer_id = *id;
  out.offset = *offset;
  out.data = *data;
  return out;
}

std::vector<std::uint8_t> ReadBufferRequest::Encode() const {
  WireWriter w;
  w.WriteU64(buffer_id);
  w.WriteU64(offset);
  w.WriteU64(size);
  return std::move(w).Take();
}

Expected<ReadBufferRequest> ReadBufferRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  ReadBufferRequest out;
  auto id = r.ReadU64();
  auto offset = r.ReadU64();
  auto size = r.ReadU64();
  if (!id.ok() || !offset.ok() || !size.ok()) return Malformed("ReadBuffer");
  out.buffer_id = *id;
  out.offset = *offset;
  out.size = *size;
  return out;
}

std::vector<std::uint8_t> ReleaseBufferRequest::Encode() const {
  WireWriter w;
  w.WriteU64(buffer_id);
  return std::move(w).Take();
}

Expected<ReleaseBufferRequest> ReleaseBufferRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  ReleaseBufferRequest out;
  auto id = r.ReadU64();
  if (!id.ok()) return Malformed("ReleaseBuffer");
  out.buffer_id = *id;
  return out;
}

std::vector<std::uint8_t> CopyBufferRequest::Encode() const {
  WireWriter w;
  w.WriteU64(src_buffer_id);
  w.WriteU64(dst_buffer_id);
  w.WriteU64(src_offset);
  w.WriteU64(dst_offset);
  w.WriteU64(size);
  return std::move(w).Take();
}

Expected<CopyBufferRequest> CopyBufferRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  CopyBufferRequest out;
  auto src = r.ReadU64();
  auto dst = r.ReadU64();
  auto so = r.ReadU64();
  auto dofs = r.ReadU64();
  auto size = r.ReadU64();
  if (!src.ok() || !dst.ok() || !so.ok() || !dofs.ok() || !size.ok()) {
    return Malformed("CopyBuffer");
  }
  out.src_buffer_id = *src;
  out.dst_buffer_id = *dst;
  out.src_offset = *so;
  out.dst_offset = *dofs;
  out.size = *size;
  return out;
}

// ------------------------------------------------- Node-to-node exchange

std::vector<std::uint8_t> PullSliceRequest::Encode() const {
  WireWriter w;
  w.WriteU64(buffer_id);
  w.WriteU64(offset);
  w.WriteU64(size);
  w.WriteU32(source_node);
  return std::move(w).Take();
}

Expected<PullSliceRequest> PullSliceRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  PullSliceRequest out;
  auto id = r.ReadU64();
  auto offset = r.ReadU64();
  auto size = r.ReadU64();
  auto source = r.ReadU32();
  if (!id.ok() || !offset.ok() || !size.ok() || !source.ok()) {
    return Malformed("PullSlice");
  }
  out.buffer_id = *id;
  out.offset = *offset;
  out.size = *size;
  out.source_node = *source;
  return out;
}

std::vector<std::uint8_t> PushSliceRequest::Encode() const {
  WireWriter w;
  w.WriteU64(buffer_id);
  w.WriteU64(offset);
  w.WriteU64(size);
  w.WriteU32(target_node);
  return std::move(w).Take();
}

Expected<PushSliceRequest> PushSliceRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  PushSliceRequest out;
  auto id = r.ReadU64();
  auto offset = r.ReadU64();
  auto size = r.ReadU64();
  auto target = r.ReadU32();
  if (!id.ok() || !offset.ok() || !size.ok() || !target.ok()) {
    return Malformed("PushSlice");
  }
  out.buffer_id = *id;
  out.offset = *offset;
  out.size = *size;
  out.target_node = *target;
  return out;
}

// ------------------------------------------------------------ Memory notices

std::vector<std::uint8_t> MemoryNoticeRequest::Encode() const {
  WireWriter w;
  w.WriteU64(buffer_id);
  w.WriteBool(reserve);
  w.WriteU32(static_cast<std::uint32_t>(regions.size()));
  for (const MemoryRegion& region : regions) {
    w.WriteU64(region.offset);
    w.WriteU64(region.size);
  }
  return std::move(w).Take();
}

Expected<MemoryNoticeRequest> MemoryNoticeRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  MemoryNoticeRequest out;
  auto id = r.ReadU64();
  auto reserve = r.ReadBool();
  auto count = r.ReadU32();
  if (!id.ok() || !reserve.ok() || !count.ok()) {
    return Malformed("MemoryNotice");
  }
  out.buffer_id = *id;
  out.reserve = *reserve;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto offset = r.ReadU64();
    auto size = r.ReadU64();
    if (!offset.ok() || !size.ok()) return Malformed("MemoryNotice");
    out.regions.push_back({*offset, *size});
  }
  return out;
}

// ----------------------------------------------------------------- Programs

std::vector<std::uint8_t> BuildProgramRequest::Encode() const {
  WireWriter w(16 + source.size());
  w.WriteU64(program_id);
  w.WriteString(source);
  return std::move(w).Take();
}

Expected<BuildProgramRequest> BuildProgramRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  BuildProgramRequest out;
  auto id = r.ReadU64();
  auto source = r.ReadString();
  if (!id.ok() || !source.ok()) return Malformed("BuildProgram");
  out.program_id = *id;
  out.source = *std::move(source);
  return out;
}

std::vector<std::uint8_t> BuildProgramReply::Encode() const {
  WireWriter w;
  w.WriteI32(status_code);
  w.WriteString(build_log);
  w.WriteU32(static_cast<std::uint32_t>(kernel_names.size()));
  for (const std::string& name : kernel_names) w.WriteString(name);
  return std::move(w).Take();
}

Expected<BuildProgramReply> BuildProgramReply::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  BuildProgramReply out;
  auto code = r.ReadI32();
  auto log = r.ReadString();
  auto count = r.ReadU32();
  if (!code.ok() || !log.ok() || !count.ok()) return Malformed("BuildReply");
  out.status_code = *code;
  out.build_log = *std::move(log);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto name = r.ReadString();
    if (!name.ok()) return Malformed("BuildReply");
    out.kernel_names.push_back(*std::move(name));
  }
  return out;
}

std::vector<std::uint8_t> ReleaseProgramRequest::Encode() const {
  WireWriter w;
  w.WriteU64(program_id);
  return std::move(w).Take();
}

Expected<ReleaseProgramRequest> ReleaseProgramRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  ReleaseProgramRequest out;
  auto id = r.ReadU64();
  if (!id.ok()) return Malformed("ReleaseProgram");
  out.program_id = *id;
  return out;
}

// ------------------------------------------------------------------ Kernels

std::vector<std::uint8_t> LaunchKernelRequest::Encode() const {
  WireWriter w;
  w.WriteU64(program_id);
  w.WriteString(kernel_name);
  w.WriteU32(static_cast<std::uint32_t>(args.size()));
  for (const WireKernelArg& arg : args) {
    w.WriteU8(static_cast<std::uint8_t>(arg.kind));
    switch (arg.kind) {
      case WireKernelArg::Kind::kBuffer:
        w.WriteU64(arg.buffer_id);
        w.WriteU64(arg.written_begin);
        w.WriteU64(arg.written_end);
        break;
      case WireKernelArg::Kind::kScalar:
        w.WriteByteVector(arg.scalar_bytes);
        break;
      case WireKernelArg::Kind::kLocalSize:
        w.WriteU64(arg.local_size);
        break;
    }
  }
  w.WriteU32(work_dim);
  for (int d = 0; d < 3; ++d) w.WriteU64(global[d]);
  for (int d = 0; d < 3; ++d) w.WriteU64(local[d]);
  for (int d = 0; d < 3; ++d) w.WriteU64(global_offset[d]);
  w.WriteBool(local_specified);
  w.WriteBool(has_cost_hint);
  if (has_cost_hint) {
    w.WriteF64(hint_flops);
    w.WriteF64(hint_bytes);
    w.WriteU64(hint_work_items);
    w.WriteBool(hint_irregular);
  }
  w.WriteU64(elastic_launch_id);
  w.WriteU64(elastic_chunk_id);
  return std::move(w).Take();
}

Expected<LaunchKernelRequest> LaunchKernelRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  LaunchKernelRequest out;
  auto program = r.ReadU64();
  auto name = r.ReadString();
  auto argc = r.ReadU32();
  if (!program.ok() || !name.ok() || !argc.ok()) {
    return Malformed("LaunchKernel");
  }
  out.program_id = *program;
  out.kernel_name = *std::move(name);
  for (std::uint32_t i = 0; i < *argc; ++i) {
    auto kind = r.ReadU8();
    if (!kind.ok() || *kind > 2) return Malformed("LaunchKernel arg");
    WireKernelArg arg;
    arg.kind = static_cast<WireKernelArg::Kind>(*kind);
    switch (arg.kind) {
      case WireKernelArg::Kind::kBuffer: {
        auto id = r.ReadU64();
        auto wbegin = r.ReadU64();
        auto wend = r.ReadU64();
        if (!id.ok() || !wbegin.ok() || !wend.ok()) {
          return Malformed("LaunchKernel arg");
        }
        arg.buffer_id = *id;
        arg.written_begin = *wbegin;
        arg.written_end = *wend;
        break;
      }
      case WireKernelArg::Kind::kScalar: {
        auto data = r.ReadByteVector();
        if (!data.ok()) return Malformed("LaunchKernel arg");
        arg.scalar_bytes = *std::move(data);
        break;
      }
      case WireKernelArg::Kind::kLocalSize: {
        auto size = r.ReadU64();
        if (!size.ok()) return Malformed("LaunchKernel arg");
        arg.local_size = *size;
        break;
      }
    }
    out.args.push_back(std::move(arg));
  }
  auto dim = r.ReadU32();
  if (!dim.ok()) return Malformed("LaunchKernel range");
  out.work_dim = *dim;
  for (int d = 0; d < 3; ++d) {
    auto g = r.ReadU64();
    if (!g.ok()) return Malformed("LaunchKernel range");
    out.global[d] = *g;
  }
  for (int d = 0; d < 3; ++d) {
    auto l = r.ReadU64();
    if (!l.ok()) return Malformed("LaunchKernel range");
    out.local[d] = *l;
  }
  for (int d = 0; d < 3; ++d) {
    auto o = r.ReadU64();
    if (!o.ok()) return Malformed("LaunchKernel range");
    out.global_offset[d] = *o;
  }
  auto spec = r.ReadBool();
  if (!spec.ok()) return Malformed("LaunchKernel range");
  out.local_specified = *spec;
  auto has_hint = r.ReadBool();
  if (!has_hint.ok()) return Malformed("LaunchKernel hint");
  out.has_cost_hint = *has_hint;
  if (out.has_cost_hint) {
    auto flops = r.ReadF64();
    auto bytes = r.ReadF64();
    auto items = r.ReadU64();
    auto irregular = r.ReadBool();
    if (!flops.ok() || !bytes.ok() || !items.ok() || !irregular.ok()) {
      return Malformed("LaunchKernel hint");
    }
    out.hint_flops = *flops;
    out.hint_bytes = *bytes;
    out.hint_work_items = *items;
    out.hint_irregular = *irregular;
  }
  auto elastic_launch = r.ReadU64();
  auto elastic_chunk = r.ReadU64();
  if (!elastic_launch.ok() || !elastic_chunk.ok()) {
    return Malformed("LaunchKernel elastic tag");
  }
  out.elastic_launch_id = *elastic_launch;
  out.elastic_chunk_id = *elastic_chunk;
  return out;
}

std::vector<std::uint8_t> LaunchKernelReply::Encode() const {
  WireWriter w;
  w.WriteI32(status_code);
  w.WriteString(error_message);
  w.WriteF64(modeled_seconds);
  w.WriteF64(modeled_joules);
  w.WriteU64(flops);
  w.WriteU64(bytes_accessed);
  w.WriteF64(node_backlog_seconds);
  w.WriteF64(active_weight);
  return std::move(w).Take();
}

Expected<LaunchKernelReply> LaunchKernelReply::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  LaunchKernelReply out;
  auto code = r.ReadI32();
  auto message = r.ReadString();
  auto seconds = r.ReadF64();
  auto joules = r.ReadF64();
  auto flops = r.ReadU64();
  auto accessed = r.ReadU64();
  auto node_backlog = r.ReadF64();
  auto active = r.ReadF64();
  if (!code.ok() || !message.ok() || !seconds.ok() || !joules.ok() ||
      !flops.ok() || !accessed.ok() || !node_backlog.ok() || !active.ok()) {
    return Malformed("LaunchReply");
  }
  out.status_code = *code;
  out.error_message = *std::move(message);
  out.modeled_seconds = *seconds;
  out.modeled_joules = *joules;
  out.flops = *flops;
  out.bytes_accessed = *accessed;
  out.node_backlog_seconds = *node_backlog;
  out.active_weight = *active;
  return out;
}

std::vector<std::uint8_t> RevokeChunkRequest::Encode() const {
  WireWriter w;
  w.WriteU64(launch_id);
  w.WriteU32(static_cast<std::uint32_t>(chunk_ids.size()));
  for (std::uint64_t id : chunk_ids) w.WriteU64(id);
  return std::move(w).Take();
}

Expected<RevokeChunkRequest> RevokeChunkRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  RevokeChunkRequest out;
  auto launch = r.ReadU64();
  auto count = r.ReadU32();
  if (!launch.ok() || !count.ok()) return Malformed("RevokeChunk");
  out.launch_id = *launch;
  out.chunk_ids.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto id = r.ReadU64();
    if (!id.ok()) return Malformed("RevokeChunk");
    out.chunk_ids.push_back(*id);
  }
  return out;
}

// --------------------------------------------------------------- Monitoring

namespace {

void EncodeKernelRates(WireWriter& w,
                       const std::vector<WireKernelRate>& rates) {
  w.WriteU32(static_cast<std::uint32_t>(rates.size()));
  for (const WireKernelRate& rate : rates) {
    w.WriteString(rate.kernel);
    w.WriteF64(rate.seconds_per_flop);
    w.WriteU64(rate.samples);
  }
}

Expected<std::vector<WireKernelRate>> DecodeKernelRates(WireReader& r) {
  auto count = r.ReadU32();
  if (!count.ok()) return Malformed("kernel rates");
  std::vector<WireKernelRate> rates;
  rates.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto kernel = r.ReadString();
    auto rate = r.ReadF64();
    auto samples = r.ReadU64();
    if (!kernel.ok() || !rate.ok() || !samples.ok()) {
      return Malformed("kernel rate entry");
    }
    rates.push_back({*std::move(kernel), *rate, *samples});
  }
  return rates;
}

}  // namespace

std::vector<std::uint8_t> LoadReply::Encode() const {
  WireWriter w;
  w.WriteU32(queue_depth);
  w.WriteU64(buffers_held);
  w.WriteU64(bytes_allocated);
  w.WriteU64(bytes_resident);
  w.WriteU64(mem_capacity_bytes);
  w.WriteF64(busy_seconds_total);
  w.WriteU64(kernels_executed);
  w.WriteU64(node_resident_bytes);
  w.WriteF64(node_backlog_seconds);
  w.WriteF64(tenant_backlog_seconds);
  w.WriteF64(active_weight);
  EncodeKernelRates(w, kernel_rates);
  return std::move(w).Take();
}

Expected<LoadReply> LoadReply::Decode(const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  LoadReply out;
  auto depth = r.ReadU32();
  auto buffers = r.ReadU64();
  auto alloc = r.ReadU64();
  auto resident = r.ReadU64();
  auto capacity = r.ReadU64();
  auto busy = r.ReadF64();
  auto kernels = r.ReadU64();
  auto node_resident = r.ReadU64();
  auto node_backlog = r.ReadF64();
  auto tenant_backlog = r.ReadF64();
  auto active = r.ReadF64();
  if (!depth.ok() || !buffers.ok() || !alloc.ok() || !resident.ok() ||
      !capacity.ok() || !busy.ok() || !kernels.ok() || !node_resident.ok() ||
      !node_backlog.ok() || !tenant_backlog.ok() || !active.ok()) {
    return Malformed("LoadReply");
  }
  auto rates = DecodeKernelRates(r);
  if (!rates.ok()) return rates.status();
  out.queue_depth = *depth;
  out.buffers_held = *buffers;
  out.bytes_allocated = *alloc;
  out.bytes_resident = *resident;
  out.mem_capacity_bytes = *capacity;
  out.busy_seconds_total = *busy;
  out.kernels_executed = *kernels;
  out.node_resident_bytes = *node_resident;
  out.node_backlog_seconds = *node_backlog;
  out.tenant_backlog_seconds = *tenant_backlog;
  out.active_weight = *active;
  out.kernel_rates = *std::move(rates);
  return out;
}

// ------------------------------------------------------------ Multi-tenancy

std::vector<std::uint8_t> ConfigureSessionRequest::Encode() const {
  WireWriter w;
  w.WriteString(tenant_name);
  w.WriteF64(weight);
  w.WriteU64(mem_quota_bytes);
  return std::move(w).Take();
}

Expected<ConfigureSessionRequest> ConfigureSessionRequest::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  ConfigureSessionRequest out;
  auto name = r.ReadString();
  auto weight = r.ReadF64();
  auto quota = r.ReadU64();
  if (!name.ok() || !weight.ok() || !quota.ok()) {
    return Malformed("ConfigureSession");
  }
  out.tenant_name = *std::move(name);
  out.weight = *weight;
  out.mem_quota_bytes = *quota;
  return out;
}

std::vector<std::uint8_t> BrokerStatsReply::Encode() const {
  WireWriter w;
  w.WriteU64(mem_capacity_bytes);
  w.WriteU64(resident_bytes);
  w.WriteF64(backlog_seconds);
  w.WriteF64(active_weight);
  w.WriteF64(max_backlog_seconds);
  w.WriteU32(static_cast<std::uint32_t>(tenants.size()));
  for (const BrokerTenantEntry& t : tenants) {
    w.WriteU64(t.session);
    w.WriteString(t.name);
    w.WriteF64(t.weight);
    w.WriteU64(t.mem_quota_bytes);
    w.WriteU64(t.resident_bytes);
    w.WriteF64(t.backlog_seconds);
    w.WriteF64(t.served_seconds);
    w.WriteU64(t.launches_admitted);
    w.WriteU64(t.launches_rejected);
    w.WriteU64(t.kernels_completed);
  }
  EncodeKernelRates(w, kernel_rates);
  return std::move(w).Take();
}

Expected<BrokerStatsReply> BrokerStatsReply::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  BrokerStatsReply out;
  auto capacity = r.ReadU64();
  auto resident = r.ReadU64();
  auto backlog = r.ReadF64();
  auto active = r.ReadF64();
  auto limit = r.ReadF64();
  auto count = r.ReadU32();
  if (!capacity.ok() || !resident.ok() || !backlog.ok() || !active.ok() ||
      !limit.ok() || !count.ok()) {
    return Malformed("BrokerStats");
  }
  out.mem_capacity_bytes = *capacity;
  out.resident_bytes = *resident;
  out.backlog_seconds = *backlog;
  out.active_weight = *active;
  out.max_backlog_seconds = *limit;
  out.tenants.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    BrokerTenantEntry t;
    auto session = r.ReadU64();
    auto name = r.ReadString();
    auto weight = r.ReadF64();
    auto quota = r.ReadU64();
    auto tenant_resident = r.ReadU64();
    auto tenant_backlog = r.ReadF64();
    auto served = r.ReadF64();
    auto admitted = r.ReadU64();
    auto rejected = r.ReadU64();
    auto completed = r.ReadU64();
    if (!session.ok() || !name.ok() || !weight.ok() || !quota.ok() ||
        !tenant_resident.ok() || !tenant_backlog.ok() || !served.ok() ||
        !admitted.ok() || !rejected.ok() || !completed.ok()) {
      return Malformed("BrokerStats tenant");
    }
    t.session = *session;
    t.name = *std::move(name);
    t.weight = *weight;
    t.mem_quota_bytes = *quota;
    t.resident_bytes = *tenant_resident;
    t.backlog_seconds = *tenant_backlog;
    t.served_seconds = *served;
    t.launches_admitted = *admitted;
    t.launches_rejected = *rejected;
    t.kernels_completed = *completed;
    out.tenants.push_back(std::move(t));
  }
  auto rates = DecodeKernelRates(r);
  if (!rates.ok()) return rates.status();
  out.kernel_rates = *std::move(rates);
  return out;
}

// ------------------------------------------------------------ Status replies

std::vector<std::uint8_t> StatusReply::Encode() const {
  WireWriter w;
  w.WriteI32(status_code);
  w.WriteString(message);
  return std::move(w).Take();
}

Expected<StatusReply> StatusReply::Decode(
    const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  StatusReply out;
  auto code = r.ReadI32();
  auto message = r.ReadString();
  if (!code.ok() || !message.ok()) return Malformed("StatusReply");
  out.status_code = *code;
  out.message = *std::move(message);
  return out;
}

}  // namespace haocl::net
