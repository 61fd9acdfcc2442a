#include "host/cluster_runtime.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>

#include "common/log.h"
#include "driver/device_driver.h"
#include "driver/native_registry.h"
#include "oclc/builtins.h"
#include "oclc/bytecode.h"

namespace haocl::host {

using net::CheckReply;
using net::Message;
using net::MsgType;

namespace {

// True when the kernel may query launch-wide geometry that turns
// shard-local under a split — get_global_size / get_num_groups (the
// shard's extent, not the launch's: a grid-stride loop would walk the
// wrong stride), get_group_id (group ids restart at 0 per shard, so the
// canonical group_id*local_size+local_id index reconstruction collapses
// onto the first slice), or get_global_offset (reports the
// shard-composed offset). Such kernels run whole. Calls into helper
// functions are treated conservatively (their bodies are not scanned).
bool KernelMayQueryLaunchRange(const oclc::Module& module,
                               const oclc::CompiledFunction& kernel) {
  auto end_pc = static_cast<std::uint32_t>(module.code.size());
  for (const auto& fn : module.functions) {
    if (fn.entry_pc > kernel.entry_pc && fn.entry_pc < end_pc) {
      end_pc = fn.entry_pc;
    }
  }
  for (std::uint32_t pc = kernel.entry_pc; pc < end_pc; ++pc) {
    const oclc::Instruction& instr = module.code[pc];
    if (instr.op == oclc::Opcode::kCall) return true;
    if (instr.op == oclc::Opcode::kCallBuiltin) {
      const auto id = static_cast<oclc::BuiltinId>(instr.a);
      if (id == oclc::BuiltinId::kGetGlobalSize ||
          id == oclc::BuiltinId::kGetNumGroups ||
          id == oclc::BuiltinId::kGetGroupId ||
          id == oclc::BuiltinId::kGetGlobalOffset) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

// RAII in-flight accounting: the scheduler's queue_depth per node.
class ClusterRuntime::InFlightGuard {
 public:
  InFlightGuard(ClusterRuntime* runtime, std::size_t node)
      : runtime_(runtime), node_(node) {
    std::lock_guard<std::mutex> lock(runtime_->sched_mutex_);
    ++runtime_->in_flight_[node_];
  }
  ~InFlightGuard() {
    std::lock_guard<std::mutex> lock(runtime_->sched_mutex_);
    --runtime_->in_flight_[node_];
  }
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

 private:
  ClusterRuntime* runtime_;
  std::size_t node_;
};

// RAII eviction exclusion: while alive, the pinned buffers cannot be
// chosen as eviction victims on `node` — a launch is between reserving
// and consuming their ranges. Pins are atomic counters, taken without the
// buffer mutex; the LRU stamp rides along.
class ClusterRuntime::WorkingSetPin {
 public:
  WorkingSetPin() = default;
  WorkingSetPin(const WorkingSetPin&) = delete;
  WorkingSetPin& operator=(const WorkingSetPin&) = delete;
  ~WorkingSetPin() { Release(); }

  void Pin(const BufferPtr& buffer, std::size_t node, std::uint64_t epoch) {
    // The pin must be mutex-synchronized with the eviction policy's
    // pinned check (which holds the victim's mutex across the whole
    // eviction): a pin either lands before the check and excludes the
    // buffer, or blocks until the eviction finishes — after which the
    // pinner's reservation re-charges and its transfers re-ship. A
    // lock-free pin could slip between the check and the pool release,
    // letting the evictor release bytes the pinner just reserved and
    // desynchronizing the host and node ledgers.
    std::lock_guard<std::mutex> lock(buffer->mutex);
    PinLocked(buffer, node, epoch);
  }
  // Pin with buffer->mutex already held.
  void PinLocked(const BufferPtr& buffer, std::size_t node,
                 std::uint64_t epoch) {
    buffer->pinned_on[node].fetch_add(1, std::memory_order_relaxed);
    buffer->last_use_epoch[node].store(epoch, std::memory_order_relaxed);
    pinned_.emplace_back(buffer, node);
  }
  void Release() {
    for (auto& [buffer, node] : pinned_) {
      buffer->pinned_on[node].fetch_sub(1, std::memory_order_relaxed);
    }
    pinned_.clear();
  }

 private:
  std::vector<std::pair<BufferPtr, std::size_t>> pinned_;
};

// One command's place in its node's issue order: the frame it sends and
// what it holds on the node from submit until its body ends.
struct ClusterRuntime::IssuedFrame {
  std::size_t node = 0;
  std::uint64_t seq = 0;        // Reserved at submit.
  std::uint64_t after_seq = 0;  // The first in-flight predecessor's seq.
  CommandId cmd = kNullCommand;  // Guarded by state_mutex_.
  std::vector<WorkingRange> ranges;  // Pinned (and reserved) on the node.
  std::vector<WorkingRange> writes;  // What the command writes there.
  net::MsgType type = net::MsgType::kStatusReply;
  std::vector<std::uint8_t> payload;
  std::span<const std::uint8_t> tail;  // A write's bytes.
  std::span<std::uint8_t> reply_into;  // A read's destination.
  bool sent = false;  // Guarded by the node's IssueOrder mutex.
  net::RpcClient::ReplyFuture reply;
  // Ledger spans the reservation at submit added.
  std::vector<runtime::MemoryPool::BufferRange> charged;
  WorkingSetPin pins;
  std::unique_ptr<InFlightGuard> in_flight;
};

struct ClusterRuntime::IssueOrder {
  std::mutex mutex;
  std::condition_variable changed;  // A frame left, or a sender stopped.
  std::deque<FramePtr> unsent;      // In issue order.
  bool sending = false;             // A thread is sending from the head.
};

ClusterRuntime::ClusterRuntime(Options options)
    : options_(std::move(options)) {}

ClusterRuntime::~ClusterRuntime() { Disconnect(); }

Expected<std::unique_ptr<ClusterRuntime>> ClusterRuntime::Connect(
    std::vector<net::ConnectionPtr> connections, Options options) {
  if (connections.empty()) {
    return Status(ErrorCode::kInvalidValue, "no node connections supplied");
  }
  auto policy = sched::MakePolicyByName(options.scheduler);
  if (!policy.ok()) return policy.status();

  std::unique_ptr<ClusterRuntime> runtime(
      new ClusterRuntime(std::move(options)));
  runtime->policy_ = *std::move(policy);
  runtime->scheduler_name_ = runtime->options_.scheduler;

  // Handshake: one hello per node; replies populate the device table and
  // the modeled cluster ("the backbone obtains the device's id of each
  // compute node and records this mapping").
  std::vector<NodeType> node_types;
  for (auto& connection : connections) {
    runtime->nodes_.push_back(
        std::make_unique<net::LaneSet>(std::move(connection)));
  }
  for (std::size_t i = 0; i < runtime->nodes_.size(); ++i) {
    net::HelloRequest hello;
    hello.host_name = runtime->options_.host_name;
    auto reply = runtime->nodes_[i]->main().Call(
        MsgType::kHelloRequest, runtime->options_.session_id,
        net::Encode(hello), runtime->options_.rpc_timeout);
    if (!reply.ok()) {
      return Status(ErrorCode::kNodeUnreachable,
                    "handshake with node " + std::to_string(i) +
                        " failed: " + reply.status().message());
    }
    // A node refusing the hello (say, for its version) sends a status.
    HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kHelloReply));
    auto decoded = net::Decode<net::HelloReply>(reply->payload);
    if (!decoded.ok()) return decoded.status();
    if (decoded->protocol_version != net::kProtocolVersion) {
      return Status(ErrorCode::kProtocolError,
                    "node " + std::to_string(i) + " speaks protocol version " +
                        std::to_string(decoded->protocol_version) +
                        ", host speaks " +
                        std::to_string(net::kProtocolVersion));
    }
    DeviceInfo info;
    info.name = decoded->node_name;
    info.type = decoded->device_type;
    info.model = decoded->device_model;
    info.compute_gflops = decoded->compute_gflops;
    info.mem_capacity_bytes = decoded->mem_capacity_bytes;
    runtime->devices_.push_back(std::move(info));
    // One memory-pool ledger per node, budgeting the capacity the node
    // reported (0 = unbounded for nodes predating capacity reporting).
    runtime->node_pools_.push_back(
        std::make_unique<runtime::MemoryPool>(decoded->mem_capacity_bytes));
    node_types.push_back(decoded->device_type);
  }
  runtime->timeline_ = std::make_unique<VirtualTimeline>(node_types);
  runtime->node_busy_ahead_.assign(runtime->nodes_.size(), 0.0);
  runtime->node_dead_.assign(runtime->nodes_.size(), false);
  runtime->node_broker_backlog_.assign(runtime->nodes_.size(), 0.0);
  runtime->rate_table_ =
      std::make_unique<sched::KernelRateTable>(runtime->nodes_.size());
  runtime->in_flight_.assign(runtime->nodes_.size(), 0);
  for (std::size_t i = 0; i < runtime->nodes_.size(); ++i) {
    runtime->issue_orders_.push_back(std::make_unique<IssueOrder>());
  }

  // Register this session's tenant identity with every node's broker, and
  // seed the rate table from the rates the broker already learned from
  // other sessions — a fresh session's first adaptive launch then plans
  // from its neighbours' observations instead of flying blind. Both are
  // best-effort against nodes predating the broker protocol: an error
  // reply or missing fields just leaves the defaults.
  net::ConfigureSessionRequest tenant;
  tenant.tenant_name = runtime->options_.tenant_name.empty()
                           ? runtime->options_.host_name
                           : runtime->options_.tenant_name;
  tenant.weight = runtime->options_.tenant_weight;
  tenant.mem_quota_bytes = runtime->options_.tenant_mem_quota_bytes;
  for (std::size_t i = 0; i < runtime->nodes_.size(); ++i) {
    auto configured = runtime->nodes_[i]->main().Call(
        MsgType::kConfigureSession, runtime->options_.session_id,
        net::Encode(tenant), runtime->options_.rpc_timeout);
    if (!configured.ok()) {
      return Status(ErrorCode::kNodeUnreachable,
                    "tenant registration with node " + std::to_string(i) +
                        " failed: " + configured.status().message());
    }
    auto report = runtime->nodes_[i]->main().Call(
        MsgType::kQueryBroker, runtime->options_.session_id, {},
        runtime->options_.rpc_timeout);
    if (!report.ok() || report->type != MsgType::kBrokerReply) continue;
    auto decoded = net::Decode<net::BrokerStatsReply>(report->payload);
    if (!decoded.ok()) continue;
    for (const net::WireKernelRate& rate : decoded->kernel_rates) {
      runtime->rate_table_->Seed(i, rate.kernel, rate.seconds_per_flop,
                                 rate.samples);
    }
    runtime->node_broker_backlog_[i] = decoded->backlog_seconds;
  }

  CommandGraph::Options graph_options;
  graph_options.workers =
      std::max<std::size_t>(4, runtime->nodes_.size() + 2);
  ClusterRuntime* raw = runtime.get();
  // VirtualTimeline is internally synchronized; safe from any worker.
  graph_options.clock = [raw] { return raw->timeline_->Makespan(); };
  runtime->graph_ = std::make_unique<CommandGraph>(std::move(graph_options));
  return runtime;
}

std::vector<std::size_t> ClusterRuntime::DevicesOfType(NodeType type) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].type == type) out.push_back(i);
  }
  return out;
}

Expected<Message> ClusterRuntime::CallNode(std::size_t node, MsgType type,
                                           std::vector<std::uint8_t> payload) {
  InFlightGuard in_flight(this, node);
  return nodes_[node]->main().Call(type, options_.session_id,
                                   std::move(payload), options_.rpc_timeout);
}

// ------------------------------------------------------------ Issue-ahead

namespace {

// [begin, end) minus everything in `cut`, as sorted disjoint spans.
std::vector<RegionDirectory::Span> Uncovered(
    std::uint64_t begin, std::uint64_t end,
    const std::vector<RegionDirectory::Span>& cut) {
  std::vector<RegionDirectory::Span> rest{{begin, end}};
  for (const RegionDirectory::Span& c : cut) {
    std::vector<RegionDirectory::Span> next;
    for (const RegionDirectory::Span& r : rest) {
      if (c.end <= r.begin || c.begin >= r.end) {
        next.push_back(r);
        continue;
      }
      if (r.begin < c.begin) next.push_back({r.begin, c.begin});
      if (c.end < r.end) next.push_back({c.end, r.end});
    }
    rest = std::move(next);
  }
  return rest;
}

}  // namespace

ClusterRuntime::FramePtr ClusterRuntime::TakeIssuePlaceLocked(
    const IssueRequest& request, const std::vector<CommandId>& deps,
    const std::vector<CommandId>& preds) {
  const std::size_t node = request.node;
  if (!deps.empty() || !NodeAlive(node)) return nullptr;
  // A transfer that stripes leaves as several frames on the node's lanes,
  // outside this order.
  if (request.kind != IssueKind::kLaunch &&
      nodes_[node]->ChunksFor(request.ranges.front().end -
                              request.ranges.front().begin) > 1) {
    return nullptr;
  }
  // Every unretired predecessor already holds a place in this node's
  // order (queue order and buffer hazards alike).
  std::vector<const IssuedFrame*> ahead;
  for (CommandId pred : preds) {
    auto it = issued_.find(pred);
    auto state = graph_->QueryState(pred);
    if (!state.ok() || IsTerminal(*state)) {
      if (it != issued_.end()) issued_.erase(it);  // Its body is done.
      continue;
    }
    if (it == issued_.end() || it->second->node != node) return nullptr;
    if (std::find(ahead.begin(), ahead.end(), it->second.get()) ==
        ahead.end()) {
      ahead.push_back(it->second.get());
    }
  }
  // A classic command holds its buffer's mutex across node calls, so a
  // buffer one is using stays classic.
  for (const WorkingRange& range : request.ranges) {
    const LogicalBuffer& buffer = *range.buffer;
    for (const auto* hazards : {&buffer.writers, &buffer.readers}) {
      for (const LogicalBuffer::RangeHazard& hazard : *hazards) {
        if (issued_.count(hazard.cmd) != 0) continue;
        auto state = graph_->QueryState(hazard.cmd);
        if (state.ok() && !IsTerminal(*state)) return nullptr;
      }
    }
  }
  // Frames leave in issue order, and this command's body waits for its
  // own: every frame still unsent must be a predecessor's, which retires
  // (and so has left) before the body runs.
  IssueOrder& order = *issue_orders_[node];
  {
    std::lock_guard<std::mutex> lock(order.mutex);
    for (const FramePtr& frame : order.unsent) {
      if (std::find(ahead.begin(), ahead.end(), frame.get()) == ahead.end()) {
        return nullptr;
      }
    }
  }
  if (request.program != nullptr) {
    std::unique_lock<std::mutex> lock(request.program->mutex,
                                      std::try_to_lock);
    if (!lock.owns_lock() || !request.program->built_on[node]) return nullptr;
  }

  auto frame = std::make_shared<IssuedFrame>();
  frame->node = node;
  frame->ranges = request.ranges;
  frame->writes = request.writes;
  const auto owner = static_cast<RegionDirectory::Owner>(node);
  const std::uint64_t epoch =
      request.kind == IssueKind::kRead
          ? 0
          : launch_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  for (const WorkingRange& range : request.ranges) {
    LogicalBuffer& buffer = *range.buffer;
    // try_lock, never block under state_mutex_: an eviction holds its
    // victim's mutex across node calls. A busy buffer runs classic.
    std::unique_lock<std::mutex> lock(buffer.mutex, std::try_to_lock);
    if (!lock.owns_lock() || !buffer.allocated_on[node]) return nullptr;
    if (request.kind != IssueKind::kWrite) {
      // The bytes an in-flight predecessor writes here are fresh by the
      // time this frame runs; the rest must be so in the directory now.
      std::vector<RegionDirectory::Span> written;
      for (const IssuedFrame* pred : ahead) {
        for (const WorkingRange& w : pred->writes) {
          if (w.buffer == range.buffer) written.push_back({w.begin, w.end});
        }
      }
      for (const RegionDirectory::Span& span :
           Uncovered(range.begin, range.end, written)) {
        if (request.kind == IssueKind::kLaunch) {
          if (!buffer.dir.Covers(owner, span.begin, span.end)) return nullptr;
          continue;
        }
        // A read must find its bytes where the classic read would source
        // them: on this node, not in the shadow.
        for (const RegionDirectory::Region& region :
             buffer.dir.Query(span.begin, span.end)) {
          const auto& owners = region.owners;
          if (owners.empty() || owners.front() != owner ||
              std::binary_search(owners.begin(), owners.end(), HostOwner())) {
            return nullptr;
          }
        }
      }
    }
    frame->pins.PinLocked(
        range.buffer, node,
        epoch != 0 ? epoch
                   : buffer.last_use_epoch[node].load(
                         std::memory_order_relaxed));
  }
  if (request.kind != IssueKind::kRead) {
    std::vector<runtime::MemoryPool::BufferRange> reservation;
    for (const WorkingRange& range : request.ranges) {
      reservation.push_back({range.id, range.begin, range.end});
    }
    if (!node_pools_[node]->ReserveAll(reservation, &frame->charged).ok()) {
      return nullptr;  // Would need eviction: the classic body does that.
    }
  }
  frame->seq = nodes_[node]->main().ReserveSeq();
  for (const IssuedFrame* pred : ahead) {
    frame->after_seq = frame->after_seq == 0
                           ? pred->seq
                           : std::min(frame->after_seq, pred->seq);
  }
  frame->in_flight = std::make_unique<InFlightGuard>(this, node);
  return frame;
}

void ClusterRuntime::EnqueueFrameLocked(const FramePtr& frame) {
  IssueOrder& order = *issue_orders_[frame->node];
  std::lock_guard<std::mutex> lock(order.mutex);
  order.unsent.push_back(frame);
}

void ClusterRuntime::RegisterIssuedLocked(const FramePtr& frame,
                                          CommandId cmd) {
  frame->cmd = cmd;
  issued_.emplace(cmd, frame);
}

void ClusterRuntime::SendIssued(std::size_t node,
                                const IssuedFrame* own_write) {
  IssueOrder& order = *issue_orders_[node];
  std::unique_lock<std::mutex> lock(order.mutex);
  if (own_write != nullptr) {
    // Take over from a sender that stops at this write.
    order.changed.wait(lock, [&order] { return !order.sending; });
  } else if (order.sending) {
    return;  // The thread sending sends what this one queued.
  }
  order.sending = true;
  while (!order.unsent.empty()) {
    FramePtr frame = order.unsent.front();
    // A write's bytes leave only from its own worker, never from the
    // thread that enqueued something behind it.
    if (frame->type == MsgType::kWriteBuffer && frame.get() != own_write) {
      break;
    }
    order.unsent.pop_front();
    lock.unlock();
    auto reply = nodes_[node]->main().CallAsync(
        frame->type, options_.session_id, std::move(frame->payload),
        frame->tail, frame->reply_into, frame->seq);
    lock.lock();
    frame->reply = std::move(reply);
    frame->sent = true;
    order.changed.notify_all();
  }
  order.sending = false;
  lock.unlock();
  order.changed.notify_all();
}

Expected<Message> ClusterRuntime::AwaitIssued(IssuedFrame& frame) {
  IssueOrder& order = *issue_orders_[frame.node];
  SendIssued(frame.node,
             frame.type == MsgType::kWriteBuffer ? &frame : nullptr);
  {
    std::unique_lock<std::mutex> lock(order.mutex);
    order.changed.wait(lock, [&frame] { return frame.sent; });
  }
  return nodes_[frame.node]->main().Await(frame.seq, frame.reply,
                                          options_.rpc_timeout);
}

template <class Rerun, class Complete>
Status ClusterRuntime::RunIssued(IssuedFrame& frame, Rerun rerun,
                                 Complete complete) {
  const Expected<Message> reply = AwaitIssued(frame);
  Status done;
  if (reply.ok() && reply->type == MsgType::kStatusReply &&
      CheckReply(reply, MsgType::kStatusReply).code() ==
          ErrorCode::kDependencyFailed) {
    // Skipped behind a failure: the predecessors have retired, so the
    // classic body sees the directory they left.
    ReleaseUnheldCharges(frame.node, frame.ranges, frame.charged);
    done = rerun();
  } else {
    done = complete(reply);
  }
  frame.pins.Release();
  frame.in_flight.reset();
  std::lock_guard<std::mutex> lock(state_mutex_);
  issued_.erase(frame.cmd);
  return done;
}

void ClusterRuntime::ReleaseUnheldCharges(
    std::size_t node, const std::vector<WorkingRange>& ranges,
    const std::vector<runtime::MemoryPool::BufferRange>& charged) {
  const auto owner = static_cast<RegionDirectory::Owner>(node);
  for (const runtime::MemoryPool::BufferRange& span : charged) {
    const WorkingRange& range = *std::find_if(
        ranges.begin(), ranges.end(),
        [&](const WorkingRange& r) { return r.id == span.buffer; });
    std::lock_guard<std::mutex> lock(range.buffer->mutex);
    for (const RegionDirectory::Span& missing :
         range.buffer->dir.MissingFor(owner, span.begin, span.end)) {
      node_pools_[node]->Release(span.buffer, missing.begin, missing.end);
    }
  }
}

// ---------------------------------------------------------- Hazard helpers

void ClusterRuntime::CollectDepIds(const std::vector<CommandHandle>& deps,
                                   std::vector<CommandId>* out) const {
  for (const CommandHandle& dep : deps) {
    if (dep.valid()) out->push_back(dep.id);
  }
}

namespace {

bool RangesOverlap(std::uint64_t a_begin, std::uint64_t a_end,
                   std::uint64_t b_begin, std::uint64_t b_end) {
  return a_begin < b_end && b_begin < a_end;
}

}  // namespace

void ClusterRuntime::PruneRetiredHazardsLocked(LogicalBuffer& buffer) {
  // Retired commands impose no ordering anymore; without pruning, bursts
  // of in-flight commands would grow these lists unboundedly. Reclaimed
  // records (released handles, !ok query) retired by definition.
  auto retired = [this](const LogicalBuffer::RangeHazard& hazard) {
    auto state = graph_->QueryState(hazard.cmd);
    return !state.ok() || IsTerminal(*state);
  };
  auto& writers = buffer.writers;
  writers.erase(std::remove_if(writers.begin(), writers.end(), retired),
                writers.end());
  auto& readers = buffer.readers;
  readers.erase(std::remove_if(readers.begin(), readers.end(), retired),
                readers.end());
}

void ClusterRuntime::AddReadHazardLocked(LogicalBuffer& buffer,
                                         std::uint64_t begin,
                                         std::uint64_t end,
                                         std::vector<CommandId>* deps) {
  PruneRetiredHazardsLocked(buffer);
  for (const auto& writer : buffer.writers) {
    if (RangesOverlap(begin, end, writer.begin, writer.end)) {
      deps->push_back(writer.cmd);
    }
  }
}

void ClusterRuntime::AddWriteHazardLocked(LogicalBuffer& buffer,
                                          std::uint64_t begin,
                                          std::uint64_t end,
                                          std::vector<CommandId>* deps) {
  PruneRetiredHazardsLocked(buffer);
  for (const auto& writer : buffer.writers) {
    if (RangesOverlap(begin, end, writer.begin, writer.end)) {
      deps->push_back(writer.cmd);
    }
  }
  for (const auto& reader : buffer.readers) {
    if (RangesOverlap(begin, end, reader.begin, reader.end)) {
      deps->push_back(reader.cmd);
    }
  }
}

void ClusterRuntime::RecordReadLocked(LogicalBuffer& buffer,
                                      std::uint64_t begin, std::uint64_t end,
                                      CommandId cmd) {
  buffer.readers.push_back({begin, end, cmd});
}

void ClusterRuntime::RecordWriteLocked(LogicalBuffer& buffer,
                                       std::uint64_t begin, std::uint64_t end,
                                       CommandId cmd) {
  // Deliberately NO covered-hazard erasure: a covering command can turn
  // terminal before the commands it covers (a strong dependency failing
  // finalizes it while weakly-ordered predecessors still run), and a
  // terminal command imposes no order — transitive ordering through it
  // evaporates. Live entries are cheap (pruned once retired); dropping
  // them early is how torn reads happen.
  buffer.writers.push_back({begin, end, cmd});
}

// --------------------------------------------------------------- Buffers

Expected<BufferId> ClusterRuntime::CreateBuffer(std::uint64_t size) {
  if (size == 0) {
    return Status(ErrorCode::kInvalidBufferSize, "zero-sized buffer");
  }
  // Honest cluster-wide capacity: a buffer no combination of device
  // memories could ever hold fails up front (the OpenCL shim surfaces
  // this as CL_MEM_OBJECT_ALLOCATION_FAILURE). Any node without a
  // reported capacity makes the cluster unbounded.
  std::uint64_t cluster_capacity = 0;
  bool bounded = !node_pools_.empty();
  for (const auto& pool : node_pools_) {
    if (!pool->bounded()) {
      bounded = false;
      break;
    }
    cluster_capacity += pool->capacity();
  }
  if (bounded && size > cluster_capacity) {
    return Status(ErrorCode::kMemObjectAllocationFailure,
                  "buffer of " + std::to_string(size) +
                      " bytes exceeds the cluster-wide device capacity (" +
                      std::to_string(cluster_capacity) + " bytes)");
  }
  auto buffer = std::make_shared<LogicalBuffer>();
  buffer->size = size;
  try {
    buffer->shadow = ZeroedBytes(size);
  } catch (const std::bad_alloc&) {
    return Status(ErrorCode::kMemObjectAllocationFailure,
                  "cannot allocate a host shadow of " + std::to_string(size) +
                      " bytes");
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  const BufferId id = next_buffer_id_++;
  // Owner universe: the device nodes plus the host shadow, which starts as
  // the sole owner of the zero-filled buffer.
  buffer->dir = RegionDirectory(
      size, static_cast<RegionDirectory::Owner>(nodes_.size() + 1),
      HostOwner());
  buffer->allocated_on.assign(nodes_.size(), false);
  buffer->pinned_on =
      std::make_unique<std::atomic<std::uint32_t>[]>(nodes_.size());
  buffer->last_use_epoch =
      std::make_unique<std::atomic<std::uint64_t>[]>(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    buffer->pinned_on[i].store(0, std::memory_order_relaxed);
    buffer->last_use_epoch[i].store(0, std::memory_order_relaxed);
  }
  buffers_.emplace(id, std::move(buffer));
  return id;
}

Expected<CommandHandle> ClusterRuntime::SubmitWrite(
    BufferId id, std::uint64_t offset, const void* data, std::uint64_t size,
    int node, std::vector<CommandHandle> deps,
    std::vector<CommandHandle> order_after) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (disconnected_) {
    return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
  }
  auto it = buffers_.find(id);
  if (it == buffers_.end()) {
    return Status(ErrorCode::kInvalidMemObject, "no such buffer");
  }
  BufferPtr buffer = it->second;
  if (RangeExceeds(offset, size, buffer->size)) {
    return Status(ErrorCode::kInvalidValue, "write beyond buffer end");
  }
  if (node < kClusterDevice ||
      node >= static_cast<int>(nodes_.size())) {
    return Status(ErrorCode::kInvalidValue,
                  "write to node " + std::to_string(node) + " out of range");
  }
  std::vector<CommandId> dep_ids;
  std::vector<CommandId> hazards;
  CollectDepIds(deps, &dep_ids);
  CollectDepIds(order_after, &hazards);
  AddWriteHazardLocked(*buffer, offset, offset + size, &hazards);
  const std::span<const std::uint8_t> src(
      static_cast<const std::uint8_t*>(data), size);
  FramePtr frame;
  if (node != kClusterDevice) {
    const WorkingRange range{id, buffer, offset, offset + size};
    frame = TakeIssuePlaceLocked({.kind = IssueKind::kWrite,
                                  .node = static_cast<std::size_t>(node),
                                  .ranges = {range},
                                  .writes = {range},
                                  .program = nullptr},
                                 dep_ids, hazards);
  }
  CommandGraph::Body body;
  if (frame != nullptr) {
    // The bytes still leave only from the graph worker that runs this
    // write, never from the caller's thread.
    frame->type = MsgType::kWriteBuffer;
    frame->payload = net::Encode(
        net::WriteBufferRequest{id, offset, frame->after_seq, src});
    frame->tail = src;
    EnqueueFrameLocked(frame);
    body = [this, id, buffer, offset, src, frame](CommandGraph::Execution&) {
      return RunIssued(
          *frame,
          [&] {
            return ExecWrite(id, buffer, offset, src,
                             static_cast<int>(frame->node));
          },
          [&](const Expected<Message>& reply) {
            // A tier that cannot hold the range takes the write in the
            // shadow, as ExecWrite does.
            if (CheckReply(reply, MsgType::kStatusReply).code() ==
                ErrorCode::kMemObjectAllocationFailure) {
              ReleaseUnheldCharges(frame->node, frame->ranges,
                                   frame->charged);
              return WriteToShadow(buffer, offset, src);
            }
            std::lock_guard<std::mutex> lock(buffer->mutex);
            return LandWriteLocked(*buffer, frame->node, offset, src.size(),
                                   reply);
          });
    };
  } else {
    body = [this, id, buffer, offset, src, node](CommandGraph::Execution&) {
      return ExecWrite(id, buffer, offset, src, node);
    };
  }
  const CommandId cmd =
      graph_->Submit(std::move(body), std::move(dep_ids),
                     "write:buf" + std::to_string(id), std::move(hazards));
  if (frame != nullptr) RegisterIssuedLocked(frame, cmd);
  RecordWriteLocked(*buffer, offset, offset + size, cmd);
  return CommandHandle{cmd};
}

Expected<CommandHandle> ClusterRuntime::SubmitRead(
    BufferId id, std::uint64_t offset, void* data, std::uint64_t size,
    std::vector<CommandHandle> deps, std::vector<CommandHandle> order_after) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  if (disconnected_) {
    return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
  }
  auto it = buffers_.find(id);
  if (it == buffers_.end()) {
    return Status(ErrorCode::kInvalidMemObject, "no such buffer");
  }
  BufferPtr buffer = it->second;
  if (RangeExceeds(offset, size, buffer->size)) {
    return Status(ErrorCode::kInvalidValue, "read beyond buffer end");
  }
  std::vector<CommandId> dep_ids;
  std::vector<CommandId> hazards;
  CollectDepIds(deps, &dep_ids);
  CollectDepIds(order_after, &hazards);
  AddReadHazardLocked(*buffer, offset, offset + size, &hazards);
  const std::span<std::uint8_t> dst(static_cast<std::uint8_t*>(data), size);
  // A read all of whose bytes come from one node is one frame there: the
  // node of its in-flight predecessors, or else of the range's first
  // owner (TakeIssuePlaceLocked checks every byte).
  FramePtr frame;
  std::size_t source = nodes_.size();
  for (CommandId pred : hazards) {
    auto it = issued_.find(pred);
    if (it != issued_.end()) source = it->second->node;
  }
  if (source == nodes_.size()) {
    // try_lock: a classic command may hold the mutex across node calls.
    std::unique_lock<std::mutex> buffer_lock(buffer->mutex, std::try_to_lock);
    if (buffer_lock.owns_lock()) {
      const auto regions = buffer->dir.Query(offset, offset + size);
      if (!regions.empty() && !regions.front().owners.empty()) {
        source = regions.front().owners.front();
      }
    }
  }
  if (source < nodes_.size()) {
    frame = TakeIssuePlaceLocked({.kind = IssueKind::kRead,
                                  .node = source,
                                  .ranges = {{id, buffer, offset,
                                              offset + size}},
                                  .writes = {}},
                                 dep_ids, hazards);
  }
  CommandGraph::Body body;
  if (frame != nullptr) {
    frame->type = MsgType::kReadBuffer;
    frame->payload = net::Encode(
        net::ReadBufferRequest{id, offset, size, frame->after_seq});
    frame->reply_into = dst;
    EnqueueFrameLocked(frame);
    body = [this, id, buffer, offset, dst, frame](CommandGraph::Execution&) {
      return RunIssued(
          *frame, [&] { return ExecRead(id, buffer, offset, dst); },
          [&](const Expected<Message>& reply) {
            std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
            return ReceivedFromNodeLocked(*buffer, frame->node, dst.size(),
                                          net::ReceiveReadReply(reply, dst));
          });
    };
  } else {
    body = [this, id, buffer, offset, dst](CommandGraph::Execution&) {
      return ExecRead(id, buffer, offset, dst);
    };
  }
  const CommandId cmd =
      graph_->Submit(std::move(body), std::move(dep_ids),
                     "read:buf" + std::to_string(id), std::move(hazards));
  if (frame != nullptr) RegisterIssuedLocked(frame, cmd);
  RecordReadLocked(*buffer, offset, offset + size, cmd);
  lock.unlock();
  if (frame != nullptr) SendIssued(frame->node, nullptr);
  return CommandHandle{cmd};
}

Expected<CommandHandle> ClusterRuntime::SubmitCopy(
    BufferId src, std::uint64_t src_offset, BufferId dst,
    std::uint64_t dst_offset, std::uint64_t size,
    std::vector<CommandHandle> deps, std::vector<CommandHandle> order_after) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (disconnected_) {
    return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
  }
  auto src_it = buffers_.find(src);
  auto dst_it = buffers_.find(dst);
  if (src_it == buffers_.end() || dst_it == buffers_.end()) {
    return Status(ErrorCode::kInvalidMemObject, "no such buffer");
  }
  BufferPtr src_buffer = src_it->second;
  BufferPtr dst_buffer = dst_it->second;
  if (RangeExceeds(src_offset, size, src_buffer->size) ||
      RangeExceeds(dst_offset, size, dst_buffer->size)) {
    return Status(ErrorCode::kInvalidValue, "copy beyond buffer end");
  }
  std::vector<CommandId> dep_ids;
  std::vector<CommandId> hazards;
  CollectDepIds(deps, &dep_ids);
  CollectDepIds(order_after, &hazards);
  AddReadHazardLocked(*src_buffer, src_offset, src_offset + size, &hazards);
  AddWriteHazardLocked(*dst_buffer, dst_offset, dst_offset + size, &hazards);
  const CommandId cmd = graph_->Submit(
      [this, src, src_buffer, src_offset, dst, dst_buffer, dst_offset,
       size](CommandGraph::Execution&) {
        return ExecCopy(src, src_buffer, src_offset, dst, dst_buffer,
                        dst_offset, size);
      },
      std::move(dep_ids),
      "copy:buf" + std::to_string(src) + ">buf" + std::to_string(dst),
      std::move(hazards));
  RecordReadLocked(*src_buffer, src_offset, src_offset + size, cmd);
  RecordWriteLocked(*dst_buffer, dst_offset, dst_offset + size, cmd);
  return CommandHandle{cmd};
}

Status ClusterRuntime::ExecWrite(BufferId id, const BufferPtr& buffer,
                                 std::uint64_t offset,
                                 std::span<const std::uint8_t> data,
                                 int node) {
  const std::uint64_t end = offset + data.size();
  if (node != kClusterDevice && NodeAlive(static_cast<std::size_t>(node))) {
    // A write on a node's queue is one more node-bound command: the
    // working-set prologue reserves and allocates the range there, the
    // caller's bytes go out as the frame's tail, and the node becomes the
    // range's sole owner. A tier that cannot hold the range takes the
    // write in the shadow instead, like the cluster device.
    WorkingSetPin pins;
    const Status staged =
        StageWorkingSet(static_cast<std::size_t>(node),
                        {{id, buffer, offset, end}}, pins, {.write = data});
    if (staged.code() != ErrorCode::kMemObjectAllocationFailure) {
      return staged;
    }
  }
  return WriteToShadow(buffer, offset, data);
}

Status ClusterRuntime::WriteToShadow(const BufferPtr& buffer,
                                     std::uint64_t offset,
                                     std::span<const std::uint8_t> data) {
  std::lock_guard<std::mutex> lock(buffer->mutex);
  // Region-granular: only the written range changes owner. The rest of the
  // buffer keeps its current owners — a partial write to a remote-owned
  // buffer no longer forces a full gather.
  std::copy(data.begin(), data.end(), buffer->shadow.begin() + offset);
  buffer->dir.MarkWritten(offset, offset + data.size(), HostOwner());
  return Status::Ok();
}

Status ClusterRuntime::LandWriteLocked(LogicalBuffer& buffer,
                                       std::size_t node, std::uint64_t begin,
                                       std::uint64_t size,
                                       const Expected<Message>& reply) {
  HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kStatusReply));
  AccountTransfer(buffer, &TransferStats::host_bytes_out, size);
  timeline_->RecordTransferToNode(node, size);
  // The write replaced the range wholesale: the node is its only owner.
  buffer.dir.MarkWritten(begin, begin + size,
                         static_cast<RegionDirectory::Owner>(node));
  return Status::Ok();
}

Status ClusterRuntime::ReceivedFromNodeLocked(LogicalBuffer& buffer,
                                              std::size_t node,
                                              std::uint64_t size,
                                              const Status& received) {
  HAOCL_RETURN_IF_ERROR(received);
  AccountTransfer(buffer, &TransferStats::host_bytes_in, size);
  timeline_->RecordTransferFromNode(node, size);
  return Status::Ok();
}

Status ClusterRuntime::ExecRead(BufferId id, const BufferPtr& buffer,
                                std::uint64_t offset,
                                std::span<std::uint8_t> out) {
  std::lock_guard<std::mutex> lock(buffer->mutex);
  const std::uint64_t end = offset + out.size();
  // The runs the host owns come from the shadow...
  auto from_shadow = [&](std::uint64_t begin, std::uint64_t stop) {
    std::copy(buffer->shadow.begin() + begin, buffer->shadow.begin() + stop,
              out.begin() + (begin - offset));
  };
  std::uint64_t owned_begin = offset;
  for (const RegionDirectory::Span& missing :
       buffer->dir.MissingFor(HostOwner(), offset, end)) {
    from_shadow(owned_begin, missing.begin);
    owned_begin = missing.end;
  }
  from_shadow(owned_begin, end);
  // ...and every other run straight from an owning node into `out`. The
  // directory stays as it was: the shadow never saw these bytes.
  return ReceiveMissingRunsLocked(id, *buffer, offset, out,
                                  /*record_owner=*/false);
}

Status ClusterRuntime::ExecCopy(BufferId src_id, const BufferPtr& src,
                                std::uint64_t src_offset, BufferId dst_id,
                                const BufferPtr& dst,
                                std::uint64_t dst_offset,
                                std::uint64_t size) {
  if (src.get() == dst.get()) {
    std::lock_guard<std::mutex> lock(src->mutex);
    HAOCL_RETURN_IF_ERROR(EnsureHostRangeLocked(src_id, *src, src_offset,
                                                src_offset + size));
    std::memmove(src->shadow.data() + dst_offset,
                 src->shadow.data() + src_offset, size);
    src->dir.MarkWritten(dst_offset, dst_offset + size, HostOwner());
    return Status::Ok();
  }
  // Host-mediated copy: stage the source range, overlay the destination
  // range (only those ranges move). One buffer lock at a time.
  std::vector<std::uint8_t> staging(size);
  {
    std::lock_guard<std::mutex> lock(src->mutex);
    HAOCL_RETURN_IF_ERROR(EnsureHostRangeLocked(src_id, *src, src_offset,
                                                src_offset + size));
    std::memcpy(staging.data(), src->shadow.data() + src_offset, size);
  }
  std::lock_guard<std::mutex> lock(dst->mutex);
  (void)dst_id;
  std::memcpy(dst->shadow.data() + dst_offset, staging.data(), size);
  dst->dir.MarkWritten(dst_offset, dst_offset + size, HostOwner());
  return Status::Ok();
}

void ClusterRuntime::AccountTransfer(LogicalBuffer& buffer,
                                     std::uint64_t TransferStats::*counter,
                                     std::uint64_t delta) {
  buffer.stats.*counter += delta;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.*counter += delta;
}

Status ClusterRuntime::TransferMissingRunsLocked(
    BufferId id, LogicalBuffer& buffer, RegionDirectory::Owner dst,
    std::uint64_t begin, std::uint64_t end,
    const std::function<std::size_t(const RegionDirectory::Region&)>&
        pick_source,
    const std::function<Status(std::size_t source, std::uint64_t begin,
                               std::uint64_t end)>& transfer,
    bool record_owner) {
  for (const RegionDirectory::Span& span :
       buffer.dir.MissingFor(dst, begin, end)) {
    std::size_t source = nodes_.size() + 1;  // Sentinel: none yet.
    std::uint64_t run_begin = span.begin;
    std::uint64_t run_end = span.begin;
    auto flush = [&]() -> Status {
      if (run_begin == run_end) return Status::Ok();
      HAOCL_RETURN_IF_ERROR(transfer(source, run_begin, run_end));
      if (record_owner) buffer.dir.AddOwner(run_begin, run_end, dst);
      run_begin = run_end;
      return Status::Ok();
    };
    for (const RegionDirectory::Region& region :
         buffer.dir.Query(span.begin, span.end)) {
      if (region.owners.empty()) {
        return Status(ErrorCode::kInternal,
                      "buffer " + std::to_string(id) +
                          " range has no owner");
      }
      // Keep the previous run's source while it still owns this region
      // (owner index nodes_.size() is the host shadow).
      const bool keep =
          source <= nodes_.size() &&
          std::binary_search(region.owners.begin(), region.owners.end(),
                             static_cast<RegionDirectory::Owner>(source));
      if (!keep) {
        HAOCL_RETURN_IF_ERROR(flush());
        source = pick_source(region);
        run_begin = region.begin;
      }
      run_end = region.end;
    }
    HAOCL_RETURN_IF_ERROR(flush());
  }
  return Status::Ok();
}

Status ClusterRuntime::ReadFromNodeLocked(BufferId id, std::size_t node,
                                          std::uint64_t begin,
                                          std::span<std::uint8_t> into) {
  // The bytes of `into` are unspecified unless the read succeeds; callers
  // record ownership only after it does.
  InFlightGuard in_flight(this, node);
  return nodes_[node]->Read(options_.session_id, id, begin, into,
                            options_.rpc_timeout);
}

Status ClusterRuntime::ReceiveMissingRunsLocked(BufferId id,
                                                LogicalBuffer& buffer,
                                                std::uint64_t begin,
                                                std::span<std::uint8_t> into,
                                                bool record_owner) {
  return TransferMissingRunsLocked(
      id, buffer, HostOwner(), begin, begin + into.size(),
      [](const RegionDirectory::Region& region) -> std::size_t {
        // The host is missing here by construction, so every owner is a
        // node; any of them is fresh.
        return region.owners.front();
      },
      [&](std::size_t source, std::uint64_t run_begin,
          std::uint64_t run_end) -> Status {
        const auto run = into.subspan(run_begin - begin, run_end - run_begin);
        return ReceivedFromNodeLocked(
            buffer, source, run.size(),
            ReadFromNodeLocked(id, source, run_begin, run));
      },
      record_owner);
}

Status ClusterRuntime::EnsureHostRangeLocked(BufferId id,
                                             LogicalBuffer& buffer,
                                             std::uint64_t begin,
                                             std::uint64_t end) {
  return ReceiveMissingRunsLocked(
      id, buffer, begin, std::span(buffer.shadow).subspan(begin, end - begin),
      /*record_owner=*/true);
}

Expected<std::uint64_t> ClusterRuntime::SendToNodeLocked(
    BufferId id, LogicalBuffer& buffer, std::size_t node, std::uint64_t begin,
    std::span<const std::uint8_t> bytes, bool replace) {
  std::vector<net::LaneSet::Chunk> chunks;
  {
    InFlightGuard in_flight(this, node);
    chunks = nodes_[node]->Write(options_.session_id, id, begin, bytes,
                                 options_.rpc_timeout);
  }
  const auto owner = static_cast<RegionDirectory::Owner>(node);
  std::uint64_t landed = 0;
  Status failed;
  for (const net::LaneSet::Chunk& chunk : chunks) {
    const std::uint64_t end = chunk.offset + chunk.size;
    if (chunk.status.ok()) {
      landed += chunk.size;
      if (replace) {
        buffer.dir.MarkWritten(chunk.offset, end, owner);
      } else {
        buffer.dir.AddOwner(chunk.offset, end, owner);
      }
    } else if (replace && chunk.status.code() ==
                              ErrorCode::kMemObjectAllocationFailure) {
      // The node's tier cannot hold this chunk of the write: it lands in
      // the shadow.
      std::copy_n(bytes.begin() + (chunk.offset - begin), chunk.size,
                  buffer.shadow.begin() + chunk.offset);
      buffer.dir.MarkWritten(chunk.offset, end, HostOwner());
    } else if (failed.ok()) {
      failed = chunk.status;
    }
  }
  if (landed != 0) {
    AccountTransfer(buffer, &TransferStats::host_bytes_out, landed);
  }
  HAOCL_RETURN_IF_ERROR(failed);
  return landed;
}

Status ClusterRuntime::AllocateOnNodeLocked(BufferId id,
                                            LogicalBuffer& buffer,
                                            std::size_t node) {
  if (buffer.allocated_on[node]) return Status::Ok();
  // Full-size remote allocation: the kernel indexes with its global ids,
  // so every slice must live at its natural offset.
  const net::CreateBufferRequest create{id, buffer.size};
  auto reply = CallNode(node, MsgType::kCreateBuffer, net::Encode(create));
  HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kStatusReply));
  buffer.allocated_on[node] = true;
  return Status::Ok();
}

Status ClusterRuntime::EnsureRangeOnNodeLocked(BufferId id,
                                               LogicalBuffer& buffer,
                                               std::size_t node,
                                               std::uint64_t begin,
                                               std::uint64_t end,
                                               std::uint64_t* bytes_shipped,
                                               TransferTiming timing,
                                               sim::SimTime* ready_at) {
  HAOCL_RETURN_IF_ERROR(AllocateOnNodeLocked(id, buffer, node));
  // Ship a run from the host shadow when it is fresh (one hop, no peer
  // round-trip), else pull it node-to-node from an owning peer with a
  // host-relay fallback.
  auto note_arrival = [&](sim::SimTime arrival) {
    if (ready_at != nullptr) *ready_at = std::max(*ready_at, arrival);
  };
  auto ship_from_host = [&](std::uint64_t run_begin,
                            std::uint64_t run_end) -> Status {
    const std::uint64_t len = run_end - run_begin;
    // Nodes already co-owning the run can relay replicas peer-to-peer, so
    // broadcasts build a multicast tree instead of serializing on the
    // host uplink (modeled; the functional bytes took this wire). Read
    // before the send, which makes `node` an owner too.
    std::vector<std::size_t> co_owners;
    for (const RegionDirectory::Region& r :
         buffer.dir.Query(run_begin, run_end)) {
      for (RegionDirectory::Owner o : r.owners) {
        if (o < nodes_.size() &&
            std::find(co_owners.begin(), co_owners.end(), o) ==
                co_owners.end()) {
          co_owners.push_back(o);
        }
      }
    }
    HAOCL_RETURN_IF_ERROR(
        SendToNodeLocked(id, buffer, node, run_begin,
                         std::span(buffer.shadow).subspan(run_begin, len),
                         /*replace=*/false)
            .status());
    if (timing == TransferTiming::kPrefetch) {
      // Staged-pipeline DMA: lands while the node computes the previous
      // stage; the consuming stage gates on the arrival, not the NIC on
      // the accelerator.
      note_arrival(timeline_->RecordPrefetchToNode(node, len));
      return Status::Ok();
    }
    note_arrival(timeline_->RecordReplicationToNode(node, len, co_owners));
    return Status::Ok();
  };
  return TransferMissingRunsLocked(
      id, buffer, static_cast<RegionDirectory::Owner>(node), begin, end,
      [this](const RegionDirectory::Region& region) -> std::size_t {
        return std::binary_search(region.owners.begin(),
                                  region.owners.end(), HostOwner())
                   ? nodes_.size()
                   : region.owners.front();
      },
      [&](std::size_t source, std::uint64_t run_begin,
          std::uint64_t run_end) -> Status {
        const std::uint64_t len = run_end - run_begin;
        if (source == nodes_.size()) {
          HAOCL_RETURN_IF_ERROR(ship_from_host(run_begin, run_end));
        } else {
          const net::PullSliceRequest pull{
              id, run_begin, len, static_cast<std::uint32_t>(source)};
          const Status peer =
              CheckReply(CallNode(node, MsgType::kPullSlice, net::Encode(pull)),
                         MsgType::kStatusReply);
          if (peer.ok()) {
            AccountTransfer(buffer, &TransferStats::p2p_bytes, len);
            note_arrival(timeline_->RecordTransferBetween(source, node, len));
          } else {
            HAOCL_WARN << "peer transfer buf" << id << " node " << source
                       << "->" << node << " failed (" << peer.ToString()
                       << "); relaying through host";
            HAOCL_RETURN_IF_ERROR(
                EnsureHostRangeLocked(id, buffer, run_begin, run_end));
            HAOCL_RETURN_IF_ERROR(ship_from_host(run_begin, run_end));
            AccountTransfer(buffer, &TransferStats::relay_transfers, 1);
            AccountTransfer(buffer, &TransferStats::relay_bytes, len);
          }
        }
        if (bytes_shipped != nullptr) *bytes_shipped += len;
        return Status::Ok();
      },
      /*record_owner=*/true);
}

// ------------------------------------------------------- Tiered memory

Status ClusterRuntime::SpillSoleRangesToHostLocked(BufferId id,
                                                   LogicalBuffer& buffer,
                                                   std::size_t node,
                                                   std::uint64_t begin,
                                                   std::uint64_t end) {
  // Only ranges whose LAST fresh copy sits on the node need wire traffic;
  // adjacent sole-owner regions coalesce into one read.
  const auto owner = static_cast<RegionDirectory::Owner>(node);
  std::uint64_t run_begin = 0;
  std::uint64_t run_end = 0;
  auto flush = [&]() -> Status {
    if (run_begin == run_end) return Status::Ok();
    HAOCL_RETURN_IF_ERROR(ReadFromNodeLocked(
        id, node, run_begin,
        std::span(buffer.shadow).subspan(run_begin, run_end - run_begin)));
    buffer.dir.AddOwner(run_begin, run_end, HostOwner());
    AccountTransfer(buffer, &TransferStats::spill_bytes, run_end - run_begin);
    AccountTransfer(buffer, &TransferStats::spill_transfers, 1);
    timeline_->RecordSpillFromNode(node, run_end - run_begin);
    run_begin = run_end = 0;
    return Status::Ok();
  };
  for (const RegionDirectory::Region& region : buffer.dir.Query(begin, end)) {
    const bool sole = region.owners.size() == 1 && region.owners[0] == owner;
    if (!sole) {
      HAOCL_RETURN_IF_ERROR(flush());
      continue;
    }
    if (run_end == region.begin && run_end != run_begin) {
      run_end = region.end;
    } else {
      HAOCL_RETURN_IF_ERROR(flush());
      run_begin = region.begin;
      run_end = region.end;
    }
  }
  return flush();
}

Status ClusterRuntime::NotifyMemory(
    std::size_t node, BufferId id, bool reserve,
    const std::vector<runtime::MemoryPool::Span>& spans) {
  if (spans.empty()) return Status::Ok();
  net::MemoryNoticeRequest notice;
  notice.buffer_id = id;
  notice.reserve = reserve;
  notice.regions.reserve(spans.size());
  for (const runtime::MemoryPool::Span& span : spans) {
    notice.regions.push_back({span.begin, span.end - span.begin});
  }
  return CheckReply(
      CallNode(node, MsgType::kMemoryNotice, net::Encode(notice)),
      MsgType::kStatusReply);
}

Status ClusterRuntime::EvictRangeFromNodeLocked(BufferId id,
                                                LogicalBuffer& buffer,
                                                std::size_t node,
                                                std::uint64_t begin,
                                                std::uint64_t end) {
  // Work on what is actually materialized: the ledger's resident spans of
  // the range, not the whole request.
  std::vector<runtime::MemoryPool::Span> victims;
  for (const runtime::MemoryPool::Span& span :
       node_pools_[node]->ResidentSpansOf(id)) {
    const std::uint64_t b = std::max(begin, span.begin);
    const std::uint64_t e = std::min(end, span.end);
    if (b < e) victims.push_back({b, e});
  }
  if (victims.empty()) return Status::Ok();
  const auto owner = static_cast<RegionDirectory::Owner>(node);
  std::uint64_t released = 0;
  for (const runtime::MemoryPool::Span& span : victims) {
    // Demote ownership: spill any last-copy sub-range to the host shadow
    // first so the directory's gap-free invariant survives the removal.
    HAOCL_RETURN_IF_ERROR(
        SpillSoleRangesToHostLocked(id, buffer, node, span.begin, span.end));
    const std::size_t refused =
        buffer.dir.RemoveOwner(span.begin, span.end, owner);
    if (refused != 0) {
      return Status(ErrorCode::kInternal,
                    "eviction would drop the last fresh copy of buffer " +
                        std::to_string(id));
    }
    released += node_pools_[node]->Release(id, span.begin, span.end);
  }
  AccountTransfer(buffer, &TransferStats::evicted_bytes, released);
  const Status notified = NotifyMemory(node, id, /*reserve=*/false, victims);
  if (!notified.ok()) {
    HAOCL_WARN << "memory notice for buffer " << id << " on node " << node
               << " failed: " << notified.ToString();
  }
  return Status::Ok();
}

std::uint64_t ClusterRuntime::EvictFromNode(std::size_t node,
                                            std::uint64_t needed) {
  // Victims in LRU-by-launch-epoch order. The snapshot is advisory: stamps
  // move and buffers get released concurrently; each victim is re-checked
  // under its own mutex.
  struct Victim {
    std::uint64_t epoch;
    BufferId id;
    BufferPtr buffer;
  };
  std::vector<Victim> victims;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (const auto& [buffer_id, bytes] :
         node_pools_[node]->ResidentBuffers()) {
      auto it = buffers_.find(buffer_id);
      if (it == buffers_.end()) continue;  // Released; teardown reclaims.
      victims.push_back(
          {it->second->last_use_epoch[node].load(std::memory_order_relaxed),
           buffer_id, it->second});
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) { return a.epoch < b.epoch; });
  std::uint64_t freed = 0;
  for (const Victim& victim : victims) {
    if (freed >= needed) break;
    // try_lock only: a buffer amid a transfer holds its mutex across node
    // RPCs, and blocking here from inside another launch's prologue could
    // deadlock two launches evicting each other's buffers.
    std::unique_lock<std::mutex> buffer_lock(victim.buffer->mutex,
                                             std::try_to_lock);
    if (!buffer_lock.owns_lock()) continue;
    if (victim.buffer->pinned_on[node].load(std::memory_order_relaxed) > 0) {
      continue;  // A live working set; never evict under a launch.
    }
    const std::uint64_t before = node_pools_[node]->ResidentOf(victim.id);
    Status evicted = EvictRangeFromNodeLocked(victim.id, *victim.buffer, node,
                                              0, victim.buffer->size);
    if (!evicted.ok()) {
      HAOCL_WARN << "eviction of buffer " << victim.id << " from node "
                 << node << " failed: " << evicted.ToString();
      continue;
    }
    freed += before - node_pools_[node]->ResidentOf(victim.id);
  }
  return freed;
}

Status ClusterRuntime::ReserveWorkingSet(
    std::size_t node,
    const std::vector<runtime::MemoryPool::BufferRange>& ranges,
    std::vector<runtime::MemoryPool::BufferRange>* charged) {
  runtime::MemoryPool& pool = *node_pools_[node];
  for (int attempt = 0; attempt < 4; ++attempt) {
    Status reserved = pool.ReserveAll(ranges, charged);
    if (reserved.ok()) return reserved;
    const std::uint64_t needed = pool.NewBytesIn(ranges);
    if (needed > pool.capacity()) {
      return Status(ErrorCode::kMemObjectAllocationFailure,
                    "working set of " + std::to_string(needed) +
                        " new bytes exceeds node " + std::to_string(node) +
                        "'s device capacity (" +
                        std::to_string(pool.capacity()) + " bytes)");
    }
    const std::uint64_t free = pool.free_bytes();
    const std::uint64_t shortfall = needed > free ? needed - free : 0;
    if (shortfall == 0) continue;  // A concurrent release already helped.
    if (EvictFromNode(node, shortfall) == 0) break;  // No progress.
  }
  return Status(ErrorCode::kMemObjectAllocationFailure,
                "cannot free enough device memory on node " +
                    std::to_string(node) +
                    " (working sets of concurrent launches are pinned)");
}

Status ClusterRuntime::StageWorkingSet(
    std::size_t node, const std::vector<WorkingRange>& ranges,
    WorkingSetPin& pins, const Staging& staging) {
  const std::uint64_t epoch =
      launch_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<runtime::MemoryPool::BufferRange> reservation;
  reservation.reserve(ranges.size());
  for (const WorkingRange& range : ranges) {
    pins.Pin(range.buffer, node, epoch);
    reservation.push_back({range.id, range.begin, range.end});
  }
  // Inputs AND outputs reserve up front: a command's writes materialize
  // device memory too, and failing before any transfer beats failing with
  // half a working set shipped.
  std::vector<runtime::MemoryPool::BufferRange> charged;
  HAOCL_RETURN_IF_ERROR(ReserveWorkingSet(node, reservation, &charged));
  if (staging.program != nullptr) {
    HAOCL_RETURN_IF_ERROR(
        EnsureProgramOnNode(staging.program_id, *staging.program, node));
  }
  const Status shipped = ShipWorkingSet(node, ranges, staging);
  if (shipped.code() == ErrorCode::kMemObjectAllocationFailure ||
      (shipped.ok() && !staging.write.empty())) {
    // The node's ledger refused bytes this one admitted (it also enforces
    // tenant quotas and other sessions' residency): a transfer failed, or
    // a write's refused chunks landed in the shadow. Hand back what this
    // reservation newly charged and no transfer landed on the node; what
    // did land stays charged on both sides.
    ReleaseUnheldCharges(node, ranges, charged);
  }
  return shipped;
}

Status ClusterRuntime::ShipWorkingSet(std::size_t node,
                                      const std::vector<WorkingRange>& ranges,
                                      const Staging& staging) {
  const auto owner = static_cast<RegionDirectory::Owner>(node);
  for (const WorkingRange& range : ranges) {
    std::lock_guard<std::mutex> lock(range.buffer->mutex);
    if (!staging.write.empty()) {
      // The write's bytes replace the range wholesale: nothing is sourced
      // from its owners, and the node is left the only one of what it
      // took (a chunk it refuses lands in the shadow). Counted as the
      // prologue counts a host-owned run that no node holds.
      HAOCL_RETURN_IF_ERROR(
          AllocateOnNodeLocked(range.id, *range.buffer, node));
      auto landed = SendToNodeLocked(range.id, *range.buffer, node,
                                     range.begin, staging.write,
                                     /*replace=*/true);
      HAOCL_RETURN_IF_ERROR(landed.status());
      if (*landed != 0) timeline_->RecordTransferToNode(node, *landed);
    } else if (staging.discard_contents) {
      // No bytes move: the node becomes the exclusive owner of whatever
      // its allocation holds (contents undefined, per
      // CL_MIGRATE_MEM_OBJECT_CONTENT_UNDEFINED). No payload makes this
      // residency change visible to the node, so an explicit reservation
      // notice keeps its ledger in step, and the node owns the range only
      // once its ledger took it.
      HAOCL_RETURN_IF_ERROR(
          AllocateOnNodeLocked(range.id, *range.buffer, node));
      HAOCL_RETURN_IF_ERROR(NotifyMemory(node, range.id, /*reserve=*/true,
                                         {{range.begin, range.end}}));
      range.buffer->dir.MarkWritten(range.begin, range.end, owner);
    } else {
      HAOCL_RETURN_IF_ERROR(EnsureRangeOnNodeLocked(
          range.id, *range.buffer, node, range.begin, range.end,
          staging.bytes_shipped, staging.timing, staging.ready_at));
    }
  }
  return Status::Ok();
}

Status ClusterRuntime::ReleaseBuffer(BufferId id) {
  // Never blocks: the handle disappears from the table immediately, and
  // remote teardown runs as a graph command ordered (weakly) after the
  // buffer's in-flight users — safe to call while commands are gated on
  // an unresolved marker.
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto it = buffers_.find(id);
  if (it == buffers_.end()) {
    return Status(ErrorCode::kInvalidMemObject, "no such buffer");
  }
  BufferPtr buffer = it->second;
  std::vector<CommandId> pending;
  for (const auto& writer : buffer->writers) pending.push_back(writer.cmd);
  for (const auto& reader : buffer->readers) pending.push_back(reader.cmd);
  buffers_.erase(it);
  if (disconnected_) return Status::Ok();  // Nodes are shutting down.
  const CommandId teardown = graph_->Submit(
      [this, id, buffer](CommandGraph::Execution&) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
          // The node's session pool releases in its ReleaseBuffer handler;
          // mirror it in the host ledger whether or not the RPC succeeds.
          node_pools_[i]->ReleaseBuffer(id);
          if (!buffer->allocated_on[i]) continue;
          net::ReleaseBufferRequest request;
          request.buffer_id = id;
          auto reply =
              CallNode(i, MsgType::kReleaseBuffer, net::Encode(request));
          Status status = CheckReply(reply, MsgType::kStatusReply);
          if (!status.ok()) {
            HAOCL_WARN << "release of buffer " << id << " on node " << i
                       << " failed: " << status.ToString();
          }
        }
        return Status::Ok();
      },
      {}, "release:buf" + std::to_string(id), std::move(pending));
  // Fire-and-forget: nobody queries teardown commands, so drop the record
  // reference now and let the graph reclaim it at retirement.
  graph_->Release(teardown);
  return Status::Ok();
}

// -------------------------------------------------------------- Programs

Expected<ProgramId> ClusterRuntime::BuildProgram(const std::string& source) {
  // Host-side compile: immediate diagnostics + kernel signatures for
  // clSetKernelArg validation and the coherence protocol's constness.
  oclc::CompileResult compiled = oclc::CompileWithLog(source);
  std::lock_guard<std::mutex> lock(state_mutex_);
  // A failed build still consumes its id (so a stale id never names a
  // later program) but registers nothing: every ProgramState has a module.
  const ProgramId id = next_program_id_++;
  if (compiled.module == nullptr) {
    return Status(ErrorCode::kBuildProgramFailure, compiled.build_log);
  }
  auto program = std::make_shared<ProgramState>();
  program->source = source;
  program->module = compiled.module;
  program->build_log = compiled.build_log;
  program->built_on.assign(nodes_.size(), false);
  programs_.emplace(id, std::move(program));
  return id;
}

std::string ClusterRuntime::BuildLog(ProgramId id) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto it = programs_.find(id);
  return it == programs_.end() ? "" : it->second->build_log;
}

Expected<const oclc::CompiledFunction*> ClusterRuntime::FindKernel(
    ProgramId id, const std::string& kernel_name) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto it = programs_.find(id);
  if (it == programs_.end()) {
    return Status(ErrorCode::kInvalidProgram, "no such program");
  }
  const oclc::CompiledFunction* kernel =
      it->second->module->FindKernel(kernel_name);
  if (kernel == nullptr) {
    return Status(ErrorCode::kInvalidKernelName,
                  "no kernel '" + kernel_name + "'");
  }
  return kernel;
}

Status ClusterRuntime::ReleaseProgram(ProgramId id) {
  // Like ReleaseBuffer: non-blocking, remote teardown ordered after EVERY
  // in-flight launch of this program (independent launches are unordered
  // among themselves, so the latest alone would not be enough).
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto it = programs_.find(id);
  if (it == programs_.end()) {
    return Status(ErrorCode::kInvalidProgram, "no such program");
  }
  ProgramPtr program = it->second;
  std::vector<CommandId> pending = std::move(program->uses);
  program->uses.clear();
  programs_.erase(it);
  if (disconnected_) return Status::Ok();
  const CommandId teardown = graph_->Submit(
      [this, id, program](CommandGraph::Execution&) {
        std::lock_guard<std::mutex> program_lock(program->mutex);
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
          if (!program->built_on[i]) continue;
          net::ReleaseProgramRequest request;
          request.program_id = id;
          auto reply = CallNode(i, MsgType::kReleaseProgram,
                                net::Encode(request));
          Status status = CheckReply(reply, MsgType::kStatusReply);
          if (!status.ok()) {
            HAOCL_WARN << "release of program " << id << " on node " << i
                       << " failed: " << status.ToString();
          }
        }
        return Status::Ok();
      },
      {}, "release:prog" + std::to_string(id), std::move(pending));
  graph_->Release(teardown);
  return Status::Ok();
}

Status ClusterRuntime::EnsureProgramOnNode(ProgramId id,
                                           ProgramState& program,
                                           std::size_t node) {
  std::lock_guard<std::mutex> lock(program.mutex);
  if (program.built_on[node]) return Status::Ok();
  net::BuildProgramRequest request;
  request.program_id = id;
  request.source = program.source;
  auto reply = CallNode(node, MsgType::kBuildProgram, net::Encode(request));
  HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kBuildReply));
  auto decoded = net::Decode<net::BuildProgramReply>(reply->payload);
  if (!decoded.ok()) return decoded.status();
  if (decoded->status_code != 0) {
    return Status(static_cast<ErrorCode>(decoded->status_code),
                  "remote build failed on node " + std::to_string(node) +
                      ": " + decoded->build_log);
  }
  program.built_on[node] = true;
  timeline_->RecordControlMessage(node);
  return Status::Ok();
}

// --------------------------------------------------------------- Launch

// Everything one shard of a launch needs, resolved and validated at submit
// time so the graph worker never touches the object tables for lookups.
// Owned solely by the command body's closure.
struct ClusterRuntime::LaunchWork {
  LaunchSpec spec;  // Shard geometry: global[0] = shard count and
                    // global_offset[0] includes the shard offset.
  ProgramId program_id = 0;
  ProgramPtr program;
  std::vector<BufferArg> buffers;
  std::size_t node = 0;  // Placement decided at submit.
  std::shared_ptr<LaunchPlan> plan;
  // Staged out-of-core execution, when this command is one stage of an
  // oversubscribed shard: the chain its prologue ships the stage's slices
  // on, and the dim-0 windows {first, count} whose partitioned slices its
  // epilogue drains — the previous stage's, and the last stage's own.
  TransferTiming timing = TransferTiming::kDemand;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> drain;
  // Scheduler backlog charged for this shard at submit; consumed exactly
  // once. The destructor refund covers every retirement path where the
  // epilogue never ran (shard failure, dependency failure, shutdown) —
  // the graph drops the body closure, and with it this struct, on all of
  // them. `owner` outlives the graph (Disconnect drains it first).
  ClusterRuntime* owner = nullptr;
  double backlog_charge = 0.0;
  LaunchWork() = default;
  LaunchWork(const LaunchWork&) = delete;
  LaunchWork& operator=(const LaunchWork&) = delete;
  ~LaunchWork() {
    if (owner != nullptr) owner->RefundBacklogCharge(node, backlog_charge);
  }
};

void ClusterRuntime::RefundBacklogCharge(std::size_t node, double seconds) {
  if (seconds <= 0.0) return;
  std::lock_guard<std::mutex> lock(sched_mutex_);
  node_busy_ahead_[node] = std::max(0.0, node_busy_ahead_[node] - seconds);
}

Expected<ClusterRuntime::ResolvedLaunch> ClusterRuntime::ResolveLaunchLocked(
    const LaunchSpec& spec) const {
  if (disconnected_) {
    return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
  }
  auto program_it = programs_.find(spec.program);
  if (program_it == programs_.end()) {
    return Status(ErrorCode::kInvalidProgram, "no such program");
  }
  ResolvedLaunch launch;
  launch.program = program_it->second;
  const oclc::Module& module = *launch.program->module;
  const oclc::CompiledFunction* kernel = module.FindKernel(spec.kernel_name);
  if (kernel == nullptr) {
    return Status(ErrorCode::kInvalidKernelName,
                  "no kernel '" + spec.kernel_name + "' in program");
  }
  if (kernel->params.size() != spec.args.size()) {
    return Status(ErrorCode::kInvalidKernelArgs,
                  "kernel '" + spec.kernel_name + "' takes " +
                      std::to_string(kernel->params.size()) +
                      " args, got " + std::to_string(spec.args.size()));
  }

  // Resolve buffer args once; every shard shares the pins and metadata.
  std::vector<oclc::ArgBinding> fake_bindings;
  sched::TaskInfo& task = launch.task;
  task.kernel_name = spec.kernel_name;
  task.preferred_node = spec.preferred_node;
  task.fpga_binary_available =
      driver::NativeKernelRegistry::Instance().Contains(spec.kernel_name);
  task.dim0_extent = spec.global[0];
  task.dim0_align = spec.local_specified ? std::max<std::uint64_t>(
                                               1, spec.local[0])
                                         : 1;
  // Kernels that query the launch-wide range would see shard-local
  // values; keep them whole. Their work-items can also roam past their
  // nominal slice (grid-stride loops), so partitioned annotations are not
  // trustworthy for region-granular coherence either — degrade every
  // buffer arg to whole-buffer treatment below.
  const bool range_free = !KernelMayQueryLaunchRange(module, *kernel);
  task.splittable = spec.work_dim >= 1 && spec.global[0] > 0 && range_free;
  for (std::size_t i = 0; i < spec.args.size(); ++i) {
    const KernelArgValue& arg = spec.args[i];
    if (arg.kind != KernelArgValue::Kind::kBuffer) {
      fake_bindings.push_back(oclc::ArgBinding{});
      continue;
    }
    auto it = buffers_.find(arg.buffer);
    if (it == buffers_.end()) {
      return Status(ErrorCode::kInvalidMemObject,
                    "arg " + std::to_string(i) + ": no such buffer");
    }
    BufferArg buffer_arg;
    buffer_arg.id = arg.buffer;
    buffer_arg.buffer = it->second;
    buffer_arg.written = !kernel->params[i].pointee_const;
    buffer_arg.partitioned =
        arg.access == KernelArgValue::Access::kPartitionedDim0 && range_free;
    buffer_arg.stride = arg.partition_stride;
    if (arg.access == KernelArgValue::Access::kPartitionedDim0) {
      if (buffer_arg.stride == 0) {
        return Status(ErrorCode::kInvalidValue,
                      "arg " + std::to_string(i) +
                          ": partitioned access needs a non-zero stride");
      }
      // The full partition range must fit the buffer, or shard slices
      // would run past its end. Division form: offset + count and the
      // byte product can both wrap uint64 for hostile global_work_offset
      // values.
      const std::uint64_t max_indices =
          it->second->size / buffer_arg.stride;
      if (spec.global[0] > max_indices ||
          spec.global_offset[0] > max_indices - spec.global[0]) {
        return Status(ErrorCode::kInvalidValue,
                      "arg " + std::to_string(i) + ": partition range (" +
                          std::to_string(spec.global_offset[0]) + " + " +
                          std::to_string(spec.global[0]) + " x stride " +
                          std::to_string(buffer_arg.stride) +
                          ") exceeds buffer size " +
                          std::to_string(it->second->size));
      }
    }
    if (buffer_arg.written && !buffer_arg.partitioned) {
      task.splittable = false;  // Whole-buffer writes pin the launch.
    }
    // Partitioned args ship only the launch's partition window — count
    // that, not the whole buffer, so the cost model's transfer term and
    // the residency discount measure the same bytes.
    const auto [begin, end] =
        buffer_arg.Window(spec.global_offset[0], spec.global[0]);
    task.input_bytes += end - begin;
    // Memory-footprint decomposition for the capacity checks: replicated
    // args cost every shard their full size; partitioned args cost their
    // stride per dim-0 index.
    if (buffer_arg.partitioned) {
      task.bytes_per_index += buffer_arg.stride;
    } else {
      task.replicated_bytes += it->second->size;
    }
    launch.buffers.push_back(std::move(buffer_arg));
    oclc::ArgBinding binding;
    binding.kind = oclc::ArgBinding::Kind::kBuffer;
    binding.size = it->second->size;
    fake_bindings.push_back(binding);
  }
  if (spec.cost_hint.has_value()) {
    task.cost = *spec.cost_hint;
  } else {
    oclc::NDRange range;
    range.work_dim = spec.work_dim;
    for (int d = 0; d < 3; ++d) {
      range.global[d] = spec.global[d];
      range.local[d] = spec.local[d];
      range.offset[d] = spec.global_offset[d];
    }
    range.local_specified = spec.local_specified;
    task.cost =
        driver::EstimateKernelCost(module, *kernel, fake_bindings, range);
  }
  return launch;
}

sched::ClusterView ClusterRuntime::ClusterViewLocked(
    const std::string& kernel_name) const {
  sched::ClusterView view;
  view.nodes.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    sched::NodeView node;
    node.name = devices_[i].name;
    node.type = devices_[i].type;
    node.spec = sim::SpecForType(devices_[i].type);
    node.queue_depth = in_flight_[i];
    node.busy_seconds_ahead = node_busy_ahead_[i];
    node.observed_seconds_per_flop = rate_table_->NodeAverage(i);
    const sched::KernelRateTable::Rate rate =
        rate_table_->Lookup(i, kernel_name);
    node.kernel_seconds_per_flop = rate.seconds_per_flop;
    node.kernel_rate_samples = rate.samples;
    node.mem_capacity_bytes = node_pools_[i]->capacity();
    node.mem_free_bytes = node_pools_[i]->free_bytes();
    node.alive = !node_dead_[i];
    view.nodes.push_back(std::move(node));
  }
  return view;
}

Expected<ClusterRuntime::Placement> ClusterRuntime::PlanLaunchLocked(
    const LaunchSpec& spec, const ResolvedLaunch& launch) {
  // Locality hints from the region directories: how many of this launch's
  // input bytes each node already owns, and the first dim-0 index of
  // partitioned input resident there. Policies use these to source shards
  // from data instead of dragging data to shards (brief per-buffer locks;
  // the reads are advisory — the transfer engine re-checks at execution).
  std::vector<std::uint64_t> resident_bytes(nodes_.size(), 0);
  std::vector<std::uint64_t> resident_begin(
      nodes_.size(), std::numeric_limits<std::uint64_t>::max());
  for (const BufferArg& buffer_arg : launch.buffers) {
    const auto [begin, end] =
        buffer_arg.Window(spec.global_offset[0], spec.global[0]);
    // try_lock, never block: this runs under state_mutex_, and a buffer
    // amid a slice transfer holds its mutex across node RPCs — waiting
    // here would stall every other submit in the runtime. A missed hint
    // just means no locality credit for this arg this time.
    std::unique_lock<std::mutex> buffer_lock(buffer_arg.buffer->mutex,
                                             std::try_to_lock);
    if (!buffer_lock.owns_lock()) continue;
    for (const RegionDirectory::Region& region :
         buffer_arg.buffer->dir.Query(begin, end)) {
      for (RegionDirectory::Owner owner : region.owners) {
        if (owner >= nodes_.size()) continue;
        resident_bytes[owner] += region.end - region.begin;
        if (buffer_arg.partitioned) {
          resident_begin[owner] = std::min(
              resident_begin[owner], region.begin / buffer_arg.stride);
        }
      }
    }
  }

  // Plan against the live view (in-flight depth and backlog as of now).
  Placement placement;
  std::lock_guard<std::mutex> sched_lock(sched_mutex_);
  placement.view = ClusterViewLocked(spec.kernel_name);
  for (std::size_t i = 0; i < placement.view.nodes.size(); ++i) {
    placement.view.nodes[i].resident_input_bytes = resident_bytes[i];
    placement.view.nodes[i].resident_dim0_begin = resident_begin[i];
  }
  if (spec.force_node >= 0) {
    // A pinned launch bypasses the policy: one shard, that node.
    const auto forced = static_cast<std::size_t>(spec.force_node);
    if (forced >= placement.view.nodes.size()) {
      return Status(ErrorCode::kInvalidValue,
                    "force_node " + std::to_string(spec.force_node) +
                        " out of range");
    }
    if (!placement.view.nodes[forced].alive) {
      return Status(ErrorCode::kNodeLost,
                    "node " + std::to_string(forced) + " is marked dead");
    }
    placement.plan =
        sched::PlacementPlan::SingleNode(forced, launch.task.dim0_extent);
  } else {
    auto planned = policy_->PlanLaunch(launch.task, placement.view);
    if (!planned.ok()) return planned.status();
    placement.plan = *std::move(planned);
  }
  HAOCL_RETURN_IF_ERROR(
      sched::ValidatePlan(placement.plan, launch.task, placement.view));
  return placement;
}

Expected<CommandHandle> ClusterRuntime::SubmitLaunch(
    const LaunchSpec& spec, std::vector<CommandHandle> deps,
    std::vector<CommandHandle> order_after) {
  if (spec.elastic.has_value() && spec.force_node >= 0) {
    return Status(ErrorCode::kInvalidValue,
                  "an elastic launch places its own chunks: no force_node");
  }
  std::unique_lock<std::mutex> lock(state_mutex_);
  auto resolved = ResolveLaunchLocked(spec);
  if (!resolved.ok()) return resolved.status();
  const ResolvedLaunch& launch = *resolved;
  const sched::TaskInfo& task = launch.task;
  if (spec.elastic.has_value() && !task.splittable) {
    return Status(ErrorCode::kInvalidOperation,
                  "kernel '" + spec.kernel_name +
                      "' is not splittable, and an elastic launch re-targets "
                      "its chunks freely");
  }
  auto placed = PlanLaunchLocked(spec, launch);
  if (!placed.ok()) return placed.status();
  const sched::PlacementPlan& placement = placed->plan;
  const std::size_t shard_total = placement.shards.size();

  // Shared dependency context for every command of the launch. Hazard
  // ranges are region-granular: a partitioned arg conflicts only on the
  // launch's partition window, so launches over disjoint windows of one
  // buffer pipeline freely.
  std::vector<CommandId> dep_ids;
  std::vector<CommandId> hazards;
  CollectDepIds(deps, &dep_ids);
  CollectDepIds(order_after, &hazards);
  for (const BufferArg& buffer_arg : launch.buffers) {
    const auto [begin, end] =
        buffer_arg.Window(spec.global_offset[0], spec.global[0]);
    if (buffer_arg.written) {
      AddWriteHazardLocked(*buffer_arg.buffer, begin, end, &hazards);
    } else {
      AddReadHazardLocked(*buffer_arg.buffer, begin, end, &hazards);
    }
  }

  if (spec.elastic.has_value()) {
    // One command runs every chunk of the plan (ExecElastic). Chunks
    // carry the full launch's analytic cost scaled to their rows: a
    // re-chunked device-side estimate would charge every chunk a cold
    // pass over the node's whole resident allocation, drowning the real
    // per-row rates the steal loop needs to see. No backlog is charged:
    // each chunk completes before the coordinator places the next.
    LaunchSpec whole = spec;
    if (!whole.cost_hint.has_value()) whole.cost_hint = task.cost;
    auto result = std::make_shared<LaunchPlan>();
    const CommandId cmd = graph_->Submit(
        [this, whole = std::move(whole), launch, plan = placement,
         result](CommandGraph::Execution& e) {
          return ExecElastic(whole, launch, plan, *result, e);
        },
        std::move(dep_ids), "launch:" + spec.kernel_name + ":elastic",
        std::move(hazards));
    launch_plans_.emplace(cmd, std::move(result));
    RecordLaunchLocked(launch, spec.global_offset[0], spec.global[0], cmd);
    return CommandHandle{cmd};
  }

  // Decompose oversubscribed shards into out-of-core stages: a shard
  // whose working set exceeds its node's device capacity runs as a
  // serial chain of sub-range launches of the stage rule's rows
  // (sched::StageRows), so two stages fit at once and stage k+1's slice
  // transfer can overlap stage k's compute (libhclooc's staging pattern).
  // In-core shards get 0 rows: one stage. ValidatePlan admitted every
  // shard, so each one has a rule.
  const std::uint64_t stage_align =
      std::max<std::uint64_t>(1, task.dim0_align);
  std::vector<std::uint64_t> stage_rows;
  for (const sched::PlacementShard& shard : placement.shards) {
    stage_rows.push_back(
        sched::StageRows(task, node_pools_[shard.node]->capacity(),
                         shard.global_count)
            .value_or(0));
  }
  const std::vector<sched::ChunkSpan> subs =
      sched::ChunkifyPlan(placement, stage_align, stage_rows);
  std::vector<std::uint32_t> stages_of(shard_total, 0);
  for (const sched::ChunkSpan& sub : subs) ++stages_of[sub.shard];
  const std::size_t launch_total = subs.size();
  const bool region_mode = launch_total > 1;

  // Charge each shard's predicted compute seconds against its node's
  // backlog estimate NOW, so load-aware policies see work that is
  // submitted but not yet complete; the shard refunds the same amount
  // when it retires (LaunchWork's destructor, on every other path).
  std::vector<double> shard_charges;
  shard_charges.reserve(shard_total);
  {
    std::lock_guard<std::mutex> sched_lock(sched_mutex_);
    const double extent_units = static_cast<double>(
        std::max<std::uint64_t>(1, task.dim0_extent));
    for (const sched::PlacementShard& shard : placement.shards) {
      sched::TaskInfo shard_task = task;
      shard_task.cost = task.cost.Scaled(
          static_cast<double>(shard.global_count) / extent_units);
      const double charge = sched::PredictComputeSeconds(
          shard_task, placed->view.nodes[shard.node]);
      shard_charges.push_back(charge);
      node_busy_ahead_[shard.node] += charge;
    }
  }

  // Fan out the sub-launch commands, one per sub-launch. Shards are
  // mutually independent (the plan guarantees disjoint slices) and order
  // after the same hazards; a staged shard's stages chain serially on its
  // node. Stage k's prologue ships its slices while stage k-1's are still
  // resident, and its epilogue drains stage k-1's — so at most two stages
  // are resident, and with stage_pipeline the DMA chain carries stage k's
  // slices ahead of stage k-1's writeback, as a double buffer does.
  std::vector<CommandId> shard_ids;  // One command per sub-launch.
  std::vector<std::shared_ptr<LaunchPlan>> shard_plans;
  std::vector<std::uint32_t> group_of;  // Plan-shard index per command.
  shard_ids.reserve(launch_total);
  shard_plans.reserve(launch_total);
  group_of.reserve(launch_total);
  FramePtr issued;  // The place a one-frame launch took.
  std::uint32_t stage = 0;  // Index of `sub` within its shard's stages.
  for (std::size_t i = 0; i < launch_total; ++i) {
    const sched::ChunkSpan& sub = subs[i];
    const std::uint32_t stage_total = stages_of[sub.shard];
    stage = i > 0 && subs[i - 1].shard == sub.shard ? stage + 1 : 0;
    const sched::PlacementShard& shard = placement.shards[sub.shard];
    auto work = MakeLaunchWork(spec, launch, sub.offset, sub.count, shard.node);
    work->owner = this;
    work->backlog_charge =
        shard_charges[sub.shard] *
        (static_cast<double>(sub.count) /
         static_cast<double>(shard.global_count));
    shard_plans.push_back(work->plan);
    group_of.push_back(static_cast<std::uint32_t>(sub.shard));

    std::string label = "launch:" + spec.kernel_name;
    if (shard_total > 1) {
      label += "[" + std::to_string(sub.shard + 1) + "/" +
               std::to_string(shard_total) + "]";
    }
    // Stage k > 0 orders after stage k-1 on its node, and through it
    // after the launch's dependencies and hazards.
    std::vector<CommandId> launch_deps =
        stage == 0 ? dep_ids : std::vector<CommandId>{shard_ids.back()};
    if (stage_total > 1) {
      label += ":stage" + std::to_string(stage + 1) + "/" +
               std::to_string(stage_total);
      if (options_.stage_pipeline) work->timing = TransferTiming::kPrefetch;
      if (stage > 0) {
        work->drain.emplace_back(spec.global_offset[0] + subs[i - 1].offset,
                                 subs[i - 1].count);
      }
      if (stage + 1 == stage_total) {
        work->drain.emplace_back(work->spec.global_offset[0], sub.count);
      }
    }
    // A one-shard, one-stage launch is one frame to its node.
    if (launch_total == 1) {
      IssueRequest issue{.kind = IssueKind::kLaunch,
                         .node = shard.node,
                         .ranges = LaunchWorkingSet(*work),
                         .writes = {},
                         .program = work->program.get()};
      for (std::size_t b = 0; b < work->buffers.size(); ++b) {
        if (work->buffers[b].written) issue.writes.push_back(issue.ranges[b]);
      }
      issued = TakeIssuePlaceLocked(issue, launch_deps, hazards);
      if (issued != nullptr) {
        issued->type = MsgType::kLaunchKernel;
        issued->payload = net::Encode(
            EncodeLaunch(*work, issued->ranges, issued->after_seq));
        EnqueueFrameLocked(issued);
      }
    }
    // The body's closure is the sole owner of `work` (and thus of every
    // buffer/program pin); the graph drops the body on ANY retirement
    // path — completion, failure, dependency failure, shutdown — so pins
    // never outlive the command.
    CommandGraph::Body body;
    if (issued != nullptr) {
      body = [this, work = std::move(work),
              frame = issued](CommandGraph::Execution& e) {
        return RunIssued(
            *frame, [&] { return ExecLaunch(work, e).status(); },
            [&](const Expected<Message>& reply) {
              return CompleteLaunch(work, reply, /*bytes_shipped=*/0,
                                    /*ready_at=*/0.0, e)
                  .status();
            });
      };
    } else {
      body = [this, work = std::move(work)](CommandGraph::Execution& e) {
        return ExecLaunch(work, e).status();
      };
    }
    const CommandId launch_cmd = graph_->Submit(
        std::move(body), std::move(launch_deps), label,
        stage == 0 ? hazards : std::vector<CommandId>{});
    if (issued != nullptr) RegisterIssuedLocked(issued, launch_cmd);
    shard_ids.push_back(launch_cmd);
  }

  CommandId cmd = shard_ids[0];
  if (region_mode) {
    // Join: one aggregate result, one handle for the caller. The shard
    // edges are WEAK (the join runs after every shard retires, success or
    // failure) so the join body can surface the first shard's own error —
    // a caller waiting on the fan-out sees the root cause, not a generic
    // kDependencyFailed.
    auto join_plan = std::make_shared<LaunchPlan>();
    const auto shard_count = static_cast<std::uint32_t>(shard_total);
    const auto stage_count = static_cast<std::uint32_t>(launch_total);
    // The aggregate reports the node that ran the largest plan shard.
    std::size_t agg_node = placement.shards[0].node;
    std::uint64_t largest = 0;
    for (const auto& shard : placement.shards) {
      if (shard.global_count > largest) {
        largest = shard.global_count;
        agg_node = shard.node;
      }
    }
    cmd = graph_->Submit(
        [this, shards = shard_ids, plans = shard_plans,
         groups = group_of, shard_count, stage_count, agg_node,
         join_plan](CommandGraph::Execution& e) {
          // All sub-launches are terminal (weak edges resolved); fail with
          // the most specific error, if any. Success is read from the
          // shared plan (the body's last write before returning OK), NOT
          // from the graph record — an early ReleaseCommand on the launch
          // handle may have reclaimed shard records already.
          Status failure = Status::Ok();
          for (std::size_t i = 0; i < plans.size(); ++i) {
            if (plans[i]->has_value()) continue;  // Sub-launch completed.
            // Reclaimed records (unknown to QueryState) lost their
            // status; live records report their genuine failure, whatever
            // its code.
            Status status =
                graph_->QueryState(shards[i]).ok()
                    ? graph_->QueryStatus(shards[i])
                    : Status(ErrorCode::kInternal,
                             "launch shard failed (record released)");
            if (status.ok()) {
              status = Status(ErrorCode::kInternal, "launch shard failed");
            }
            if (failure.ok() ||
                (failure.code() == ErrorCode::kDependencyFailed &&
                 status.code() != ErrorCode::kDependencyFailed)) {
              failure = status;
            }
          }
          if (!failure.ok()) return failure;
          LaunchResult agg;
          agg.shard_count = shard_count;
          agg.stage_count = stage_count;
          agg.node = agg_node;
          double span_start = std::numeric_limits<double>::infinity();
          // A shard's stages serialize on its device, so modeled seconds
          // sum within a shard and the slowest shard bounds the launch.
          std::vector<double> shard_seconds(shard_count, 0.0);
          for (std::size_t i = 0; i < plans.size(); ++i) {
            const LaunchResult& r = **plans[i];
            shard_seconds[groups[i]] += r.modeled_seconds;
            agg.bytes_shipped += r.bytes_shipped;
            agg.virtual_completion = std::max(agg.virtual_completion,
                                              r.virtual_completion);
            span_start = std::min(span_start,
                                  r.virtual_completion - r.modeled_seconds);
          }
          for (double seconds : shard_seconds) {
            agg.modeled_seconds = std::max(agg.modeled_seconds, seconds);
          }
          e.SetSpan(span_start, agg.virtual_completion);
          *join_plan = agg;
          return Status::Ok();
        },
        {}, "launch:" + spec.kernel_name + ":join", shard_ids);
    fan_outs_.emplace(cmd, shard_ids);
    for (std::size_t s = 0; s < shard_ids.size(); ++s) {
      launch_plans_.emplace(shard_ids[s], shard_plans[s]);
    }
    launch_plans_.emplace(cmd, std::move(join_plan));
  } else {
    launch_plans_.emplace(cmd, shard_plans[0]);
  }

  // Register the whole fan-out as one unit in the hazard chains: later
  // conflicting commands order after the join (and thus every shard). The
  // shards also register individually — a failed sibling makes the join
  // terminal while other shards still run, and teardown/write hazards
  // must not overtake them.
  RecordLaunchLocked(launch, spec.global_offset[0], spec.global[0], cmd);
  if (region_mode) {
    // Each sub-launch registers over its own slice of partitioned args
    // (its full range for replicated ones), a stage also over the
    // previous stage's slice, which its epilogue drains — as a WRITER
    // where it writes — so a later conflicting command cannot overtake a
    // still-running shard or stage even after a failed sibling made the
    // join terminal early (reads collect only writers, and terminal
    // commands impose no order).
    for (std::size_t s = 0; s < shard_ids.size(); ++s) {
      const std::size_t from =
          s > 0 && subs[s - 1].shard == subs[s].shard ? s - 1 : s;
      RecordLaunchLocked(launch, spec.global_offset[0] + subs[from].offset,
                         subs[s].offset + subs[s].count - subs[from].offset,
                         shard_ids[s]);
    }
  }
  lock.unlock();
  if (issued != nullptr) SendIssued(issued->node, nullptr);
  return CommandHandle{cmd};
}

void ClusterRuntime::RecordLaunchLocked(const ResolvedLaunch& launch,
                                        std::uint64_t first,
                                        std::uint64_t count, CommandId cmd) {
  for (const BufferArg& buffer_arg : launch.buffers) {
    const auto [begin, end] = buffer_arg.Window(first, count);
    if (buffer_arg.written) {
      RecordWriteLocked(*buffer_arg.buffer, begin, end, cmd);
    } else {
      RecordReadLocked(*buffer_arg.buffer, begin, end, cmd);
    }
  }
  // Prune retired launches so long-lived programs do not accumulate one
  // id per launch forever (mirrors PruneRetiredReadersLocked). Reclaimed
  // records (!ok) retired by definition.
  auto& uses = launch.program->uses;
  uses.erase(std::remove_if(uses.begin(), uses.end(),
                            [this](CommandId id) {
                              auto state = graph_->QueryState(id);
                              return !state.ok() || IsTerminal(*state);
                            }),
             uses.end());
  uses.push_back(cmd);
}

std::shared_ptr<ClusterRuntime::LaunchWork> ClusterRuntime::MakeLaunchWork(
    const LaunchSpec& spec, const ResolvedLaunch& launch, std::uint64_t offset,
    std::uint64_t count, std::size_t node) {
  auto work = std::make_shared<LaunchWork>();
  work->spec = spec;
  work->spec.global[0] = count;
  work->spec.global_offset[0] = spec.global_offset[0] + offset;
  if (spec.cost_hint.has_value()) {
    work->spec.cost_hint = spec.cost_hint->Scaled(
        static_cast<double>(count) /
        static_cast<double>(std::max<std::uint64_t>(1, spec.global[0])));
  }
  work->program_id = spec.program;
  work->program = launch.program;
  work->buffers = launch.buffers;
  work->node = node;
  work->plan = std::make_shared<LaunchPlan>();
  return work;
}

std::vector<ClusterRuntime::WorkingRange> ClusterRuntime::LaunchWorkingSet(
    const LaunchWork& work) {
  // This shard's dim-0 indices: [global_offset[0], global_offset[0] +
  // global[0]). BufferArg::Window turns them into each arg's byte range.
  std::vector<WorkingRange> working_set;
  working_set.reserve(work.buffers.size());
  for (const BufferArg& buffer_arg : work.buffers) {
    const auto [begin, end] =
        buffer_arg.Window(work.spec.global_offset[0], work.spec.global[0]);
    working_set.push_back({buffer_arg.id, buffer_arg.buffer, begin, end});
  }
  return working_set;
}

Expected<LaunchResult> ClusterRuntime::ExecLaunch(
    const std::shared_ptr<LaunchWork>& work, CommandGraph::Execution& e) {
  // ---- Working set, program and data (tiered memory, per-object locks) ---
  // Partitioned args need only this shard's slice on the node (a
  // single-shard launch's "slice" is its whole partition window);
  // replicated args need the full buffer. The directory ships just the
  // stale sub-ranges, sourcing peers directly where possible; a pipelined
  // stage ships on the node's DMA chain.
  const std::size_t node = work->node;  // Placement decided at submit.
  const std::vector<WorkingRange> working_set = LaunchWorkingSet(*work);
  std::uint64_t bytes_shipped = 0;
  sim::SimTime ready_at = 0.0;
  WorkingSetPin pins;
  HAOCL_RETURN_IF_ERROR(
      StageWorkingSet(node, working_set, pins,
                      {.program_id = work->program_id,
                       .program = work->program.get(),
                       .timing = work->timing,
                       .bytes_shipped = &bytes_shipped,
                       .ready_at = &ready_at}));
  // ---- Execute (overlapped RPC: only this command's worker blocks) -------
  return CompleteLaunch(
      work,
      CallNode(node, MsgType::kLaunchKernel,
               net::Encode(EncodeLaunch(*work, working_set, 0))),
      bytes_shipped, ready_at, e);
}

net::LaunchKernelRequest ClusterRuntime::EncodeLaunch(
    const LaunchWork& work, const std::vector<WorkingRange>& working_set,
    std::uint64_t after_seq) const {
  const LaunchSpec& spec = work.spec;
  const double compute_amp = timeline_->compute_amplification();
  net::LaunchKernelRequest request;
  request.program_id = work.program_id;
  request.kernel_name = spec.kernel_name;
  request.work_dim = spec.work_dim;
  for (int d = 0; d < 3; ++d) {
    request.global[d] = spec.global[d];
    request.local[d] = spec.local[d];
    request.global_offset[d] = spec.global_offset[d];
  }
  request.local_specified = spec.local_specified;
  request.after_seq = after_seq;
  if (spec.cost_hint.has_value()) {
    // Ship the analytic hint (shard-scaled at submit) so the node's
    // timing model profiles the work the scheduler accounts — the static
    // instruction-mix estimate cannot see data-dependent trip counts.
    // Paper-scale amplification applies to the WORK (flops/bytes), so
    // fixed launch overheads stay constant on the node.
    request.has_cost_hint = true;
    request.hint_flops = spec.cost_hint->flops * compute_amp;
    request.hint_bytes = spec.cost_hint->bytes * compute_amp;
    request.hint_work_items = spec.cost_hint->work_items;
    request.hint_irregular = spec.cost_hint->irregular;
  }

  std::size_t next_buffer = 0;  // Buffer args in order: work.buffers.
  for (std::size_t i = 0; i < spec.args.size(); ++i) {
    const KernelArgValue& arg = spec.args[i];
    net::WireKernelArg wire;
    switch (arg.kind) {
      case KernelArgValue::Kind::kBuffer: {
        const WorkingRange& range = working_set[next_buffer];
        const bool written = work.buffers[next_buffer++].written;
        wire.kind = net::WireKernelArg::Kind::kBuffer;
        wire.buffer_id = range.id;
        if (written) {
          // The node's session pool charges the written range at launch —
          // the same range this epilogue charges in the host ledger.
          wire.written_begin = range.begin;
          wire.written_end = range.end;
        }
        break;
      }
      case KernelArgValue::Kind::kScalar:
        wire.kind = net::WireKernelArg::Kind::kScalar;
        wire.scalar_bytes = arg.scalar_bytes;
        break;
      case KernelArgValue::Kind::kLocalSize:
        wire.kind = net::WireKernelArg::Kind::kLocalSize;
        wire.local_size = arg.local_size;
        break;
    }
    request.args.push_back(std::move(wire));
  }
  return request;
}

Expected<LaunchResult> ClusterRuntime::CompleteLaunch(
    const std::shared_ptr<LaunchWork>& work, const Expected<Message>& reply,
    std::uint64_t bytes_shipped, sim::SimTime ready_at,
    CommandGraph::Execution& e) {
  const LaunchSpec& spec = work->spec;
  const std::size_t node = work->node;
  const std::uint64_t slice_first = spec.global_offset[0];
  const std::uint64_t slice_count = spec.global[0];
  const double compute_amp = timeline_->compute_amplification();
  LaunchResult result;
  result.node = node;
  result.bytes_shipped = bytes_shipped;
  HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kLaunchReply));
  auto decoded = net::Decode<net::LaunchKernelReply>(reply->payload);
  if (!decoded.ok()) return decoded.status();
  // Cache the broker snapshot piggybacked on every launch reply (also on
  // failed/backpressured ones — a rejection is exactly when the view of
  // the neighbours' backlog matters).
  {
    std::lock_guard<std::mutex> sched_lock(sched_mutex_);
    node_broker_backlog_[node] = decoded->node_backlog_seconds;
  }
  if (decoded->status_code != 0) {
    return Status(static_cast<ErrorCode>(decoded->status_code),
                  decoded->error_message);
  }

  // ---- Post-launch bookkeeping -------------------------------------------
  // No gather: outputs stay on the executing node and only the directory
  // changes. A partitioned output marks this shard's slice written here
  // (the union over shards tiles the buffer across the cluster); a
  // whole-buffer output (classic launches only) marks the full range. The
  // host shadow and every other replica are stale for those ranges until a
  // read, a migration, or a downstream launch pulls them — which a chained
  // consumer does node-to-node, without touching the host.
  for (const BufferArg& buffer_arg : work->buffers) {
    if (!buffer_arg.written) continue;
    std::lock_guard<std::mutex> lock(buffer_arg.buffer->mutex);
    const auto [begin, end] = buffer_arg.Window(slice_first, slice_count);
    buffer_arg.buffer->dir.MarkWritten(
        begin, end, static_cast<RegionDirectory::Owner>(node));
  }

  // With a cost hint the node already modeled the (amplified) analytic
  // work on ITS spec — which may legitimately differ from the host's
  // static preset; that difference is exactly what the observed-rate
  // feedback measures. Without one, the node modeled the unamplified
  // static estimate: approximate paper scale by scaling the modeled time.
  result.modeled_seconds = decoded->modeled_seconds;
  if (!spec.cost_hint.has_value() && compute_amp != 1.0) {
    result.modeled_seconds *= compute_amp;
  }
  // A pipelined stage's kernel gates on its slices' DMA arrival instead of
  // the transfer chaining ahead of the accelerator — this is where the
  // staged pipeline's overlap materializes in virtual time.
  result.virtual_completion =
      work->timing == TransferTiming::kPrefetch
          ? timeline_->RecordKernelAfter(node, result.modeled_seconds,
                                         ready_at)
          : timeline_->RecordKernel(node, result.modeled_seconds);
  e.SetSpan(result.virtual_completion - result.modeled_seconds,
            result.virtual_completion);
  // A stage drains and evicts the previous stage's slices (the last stage
  // its own too): a written slice's only fresh copy is this node, so
  // eviction spills it to the host shadow (the out-of-core writeback,
  // spill-bucketed), and input slices just drop ownership.
  for (const auto& [first, count] : work->drain) {
    for (const BufferArg& buffer_arg : work->buffers) {
      if (!buffer_arg.partitioned) continue;
      std::lock_guard<std::mutex> lock(buffer_arg.buffer->mutex);
      const auto [begin, end] = buffer_arg.Window(first, count);
      HAOCL_RETURN_IF_ERROR(EvictRangeFromNodeLocked(
          buffer_arg.id, *buffer_arg.buffer, node, begin, end));
    }
  }
  // Per-shard observed rate: this shard's modeled seconds over the flops
  // the COST MODEL charges it — the (unamplified) shard-scaled hint when
  // present, the node's static estimate otherwise. Dividing amplified
  // seconds by amplified flops keeps the rate in unamplified cost-model
  // units, so rate x task.cost.flops predicts compute seconds, and a
  // sharded and an unsplit launch of one kernel converge to the same
  // observed_seconds_per_flop. (The old sample divided the node's static
  // estimate pair regardless of the hint, so the learned rate was in
  // different units than the flops predictions multiplied it by.)
  const double sample_flops =
      (spec.cost_hint.has_value() ? spec.cost_hint->flops
                                  : static_cast<double>(decoded->flops)) *
      compute_amp;
  if (sample_flops > 0.0) {
    rate_table_->Observe(node, spec.kernel_name,
                         result.modeled_seconds / sample_flops);
  }
  // The shard is complete: refund its submit-time backlog charge (the
  // refund happens-before the command retires, so a waiter that observed
  // completion also observes the drained estimate).
  RefundBacklogCharge(node, work->backlog_charge);
  work->backlog_charge = 0.0;
  *work->plan = result;
  return result;
}

// -------------------------------------------------------------- Migration

Expected<CommandHandle> ClusterRuntime::SubmitMigrate(
    BufferId id, std::vector<MigrateRegion> regions, int target_node,
    bool discard_contents, std::vector<CommandHandle> deps,
    std::vector<CommandHandle> order_after) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (disconnected_) {
    return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
  }
  auto it = buffers_.find(id);
  if (it == buffers_.end()) {
    return Status(ErrorCode::kInvalidMemObject, "no such buffer");
  }
  BufferPtr buffer = it->second;
  if (target_node != kMigrateToHost &&
      (target_node < 0 ||
       static_cast<std::size_t>(target_node) >= nodes_.size())) {
    return Status(ErrorCode::kInvalidValue,
                  "migration target node " + std::to_string(target_node) +
                      " out of range");
  }
  if (regions.empty()) regions.push_back({0, buffer->size});
  for (const MigrateRegion& region : regions) {
    if (region.size == 0 ||
        RangeExceeds(region.offset, region.size, buffer->size)) {
      return Status(ErrorCode::kInvalidValue,
                    "migration region beyond buffer end");
    }
  }
  std::vector<CommandId> dep_ids;
  std::vector<CommandId> hazards;
  CollectDepIds(deps, &dep_ids);
  CollectDepIds(order_after, &hazards);
  for (const MigrateRegion& region : regions) {
    // Content-preserving migration reads the regions (write-after-migrate
    // must wait, migrate-after-write must see the write); discarding
    // contents WRITES them (everyone else's copy goes stale).
    if (discard_contents) {
      AddWriteHazardLocked(*buffer, region.offset,
                           region.offset + region.size, &hazards);
    } else {
      AddReadHazardLocked(*buffer, region.offset,
                          region.offset + region.size, &hazards);
    }
  }
  const CommandId cmd = graph_->Submit(
      [this, id, buffer, regions, target_node,
       discard_contents](CommandGraph::Execution&) {
        return ExecMigrate(id, buffer, regions, target_node,
                           discard_contents);
      },
      std::move(dep_ids), "migrate:buf" + std::to_string(id),
      std::move(hazards));
  for (const MigrateRegion& region : regions) {
    if (discard_contents) {
      RecordWriteLocked(*buffer, region.offset, region.offset + region.size,
                        cmd);
    } else {
      RecordReadLocked(*buffer, region.offset, region.offset + region.size,
                       cmd);
    }
  }
  return CommandHandle{cmd};
}

Status ClusterRuntime::ExecMigrate(BufferId id, const BufferPtr& buffer,
                                   const std::vector<MigrateRegion>& regions,
                                   int target_node, bool discard_contents) {
  if (target_node == kMigrateToHost) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    for (const MigrateRegion& region : regions) {
      const std::uint64_t end = region.offset + region.size;
      if (discard_contents) {
        buffer->dir.MarkWritten(region.offset, end, HostOwner());
      } else {
        HAOCL_RETURN_IF_ERROR(
            EnsureHostRangeLocked(id, *buffer, region.offset, end));
      }
    }
    return Status::Ok();
  }
  // A node-bound migration runs a launch's working-set prologue: a
  // prefetch must not overflow the tier it prefetches into, and peer-owned
  // ranges are pulled by the target like a launch's inputs.
  std::vector<WorkingRange> ranges;
  ranges.reserve(regions.size());
  for (const MigrateRegion& region : regions) {
    ranges.push_back({id, buffer, region.offset, region.offset + region.size});
  }
  WorkingSetPin pins;
  return StageWorkingSet(static_cast<std::size_t>(target_node), ranges, pins,
                         {.discard_contents = discard_contents});
}

// ---------------------------------------------- Directory introspection

Expected<BufferDirectorySnapshot> ClusterRuntime::DirectorySnapshotOf(
    BufferId id) const {
  BufferPtr buffer;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto it = buffers_.find(id);
    if (it == buffers_.end()) {
      return Status(ErrorCode::kInvalidMemObject, "no such buffer");
    }
    buffer = it->second;
  }
  std::lock_guard<std::mutex> lock(buffer->mutex);
  BufferDirectorySnapshot snapshot;
  snapshot.size = buffer->size;
  snapshot.epoch = buffer->dir.epoch();
  snapshot.stats = buffer->stats;
  for (const RegionDirectory::Region& region : buffer->dir.regions()) {
    BufferDirectorySnapshot::Region out;
    out.begin = region.begin;
    out.end = region.end;
    out.epoch = region.epoch;
    for (RegionDirectory::Owner owner : region.owners) {
      out.owners.push_back(owner == HostOwner()
                               ? -1
                               : static_cast<std::int32_t>(owner));
    }
    snapshot.regions.push_back(std::move(out));
  }
  return snapshot;
}

TransferStats ClusterRuntime::transfer_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

Expected<NodeMemoryStats> ClusterRuntime::NodeMemoryStatsOf(
    std::size_t node) const {
  if (node >= node_pools_.size()) {
    return Status(ErrorCode::kInvalidValue,
                  "node " + std::to_string(node) + " out of range");
  }
  NodeMemoryStats stats;
  stats.capacity_bytes = node_pools_[node]->capacity();
  stats.resident_bytes = node_pools_[node]->resident_bytes();
  stats.free_bytes = node_pools_[node]->free_bytes();
  return stats;
}

// ---------------------------------------------------- Waits and queries

Status ClusterRuntime::Wait(CommandHandle handle) {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  return graph_->Wait(handle.id);
}

Status ClusterRuntime::Finish() { return graph_->WaitAll(); }

Expected<CommandState> ClusterRuntime::CommandStateOf(
    CommandHandle handle) const {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  return graph_->QueryState(handle.id);
}

Expected<CommandProfile> ClusterRuntime::CommandProfileOf(
    CommandHandle handle) const {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  return graph_->QueryProfile(handle.id);
}

Expected<LaunchResult> ClusterRuntime::LaunchResultOf(
    CommandHandle handle) const {
  std::shared_ptr<LaunchPlan> plan;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto it = launch_plans_.find(handle.id);
    if (it == launch_plans_.end()) {
      return Status(ErrorCode::kInvalidValue,
                    "command " + std::to_string(handle.id) +
                        " is not a launch");
    }
    plan = it->second;
  }
  auto state = graph_->QueryState(handle.id);  // Synchronizes with retire.
  if (!state.ok()) return state.status();
  if (*state != CommandState::kComplete || !plan->has_value()) {
    return Status(ErrorCode::kInvalidOperation,
                  "launch " + std::to_string(handle.id) +
                      " has not completed");
  }
  return **plan;
}

Expected<std::vector<CommandHandle>> ClusterRuntime::LaunchShardsOf(
    CommandHandle handle) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto fan = fan_outs_.find(handle.id);
  if (fan != fan_outs_.end()) {
    std::vector<CommandHandle> shards;
    shards.reserve(fan->second.size());
    for (CommandId id : fan->second) shards.push_back(CommandHandle{id});
    return shards;
  }
  if (launch_plans_.count(handle.id) != 0) {
    return std::vector<CommandHandle>{handle};  // Single-shard launch.
  }
  return Status(ErrorCode::kInvalidValue,
                "command " + std::to_string(handle.id) + " is not a launch");
}

Status ClusterRuntime::RetainCommand(CommandHandle handle) {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  graph_->Retain(handle.id);
  return Status::Ok();
}

Status ClusterRuntime::ReleaseCommand(CommandHandle handle) {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  if (!graph_->Release(handle.id)) return Status::Ok();  // Still retained.
  // Last reference gone: drop the launch bookkeeping, including the
  // runtime-held references on a fan-out's shard commands.
  std::vector<CommandId> shards;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    launch_plans_.erase(handle.id);
    auto fan = fan_outs_.find(handle.id);
    if (fan != fan_outs_.end()) {
      shards = std::move(fan->second);
      fan_outs_.erase(fan);
    }
    for (CommandId shard : shards) launch_plans_.erase(shard);
  }
  for (CommandId shard : shards) graph_->Release(shard);
  return Status::Ok();
}

std::uint32_t ClusterRuntime::InFlightOn(std::size_t node) const {
  std::lock_guard<std::mutex> lock(sched_mutex_);
  return node < in_flight_.size() ? in_flight_[node] : 0;
}

Expected<CommandHandle> ClusterRuntime::SubmitMarker(
    std::vector<CommandHandle> deps) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (disconnected_) {
    return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
  }
  std::vector<CommandId> dep_ids;
  CollectDepIds(deps, &dep_ids);
  return CommandHandle{graph_->SubmitManual(std::move(dep_ids))};
}

Status ClusterRuntime::CompleteMarker(CommandHandle handle, Status status) {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  return graph_->Complete(handle.id, std::move(status));
}

// ------------------------------------------- Blocking convenience wrappers

Status ClusterRuntime::WriteBuffer(BufferId id, std::uint64_t offset,
                                   const void* data, std::uint64_t size) {
  auto handle = SubmitWrite(id, offset, data, size);
  if (!handle.ok()) return handle.status();
  Status status = Wait(*handle);
  (void)ReleaseCommand(*handle);  // Consumed here; reclaim the record.
  return status;
}

Status ClusterRuntime::ReadBuffer(BufferId id, std::uint64_t offset,
                                  void* data, std::uint64_t size) {
  auto handle = SubmitRead(id, offset, data, size);
  if (!handle.ok()) return handle.status();
  Status status = Wait(*handle);
  (void)ReleaseCommand(*handle);
  return status;
}

Expected<LaunchResult> ClusterRuntime::LaunchKernel(const LaunchSpec& spec) {
  auto handle = SubmitLaunch(spec);
  if (!handle.ok()) return handle.status();
  const Status wait_status = Wait(*handle);
  Expected<LaunchResult> result =
      wait_status.ok() ? LaunchResultOf(*handle)
                       : Expected<LaunchResult>(wait_status);
  // Synchronous callers consume the result here; drop the bookkeeping
  // (success or failure) so tight launch loops don't accumulate records.
  (void)ReleaseCommand(*handle);
  return result;
}

// ------------------------------------------------------------- Monitoring

Status ClusterRuntime::SetScheduler(const std::string& policy_name) {
  auto policy = sched::MakePolicyByName(policy_name);
  if (!policy.ok()) return policy.status();
  std::lock_guard<std::mutex> lock(sched_mutex_);
  policy_ = *std::move(policy);
  scheduler_name_ = policy_name;
  return Status::Ok();
}

Expected<sched::ClusterView> ClusterRuntime::QueryClusterView() {
  // Poll all nodes in parallel (overlapped RPC), then merge with the
  // host-side scheduler accounting.
  std::vector<net::RpcClient::ReplyFuture> futures;
  futures.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    futures.push_back(nodes_[i]->main().CallAsync(MsgType::kQueryBroker,
                                                  options_.session_id, {}));
  }
  std::vector<std::optional<net::BrokerStatsReply>> reports(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto* reply = futures[i]->WaitFor(options_.rpc_timeout);
    if (reply == nullptr || !CheckReply(*reply, MsgType::kBrokerReply).ok()) {
      continue;
    }
    auto report = net::Decode<net::BrokerStatsReply>((*reply)->payload);
    if (!report.ok()) continue;
    // Fold the broker's shared rates in first (only seeds kernels this
    // session has no local samples for) so the view below reflects them.
    for (const net::WireKernelRate& rate : report->kernel_rates) {
      rate_table_->Seed(i, rate.kernel, rate.seconds_per_flop, rate.samples);
    }
    reports[i] = *std::move(report);
  }
  std::lock_guard<std::mutex> lock(sched_mutex_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!reports[i].has_value()) continue;
    node_broker_backlog_[i] = reports[i]->backlog_seconds;
  }
  sched::ClusterView view = ClusterViewLocked(/*kernel_name=*/"");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!reports[i].has_value()) {
      view.nodes[i].alive = false;  // Silent or garbled: not schedulable.
      continue;
    }
    view.nodes[i].queue_depth += reports[i]->queue_depth;
    for (const net::BrokerTenantEntry& tenant : reports[i]->tenants) {
      if (tenant.session == options_.session_id) {
        view.nodes[i].kernels_executed = tenant.kernels_completed;
      }
    }
  }
  return view;
}

Expected<net::BrokerStatsReply> ClusterRuntime::QueryBrokerStats(
    std::size_t node) {
  if (node >= nodes_.size()) {
    return Status(ErrorCode::kInvalidValue,
                  "no node " + std::to_string(node));
  }
  auto reply = CallNode(node, MsgType::kQueryBroker, {});
  HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kBrokerReply));
  return net::Decode<net::BrokerStatsReply>(reply->payload);
}

double ClusterRuntime::SchedulerBacklogSeconds(std::size_t node) const {
  std::lock_guard<std::mutex> lock(sched_mutex_);
  return node < node_busy_ahead_.size() ? node_busy_ahead_[node] : 0.0;
}

sched::KernelRateTable::Rate ClusterRuntime::ObservedKernelRate(
    std::size_t node, const std::string& kernel_name) const {
  return rate_table_->Lookup(node, kernel_name);
}

std::uint64_t ClusterRuntime::TotalBytesSent() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->bytes_sent();
  return total;
}

std::size_t ClusterRuntime::LaneCount(std::size_t node) const {
  return node < nodes_.size() ? nodes_[node]->lane_count() : 0;
}

Status ClusterRuntime::ProbeNode(std::size_t node) {
  if (node >= nodes_.size()) {
    return Status(ErrorCode::kInvalidValue,
                  "no node " + std::to_string(node));
  }
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    if (node_dead_[node]) {
      return Status(ErrorCode::kNodeLost,
                    "node " + std::to_string(node) + " is marked dead");
    }
  }
  // The heartbeat is answered on the node's receive path, ahead of its
  // command queue, so a node busy with a long kernel still answers.
  auto reply = CallNode(node, MsgType::kHeartbeat, {});
  HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kStatusReply));
  auto decoded = net::Decode<net::StatusReply>(reply->payload);
  if (!decoded.ok()) return decoded.status();
  return decoded->ToStatus();
}

bool ClusterRuntime::NodeAlive(std::size_t node) const {
  std::lock_guard<std::mutex> lock(sched_mutex_);
  return node < node_dead_.size() && !node_dead_[node];
}

Expected<std::vector<ClusterRuntime::LostRange>> ClusterRuntime::MarkNodeLost(
    std::size_t node) {
  if (node >= nodes_.size()) {
    return Status(ErrorCode::kInvalidValue,
                  "no node " + std::to_string(node));
  }
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    if (node_dead_[node]) return std::vector<LostRange>{};  // Idempotent.
    node_dead_[node] = true;
    // Its backlog will never drain; zero it so planners stop seeing it.
    node_busy_ahead_[node] = 0.0;
  }
  // Sever the wire, lanes included: every in-flight RPC to the node fails
  // fast instead of waiting out its timeout, and nothing new can be sent.
  nodes_[node]->Close();

  // Directory fail-over. For every buffer region whose owner set contains
  // the dead node:
  //   - co-owned regions just drop the dead owner (a live replica keeps
  //     the bytes fresh — the chunks that produced them must NOT re-run);
  //   - sole-owner regions are lost. They keep the dead owner, so whatever
  //     needs them next fails on the dead node rather than reading the
  //     shadow, which holds fresh bytes there only where a caller knows it
  //     does (an elastic launch's pre-image).
  std::vector<std::pair<BufferId, BufferPtr>> snapshot;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    snapshot.reserve(buffers_.size());
    for (const auto& [id, buffer] : buffers_) snapshot.emplace_back(id, buffer);
  }
  const auto dead = static_cast<RegionDirectory::Owner>(node);
  std::vector<LostRange> lost;
  for (auto& [id, buffer] : snapshot) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    // Query returns a copy, so the directory may change under the loop.
    for (const RegionDirectory::Region& region :
         buffer->dir.Query(0, buffer->size)) {
      if (std::find(region.owners.begin(), region.owners.end(), dead) ==
          region.owners.end()) {
        continue;
      }
      if (region.owners.size() == 1) {
        lost.push_back({id, region.begin, region.end});
      } else {
        buffer->dir.RemoveOwner(region.begin, region.end, dead);
      }
    }
    if (node < buffer->allocated_on.size()) {
      buffer->allocated_on[node] = false;
    }
  }
  HAOCL_INFO << "node " << node << " marked lost with " << lost.size()
             << " sole-owner regions";
  return lost;
}

void ClusterRuntime::Disconnect() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (disconnected_) return;
    disconnected_ = true;
  }
  // Drain or fail every in-flight command before the wires go away.
  if (graph_ != nullptr) graph_->Shutdown();
  for (auto& node : nodes_) {
    // Close the session FIRST so the node tears down its DeviceSession and
    // unregisters the broker tenancy — a churny client (thousands of
    // short-lived sessions) must not leak node-side state. kShutdown then
    // only stops the worker; its handler cleans up again idempotently as a
    // belt-and-braces for clients predating this ordering.
    (void)node->main().Notify(MsgType::kCloseSession, options_.session_id,
                              {});
    (void)node->main().Notify(MsgType::kShutdown, options_.session_id, {});
    node->Close();  // The main link and every lane.
  }
}

}  // namespace haocl::host
