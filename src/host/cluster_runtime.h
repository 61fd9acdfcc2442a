// ClusterRuntime: the host-side heart of HaoCL.
//
// Owns one RPC channel per device node, the cluster-wide device table
// (built through the paper's clGetDeviceIDs "mapping mechanism"), logical
// buffers with a single-writer coherence protocol, program builds, and
// kernel dispatch through the pluggable scheduler. The OpenCL Wrapper Lib
// (src/api) is a thin C shim over this class.
//
// Dispatch model: every operation is a command in an asynchronous command
// graph (host/command_graph.h). The Submit* surface returns CommandHandle
// futures with explicit dependency lists; the runtime adds the implicit
// read-after-write / write-after-read hazards per buffer, so independent
// commands run concurrently — node RPCs go through RpcClient::CallAsync
// and transfers/kernels targeting distinct nodes are in flight
// simultaneously. The classic blocking calls (WriteBuffer, ReadBuffer,
// LaunchKernel) are submit-then-wait wrappers over the same graph.
//
// Issue-ahead: a write on a node's queue, a one-shard launch or a read
// that is one frame to one node N (a transfer large enough to stripe over
// N's lanes is several frames, see net::LaneSet), whose every unretired
// predecessor already holds a place in N's issue order, takes a place
// there too at submit. Its frame leaves as soon as the frames ahead of it
// have — a launch or read from the submitting thread, a write's bytes
// only from its own graph worker — naming the first of its in-flight
// predecessors (after_seq), so the node skips it if one of them failed.
// Its graph body only awaits the reply and runs the epilogue, in graph
// order; a skipped command re-runs its classic body there. Every other
// command runs its classic body (both halves back to back) on a graph
// worker (docs/async_api.md).
//
// Buffer coherence: a region directory per logical buffer maps every byte
// range to the set of participants holding a fresh copy (device nodes plus
// the host shadow, which is just another peer) and the dirty epoch of the
// write that produced it. A launch prologue sources each missing input
// range from whichever owner is freshest: straight from the host shadow
// when the host owns it, otherwise node-to-node (kPullSlice) with a
// host-relay fallback when the nodes have no direct link. Launch epilogues
// only update the directory — outputs stay on the executing nodes. A read
// receives what the host does not own straight from an owning node into
// the caller's memory and leaves the directory as it was; only host-bound
// movement (copies, relays, spills, host migrations, elastic pre-images)
// gathers into the shadow, range by range. A write on a node's queue
// ships the caller's bytes straight to that node. Chained partitioned
// launches therefore move zero payload bytes through the host between
// producer and consumer, and a write or a read moves its bytes once
// between the caller's pointer and a node (docs/memory_model.md). The
// bookkeeping lives in per-command prologues under per-buffer locks,
// ordered by the graph — not under a runtime-wide lock.
//
// Placement plans: SubmitLaunch asks the policy's PlanLaunch for an
// ordered list of {node, offset, count} shards over dimension 0 of the
// NDRange and fans out one sub-launch per shard (single-shard plans are
// the classic one-node path). For multi-shard plans, coherence turns
// region-granular on kPartitionedDim0 args: each shard ships only its
// input slice and gathers its output slice back into the host shadow, so
// one kernel co-executes across heterogeneous nodes bit-identically to
// the single-node run.
//
// One launch front end: every launch resolves the spec
// (ResolveLaunchLocked), builds the scheduler's view (ClusterViewLocked)
// and plans (PlanLaunchLocked), then cuts its plan with
// sched::ChunkifyPlan — into out-of-core stages for an oversubscribed
// shard, into steal-able chunks for an elastic launch (LaunchSpec::elastic,
// one command that runs its chunks itself: host/elastic_launch.cc).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/zeroed_bytes.h"
#include "elastic/fault_injector.h"
#include "elastic/steal_coordinator.h"
#include "host/command_graph.h"
#include "host/region_directory.h"
#include "host/virtual_timeline.h"
#include "net/lanes.h"
#include "net/protocol.h"
#include "net/rpc.h"
#include "oclc/program.h"
#include "runtime/memory_pool.h"
#include "sched/rate_table.h"
#include "sched/scheduler.h"

namespace haocl::host {

using BufferId = std::uint64_t;
using ProgramId = std::uint64_t;

// One entry of the cluster-wide device table.
struct DeviceInfo {
  std::string name;
  NodeType type = NodeType::kCpu;
  std::string model;
  double compute_gflops = 0.0;
  // Device memory capacity from the handshake (0 = unbounded): the budget
  // the node's memory tier is managed against.
  std::uint64_t mem_capacity_bytes = 0;
};

// One kernel argument as the application binds it (clSetKernelArg).
struct KernelArgValue {
  enum class Kind : std::uint8_t { kBuffer, kScalar, kLocalSize };
  // How the kernel's work-items touch a buffer argument, which decides
  // what a partitioned (multi-shard) launch ships:
  //   kReplicated      - any work-item may touch any byte; the whole
  //                      buffer goes to every shard's node (the classic
  //                      behaviour, and the default).
  //   kPartitionedDim0 - work-item with global id g touches only bytes
  //                      [g*stride, (g+1)*stride): each shard ships and
  //                      gathers just its slice. A launch is splittable
  //                      across nodes only when every buffer the kernel
  //                      WRITES carries this annotation.
  enum class Access : std::uint8_t { kReplicated = 0, kPartitionedDim0 = 1 };
  Kind kind = Kind::kScalar;
  BufferId buffer = 0;
  std::vector<std::uint8_t> scalar_bytes;
  std::uint64_t local_size = 0;
  Access access = Access::kReplicated;
  std::uint64_t partition_stride = 0;  // Bytes per dim-0 index.

  static KernelArgValue Buffer(BufferId id) {
    KernelArgValue v;
    v.kind = Kind::kBuffer;
    v.buffer = id;
    return v;
  }
  // Buffer whose rows follow dimension 0 of the NDRange: `stride_bytes`
  // per global index (e.g. a row-partitioned N x N float matrix launched
  // over N rows has stride 4*N).
  static KernelArgValue PartitionedBuffer(BufferId id,
                                          std::uint64_t stride_bytes) {
    KernelArgValue v = Buffer(id);
    v.access = Access::kPartitionedDim0;
    v.partition_stride = stride_bytes;
    return v;
  }
  template <typename T>
  static KernelArgValue Scalar(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    KernelArgValue v;
    v.kind = Kind::kScalar;
    v.scalar_bytes.resize(sizeof(T));
    std::memcpy(v.scalar_bytes.data(), &value, sizeof(T));
    return v;
  }
  static KernelArgValue Local(std::uint64_t bytes) {
    KernelArgValue v;
    v.kind = Kind::kLocalSize;
    v.local_size = bytes;
    return v;
  }
};

struct LaunchResult {
  std::size_t node = 0;            // Shard's node; for aggregates of a
                                   // multi-shard launch, the node that ran
                                   // the largest shard.
  double modeled_seconds = 0.0;    // Device-model kernel time (aggregate:
                                   // slowest shard — shards run in
                                   // parallel; a shard's serial stages sum).
  std::uint64_t bytes_shipped = 0; // Input data moved for this launch.
  sim::SimTime virtual_completion = 0.0;  // Aggregate: last shard done.
  std::uint32_t shard_count = 1;   // Placement-plan shards (1 = classic).
  // Total sub-launches executed: == shard_count when every shard ran
  // in-core, larger when oversubscribed shards were decomposed into
  // pipelined out-of-core stages; an elastic launch's chunk count.
  std::uint32_t stage_count = 1;
  // An elastic launch's coordinator report (chunk counts, modeled
  // makespan, dead nodes); empty for every other launch.
  std::optional<elastic::CoordinatorReport> elastic;
};

struct RuntimeOptions {
  std::string scheduler = "user";   // Policy name (sched registry).
  // Out-of-core staging: which chain a stage's slice transfers ride. True
  // (default) ships them on the node's DMA chain, so stage k+1's slices
  // land while stage k computes (libhclooc's pipeline); false puts them on
  // the node's command chain behind the previous stage's compute — the
  // naive-staging baseline BENCH_ooc.json compares against.
  bool stage_pipeline = true;
  std::uint64_t session_id = 1;
  std::string host_name = "haocl-host";
  // Per-RPC deadline: a call a node leaves unanswered this long fails with
  // kNetworkError.
  std::chrono::milliseconds rpc_timeout{30000};
  // ---- Multi-tenant serving (node broker) ----
  // Tenant identity registered with every node's broker at Connect
  // (empty = host_name). Weight is the relative fair-share service rate
  // the broker's arbitration grants this session under contention;
  // mem_quota_bytes caps this session's resident device bytes per node
  // (0 = only the shared device capacity applies).
  std::string tenant_name;
  double tenant_weight = 1.0;
  std::uint64_t tenant_mem_quota_bytes = 0;
};

// Future onto a command in the runtime's graph. Plain value; copy freely.
struct CommandHandle {
  CommandId id = kNullCommand;
  [[nodiscard]] bool valid() const { return id != kNullCommand; }
};

// One byte range of a migration request (SubmitMigrate).
struct MigrateRegion {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

// Cumulative payload movement, runtime-wide or per buffer. "Host payload"
// is every byte that crossed the host NIC as data: a write on a node's
// queue and a read count when they move, a write into the host shadow
// only once a launch ships it.
struct TransferStats {
  std::uint64_t host_bytes_out = 0;  // Host -> node (shadow runs, writes).
  std::uint64_t host_bytes_in = 0;   // Node -> host (reads, gathers).
  std::uint64_t p2p_bytes = 0;       // Node -> node direct (pulls).
  std::uint64_t relay_bytes = 0;     // Peer miss relayed through the host.
  std::uint64_t relay_transfers = 0;
  // Tiered-memory traffic, counted apart from the coherence buckets above
  // so capacity pressure does not pollute the host-payload metric the P2P
  // benches assert on: spill_bytes is node -> host-shadow writeback of a
  // sole fresh copy (eviction of a last owner, staged-launch output
  // drain); evicted_bytes counts every byte released from a node's pool,
  // with or without wire traffic.
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_transfers = 0;
  std::uint64_t evicted_bytes = 0;
  // Elastic execution: bytes shipped for chunk RE-executions (a chunk
  // that ran before, on a node that died or in a failed attempt —
  // movement a fault-free run would not have paid).
  std::uint64_t reexec_bytes = 0;
  [[nodiscard]] std::uint64_t host_payload_bytes() const {
    return host_bytes_out + host_bytes_in;
  }
};

// Point-in-time view of one node's memory tier (host-side ledger).
struct NodeMemoryStats {
  std::uint64_t capacity_bytes = 0;  // 0 = unbounded.
  std::uint64_t resident_bytes = 0;  // Accounted materialized regions.
  std::uint64_t free_bytes = 0;      // capacity - resident (~0 unbounded).
};

// Point-in-time view of one buffer's region directory (tests/bench).
struct BufferDirectorySnapshot {
  struct Region {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint64_t epoch = 0;          // Dirty epoch of the producing write.
    // Fresh-copy holders: node indices ascending, then -1 for the host
    // shadow (when it co-owns).
    std::vector<std::int32_t> owners;
  };
  std::uint64_t size = 0;
  std::uint64_t epoch = 0;     // Buffer-wide dirty epoch counter.
  std::vector<Region> regions;  // Ordered, gap-free tiling of [0, size).
  TransferStats stats;          // Movement attributed to this buffer.
  [[nodiscard]] bool HostOwns(std::uint64_t begin, std::uint64_t end) const {
    for (const Region& r : regions) {
      if (r.end <= begin || r.begin >= end) continue;
      bool host = false;
      for (std::int32_t owner : r.owners) host |= owner < 0;
      if (!host) return false;
    }
    return true;
  }
};

class RuntimeChunkExecutor;  // host/elastic_launch.cc adapter.

class ClusterRuntime {
 public:
  using Options = RuntimeOptions;

  // Performs the hello handshake on every connection and builds the device
  // table. Connection order defines node indices.
  static Expected<std::unique_ptr<ClusterRuntime>> Connect(
      std::vector<net::ConnectionPtr> connections, Options options = {});

  ~ClusterRuntime();
  ClusterRuntime(const ClusterRuntime&) = delete;
  ClusterRuntime& operator=(const ClusterRuntime&) = delete;

  // ---- Device table ------------------------------------------------------
  [[nodiscard]] const std::vector<DeviceInfo>& devices() const {
    return devices_;
  }
  [[nodiscard]] std::vector<std::size_t> DevicesOfType(NodeType type) const;

  // ---- Buffers -----------------------------------------------------------
  Expected<BufferId> CreateBuffer(std::uint64_t size);
  // Returns immediately; remote teardown runs as a graph command ordered
  // after the buffer's in-flight users (never blocks the caller, so a
  // release while commands are gated on an unresolved marker is safe).
  Status ReleaseBuffer(BufferId id);

  // ---- Programs ----------------------------------------------------------
  // Compiles locally (for kernel metadata and immediate diagnostics, a
  // SnuCL-D-style redundant computation) and lazily on nodes at first use.
  Expected<ProgramId> BuildProgram(const std::string& source);
  [[nodiscard]] std::string BuildLog(ProgramId id) const;
  [[nodiscard]] Expected<const oclc::CompiledFunction*> FindKernel(
      ProgramId id, const std::string& kernel_name) const;
  Status ReleaseProgram(ProgramId id);  // Deferred past in-flight launches.

  // ---- Kernel dispatch ---------------------------------------------------
  // Elastic execution (src/elastic): a spec with `elastic` set runs one
  // splittable launch as one command that cuts the plan's shards into
  // chunks and drains them with a StealCoordinator: drained nodes steal
  // tail chunks from the slowest peer, and a node that dies mid-launch has
  // its chunks re-queued onto survivors from directory state — the launch
  // completes bit-identical either way. The options are the coordinator's
  // plus how the launch is cut into chunks.
  struct ElasticOptions : elastic::CoordinatorOptions {
    // Dim-0 indices per chunk (aligned up to the launch's dim0_align);
    // 0 = cut each shard into kDefaultChunksPerShard chunks. Capped so a
    // chunk fits double-buffered on every node (sched::StageRows).
    std::uint64_t chunk_rows = 0;
    static constexpr std::uint64_t kDefaultChunksPerShard = 4;
    // Deterministic scripted faults (tests/bench); not owned, may be null.
    elastic::FaultInjector* fault_injector = nullptr;
  };
  struct LaunchSpec {
    ProgramId program = 0;
    std::string kernel_name;
    std::vector<KernelArgValue> args;
    std::uint32_t work_dim = 1;
    std::uint64_t global[3] = {1, 1, 1};
    std::uint64_t local[3] = {1, 1, 1};
    // clEnqueueNDRangeKernel's global_work_offset: shifts get_global_id
    // without changing the range. Shard offsets compose on top of it.
    std::uint64_t global_offset[3] = {0, 0, 0};
    bool local_specified = false;
    int preferred_node = -1;  // User instruction; -1 lets the policy pick.
    // force_node >= 0 bypasses the policy entirely: the whole range runs
    // on that node as one shard. An elastic launch refuses it: its
    // coordinator places every chunk.
    int force_node = -1;
    std::optional<ElasticOptions> elastic;  // Set: an elastic launch.
    // Analytic work estimate. The driver's static estimator cannot see
    // data-dependent loop trip counts (e.g. the N-iteration dot product in
    // naive matmul), so workloads that know their exact flop/byte counts
    // pass them here; the scheduler's cost model and the virtual timeline
    // use the hint instead of the static estimate.
    std::optional<sim::KernelCost> cost_hint;
  };

  // ---- Asynchronous command-graph dispatch -------------------------------
  // Each Submit* validates its operands, enqueues a graph command ordered
  // after `deps` plus the implicit per-buffer hazards, and returns without
  // touching the network. Wait()/Finish() block on completion; failures
  // (including failed dependencies) surface as the command's status.
  // `deps` are strong (a failed predecessor fails this command);
  // `order_after` only sequences (a failed predecessor merely unblocks) —
  // the shim's in-order queue chaining uses the latter.
  //
  // Both data pointers are borrowed until the command completes (OpenCL
  // 1.2 §5.2.2): SubmitWrite reads `data` when the command *executes*, so
  // the caller must keep it valid and unchanged until then; SubmitRead
  // scribbles into `data` when it executes.
  //
  // `node` is the device of the queue the write was enqueued on. A write
  // on a live node's queue ships `data` straight to that node, which
  // becomes the range's sole owner; kClusterDevice (the virtual cluster
  // device, whose launches the scheduler places later), a dead node, or a
  // node whose memory tier cannot take the range lands the bytes in the
  // host shadow instead, and the first launch that needs them ships them.
  // A read receives what the host does not own straight from an owning
  // node into `data`; it does not make the host an owner.
  static constexpr int kClusterDevice = -1;
  Expected<CommandHandle> SubmitWrite(BufferId id, std::uint64_t offset,
                                      const void* data, std::uint64_t size,
                                      int node = kClusterDevice,
                                      std::vector<CommandHandle> deps = {},
                                      std::vector<CommandHandle> order_after = {});
  Expected<CommandHandle> SubmitRead(BufferId id, std::uint64_t offset,
                                     void* data, std::uint64_t size,
                                     std::vector<CommandHandle> deps = {},
                                     std::vector<CommandHandle> order_after = {});
  Expected<CommandHandle> SubmitCopy(BufferId src, std::uint64_t src_offset,
                                     BufferId dst, std::uint64_t dst_offset,
                                     std::uint64_t size,
                                     std::vector<CommandHandle> deps = {},
                                     std::vector<CommandHandle> order_after = {});
  // Asks the scheduling policy for a PlacementPlan and fans out one
  // sub-launch command per shard (plus an aggregating join for multi-shard
  // plans); an elastic launch is one command that runs the plan's chunks
  // itself. The returned handle always behaves like one launch: Wait()
  // blocks until every shard finished, LaunchResultOf() reports the
  // aggregate, and buffer hazards order later commands after the whole
  // fan-out. Per-shard commands are queryable via LaunchShardsOf.
  Expected<CommandHandle> SubmitLaunch(const LaunchSpec& spec,
                                       std::vector<CommandHandle> deps = {},
                                       std::vector<CommandHandle> order_after = {});
  // Migrates `regions` of the buffer (empty = the whole buffer) so that
  // `target_node` holds a fresh copy: a prefetch that moves coherence
  // traffic off the critical path (clEnqueueMigrateMemObjects). Content is
  // preserved — the target joins each region's owner set; existing owners
  // stay valid. `target_node` == kMigrateToHost gathers into the host
  // shadow (the lazy gather, forced early). The target pulls peer-owned
  // ranges node-to-node (kPullSlice) when possible, relaying through the
  // host otherwise. With `discard_contents` no bytes move at all: the target
  // becomes the exclusive owner and prior contents become undefined
  // (CL_MIGRATE_MEM_OBJECT_CONTENT_UNDEFINED).
  static constexpr int kMigrateToHost = -1;
  Expected<CommandHandle> SubmitMigrate(
      BufferId id, std::vector<MigrateRegion> regions, int target_node,
      bool discard_contents = false, std::vector<CommandHandle> deps = {},
      std::vector<CommandHandle> order_after = {});

  // Marker (user event / barrier): completes only via CompleteMarker.
  Expected<CommandHandle> SubmitMarker(std::vector<CommandHandle> deps = {});
  Status CompleteMarker(CommandHandle handle, Status status = Status::Ok());

  Status Wait(CommandHandle handle);
  Status Finish();  // Drains every submitted command (markers included).
  [[nodiscard]] Expected<CommandState> CommandStateOf(
      CommandHandle handle) const;
  [[nodiscard]] Expected<CommandProfile> CommandProfileOf(
      CommandHandle handle) const;
  // LaunchResult of a completed SubmitLaunch command; for multi-shard
  // launches, the aggregate over all shards. Available until the handle
  // is released (ReleaseCommand / the blocking wrappers).
  [[nodiscard]] Expected<LaunchResult> LaunchResultOf(
      CommandHandle handle) const;
  // The per-shard commands behind a launch handle, in plan (offset)
  // order; a single-shard launch returns the handle itself. Shard handles
  // stay valid while the launch handle is retained, and each supports
  // CommandStateOf / CommandProfileOf / LaunchResultOf.
  [[nodiscard]] Expected<std::vector<CommandHandle>> LaunchShardsOf(
      CommandHandle handle) const;
  // Record lifetime (the clRetainEvent/clReleaseEvent analogue): every
  // Submit* handle is born holding one reference; releasing the last one
  // reclaims the command's bookkeeping once it retires, keeping
  // million-enqueue sessions bounded. Querying a released handle
  // (CommandStateOf / CommandProfileOf / LaunchResultOf) is an error;
  // Wait on one returns Ok once the command retired — releasing forfeits
  // its failure status along with the record. The blocking wrappers
  // release internally.
  Status RetainCommand(CommandHandle handle);
  Status ReleaseCommand(CommandHandle handle);
  // Commands dispatched to `node` whose RPCs have not completed yet.
  [[nodiscard]] std::uint32_t InFlightOn(std::size_t node) const;
  [[nodiscard]] CommandGraph& graph() { return *graph_; }

  // ---- Blocking convenience wrappers (submit + wait) ---------------------
  Status WriteBuffer(BufferId id, std::uint64_t offset, const void* data,
                     std::uint64_t size);
  Status ReadBuffer(BufferId id, std::uint64_t offset, void* data,
                    std::uint64_t size);
  Expected<LaunchResult> LaunchKernel(const LaunchSpec& spec);

  // ---- Node liveness ------------------------------------------------------
  // One heartbeat round-trip to `node`; Ok = alive. A node already marked
  // dead fails immediately with kNodeLost.
  Status ProbeNode(std::size_t node);
  // Declares `node` dead: excluded from future plans (NodeView.alive) and
  // launches forced onto it fail with kNodeLost. A region co-owned with
  // another node or the host just drops the dead owner. A region whose
  // ONLY fresh copy lived there keeps the dead node as its owner, so a
  // later read or launch that needs it fails instead of returning stale
  // shadow bytes. Returns those sole-owner regions — the data that was
  // actually lost. An elastic launch's recovery hands the ones inside its
  // buffer args' windows to the host (the shadow holds its pre-image
  // there) and re-executes exactly the chunks that produced them.
  struct LostRange {
    BufferId buffer = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  Expected<std::vector<LostRange>> MarkNodeLost(std::size_t node);
  [[nodiscard]] bool NodeAlive(std::size_t node) const;

  // ---- Scheduling / monitoring -------------------------------------------
  Status SetScheduler(const std::string& policy_name);
  [[nodiscard]] const std::string& scheduler_name() const {
    return scheduler_name_;
  }
  // Polls every node's report (the runtime resource monitor: queue depth,
  // backlog, shared kernel rates and this session's completed kernels) and
  // merges the host-side in-flight depth per node.
  Expected<sched::ClusterView> QueryClusterView();
  // Modeled seconds of launch work submitted to `node` and not yet
  // completed — the backlog estimate load-aware policies steer on.
  // Charged at submit from the cost model's prediction, refunded when the
  // shard completes (or retires through any failure path), so a drained
  // runtime reads ~0 on every node.
  [[nodiscard]] double SchedulerBacklogSeconds(std::size_t node) const;
  // Observed per-(node, kernel) runtime profile: EWMA seconds-per-flop
  // fed by every completed launch shard (samples == 0 until the kernel
  // has completed a shard on the node). What `adaptive_split` re-plans
  // shard boundaries from between chained launches.
  [[nodiscard]] sched::KernelRateTable::Rate ObservedKernelRate(
      std::size_t node, const std::string& kernel_name) const;
  // Snapshot of `node`'s report: its queue depth, the broker's shared
  // ledger, every tenant's serving stats (all sessions, not just this
  // one), and the shared kernel-rate table. One RPC.
  Expected<net::BrokerStatsReply> QueryBrokerStats(std::size_t node);

  // ---- Virtual time ------------------------------------------------------
  [[nodiscard]] VirtualTimeline& timeline() { return *timeline_; }

  // Total bytes sent over all channels, every lane of every node
  // (functional, not modeled).
  [[nodiscard]] std::uint64_t TotalBytesSent() const;
  // Connections open to `node`: its main link plus the lanes a striped
  // transfer dialed (net::LaneSet).
  [[nodiscard]] std::size_t LaneCount(std::size_t node) const;

  // ---- Tiered memory introspection ---------------------------------------
  // The host-side ledger of one node's memory tier. The node keeps its own
  // pool fed by the transfers it observes plus explicit notices; the two
  // agree whenever the runtime is drained (the broker tenant's
  // resident_bytes in QueryBrokerStats).
  [[nodiscard]] Expected<NodeMemoryStats> NodeMemoryStatsOf(
      std::size_t node) const;

  // ---- Region directory introspection ------------------------------------
  // Snapshot of one buffer's directory + per-buffer transfer counters.
  // Drain in-flight users of the buffer first (Wait/Finish) for a stable
  // picture; the snapshot itself is internally consistent either way.
  [[nodiscard]] Expected<BufferDirectorySnapshot> DirectorySnapshotOf(
      BufferId id) const;
  // Runtime-wide cumulative coherence movement.
  [[nodiscard]] TransferStats transfer_stats() const;

  void Disconnect();

 private:
  ClusterRuntime(Options options);
  // Bridges the StealCoordinator's ChunkExecutor onto this runtime
  // (host/elastic_launch.cc).
  friend class RuntimeChunkExecutor;

  struct LogicalBuffer {
    // Guards the coherence fields (shadow, dir, allocated_on, stats) and
    // serializes transfers of this buffer; commands touching different
    // buffers proceed in parallel.
    std::mutex mutex;
    std::uint64_t size = 0;  // Immutable after creation.
    // Host copy, fresh only where the directory says the host owns. Lazily
    // zeroed: a buffer whose bytes only ever go straight between the
    // caller and its nodes never makes a page of it resident.
    ZeroedBytes shadow;
    // Region directory: owners 0..nodes-1 are device nodes, owner `nodes`
    // is the host shadow.
    RegionDirectory dir;
    std::vector<bool> allocated_on;  // Remote allocation exists.
    TransferStats stats;             // Coherence movement, this buffer.
    // Tiered-memory metadata, per node. Atomics: the launch path stamps
    // and pins without taking the buffer mutex, and the eviction policy
    // reads them advisorily while holding only the victim's mutex.
    // pinned_on > 0 excludes the buffer from eviction on that node (a
    // launch/stage is between reserving and consuming its ranges);
    // last_use_epoch orders eviction victims (LRU by launch epoch).
    std::unique_ptr<std::atomic<std::uint32_t>[]> pinned_on;
    std::unique_ptr<std::atomic<std::uint64_t>[]> last_use_epoch;
    // Region-granular hazard tracking for implicit ordering: live commands
    // with the byte ranges they write/read. Guarded by state_mutex_ and
    // only touched on the submit path; retired entries pruned lazily.
    struct RangeHazard {
      std::uint64_t begin = 0;
      std::uint64_t end = 0;
      CommandId cmd = kNullCommand;
    };
    std::vector<RangeHazard> writers;
    std::vector<RangeHazard> readers;
  };
  using BufferPtr = std::shared_ptr<LogicalBuffer>;

  struct ProgramState {
    std::mutex mutex;  // Guards built_on and serializes remote builds.
    std::string source;
    std::shared_ptr<const oclc::Module> module;  // Host-side metadata.
    std::string build_log;
    std::vector<bool> built_on;
    // Every launch command of this program (release is ordered after ALL
    // of them, not just the latest). Guarded by state_mutex_.
    std::vector<CommandId> uses;
  };
  using ProgramPtr = std::shared_ptr<ProgramState>;

  // One buffer range a node-bound command needs on its node.
  struct WorkingRange {
    BufferId id = 0;
    BufferPtr buffer;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  // RAII in-flight accounting around a node RPC (feeds the scheduler).
  class InFlightGuard;

  // Sends `payload` on `node`'s main link and awaits the reply with the
  // configured timeout, counting the command against `node`'s depth. Bulk
  // bytes go through SendToNodeLocked and ReadFromNodeLocked instead.
  Expected<net::Message> CallNode(std::size_t node, net::MsgType type,
                                  std::vector<std::uint8_t> payload);

  // ---- Issue-ahead (see the file comment) ---------------------------------
  struct IssuedFrame;  // One command's place in its node's issue order.
  using FramePtr = std::shared_ptr<IssuedFrame>;
  struct IssueOrder;   // One node's frames not yet sent.
  // What a command that asks for a place needs on its node.
  enum class IssueKind { kWrite, kLaunch, kRead };
  struct IssueRequest {
    IssueKind kind = IssueKind::kRead;
    std::size_t node = 0;
    // Ranges that must be allocated on the node and stay pinned there. A
    // launch needs each byte fresh on the node, a read needs each byte to
    // come from it (as the classic read would source it); a write needs
    // only the allocation.
    std::vector<WorkingRange> ranges;
    // What the command writes on the node.
    std::vector<WorkingRange> writes;
    // A launch's program, which must already be built on the node.
    ProgramState* program = nullptr;
  };
  // The place `request` takes in its node's issue order, or nullptr when
  // the command must run classic: it has strong deps, it is a transfer
  // that stripes over the node's lanes, an unretired predecessor
  // (`preds`) without a place in that order, a frame ahead of it that is
  // not a predecessor's, a buffer a classic command is using, a range the
  // node lacks, or a working set the host ledger cannot take without
  // eviction. Pins and reserves; the caller encodes the frame and
  // calls EnqueueFrameLocked. Requires state_mutex_ held.
  FramePtr TakeIssuePlaceLocked(const IssueRequest& request,
                                const std::vector<CommandId>& deps,
                                const std::vector<CommandId>& preds);
  // Appends the encoded `frame` to its node's unsent frames, before its
  // command is submitted to the graph, whose body may start at once.
  // Requires state_mutex_ held.
  void EnqueueFrameLocked(const FramePtr& frame);
  // Registers the submitted command `cmd` as holding `frame`'s place.
  // Requires state_mutex_ held.
  void RegisterIssuedLocked(const FramePtr& frame, CommandId cmd);
  // Sends `node`'s frames from the head of its issue order: launches and
  // reads from any thread, a write only from its own worker (`own_write`),
  // so the sender stops at any other write. Never waits for a reply. Call
  // without state_mutex_ or any buffer mutex held.
  void SendIssued(std::size_t node, const IssuedFrame* own_write);
  // The reply to `frame`, awaited with the configured timeout once its
  // frame has left (a write's worker sends it first).
  Expected<net::Message> AwaitIssued(IssuedFrame& frame);
  // The body of a command holding `frame`'s place: runs `complete` on the
  // awaited reply or, when the node skipped the request
  // (kDependencyFailed), hands back the submit-time charges and runs the
  // classic body `rerun`. Then unpins and leaves the order.
  template <class Rerun, class Complete>
  Status RunIssued(IssuedFrame& frame, Rerun rerun, Complete complete);
  // Hands back the ledger spans `charged` added over `ranges` that the
  // directory does not show on `node` (the node refused or skipped them).
  void ReleaseUnheldCharges(
      std::size_t node, const std::vector<WorkingRange>& ranges,
      const std::vector<runtime::MemoryPool::BufferRange>& charged);

  // Command bodies (run on graph workers). *Locked variants require the
  // buffer's own mutex held.
  Status ExecWrite(BufferId id, const BufferPtr& buffer, std::uint64_t offset,
                   std::span<const std::uint8_t> data, int node);
  // The write's fallback: the bytes land in the host shadow.
  Status WriteToShadow(const BufferPtr& buffer, std::uint64_t offset,
                       std::span<const std::uint8_t> data);
  Status ExecRead(BufferId id, const BufferPtr& buffer, std::uint64_t offset,
                  std::span<std::uint8_t> out);
  // Complete halves of a node write and a node read: the epilogue once the
  // reply to the frame is in.
  Status LandWriteLocked(LogicalBuffer& buffer, std::size_t node,
                         std::uint64_t begin, std::uint64_t size,
                         const Expected<net::Message>& reply);
  // `received` is how the `size` bytes read from `node` arrived.
  Status ReceivedFromNodeLocked(LogicalBuffer& buffer, std::size_t node,
                                std::uint64_t size, const Status& received);
  Status ExecCopy(BufferId src_id, const BufferPtr& src,
                  std::uint64_t src_offset, BufferId dst_id,
                  const BufferPtr& dst, std::uint64_t dst_offset,
                  std::uint64_t size);
  // ---- Launch front end (SubmitLaunch) -------------------------------------
  // One buffer argument of a launch, resolved at submit; every shard,
  // stage and chunk of the launch shares it.
  struct BufferArg {
    BufferId id = 0;
    BufferPtr buffer;
    bool written = false;      // Bound to a non-const pointer parameter.
    bool partitioned = false;  // kPartitionedDim0 on a range-free kernel.
    std::uint64_t stride = 0;  // Bytes per dim-0 index (partitioned).
    // The bytes dim-0 indices [first, first + count) touch: that slice of
    // a partitioned arg, the whole buffer otherwise.
    [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> Window(
        std::uint64_t first, std::uint64_t count) const {
      if (!partitioned) return {0, buffer->size};
      return {first * stride, (first + count) * stride};
    }
  };
  // A validated launch: its program, buffer args in argument order, and
  // the scheduler's TaskInfo with its cost.
  struct ResolvedLaunch {
    ProgramPtr program;
    std::vector<BufferArg> buffers;
    sched::TaskInfo task;
  };
  // Checks the spec against the object tables — program, kernel, arity,
  // buffers, and every partition window against its buffer's size — and
  // derives the task. Requires state_mutex_ held; touches nothing.
  Expected<ResolvedLaunch> ResolveLaunchLocked(const LaunchSpec& spec) const;
  // The scheduler's view of every node from host-side accounting, with
  // `kernel_name`'s observed rates. Requires sched_mutex_ held.
  [[nodiscard]] sched::ClusterView ClusterViewLocked(
      const std::string& kernel_name) const;
  // The launch's plan — force_node's single shard, or the policy's plan
  // over a view with this launch's locality hints — checked by
  // ValidatePlan. Charges no backlog. Requires state_mutex_ held; takes
  // sched_mutex_.
  struct Placement {
    sched::PlacementPlan plan;
    sched::ClusterView view;  // What the plan was made against.
  };
  Expected<Placement> PlanLaunchLocked(const LaunchSpec& spec,
                                       const ResolvedLaunch& launch);
  // Registers launch command `cmd` over dim-0 indices [first, first +
  // count) in the launch's buffer hazard chains and as a use of its
  // program. Requires state_mutex_ held.
  void RecordLaunchLocked(const ResolvedLaunch& launch, std::uint64_t first,
                          std::uint64_t count, CommandId cmd);

  // The queryable residue of a launch command: its result, written by the
  // body before retirement and readable once the command is terminal.
  // Everything heavy lives in LaunchWork, which only the body owns.
  using LaunchPlan = std::optional<LaunchResult>;
  struct LaunchWork;  // Heavy captures owned by the command body.
  class WorkingSetPin;  // RAII eviction exclusion for a working set.
  // Every shard, stage and chunk: plan-relative dim-0 indices [offset,
  // offset + count) of `spec` on `node`, with the cost hint scaled.
  static std::shared_ptr<LaunchWork> MakeLaunchWork(
      const LaunchSpec& spec, const ResolvedLaunch& launch,
      std::uint64_t offset, std::uint64_t count, std::size_t node);
  // Runs `work` on its node in the calling command and returns the result
  // it also leaves in work->plan.
  Expected<LaunchResult> ExecLaunch(const std::shared_ptr<LaunchWork>& work,
                                    CommandGraph::Execution& e);
  // The body of an elastic launch command (host/elastic_launch.cc):
  // gathers the pre-image, cuts `plan` into a ChunkLedger and drains it
  // with a StealCoordinator, each chunk an ExecLaunch on its node, then
  // writes the aggregate into `result`.
  Status ExecElastic(const LaunchSpec& spec, const ResolvedLaunch& launch,
                     const sched::PlacementPlan& plan, LaunchPlan& result,
                     CommandGraph::Execution& e);
  // A launch's working set on its node, in buffer-argument order.
  static std::vector<WorkingRange> LaunchWorkingSet(const LaunchWork& work);
  // The launch frame for `working_set`, issued behind `after_seq`.
  net::LaunchKernelRequest EncodeLaunch(
      const LaunchWork& work, const std::vector<WorkingRange>& working_set,
      std::uint64_t after_seq) const;
  // The launch's complete half: the epilogue once its reply is in. A
  // pipelined stage's kernel starts no earlier than `ready_at`, its
  // prologue's last slice arrival; a stage then drains `work->drain`.
  Expected<LaunchResult> CompleteLaunch(
      const std::shared_ptr<LaunchWork>& work,
      const Expected<net::Message>& reply, std::uint64_t bytes_shipped,
      sim::SimTime ready_at, CommandGraph::Execution& e);
  // Subtracts a shard's submit-time backlog charge from the node's
  // estimate (clamped at zero). Called from the launch epilogue on
  // success and from ~LaunchWork for every other retirement path.
  void RefundBacklogCharge(std::size_t node, double seconds);
  Status ExecMigrate(BufferId id, const BufferPtr& buffer,
                     const std::vector<MigrateRegion>& regions,
                     int target_node, bool discard_contents);

  // ---- Tiered memory (per-node pools, spill/evict, staging) ---------------
  // Reserves `ranges` in `node`'s pool, evicting cold buffers (LRU by
  // launch epoch, pinned working sets excluded) until they fit, and adds
  // the spans it newly charged to `charged`. Fails with
  // kMemObjectAllocationFailure when the ranges can never fit or eviction
  // stops making progress. Call WITHOUT any buffer mutex held.
  Status ReserveWorkingSet(
      std::size_t node,
      const std::vector<runtime::MemoryPool::BufferRange>& ranges,
      std::vector<runtime::MemoryPool::BufferRange>* charged);
  // How a transfer charges virtual time: kDemand chains on the node's
  // command order (every prologue transfer but a pipelined stage's);
  // kPrefetch rides the node's DMA chain, so a stage's slices land while
  // the previous stage computes and its kernel gates on their arrival.
  enum class TransferTiming { kDemand, kPrefetch };
  // How a command runs the working-set prologue (StageWorkingSet).
  struct Staging {
    // A launch's program, built after the reservation and its spills and
    // before the transfers (the virtual-timeline order).
    ProgramId program_id = 0;
    ProgramState* program = nullptr;
    // A discard migration: the node claims each range without any bytes
    // moving (contents undefined).
    bool discard_contents = false;
    // A write on the node's queue: the bytes of its one range, sent from
    // here instead of sourced from the range's owners.
    std::span<const std::uint8_t> write = {};
    TransferTiming timing = TransferTiming::kDemand;
    std::uint64_t* bytes_shipped = nullptr;  // See EnsureRangeOnNodeLocked.
    sim::SimTime* ready_at = nullptr;
  };
  // The working-set prologue of every node-bound command (launch,
  // migration, node-queue write): pins and LRU-stamps each
  // range's buffer on `node` into `pins`, reserves the ranges in the
  // node's ledger (evicting colder buffers), builds the program, then
  // makes `node` a fresh owner of each range. When the node refuses a
  // transfer with kMemObjectAllocationFailure, the bytes the reservation
  // newly charged and the node does not hold go back to the host ledger.
  // Call WITHOUT any buffer mutex held.
  Status StageWorkingSet(std::size_t node,
                         const std::vector<WorkingRange>& ranges,
                         WorkingSetPin& pins, const Staging& staging);
  // StageWorkingSet's transfer half: makes `node` a fresh owner of each
  // range as `staging` says (write, discard claim or sourced transfer).
  Status ShipWorkingSet(std::size_t node,
                        const std::vector<WorkingRange>& ranges,
                        const Staging& staging);
  // Evicts least-recently-launched buffers from `node` until ~`needed`
  // bytes are freed; returns the bytes actually freed.
  std::uint64_t EvictFromNode(std::size_t node, std::uint64_t needed);
  // Demotes `node`'s copy of [begin, end) of the buffer: sub-ranges where
  // it holds the last fresh copy are spilled to the host shadow first
  // (spill_bytes bucket), ownership is dropped, the pool releases the
  // materialized bytes, and the node is notified so its ledger follows.
  // Requires buffer.mutex held.
  Status EvictRangeFromNodeLocked(BufferId id, LogicalBuffer& buffer,
                                  std::size_t node, std::uint64_t begin,
                                  std::uint64_t end);
  // Gathers the sub-ranges of [begin, end) whose ONLY fresh copy is on
  // `node` into the host shadow, accounted as spill traffic. Requires
  // buffer.mutex held.
  Status SpillSoleRangesToHostLocked(BufferId id, LogicalBuffer& buffer,
                                     std::size_t node, std::uint64_t begin,
                                     std::uint64_t end);
  // Reservation/eviction notice to the node's session pool; returns the
  // node's answer.
  Status NotifyMemory(std::size_t node, BufferId id, bool reserve,
                      const std::vector<runtime::MemoryPool::Span>& spans);

  // ---- Region-directory transfer engine (require buffer.mutex held) ------
  // The host's owner index in a buffer's directory.
  [[nodiscard]] RegionDirectory::Owner HostOwner() const {
    return static_cast<RegionDirectory::Owner>(nodes_.size());
  }
  // The core transfer planner the Ensure* entry points and reads share:
  // segments every sub-range of [begin, end) that `dst` lacks into maximal
  // runs with a single transfer source — adjacent missing regions whose
  // owner sets share a source coalesce into one wire transfer — invokes
  // `transfer(source, run_begin, run_end)` per run, and, with
  // `record_owner`, records `dst` as a fresh owner of each run as it
  // arrives (a later run's failure leaves the landed ones recorded).
  // `pick_source` chooses a region's source (node index, or nodes_.size()
  // for the host shadow) whenever the previous run's source no longer
  // covers it.
  Status TransferMissingRunsLocked(
      BufferId id, LogicalBuffer& buffer, RegionDirectory::Owner dst,
      std::uint64_t begin, std::uint64_t end,
      const std::function<std::size_t(const RegionDirectory::Region&)>&
          pick_source,
      const std::function<Status(std::size_t source, std::uint64_t begin,
                                 std::uint64_t end)>& transfer,
      bool record_owner);
  // Receives every run of [begin, begin + into.size()) the host does not
  // own from a current owner node into `into` (host payload in). With
  // `record_owner` — only when `into` is the shadow's own range — the
  // host becomes an owner of what arrived.
  Status ReceiveMissingRunsLocked(BufferId id, LogicalBuffer& buffer,
                                  std::uint64_t begin,
                                  std::span<std::uint8_t> into,
                                  bool record_owner);
  // Gathers every range of [begin, end) the host shadow does not own from
  // a current owner node into the shadow (relays, copies, host migrations
  // and elastic pre-images).
  Status EnsureHostRangeLocked(BufferId id, LogicalBuffer& buffer,
                               std::uint64_t begin, std::uint64_t end);
  // Reads [begin, begin + into.size()) of `node`'s replica into `into`
  // (replies land there in place when the transport can place them),
  // striped over the node's lanes when it is large (net::LaneSet): the one
  // node->host byte path. Spills and gathers pass a shadow range, reads
  // the caller's memory; each accounts its own bucket.
  Status ReadFromNodeLocked(BufferId id, std::size_t node,
                            std::uint64_t begin, std::span<std::uint8_t> into);
  // Sends `bytes` to [begin, begin + bytes.size()) of `node`'s replica:
  // the one host->node byte path, as one kWriteBuffer whose tail borrows
  // them or striped over the node's lanes. Each chunk counts as a write of
  // its own range: one that lands makes the node an owner of it (with
  // `replace`, its only owner), and with `replace` a chunk the node
  // refuses for memory (kMemObjectAllocationFailure) lands in the shadow.
  // Returns the bytes that landed on the node, counted once as host
  // payload out; fails with the first chunk's failure, a refusal included
  // unless `replace`. The caller holds buffer.mutex across it, so the
  // bytes cannot change before the chunks leave.
  Expected<std::uint64_t> SendToNodeLocked(BufferId id, LogicalBuffer& buffer,
                                           std::size_t node,
                                           std::uint64_t begin,
                                           std::span<const std::uint8_t> bytes,
                                           bool replace);
  // Allocates the full buffer on `node` unless it already holds one.
  Status AllocateOnNodeLocked(BufferId id, LogicalBuffer& buffer,
                              std::size_t node);
  // Makes `node` a fresh owner of [begin, end): allocates the full buffer
  // remotely on first touch, then sources each missing range — host shadow
  // ranges ship host->node; the node pulls peer-owned ranges directly,
  // falling back to a host relay when the peer path is unavailable.
  // Adjacent missing ranges with a common source coalesce into single wire
  // transfers. Adds the moved bytes to `*bytes_shipped` and the latest
  // modeled arrival to `*ready_at` (either may be null).
  Status EnsureRangeOnNodeLocked(BufferId id, LogicalBuffer& buffer,
                                 std::size_t node, std::uint64_t begin,
                                 std::uint64_t end,
                                 std::uint64_t* bytes_shipped,
                                 TransferTiming timing,
                                 sim::SimTime* ready_at);
  // Folds a per-buffer counter delta into the runtime-wide totals.
  void AccountTransfer(LogicalBuffer& buffer, std::uint64_t TransferStats::*counter,
                       std::uint64_t delta);

  Status EnsureProgramOnNode(ProgramId id, ProgramState& program,
                             std::size_t node);

  // Region-granular hazard helpers; require state_mutex_ held. Overlap is
  // on byte ranges: a write to [0, k) and one to [k, 2k) do not conflict.
  void CollectDepIds(const std::vector<CommandHandle>& deps,
                     std::vector<CommandId>* out) const;
  void PruneRetiredHazardsLocked(LogicalBuffer& buffer);
  void AddReadHazardLocked(LogicalBuffer& buffer, std::uint64_t begin,
                           std::uint64_t end, std::vector<CommandId>* deps);
  void AddWriteHazardLocked(LogicalBuffer& buffer, std::uint64_t begin,
                            std::uint64_t end, std::vector<CommandId>* deps);
  void RecordReadLocked(LogicalBuffer& buffer, std::uint64_t begin,
                        std::uint64_t end, CommandId cmd);
  void RecordWriteLocked(LogicalBuffer& buffer, std::uint64_t begin,
                         std::uint64_t end, CommandId cmd);

  Options options_;
  // Per node: its main RPC link and the lanes bulk payloads stripe over.
  std::vector<std::unique_ptr<net::LaneSet>> nodes_;
  std::vector<DeviceInfo> devices_;
  std::unique_ptr<sched::SchedulingPolicy> policy_;
  std::string scheduler_name_;
  std::unique_ptr<VirtualTimeline> timeline_;
  std::unique_ptr<CommandGraph> graph_;

  // Lock hierarchy: state_mutex_ > {sched_mutex_, graph mutex} >
  // VirtualTimeline's own lock; buffer/program mutexes are leaf-adjacent
  // (they may take sched_mutex_ or the timeline's, never state_mutex_ or
  // the graph's). Planning happens on the submit path under state_mutex_
  // then sched_mutex_.
  mutable std::mutex state_mutex_;  // Object tables + hazards + ids.
  mutable std::mutex sched_mutex_;  // Scheduler accounting + in-flight.

  std::unordered_map<BufferId, BufferPtr> buffers_;
  std::unordered_map<ProgramId, ProgramPtr> programs_;
  // Launch commands keep their plan (and its LaunchResult) queryable
  // until released; fan_outs_ maps a multi-shard launch's join command to
  // its shard commands (whose creation references the runtime holds).
  std::unordered_map<CommandId, std::shared_ptr<LaunchPlan>> launch_plans_;
  std::unordered_map<CommandId, std::vector<CommandId>> fan_outs_;
  BufferId next_buffer_id_ = 1;
  ProgramId next_program_id_ = 1;
  // Per-node device-memory ledgers (internally synchronized; the
  // authoritative budget the eviction policy and the scheduler's
  // mem_free_bytes read). Sized at Connect, capacity from the handshake.
  std::vector<std::unique_ptr<runtime::MemoryPool>> node_pools_;
  // Monotonic launch counter stamping per-(buffer, node) last use — the
  // clock the LRU eviction policy orders victims by.
  std::atomic<std::uint64_t> launch_epoch_{0};
  // Scheduler backlog estimate: modeled seconds of in-flight launch work
  // per node. Charged under sched_mutex_ at submit, refunded at
  // retirement — never a cumulative history.
  std::vector<double> node_busy_ahead_;
  // Liveness: nodes declared dead by MarkNodeLost (guarded by
  // sched_mutex_; read into NodeView.alive at planning time).
  std::vector<bool> node_dead_;
  // Last broker snapshot per node (guarded by sched_mutex_): total
  // admitted backlog across ALL sessions, piggybacked on every launch
  // reply and refreshed by load queries — how the elastic coordinator
  // sees this session's neighbours.
  std::vector<double> node_broker_backlog_;
  // Observed per-(node, kernel) rates (internally synchronized).
  std::unique_ptr<sched::KernelRateTable> rate_table_;
  std::vector<std::uint32_t> in_flight_;  // RPCs outstanding per node.
  // Issue-ahead: per node, the frames not yet sent; per command holding a
  // place, its frame (guarded by state_mutex_; an entry leaves when the
  // command's body ends).
  std::vector<std::unique_ptr<IssueOrder>> issue_orders_;
  std::unordered_map<CommandId, FramePtr> issued_;
  // Runtime-wide coherence movement totals (guarded by stats_mutex_, a
  // leaf lock taken briefly under buffer mutexes).
  mutable std::mutex stats_mutex_;
  TransferStats stats_;
  bool disconnected_ = false;
};

}  // namespace haocl::host
