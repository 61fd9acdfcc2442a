// Extendable task-scheduling component (paper §III-B).
//
// "In the current version, it delivers the kernel tasks to device nodes
// based on users' instructions. However, it is designed in an extendable
// manner so that it can be upgraded to an automatic scheduler with the
// runtime profiling information from the cluster."
//
// SchedulingPolicy is that extension point. Built-ins:
//   UserDirected       - the paper's shipping behaviour: honor the queue's
//                        device choice.
//   RoundRobin         - rotate across eligible nodes.
//   LeastLoaded        - pick the node with the smallest backlog.
//   HeterogeneityAware - cost model: predicted completion = data transfer +
//                        queue drain + modeled kernel time on that device,
//                        fed by the runtime profiles the NMPs report.
//   PowerAware         - minimize energy (modeled joules) subject to a
//                        slowdown cap, for the paper's power-efficiency goal.
//   HeterogeneityAwareSplit - co-execution: partitions one splittable
//                        launch across all eligible nodes, shard sizes
//                        proportional to each node's predicted rate.
// Applications register custom policies with RegisterPolicy().
//
// Policies produce a PlacementPlan (PlanLaunch); the classic SelectNode
// surface still works — the default PlanLaunch wraps it in a single
// full-range shard.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "sim/device_model.h"
#include "sim/network_model.h"

namespace haocl::sched {

// What the scheduler knows about one pending kernel task.
struct TaskInfo {
  std::string kernel_name;
  sim::KernelCost cost;              // Estimated (or profiled) work.
  std::uint64_t input_bytes = 0;     // Bytes that must reach the node.
  std::uint64_t output_bytes = 0;    // Bytes coming back.
  int preferred_node = -1;           // User instruction, -1 = none.
  bool fpga_binary_available = true; // Can this kernel run on an FPGA?
  // Partitioning surface along dimension 0 of the NDRange. A task is
  // splittable when every buffer the kernel writes carries a
  // kPartitionedDim0 annotation, so shards touch disjoint slices.
  std::uint64_t dim0_extent = 1;     // global[0] of the launch.
  std::uint64_t dim0_align = 1;      // Shard counts must be multiples
                                     // (local[0] when specified).
  bool splittable = false;
  // Memory footprint decomposition for the tiered-memory feasibility
  // checks: bytes every shard must hold regardless of its size
  // (replicated buffer args) and bytes per dim-0 index (sum of the
  // partitioned args' strides). A shard of C indices needs
  // replicated_bytes + C * bytes_per_index resident; when that exceeds the
  // node's capacity a splittable task is staged out-of-core instead.
  std::uint64_t replicated_bytes = 0;
  std::uint64_t bytes_per_index = 0;
};

// What the scheduler knows about one device node, refreshed by the
// resource monitor.
struct NodeView {
  std::string name;
  NodeType type = NodeType::kCpu;
  sim::DeviceSpec spec;
  sim::LinkSpec link = sim::GigabitEthernet();
  std::uint32_t queue_depth = 0;       // Outstanding commands.
  // Modeled seconds of work submitted to the node and not yet completed
  // (charged at submit, refunded at completion — drains to ~0 on an idle
  // node; it is NOT a cumulative history).
  double busy_seconds_ahead = 0.0;
  // Kernel-agnostic runtime profile: EWMA of observed seconds per flop
  // across every kernel the node completed (0 = none yet).
  double observed_seconds_per_flop = 0.0;
  std::uint64_t kernels_executed = 0;
  bool alive = true;
  // Device memory tier: total capacity (0 = unknown/unbounded — every
  // working set "fits") and bytes currently unclaimed by resident buffer
  // regions. Splitting policies cap shard sizes so a small-memory node
  // gets a smaller in-core shard instead of an infeasible one;
  // ValidatePlan rejects shards that could not even stage.
  std::uint64_t mem_capacity_bytes = 0;
  std::uint64_t mem_free_bytes = ~0ull;
  // ---- Per-launch locality hints (filled by the runtime from the region
  // directory when planning a specific task; zero/unset otherwise) ----
  // Bytes of THIS task's input buffers already fresh on the node — they
  // will not cross a wire, so the cost model discounts them.
  std::uint64_t resident_input_bytes = 0;
  // First dim-0 index of the task's partitioned input resident here
  // (UINT64_MAX when none): splitting policies order their shards to line
  // up with where the data already sits, so a chained partitioned launch
  // re-uses the producer's placement instead of reshuffling slices.
  std::uint64_t resident_dim0_begin = ~0ull;
  // Observed rate for THIS task's kernel on this node, from the runtime's
  // per-(node, kernel) rate table (sched/rate_table.h): EWMA seconds per
  // flop fed by per-shard completion times. 0 until the kernel completed
  // at least one shard here — the signal `adaptive_split` re-plans from.
  double kernel_seconds_per_flop = 0.0;
  std::uint64_t kernel_rate_samples = 0;
};

struct ClusterView {
  std::vector<NodeView> nodes;

  [[nodiscard]] std::vector<std::size_t> EligibleFor(
      const TaskInfo& task) const;
};

// One shard of a placement plan: `global_count` dim-0 indices starting at
// `global_offset`, executed on `node`. `weight` records the fraction of
// the range the policy intended for the node (diagnostics only).
struct PlacementShard {
  std::size_t node = 0;
  std::uint64_t global_offset = 0;
  std::uint64_t global_count = 0;
  double weight = 1.0;
};

// Where one kernel launch runs: an ordered list of shards tiling
// [0, dim0_extent) of the NDRange's dimension 0. A single-shard plan is
// exactly the classic "pick one node" decision.
struct PlacementPlan {
  // Where the shard sizes came from (plan provenance — diagnostics and
  // convergence tests): the static cost model, the observed per-(node,
  // kernel) rates, or a blend (some nodes had samples, some did not).
  enum class Provenance : std::uint8_t {
    kUnspecified = 0,
    kStaticModel = 1,
    kObservedRates = 2,
    kBlended = 3,
  };

  std::vector<PlacementShard> shards;
  Provenance provenance = Provenance::kUnspecified;

  static PlacementPlan SingleNode(std::size_t node, std::uint64_t count) {
    PlacementPlan plan;
    plan.shards.push_back({node, 0, count, 1.0});
    return plan;
  }
  [[nodiscard]] bool single() const { return shards.size() == 1; }
};

// Checks a plan against the task and cluster: shards must be non-empty,
// aligned to task.dim0_align, target alive in-range nodes, and tile
// [0, task.dim0_extent) in order with no gaps or overlaps. Multi-shard
// plans additionally require task.splittable. A shard whose working set
// exceeds its node's mem_capacity_bytes must be STAGEABLE there
// (StageRows) — the runtime then pipelines it out-of-core; otherwise the
// plan is rejected.
Status ValidatePlan(const PlacementPlan& plan, const TaskInfo& task,
                    const ClusterView& cluster);

// The double-buffered stage rule for `count` dim-0 indices of `task` on
// a node of `capacity` bytes (0 = unknown, always fits). 0 when their
// whole working set fits in-core; otherwise the rows per out-of-core
// stage: the most aligned rows of which two stages fit beside the
// replicated args. nullopt when neither works: the task cannot be staged
// (not splittable, or nothing partitioned) or not even two stages of one
// alignment unit fit.
std::optional<std::uint64_t> StageRows(const TaskInfo& task,
                                       std::uint64_t capacity,
                                       std::uint64_t count);

// One steal-able chunk of a placement plan: `count` dim-0 indices starting
// at plan-relative `offset`, initially owned by `plan.shards[shard].node`.
// The elastic runtime's ChunkLedger tracks these pending -> running ->
// done; a chunk is the revocation granule work stealing and failure
// recovery re-target. SubmitLaunch runs an oversubscribed shard's
// out-of-core stages as ChunkSpans too.
struct ChunkSpan {
  std::size_t shard = 0;      // Index into plan.shards.
  std::uint64_t offset = 0;   // Plan-relative dim-0 offset.
  std::uint64_t count = 0;
};

// Decomposes shard s of `plan` into chunks of at most `shard_rows[s]`
// dim-0 indices (rounded up to a multiple of `align`; the last chunk of a
// shard is the short remainder). Chunks tile each shard in offset order, so
// [shard begin, shard end) == the union of its chunks, gap-free. A zero
// budget yields one chunk for that shard. `shard_rows` holds one budget
// per shard. The one cutter behind both an elastic launch's steal-able
// chunks (one budget for every shard) and an oversubscribed shard's
// out-of-core stages (a capacity budget for that shard alone).
std::vector<ChunkSpan> ChunkifyPlan(const PlacementPlan& plan,
                                    std::uint64_t align,
                                    std::span<const std::uint64_t> shard_rows);

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  // Chooses a node index for the task. Must return an eligible node or an
  // error; the runtime turns errors into kSchedulerError for the caller.
  virtual Expected<std::size_t> SelectNode(const TaskInfo& task,
                                           const ClusterView& cluster) = 0;

  // Produces the placement plan the runtime dispatches. The default
  // adapter wraps SelectNode in a single full-range shard, so policies
  // written against the node-picking API (including user-registered ones)
  // run unchanged. Splitting policies override this to co-execute one
  // launch across several nodes.
  virtual Expected<PlacementPlan> PlanLaunch(const TaskInfo& task,
                                             const ClusterView& cluster) {
    auto node = SelectNode(task, cluster);
    if (!node.ok()) return node.status();
    return PlacementPlan::SingleNode(*node, task.dim0_extent);
  }
};

std::unique_ptr<SchedulingPolicy> MakeUserDirectedPolicy();
std::unique_ptr<SchedulingPolicy> MakeRoundRobinPolicy();
std::unique_ptr<SchedulingPolicy> MakeLeastLoadedPolicy();
std::unique_ptr<SchedulingPolicy> MakeHeterogeneityAwarePolicy();
// max_slowdown: how much longer than the fastest choice the policy may
// accept in exchange for lower energy (1.0 = never slower).
std::unique_ptr<SchedulingPolicy> MakePowerAwarePolicy(
    double max_slowdown = 2.0);
// Co-execution ("hetero_split"): partitions a splittable launch across
// every eligible node, sizing each shard inversely to the STATIC cost
// model's predicted compute seconds on that node (plus backlog). Falls
// back to the heterogeneity-aware single-node choice for non-splittable
// tasks. Deliberately ignores observed rates — the static baseline
// `adaptive_split` is measured against.
std::unique_ptr<SchedulingPolicy> MakeHeterogeneityAwareSplitPolicy();
// Adaptive co-execution ("adaptive_split"): like hetero_split, but a
// node that has completed shards of this kernel is sized by its OBSERVED
// per-(node, kernel) rate instead of the spec sheet. The first launch of
// a kernel plans exactly like hetero_split; each subsequent launch
// re-splits from the rates its predecessors measured, so a device whose
// real throughput is far off its static spec converges to its fair share
// within a few chained launches. Re-splits stay aligned and
// residency-ordered, so the region directory re-ships minimal bytes.
std::unique_ptr<SchedulingPolicy> MakeAdaptiveSplitPolicy();

// Policy registry: user-defined schedulers plug in by name (the paper's
// "designers can design and illustrate their own scheduling algorithms and
// embed them into HaoCL").
using PolicyFactory = std::function<std::unique_ptr<SchedulingPolicy>()>;
void RegisterPolicy(const std::string& name, PolicyFactory factory);
Expected<std::unique_ptr<SchedulingPolicy>> MakePolicyByName(
    const std::string& name);
std::vector<std::string> RegisteredPolicyNames();

// Predicted completion time of `task` on `node` if dispatched now; the
// cost model HeterogeneityAware/PowerAware share (exposed for tests and
// the ablation bench). PredictComputeSeconds is the kernel-time term
// alone (no transfer/backlog); it prefers the most specific runtime
// profile available — the per-(node, kernel) observed rate, then the
// node's kernel-agnostic average, then the static device model.
double PredictComputeSeconds(const TaskInfo& task, const NodeView& node);
// The static device-model kernel time alone, ignoring observed rates —
// what hetero_split sizes shards by (the baseline adaptive_split is
// measured against).
double StaticComputeSeconds(const TaskInfo& task, const NodeView& node);
double PredictCompletionSeconds(const TaskInfo& task, const NodeView& node);
double PredictEnergyJoules(const TaskInfo& task, const NodeView& node);

}  // namespace haocl::sched
