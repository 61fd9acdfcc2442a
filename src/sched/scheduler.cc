#include "sched/scheduler.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <unordered_map>

namespace haocl::sched {
namespace {

Status NoEligibleNode(const TaskInfo& task) {
  return Status(ErrorCode::kSchedulerError,
                "no eligible node for kernel '" + task.kernel_name + "'");
}

class UserDirectedPolicy : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "user"; }

  Expected<std::size_t> SelectNode(const TaskInfo& task,
                                   const ClusterView& cluster) override {
    if (task.preferred_node < 0 ||
        static_cast<std::size_t>(task.preferred_node) >=
            cluster.nodes.size()) {
      return Status(ErrorCode::kSchedulerError,
                    "user-directed scheduling needs an explicit device "
                    "(kernel '" + task.kernel_name + "')");
    }
    const auto index = static_cast<std::size_t>(task.preferred_node);
    if (!cluster.nodes[index].alive) {
      return Status(ErrorCode::kNodeUnreachable,
                    "requested node '" + cluster.nodes[index].name +
                        "' is not alive");
    }
    return index;
  }
};

class RoundRobinPolicy : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "roundrobin"; }

  Expected<std::size_t> SelectNode(const TaskInfo& task,
                                   const ClusterView& cluster) override {
    const auto eligible = cluster.EligibleFor(task);
    if (eligible.empty()) return NoEligibleNode(task);
    const std::uint64_t turn =
        next_.fetch_add(1, std::memory_order_relaxed);
    return eligible[turn % eligible.size()];
  }

 private:
  std::atomic<std::uint64_t> next_{0};
};

class LeastLoadedPolicy : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "leastloaded"; }

  Expected<std::size_t> SelectNode(const TaskInfo& task,
                                   const ClusterView& cluster) override {
    const auto eligible = cluster.EligibleFor(task);
    if (eligible.empty()) return NoEligibleNode(task);
    std::size_t best = eligible[0];
    double best_load = std::numeric_limits<double>::infinity();
    for (std::size_t index : eligible) {
      const NodeView& node = cluster.nodes[index];
      const double load =
          node.busy_seconds_ahead + 1e-3 * node.queue_depth;
      if (load < best_load) {
        best_load = load;
        best = index;
      }
    }
    return best;
  }
};

class HeterogeneityAwarePolicy : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "hetero"; }

  Expected<std::size_t> SelectNode(const TaskInfo& task,
                                   const ClusterView& cluster) override {
    const auto eligible = cluster.EligibleFor(task);
    if (eligible.empty()) return NoEligibleNode(task);
    std::size_t best = eligible[0];
    double best_time = std::numeric_limits<double>::infinity();
    for (std::size_t index : eligible) {
      const double t = PredictCompletionSeconds(task, cluster.nodes[index]);
      if (t < best_time) {
        best_time = t;
        best = index;
      }
    }
    return best;
  }
};

// Proportional split shared by the splitting policies: orders eligible
// nodes by where the task's partitioned input already sits, sizes each
// shard proportionally to `seconds_for`'s inverse, and tiles the range
// aligned. Returns an empty plan (no shards) when every proportional
// count rounds to zero — the caller falls back to a single node.
PlacementPlan ProportionalSplit(
    const TaskInfo& task, const ClusterView& cluster,
    const std::vector<std::size_t>& eligible,
    const std::function<double(const NodeView&)>& seconds_for,
    PlacementPlan::Provenance provenance) {
  const std::uint64_t align = std::max<std::uint64_t>(1, task.dim0_align);

  // Shard order follows data placement: nodes already holding a slice of
  // the task's partitioned input (region-directory hint) come first,
  // ordered by where their resident slice starts, so a repeat or chained
  // launch lines its shards up with the producer's and re-ships nothing.
  // Nodes with no resident slice keep their relative order after them.
  std::vector<std::size_t> ordered = eligible;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&cluster](std::size_t a, std::size_t b) {
                     return cluster.nodes[a].resident_dim0_begin <
                            cluster.nodes[b].resident_dim0_begin;
                   });

  // Per-node rates from the COMPUTE term (plus backlog), normalized into
  // fractional weights. The transfer term is deliberately excluded: a
  // shard's compute scales with its share while fixed per-node transfer
  // does not, so including it would pull every split toward uniform and
  // overload the slow devices.
  std::vector<double> rates(ordered.size());
  double total_rate = 0.0;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const NodeView& node = cluster.nodes[ordered[i]];
    const double seconds = node.busy_seconds_ahead + seconds_for(node);
    rates[i] = 1.0 / std::max(seconds, 1e-12);
    total_rate += rates[i];
  }

  // Shard counts proportional to rate, rounded down to the alignment.
  const std::uint64_t units = task.dim0_extent / align;
  std::vector<std::uint64_t> counts(ordered.size(), 0);
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    counts[i] = static_cast<std::uint64_t>(
                    static_cast<double>(units) * rates[i] / total_rate) *
                align;
    assigned += counts[i];
  }

  // Rounding leftover: the whole-alignment part goes to the HIGHEST-RATE
  // shard — growing a shard by a multiple of the alignment shifts every
  // later offset by that same multiple, so alignment is preserved — and
  // only the sub-alignment tail (dim0_extent % align) must ride the last
  // shard, the one spot with no following offsets to knock askew. Routing
  // the bulk to the fastest device matters after residency ordering,
  // where the last shard may belong to the slowest one.
  std::uint64_t leftover = task.dim0_extent - assigned;
  std::size_t fastest = ordered.size();
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (counts[i] == 0) continue;
    if (fastest == ordered.size() || rates[i] > rates[fastest]) fastest = i;
  }
  PlacementPlan plan;
  plan.provenance = provenance;
  if (fastest == ordered.size()) return plan;  // All rounded to zero.
  if (leftover >= align) {
    counts[fastest] += (leftover / align) * align;
    leftover %= align;
  }

  // Memory-capacity caps: clamp each shard to the rows that fit in-core
  // on its node and hand the excess (in whole alignment units, so later
  // offsets stay aligned) to the fastest nodes with headroom — a
  // small-memory node gets a smaller shard, not an infeasible one. When
  // the whole cluster lacks in-core room, the remainder returns to the
  // fastest node and the runtime stages it out-of-core there.
  if (task.bytes_per_index > 0) {
    // The sub-alignment tail (attached below, after capping) must ride
    // the LAST shard wherever that lands, so every bounded node's cap
    // leaves room for it — otherwise the tail could push a shard clamped
    // exactly to its capacity back over it.
    const std::uint64_t tail = task.dim0_extent % align;
    auto cap_rows = [&](std::size_t i) -> std::uint64_t {
      const NodeView& node = cluster.nodes[ordered[i]];
      if (node.mem_capacity_bytes == 0) return ~0ull;
      if (node.mem_capacity_bytes <= task.replicated_bytes) return 0;
      const std::uint64_t rows =
          (node.mem_capacity_bytes - task.replicated_bytes) /
          task.bytes_per_index;
      if (rows <= tail) return 0;
      return (rows - tail) / align * align;
    };
    std::uint64_t excess = 0;
    for (std::size_t i = 0; i < ordered.size(); ++i) {
      const std::uint64_t cap = cap_rows(i);
      if (counts[i] > cap) {
        excess += counts[i] - cap;
        counts[i] = cap;
      }
    }
    while (excess >= align) {
      std::size_t best = ordered.size();
      for (std::size_t i = 0; i < ordered.size(); ++i) {
        if (cap_rows(i) <= counts[i]) continue;  // No headroom.
        if (best == ordered.size() || rates[i] > rates[best]) best = i;
      }
      if (best == ordered.size()) break;  // Cluster-wide in-core room gone.
      const std::uint64_t grant = std::min(
          excess / align * align, cap_rows(best) - counts[best]);
      counts[best] += grant;
      excess -= grant;
    }
    if (excess > 0) counts[fastest] += excess;  // Staged out-of-core.
  }

  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (counts[i] == 0) continue;
    plan.shards.push_back({ordered[i], offset, counts[i],
                           rates[i] / total_rate});
    offset += counts[i];
  }
  plan.shards.back().global_count += leftover;
  return plan;
}

// True when the node carries a usable observed rate for THIS kernel —
// the signal adaptive re-splitting plans from.
bool HasObservedRate(const TaskInfo& task, const NodeView& node) {
  return node.kernel_rate_samples > 0 && node.kernel_seconds_per_flop > 0.0 &&
         task.cost.flops > 0.0;
}

// Co-executes one launch across the cluster: shard sizes follow each
// node's STATIC predicted rate, so a device the spec sheet says is twice
// as fast gets twice the rows — EngineCL-style static load balancing
// from the cost model. The subclass re-plans from observed rates by
// overriding the ShardSeconds/PlanProvenance hooks; the guard, fallback,
// and proportional tiling live here only.
class HeterogeneityAwareSplitPolicy : public HeterogeneityAwarePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "hetero_split"; }

  Expected<PlacementPlan> PlanLaunch(const TaskInfo& task,
                                     const ClusterView& cluster) override {
    const auto eligible = cluster.EligibleFor(task);
    if (eligible.empty()) return NoEligibleNode(task);
    const std::uint64_t align = std::max<std::uint64_t>(1, task.dim0_align);
    if (!task.splittable || eligible.size() < 2 ||
        task.dim0_extent < 2 * align) {
      return SingleNodeFallback(task, cluster);
    }
    PlacementPlan plan = ProportionalSplit(
        task, cluster, eligible,
        [this, &task](const NodeView& node) {
          return ShardSeconds(task, node);
        },
        PlanProvenance(task, cluster, eligible));
    if (plan.shards.empty()) return SingleNodeFallback(task, cluster);
    return plan;
  }

 protected:
  // Per-node compute seconds the shard weights derive from.
  virtual double ShardSeconds(const TaskInfo& task, const NodeView& node) {
    return StaticComputeSeconds(task, node);
  }
  virtual PlacementPlan::Provenance PlanProvenance(
      const TaskInfo&, const ClusterView&, const std::vector<std::size_t>&) {
    return PlacementPlan::Provenance::kStaticModel;
  }

  Expected<PlacementPlan> SingleNodeFallback(const TaskInfo& task,
                                             const ClusterView& cluster) {
    auto node = SelectNode(task, cluster);
    if (!node.ok()) return node.status();
    return PlacementPlan::SingleNode(*node, task.dim0_extent);
  }
};

// Closes the scheduler feedback loop: shard sizes follow each node's
// OBSERVED per-(node, kernel) rate once the kernel has completed shards
// there, the static model until then. Between chained launches of one
// kernel the plan therefore re-splits toward the rates the previous
// launch measured.
class AdaptiveSplitPolicy : public HeterogeneityAwareSplitPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "adaptive_split"; }

 protected:
  double ShardSeconds(const TaskInfo& task, const NodeView& node) override {
    if (HasObservedRate(task, node)) {
      return node.kernel_seconds_per_flop * task.cost.flops;
    }
    return StaticComputeSeconds(task, node);
  }

  PlacementPlan::Provenance PlanProvenance(
      const TaskInfo& task, const ClusterView& cluster,
      const std::vector<std::size_t>& eligible) override {
    std::size_t observed = 0;
    for (std::size_t index : eligible) {
      if (HasObservedRate(task, cluster.nodes[index])) ++observed;
    }
    if (observed == 0) return PlacementPlan::Provenance::kStaticModel;
    return observed == eligible.size()
               ? PlacementPlan::Provenance::kObservedRates
               : PlacementPlan::Provenance::kBlended;
  }
};

class PowerAwarePolicy : public SchedulingPolicy {
 public:
  explicit PowerAwarePolicy(double max_slowdown)
      : max_slowdown_(std::max(1.0, max_slowdown)) {}

  [[nodiscard]] std::string name() const override { return "power"; }

  Expected<std::size_t> SelectNode(const TaskInfo& task,
                                   const ClusterView& cluster) override {
    const auto eligible = cluster.EligibleFor(task);
    if (eligible.empty()) return NoEligibleNode(task);
    // Fastest option sets the latency budget.
    double fastest = std::numeric_limits<double>::infinity();
    for (std::size_t index : eligible) {
      fastest = std::min(fastest,
                         PredictCompletionSeconds(task, cluster.nodes[index]));
    }
    const double budget = fastest * max_slowdown_;
    std::size_t best = eligible[0];
    double best_energy = std::numeric_limits<double>::infinity();
    for (std::size_t index : eligible) {
      const NodeView& node = cluster.nodes[index];
      const double t = PredictCompletionSeconds(task, node);
      if (t > budget) continue;
      const double joules = PredictEnergyJoules(task, node);
      if (joules < best_energy) {
        best_energy = joules;
        best = index;
      }
    }
    return best;
  }

 private:
  double max_slowdown_;
};

struct PolicyRegistry {
  std::mutex mutex;
  std::unordered_map<std::string, PolicyFactory> factories;
};

PolicyRegistry& Registry() {
  static auto* registry = new PolicyRegistry();
  static std::once_flag once;
  std::call_once(once, [] {
    registry->factories["user"] = MakeUserDirectedPolicy;
    registry->factories["roundrobin"] = MakeRoundRobinPolicy;
    registry->factories["leastloaded"] = MakeLeastLoadedPolicy;
    registry->factories["hetero"] = MakeHeterogeneityAwarePolicy;
    registry->factories["hetero_split"] = MakeHeterogeneityAwareSplitPolicy;
    registry->factories["adaptive_split"] = MakeAdaptiveSplitPolicy;
    registry->factories["power"] = [] { return MakePowerAwarePolicy(); };
  });
  return *registry;
}

}  // namespace

Status ValidatePlan(const PlacementPlan& plan, const TaskInfo& task,
                    const ClusterView& cluster) {
  auto bad = [&task](const std::string& what) {
    return Status(ErrorCode::kSchedulerError,
                  "invalid placement plan for kernel '" + task.kernel_name +
                      "': " + what);
  };
  if (plan.shards.empty()) return bad("no shards");
  if (plan.shards.size() > 1 && !task.splittable) {
    return bad("multi-shard plan for a non-splittable task (annotate every "
               "written buffer kPartitionedDim0)");
  }
  const std::uint64_t align = std::max<std::uint64_t>(1, task.dim0_align);
  std::uint64_t expected_offset = 0;
  for (const PlacementShard& shard : plan.shards) {
    if (shard.global_count == 0) return bad("empty shard");
    if (shard.node >= cluster.nodes.size()) {
      return bad("shard node " + std::to_string(shard.node) +
                 " out of range");
    }
    if (!cluster.nodes[shard.node].alive) {
      return bad("shard node '" + cluster.nodes[shard.node].name +
                 "' is not alive");
    }
    if (shard.global_offset != expected_offset) {
      return bad(shard.global_offset < expected_offset
                     ? "overlapping shards"
                     : "gap before offset " +
                           std::to_string(shard.global_offset));
    }
    if (shard.global_offset + shard.global_count > task.dim0_extent) {
      return bad("shard exceeds the NDRange (offset " +
                 std::to_string(shard.global_offset) + " + count " +
                 std::to_string(shard.global_count) + " > extent " +
                 std::to_string(task.dim0_extent) + ")");
    }
    if (plan.shards.size() > 1 && shard.global_offset % align != 0) {
      return bad("shard offset not aligned to the work-group size");
    }
    const NodeView& node = cluster.nodes[shard.node];
    if (!StageRows(task, node.mem_capacity_bytes, shard.global_count)
             .has_value()) {
      return bad("shard of " + std::to_string(shard.global_count) +
                 " indices cannot fit or stage on node '" + node.name +
                 "' (capacity " + std::to_string(node.mem_capacity_bytes) +
                 " bytes)");
    }
    expected_offset = shard.global_offset + shard.global_count;
  }
  if (expected_offset != task.dim0_extent) {
    return bad("shards cover " + std::to_string(expected_offset) + " of " +
               std::to_string(task.dim0_extent) + " dim-0 indices");
  }
  return Status::Ok();
}

std::optional<std::uint64_t> StageRows(const TaskInfo& task,
                                       std::uint64_t capacity,
                                       std::uint64_t count) {
  if (capacity == 0 ||
      task.replicated_bytes + count * task.bytes_per_index <= capacity) {
    return 0;
  }
  // Oversubscribed: stages cut only the partitioned dimension, and two of
  // them stay resident beside the replicated args.
  if (!task.splittable || task.bytes_per_index == 0 ||
      capacity <= task.replicated_bytes) {
    return std::nullopt;
  }
  const std::uint64_t align = std::max<std::uint64_t>(1, task.dim0_align);
  const std::uint64_t rows = (capacity - task.replicated_bytes) / 2 /
                             task.bytes_per_index / align * align;
  if (rows == 0) return std::nullopt;
  return rows;
}

std::vector<ChunkSpan> ChunkifyPlan(const PlacementPlan& plan,
                                    std::uint64_t align,
                                    std::span<const std::uint64_t> shard_rows) {
  if (align == 0) align = 1;
  std::vector<ChunkSpan> chunks;
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    const PlacementShard& shard = plan.shards[s];
    // Round the chunk size up to the alignment so every chunk boundary is
    // a legal shard boundary.
    const std::uint64_t rows = (shard_rows[s] + align - 1) / align * align;
    const std::uint64_t step =
        rows == 0 ? std::max<std::uint64_t>(1, shard.global_count) : rows;
    for (std::uint64_t off = 0; off < shard.global_count; off += step) {
      ChunkSpan chunk;
      chunk.shard = s;
      chunk.offset = shard.global_offset + off;
      chunk.count = std::min(step, shard.global_count - off);
      chunks.push_back(chunk);
    }
  }
  return chunks;
}

std::vector<std::size_t> ClusterView::EligibleFor(const TaskInfo& task) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeView& node = nodes[i];
    if (!node.alive) continue;
    // FPGAs run only pre-built kernels (paper §III-D).
    if (node.type == NodeType::kFpga && !task.fpga_binary_available) continue;
    out.push_back(i);
  }
  return out;
}

double PredictComputeSeconds(const TaskInfo& task, const NodeView& node) {
  if (task.cost.flops > 0.0) {
    // Most specific runtime profile first: the rate observed from this
    // kernel's own completed shards on this node, then the node's
    // kernel-agnostic average. The static model is the cold-start floor.
    if (node.kernel_rate_samples > 0 && node.kernel_seconds_per_flop > 0.0) {
      return node.kernel_seconds_per_flop * task.cost.flops;
    }
    if (node.observed_seconds_per_flop > 0.0) {
      return node.observed_seconds_per_flop * task.cost.flops;
    }
  }
  return sim::ModelKernelTime(node.spec, task.cost);
}

double StaticComputeSeconds(const TaskInfo& task, const NodeView& node) {
  return sim::ModelKernelTime(node.spec, task.cost);
}

double PredictCompletionSeconds(const TaskInfo& task, const NodeView& node) {
  // Input bytes already resident on the node never cross a wire (region
  // directory locality): dispatching to the data beats dragging the data
  // to the dispatch.
  const std::uint64_t moving =
      task.input_bytes > node.resident_input_bytes
          ? task.input_bytes - node.resident_input_bytes
          : 0;
  const double transfer = node.link.TransferTime(moving) +
                          node.link.TransferTime(task.output_bytes);
  return node.busy_seconds_ahead + transfer +
         PredictComputeSeconds(task, node);
}

double PredictEnergyJoules(const TaskInfo& task, const NodeView& node) {
  return PredictComputeSeconds(task, node) * node.spec.power_watts;
}

std::unique_ptr<SchedulingPolicy> MakeUserDirectedPolicy() {
  return std::make_unique<UserDirectedPolicy>();
}
std::unique_ptr<SchedulingPolicy> MakeRoundRobinPolicy() {
  return std::make_unique<RoundRobinPolicy>();
}
std::unique_ptr<SchedulingPolicy> MakeLeastLoadedPolicy() {
  return std::make_unique<LeastLoadedPolicy>();
}
std::unique_ptr<SchedulingPolicy> MakeHeterogeneityAwarePolicy() {
  return std::make_unique<HeterogeneityAwarePolicy>();
}
std::unique_ptr<SchedulingPolicy> MakePowerAwarePolicy(double max_slowdown) {
  return std::make_unique<PowerAwarePolicy>(max_slowdown);
}
std::unique_ptr<SchedulingPolicy> MakeHeterogeneityAwareSplitPolicy() {
  return std::make_unique<HeterogeneityAwareSplitPolicy>();
}
std::unique_ptr<SchedulingPolicy> MakeAdaptiveSplitPolicy() {
  return std::make_unique<AdaptiveSplitPolicy>();
}

void RegisterPolicy(const std::string& name, PolicyFactory factory) {
  PolicyRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.factories[name] = std::move(factory);
}

Expected<std::unique_ptr<SchedulingPolicy>> MakePolicyByName(
    const std::string& name) {
  PolicyRegistry& registry = Registry();
  PolicyFactory factory;
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto it = registry.factories.find(name);
    if (it == registry.factories.end()) {
      return Status(ErrorCode::kSchedulerError,
                    "unknown scheduling policy '" + name + "'");
    }
    factory = it->second;
  }
  return factory();
}

std::vector<std::string> RegisteredPolicyNames() {
  PolicyRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<std::string> names;
  names.reserve(registry.factories.size());
  for (const auto& [name, factory] : registry.factories) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace haocl::sched
