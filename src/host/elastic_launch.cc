// Elastic launch: ClusterRuntime::LaunchElastic and the adapter that
// bridges the StealCoordinator's ChunkExecutor interface onto the runtime.
//
// The flow: SubmitLaunch's own front end resolves the spec (program,
// kernel, args, every partition window) and plans the initial shard
// split, so nothing runs that an ordinary launch would reject; the
// ChunkLedger cuts the plan into steal-able chunks (sched::ChunkifyPlan,
// the cutter out-of-core stages use too); the StealCoordinator drains the
// ledger, running each chunk as an ordinary force_node sub-launch through
// the full coherence machinery (slice prologue, directory epilogue, rate
// feedback). Work stealing and failure recovery are entirely ledger-side
// re-targeting — the chunk sub-launch path is oblivious to both, which is
// what keeps the result bit-identical to the single-node run.
#include <algorithm>
#include <limits>
#include <string>

#include "common/log.h"
#include "elastic/steal_coordinator.h"
#include "host/cluster_runtime.h"

namespace haocl::host {

// The coordinator's window onto this runtime. All state it touches is
// either public API or read under the runtime's own locks (friend).
class RuntimeChunkExecutor : public elastic::ChunkExecutor {
 public:
  // `buffers` are the launch's resolved buffer args: their windows bound
  // the lost bytes the host takes over, the partitioned ones drive
  // locality ranking, the written partitioned ones lost-row conversion.
  RuntimeChunkExecutor(ClusterRuntime* runtime,
                       const ClusterRuntime::LaunchSpec& spec,
                       double flops_total,
                       std::vector<ClusterRuntime::BufferArg> buffers,
                       elastic::FaultInjector* faults)
      : runtime_(runtime),
        spec_(spec),
        faults_(faults),
        buffers_(std::move(buffers)),
        flops_total_(flops_total),
        rows_total_(static_cast<double>(
            std::max<std::uint64_t>(1, spec.global[0]))),
        seconds_per_row_(runtime->devices_.size(), 0.0) {}

  Expected<elastic::ChunkOutcome> Execute(const elastic::Chunk& chunk,
                                          std::size_t node) override {
    if (faults_ != nullptr) {
      Status scripted = faults_->BeforeExecute(node);
      if (!scripted.ok()) return scripted;
    }
    ClusterRuntime::LaunchSpec sub = spec_;
    sub.global[0] = chunk.count;
    sub.global_offset[0] = spec_.global_offset[0] + chunk.offset;
    sub.preferred_node = -1;
    sub.force_node = static_cast<int>(node);
    if (spec_.cost_hint.has_value()) {
      sub.cost_hint = spec_.cost_hint->Scaled(
          static_cast<double>(chunk.count) / rows_total_);
    }
    auto result = runtime_->LaunchKernel(sub);
    if (!result.ok()) return result.status();
    double seconds = result->modeled_seconds;
    if (faults_ != nullptr) seconds += faults_->AfterExecute(node);
    {
      // Learn the node's per-row rate from its own completed chunks (EWMA
      // 0.5): the mis-calibration a straggler hides from the static model
      // shows up here after its first chunk.
      std::lock_guard<std::mutex> lock(mutex_);
      const double per_row =
          seconds / static_cast<double>(std::max<std::uint64_t>(1, chunk.count));
      double& slot = seconds_per_row_[node];
      slot = slot == 0.0 ? per_row : 0.5 * slot + 0.5 * per_row;
    }
    elastic::ChunkOutcome outcome;
    outcome.modeled_seconds = seconds;
    outcome.bytes_shipped = result->bytes_shipped;
    if (chunk.attempts > 1) {
      // The chunk ran before, so its inputs already shipped once: movement
      // a fault-free run would not have paid. A stolen chunk's first run
      // ships what its victim would have.
      std::lock_guard<std::mutex> stats_lock(runtime_->stats_mutex_);
      runtime_->stats_.reexec_bytes += outcome.bytes_shipped;
    }
    return outcome;
  }

  Status Probe(std::size_t node) override {
    return runtime_->ProbeNode(node);
  }

  double SecondsPerRow(std::size_t node) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (node < seconds_per_row_.size() && seconds_per_row_[node] > 0.0) {
        return seconds_per_row_[node];
      }
    }
    // Cold start: the cross-launch learned rate table, scaled to rows.
    const sched::KernelRateTable::Rate rate =
        runtime_->ObservedKernelRate(node, spec_.kernel_name);
    if (rate.samples > 0 && rate.seconds_per_flop > 0.0 &&
        flops_total_ > 0.0) {
      return rate.seconds_per_flop * (flops_total_ / rows_total_);
    }
    return 0.0;
  }

  double BacklogSeconds(std::size_t node) override {
    std::lock_guard<std::mutex> lock(runtime_->sched_mutex_);
    if (node >= runtime_->node_busy_ahead_.size()) return 0.0;
    return runtime_->node_busy_ahead_[node] +
           runtime_->node_broker_backlog_[node];
  }

  std::uint64_t ResidentRowsOn(std::size_t node, std::uint64_t offset,
                               std::uint64_t count) override {
    // The first partitioned arg stands in for the chunk's input locality.
    for (const ClusterRuntime::BufferArg& arg : buffers_) {
      if (!arg.partitioned) continue;
      const auto [begin, end] =
          arg.Window(spec_.global_offset[0] + offset, count);
      // Advisory only — never block on a buffer amid a transfer.
      std::unique_lock<std::mutex> buffer_lock(arg.buffer->mutex,
                                               std::try_to_lock);
      if (!buffer_lock.owns_lock()) return 0;
      std::uint64_t bytes = 0;
      for (const RegionDirectory::Region& region :
           arg.buffer->dir.Query(begin, end)) {
        for (RegionDirectory::Owner owner : region.owners) {
          if (owner == node) bytes += region.end - region.begin;
        }
      }
      return bytes / arg.stride;
    }
    return 0;
  }

  Expected<std::vector<elastic::ChunkLedger::RowSpan>> OnNodeDead(
      std::size_t node) override {
    auto lost = runtime_->MarkNodeLost(node);
    if (!lost.ok()) return lost.status();
    const std::uint64_t first = spec_.global_offset[0];
    const std::uint64_t extent = spec_.global[0];
    const auto dead = static_cast<RegionDirectory::Owner>(node);
    // Within a buffer arg's window the shadow holds the launch's
    // pre-image, so the host takes over the lost bytes there; the rest
    // stays lost. Then byte ranges -> plan-relative dim-0 row spans, via
    // the WRITTEN partitioned args only: a lost input replica re-ships
    // from its surviving owners for free, but a lost OUTPUT range means
    // the chunk that produced it must re-run.
    std::vector<elastic::ChunkLedger::RowSpan> spans;
    for (const ClusterRuntime::LostRange& range : *lost) {
      for (const ClusterRuntime::BufferArg& arg : buffers_) {
        if (arg.id != range.buffer) continue;
        const auto [window_begin, window_end] = arg.Window(first, extent);
        const std::uint64_t begin = std::max(range.begin, window_begin);
        const std::uint64_t end = std::min(range.end, window_end);
        if (begin >= end) continue;
        {
          std::lock_guard<std::mutex> lock(arg.buffer->mutex);
          arg.buffer->dir.AddOwner(begin, end, runtime_->HostOwner());
          arg.buffer->dir.RemoveOwner(begin, end, dead);
        }
        if (!arg.written || !arg.partitioned) continue;
        spans.push_back({begin / arg.stride - first,
                         (end + arg.stride - 1) / arg.stride - first});
      }
    }
    return spans;
  }

 private:
  ClusterRuntime* runtime_;
  const ClusterRuntime::LaunchSpec spec_;
  elastic::FaultInjector* faults_;
  const std::vector<ClusterRuntime::BufferArg> buffers_;
  const double flops_total_;
  const double rows_total_;
  std::mutex mutex_;
  std::vector<double> seconds_per_row_;  // Learned this launch, per node.
};

Expected<ClusterRuntime::ElasticResult> ClusterRuntime::LaunchElastic(
    const LaunchSpec& spec) {
  return LaunchElastic(spec, ElasticOptions{});
}

Expected<ClusterRuntime::ElasticResult> ClusterRuntime::LaunchElastic(
    const LaunchSpec& spec, const ElasticOptions& options) {
  if (spec.force_node >= 0) {
    return Status(ErrorCode::kInvalidValue,
                  "LaunchElastic drives its own chunk placement; do not set "
                  "force_node on the spec");
  }
  // SubmitLaunch's front end, minus the fan-out: nothing is charged or
  // submitted, and a spec an ordinary launch would reject fails here
  // before any chunk runs.
  ResolvedLaunch launch;
  sched::PlacementPlan plan;
  {
    std::lock_guard<std::mutex> state_lock(state_mutex_);
    auto resolved = ResolveLaunchLocked(spec);
    if (!resolved.ok()) return resolved.status();
    if (!resolved->task.splittable) {
      // Elastic execution re-targets chunks freely, which only a
      // splittable launch tolerates.
      return Status(
          ErrorCode::kInvalidOperation,
          "kernel '" + spec.kernel_name +
              "' is not splittable (elastic execution re-targets chunks "
              "freely: the kernel must be range-free and every written "
              "buffer annotated kPartitionedDim0)");
    }
    auto placed = PlanLaunchLocked(spec, *resolved);
    if (!placed.ok()) return placed.status();
    launch = *std::move(resolved);
    plan = std::move(placed->plan);
  }
  const std::uint64_t align = launch.task.dim0_align;

  // Chunk granularity: explicit rows, or cut the largest shard into
  // kDefaultChunksPerShard pieces so even a one-node plan yields work the
  // peers can steal.
  std::uint64_t chunk_rows = options.chunk_rows;
  if (chunk_rows == 0) {
    std::uint64_t max_shard = 0;
    for (const sched::PlacementShard& shard : plan.shards) {
      max_shard = std::max(max_shard, shard.global_count);
    }
    chunk_rows = std::max<std::uint64_t>(
        align, (max_shard + ElasticOptions::kDefaultChunksPerShard - 1) /
                   ElasticOptions::kDefaultChunksPerShard);
  }

  elastic::ChunkLedger ledger;
  HAOCL_RETURN_IF_ERROR(ledger.Init(plan, align, chunk_rows));

  // The pre-image recovery falls back to: the host becomes a fresh owner
  // of every buffer arg's window before the first chunk runs, so a node
  // that dies holding the only copy of a range leaves the launch's input
  // bytes in the shadow (OnNodeDead). Ordered after the args' earlier
  // writers like any host-bound migration; a host-written buffer moves
  // nothing.
  for (const BufferArg& arg : launch.buffers) {
    const auto [begin, end] = arg.Window(spec.global_offset[0], spec.global[0]);
    auto gathered = SubmitMigrate(arg.id, {{begin, end - begin}},
                                  kMigrateToHost);
    if (!gathered.ok()) return gathered.status();
    const Status status = Wait(*gathered);
    (void)ReleaseCommand(*gathered);
    HAOCL_RETURN_IF_ERROR(status);
  }

  // Chunks carry the full launch's analytic cost scaled to their rows: a
  // re-chunked device-side estimate would re-charge every chunk a cold
  // pass over the node's whole resident allocation, billing ~N chunks at
  // full-buffer memory time and drowning the real per-row rates the
  // steal loop needs to see.
  ClusterRuntime::LaunchSpec chunk_spec = spec;
  if (!chunk_spec.cost_hint.has_value()) {
    chunk_spec.cost_hint = launch.task.cost;
  }
  RuntimeChunkExecutor executor(this, chunk_spec, launch.task.cost.flops,
                                std::move(launch.buffers),
                                options.fault_injector);

  // Every live node participates — idle nodes outside the plan start with
  // zero chunks and immediately steal, which is the point of elasticity.
  std::vector<std::size_t> participants;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (NodeAlive(i)) participants.push_back(i);
  }
  if (participants.empty()) {
    return Status(ErrorCode::kNodeLost, "no live nodes for elastic launch");
  }

  elastic::StealCoordinator coordinator(&ledger, &executor, participants,
                                        options);
  ElasticResult result;
  static_cast<elastic::CoordinatorReport&>(result) = coordinator.Run();
  HAOCL_RETURN_IF_ERROR(result.status);

  if (result.chunks_stolen > 0) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.stolen_chunks += result.chunks_stolen;
  }

  result.launch.modeled_seconds = result.makespan_seconds;
  result.launch.bytes_shipped = result.bytes_shipped;
  result.launch.shard_count =
      static_cast<std::uint32_t>(plan.shards.size());
  result.launch.stage_count = static_cast<std::uint32_t>(result.chunks_total);
  // Report the busiest node as "the" node, like a multi-shard aggregate.
  double busiest = -1.0;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    if (i < result.node_busy_seconds.size() &&
        result.node_busy_seconds[i] > busiest) {
      busiest = result.node_busy_seconds[i];
      result.launch.node = participants[i];
    }
  }
  HAOCL_DEBUG << "elastic launch of " << spec.kernel_name << ": "
              << result.chunks_total << " chunks, " << result.chunks_stolen
              << " stolen, " << result.chunks_reexecuted << " re-executed, "
              << result.dead_nodes.size() << " nodes lost";
  return result;
}

}  // namespace haocl::host
