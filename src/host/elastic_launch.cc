// Elastic launch: the body of a launch command whose spec sets
// LaunchSpec::elastic, and the adapter that bridges the StealCoordinator's
// ChunkExecutor interface onto the runtime.
//
// SubmitLaunch's own front end has resolved, checked and planned the
// launch and recorded its hazards. The body gathers the pre-image, cuts
// the plan into a ChunkLedger (sched::ChunkifyPlan, the cutter out-of-core
// stages use too) and lets the StealCoordinator drain it, each chunk an
// ExecLaunch on its node through the full coherence machinery. Work
// stealing and failure recovery only re-target ledger entries; the chunk
// path is oblivious to both, which keeps the result bit-identical to the
// single-node run.
#include <algorithm>
#include <limits>
#include <string>

#include "common/log.h"
#include "elastic/steal_coordinator.h"
#include "host/cluster_runtime.h"

namespace haocl::host {

// The coordinator's window onto this runtime, called from the elastic
// command's graph worker only. It reads runtime state under the runtime's
// own locks (friend).
class RuntimeChunkExecutor : public elastic::ChunkExecutor {
 public:
  // `spec` is the whole launch, its cost hint the full launch's.
  // `launch`'s buffer args bound the lost bytes the host takes over; the
  // partitioned ones drive locality ranking, the written partitioned ones
  // lost-row conversion.
  RuntimeChunkExecutor(ClusterRuntime* runtime,
                       const ClusterRuntime::LaunchSpec& spec,
                       const ClusterRuntime::ResolvedLaunch& launch,
                       CommandGraph::Execution& e)
      : runtime_(runtime),
        spec_(spec),
        launch_(launch),
        e_(e),
        faults_(spec.elastic->fault_injector),
        seconds_per_row_(runtime->devices_.size(), 0.0) {}

  // Over the chunk runs that completed: summed modeled joules and the
  // last kernel's end (virtual_completion), and the first one's start.
  LaunchResult total;
  double span_start = std::numeric_limits<double>::infinity();

  Expected<elastic::ChunkOutcome> Execute(const elastic::Chunk& chunk,
                                          std::size_t node) override {
    if (faults_ != nullptr) {
      Status scripted = faults_->BeforeExecute(node);
      if (!scripted.ok()) return scripted;
    }
    auto ran = runtime_->ExecLaunch(
        ClusterRuntime::MakeLaunchWork(spec_, launch_, chunk.offset,
                                       chunk.count, node),
        e_);
    if (!ran.ok()) return ran.status();
    const LaunchResult& result = *ran;
    total.modeled_joules += result.modeled_joules;
    total.virtual_completion =
        std::max(total.virtual_completion, result.virtual_completion);
    span_start = std::min(span_start,
                          result.virtual_completion - result.modeled_seconds);
    double seconds = result.modeled_seconds;
    if (faults_ != nullptr) seconds += faults_->AfterExecute(node);
    // Learn the node's per-row rate from its own completed chunks (EWMA
    // 0.5): the mis-calibration a straggler hides from the static model
    // shows up here after its first chunk.
    const double per_row =
        seconds / static_cast<double>(std::max<std::uint64_t>(1, chunk.count));
    double& slot = seconds_per_row_[node];
    slot = slot == 0.0 ? per_row : 0.5 * slot + 0.5 * per_row;
    elastic::ChunkOutcome outcome;
    outcome.modeled_seconds = seconds;
    outcome.bytes_shipped = result.bytes_shipped;
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
    if (node < seconds_per_row_.size() && seconds_per_row_[node] > 0.0) {
      return seconds_per_row_[node];
    }
    // Cold start: the cross-launch learned rate table, scaled to rows.
    const sched::KernelRateTable::Rate rate =
        runtime_->ObservedKernelRate(node, spec_.kernel_name);
    const double flops_total = launch_.task.cost.flops;
    if (rate.samples > 0 && rate.seconds_per_flop > 0.0 && flops_total > 0.0) {
      return rate.seconds_per_flop *
             (flops_total /
              static_cast<double>(std::max<std::uint64_t>(1, spec_.global[0])));
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
    for (const ClusterRuntime::BufferArg& arg : launch_.buffers) {
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
      for (const ClusterRuntime::BufferArg& arg : launch_.buffers) {
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
  const ClusterRuntime::LaunchSpec& spec_;
  const ClusterRuntime::ResolvedLaunch& launch_;
  CommandGraph::Execution& e_;
  elastic::FaultInjector* faults_;
  std::vector<double> seconds_per_row_;  // Learned this launch, per node.
};

Status ClusterRuntime::ExecElastic(const LaunchSpec& spec,
                                   const ResolvedLaunch& launch,
                                   const sched::PlacementPlan& plan,
                                   LaunchPlan& result,
                                   CommandGraph::Execution& e) {
  const ElasticOptions& options = *spec.elastic;
  const sched::TaskInfo& task = launch.task;

  // Every live node participates — idle nodes outside the plan start with
  // zero chunks and immediately steal, which is the point of elasticity —
  // except one that cannot hold even a stage of the launch. A chunk runs
  // in-core wherever it lands: where the whole range would stage, chunks
  // are no larger than its stages (the stage rule, sched::StageRows). With
  // no participant, the coordinator fails the launch with kNodeLost.
  std::vector<std::size_t> participants;
  std::uint64_t max_rows = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (!NodeAlive(i)) continue;
    const std::optional<std::uint64_t> rows =
        sched::StageRows(task, node_pools_[i]->capacity(), spec.global[0]);
    if (!rows.has_value()) continue;
    if (*rows > 0) max_rows = std::min(max_rows, *rows);
    participants.push_back(i);
  }

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
        task.dim0_align,
        (max_shard + ElasticOptions::kDefaultChunksPerShard - 1) /
            ElasticOptions::kDefaultChunksPerShard);
  }
  elastic::ChunkLedger ledger;
  HAOCL_RETURN_IF_ERROR(
      ledger.Init(plan, task.dim0_align, std::min(chunk_rows, max_rows)));
  // A plan node that died since submit hands its chunks to the others.
  for (const sched::PlacementShard& shard : plan.shards) {
    if (std::find(participants.begin(), participants.end(), shard.node) ==
        participants.end()) {
      (void)ledger.ReassignLost(shard.node, participants, {});
    }
  }

  // The pre-image recovery falls back to: the host becomes a fresh owner
  // of every buffer arg's window before the first chunk runs, so a node
  // that dies holding the only copy of a range leaves the launch's input
  // bytes in the shadow (OnNodeDead). The command's hazards order it after
  // the args' earlier writers; a host-written buffer moves nothing.
  for (const BufferArg& arg : launch.buffers) {
    const auto [begin, end] = arg.Window(spec.global_offset[0], spec.global[0]);
    std::lock_guard<std::mutex> lock(arg.buffer->mutex);
    HAOCL_RETURN_IF_ERROR(EnsureHostRangeLocked(arg.id, *arg.buffer, begin, end));
  }

  RuntimeChunkExecutor executor(this, spec, launch, e);
  elastic::StealCoordinator coordinator(&ledger, &executor, participants,
                                        options);
  elastic::CoordinatorReport report = coordinator.Run();
  HAOCL_RETURN_IF_ERROR(report.status);

  LaunchResult aggregate = executor.total;
  aggregate.modeled_seconds = report.makespan_seconds;
  aggregate.bytes_shipped = report.bytes_shipped;
  aggregate.shard_count = static_cast<std::uint32_t>(plan.shards.size());
  aggregate.stage_count = static_cast<std::uint32_t>(report.chunks_total);
  // Report the busiest node as "the" node, like a multi-shard aggregate.
  const std::vector<double>& busy = report.node_busy_seconds;
  aggregate.node =
      participants[std::max_element(busy.begin(), busy.end()) - busy.begin()];
  e.SetSpan(executor.span_start, aggregate.virtual_completion);
  HAOCL_DEBUG << "elastic launch of " << spec.kernel_name << ": "
              << report.chunks_total << " chunks, " << report.chunks_stolen
              << " stolen, " << report.chunks_reexecuted << " re-executed, "
              << report.dead_nodes.size() << " nodes lost";
  aggregate.elastic = std::move(report);
  result = std::move(aggregate);
  return Status::Ok();
}

}  // namespace haocl::host
