#include "elastic/steal_coordinator.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/log.h"

namespace haocl::elastic {

StealCoordinator::StealCoordinator(ChunkLedger* ledger, ChunkExecutor* executor,
                                   std::vector<std::size_t> nodes,
                                   CoordinatorOptions options)
    : ledger_(ledger), executor_(executor), options_(options) {
  nodes_.reserve(nodes.size());
  for (std::size_t index : nodes) {
    NodeState state;
    state.index = index;
    // A node that starts the launch with broker backlog starts its virtual
    // clock behind, so dispatch naturally favours idle nodes.
    state.clock = executor_->BacklogSeconds(index);
    nodes_.push_back(state);
  }
  last_heartbeat_ = std::chrono::steady_clock::now();
}

std::vector<std::size_t> StealCoordinator::LiveNodes() const {
  std::vector<std::size_t> live;
  for (const NodeState& node : nodes_) {
    if (node.alive) live.push_back(node.index);
  }
  return live;
}

StealCoordinator::NodeState* StealCoordinator::PickVictim(NodeState* thief) {
  struct Candidate {
    NodeState* node;
    double work;
  };
  std::vector<Candidate> candidates;
  double max_work = 0.0;
  for (NodeState& victim : nodes_) {
    if (!victim.alive || &victim == thief) continue;
    const std::uint64_t rows = ledger_->PendingRowsOf(victim.index);
    if (rows == 0) continue;
    const double work = static_cast<double>(rows) *
                            executor_->SecondsPerRow(victim.index) +
                        executor_->BacklogSeconds(victim.index);
    candidates.push_back({&victim, work});
    max_work = std::max(max_work, work);
  }
  if (candidates.empty()) return nullptr;
  // Locality tiebreak: among victims within 10% of the heaviest remaining
  // work, prefer the one whose pending rows the directory already shows
  // resident on the thief — fewer bytes shipped per stolen chunk.
  NodeState* best = nullptr;
  double best_work = -1.0;
  std::uint64_t best_resident = 0;
  const std::vector<Chunk> snapshot = ledger_->Snapshot();
  for (const Candidate& candidate : candidates) {
    if (candidate.work < max_work * 0.9) continue;
    std::uint64_t resident = 0;
    for (const Chunk& chunk : snapshot) {
      if (chunk.owner != candidate.node->index ||
          chunk.state != ChunkState::kPending) {
        continue;
      }
      resident +=
          executor_->ResidentRowsOn(thief->index, chunk.offset, chunk.count);
    }
    if (best == nullptr || resident > best_resident ||
        (resident == best_resident && candidate.work > best_work)) {
      best = candidate.node;
      best_work = candidate.work;
      best_resident = resident;
    }
  }
  return best;
}

void StealCoordinator::FailOver(NodeState* node) {
  if (!node->alive) return;
  node->alive = false;
  report_.dead_nodes.push_back(node->index);
  HAOCL_INFO << "elastic: node " << node->index
             << " declared dead; re-queueing its chunks";
  std::vector<ChunkLedger::RowSpan> lost_rows;
  auto lost = executor_->OnNodeDead(node->index);
  if (lost.ok()) {
    lost_rows = std::move(lost.value());
  } else {
    // If the host could not tell us which rows died, be conservative and
    // re-run everything the node finished: correctness over speed.
    lost_rows.push_back(
        {0, std::numeric_limits<std::uint64_t>::max()});
    HAOCL_WARN << "elastic: lost-range query failed ("
               << lost.status().message() << "); re-running all of node "
               << node->index << "'s chunks";
  }
  std::vector<std::size_t> survivors = LiveNodes();
  std::vector<Chunk> requeued =
      ledger_->ReassignLost(node->index, survivors, lost_rows);
  HAOCL_DEBUG << "elastic: re-queued " << requeued.size()
              << " chunks from dead node " << node->index;
}

bool StealCoordinator::HandleNodeFailure(NodeState* node,
                                         std::uint64_t chunk_id,
                                         const Status& error) {
  const ErrorCode code = error.code();
  const bool liveness = code == ErrorCode::kNodeLost ||
                        code == ErrorCode::kNodeUnreachable ||
                        code == ErrorCode::kNetworkError;
  // The chunk did not complete, so Requeue (not MarkDone) hands it back:
  // for a genuine execution error before the launch aborts, for a
  // liveness error before ReassignLost rotates ownership.
  (void)ledger_->Requeue(chunk_id);
  if (!liveness) return false;
  // Fail over even when the node still answers a probe: after a timed-out
  // call the request can still be queued or running there, so a retry on
  // the same node could run beside the late original (an in-place kernel
  // would apply twice). A survivor re-runs the chunk from the pre-image.
  FailOver(node);
  return true;
}

CoordinatorReport StealCoordinator::Run() {
  report_.chunks_total = ledger_->stats().total_chunks;
  while (!ledger_->AllDone()) {
    // Optional heartbeat sweep between dispatches (real-time interval so
    // quiet launches do not spam probes).
    if (options_.heartbeat) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_heartbeat_ >= options_.heartbeat_interval) {
        last_heartbeat_ = now;
        for (NodeState& node : nodes_) {
          if (node.alive && !executor_->Probe(node.index).ok()) {
            FailOver(&node);
          }
        }
      }
    }

    // Dispatch to the node with the lowest virtual clock.
    NodeState* next = nullptr;
    for (NodeState& node : nodes_) {
      if (!node.alive) continue;
      if (next == nullptr || node.clock < next->clock) next = &node;
    }
    if (next == nullptr) {
      report_.status =
          Status(ErrorCode::kNodeLost,
                 "all nodes died mid-launch; " +
                     std::to_string(ledger_->RemainingChunks()) +
                     " chunks unrecoverable");
      break;
    }

    std::optional<Chunk> chunk = ledger_->Acquire(next->index);
    if (!chunk.has_value()) {
      // Drained: steal from the heaviest victim, or park this node by
      // advancing its clock past the next-busiest so dispatch moves on.
      if (options_.stealing) {
        NodeState* victim = PickVictim(next);
        if (victim != nullptr &&
            !ledger_->Steal(victim->index, next->index,
                            options_.max_steal_chunks)
                 .empty()) {
          continue;  // Re-dispatch; the thief now owns pending work.
        }
      }
      // Nothing to steal. When no live node holds pending work either,
      // the chunks left belong to no live node (none is running: Execute
      // returns before the next dispatch), so bail instead of spinning.
      bool any_pending = false;
      for (const NodeState& node : nodes_) {
        if (node.alive && ledger_->PendingRowsOf(node.index) > 0) {
          any_pending = true;
          break;
        }
      }
      if (!any_pending) {
        report_.status = Status(ErrorCode::kInternal,
                                "elastic dispatch stalled with " +
                                    std::to_string(ledger_->RemainingChunks()) +
                                    " chunks not done");
        break;
      }
      // Everything left is owned by busier nodes. Park this node at the
      // max clock so dispatch moves on to the others.
      double max_clock = next->clock;
      for (const NodeState& node : nodes_) {
        if (node.alive) max_clock = std::max(max_clock, node.clock);
      }
      next->clock = std::max(next->clock, max_clock) + 1e-9;
      continue;
    }

    auto outcome = executor_->Execute(*chunk, next->index);
    if (!outcome.ok()) {
      if (!HandleNodeFailure(next, chunk->id, outcome.status())) {
        report_.status = outcome.status();
        break;
      }
      continue;
    }
    // Only this thread re-targets chunks, never a running one, so a
    // refused completion means the ledger broke: end the launch.
    Status done = ledger_->MarkDone(chunk->id, next->index);
    if (!done.ok()) {
      report_.status = std::move(done);
      break;
    }
    next->clock += outcome.value().modeled_seconds;
    report_.bytes_shipped += outcome.value().bytes_shipped;
  }

  const ChunkLedgerStats stats = ledger_->stats();
  report_.chunks_stolen = stats.stolen_chunks;
  for (const Chunk& chunk : ledger_->Snapshot()) {
    if (chunk.attempts > 1) ++report_.chunks_reexecuted;
  }
  report_.makespan_seconds = 0.0;
  report_.node_busy_seconds.clear();
  for (const NodeState& node : nodes_) {
    report_.node_busy_seconds.push_back(node.clock);
    report_.makespan_seconds = std::max(report_.makespan_seconds, node.clock);
  }
  return report_;
}

}  // namespace haocl::elastic
