// StealCoordinator: host-side dispatch loop for elastic launches.
//
// The coordinator drains a ChunkLedger with a discrete-event dispatch
// keyed on modeled execution time: each node carries a virtual clock of
// busy-seconds, and the next chunk always goes to the node whose clock is
// lowest. Because executions report *modeled* seconds (the simulated
// driver returns at wire speed), virtual time — not wall time — is what
// exposes stragglers, keeps the schedule deterministic, and lets the
// whole loop run on one thread (TSan-clean by construction).
//
// Two loops close over the ledger:
//   - Work stealing: when a node's own range drains, it steals TAIL
//     chunks from the victim with the most remaining virtual work
//     (pending rows x learned seconds-per-row + broker backlog),
//     preferring victims whose rows are already resident on the thief.
//     A steal only re-targets ledger entries: each Execute is one blocking
//     sub-launch, so the victim never has a stolen chunk queued.
//   - Failure recovery: an Execute that fails with a liveness error
//     (kNodeLost from a scripted kill, kNodeUnreachable, or kNetworkError
//     from an RPC timeout or dropped connection) marks the node dead, even
//     if it still answers a Probe: the timed-out request may yet run
//     there, so the chunk is never retried on the same node. A failed
//     heartbeat Probe does the same. OnNodeDead() tells the host which
//     output rows died with the node, and the ledger re-queues its
//     non-done chunks — plus done chunks whose outputs were lost — onto
//     survivors so the launch still completes bit-identical.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "elastic/chunk_ledger.h"

namespace haocl::elastic {

// What one chunk execution cost, in the host's modeled units.
struct ChunkOutcome {
  double modeled_seconds = 0.0;
  std::uint64_t bytes_shipped = 0;
};

// The coordinator's view of the cluster. ClusterRuntime adapts itself to
// this interface (RuntimeChunkExecutor); tests plug in mocks.
class ChunkExecutor {
 public:
  virtual ~ChunkExecutor() = default;

  // Runs `chunk` on `node` synchronously. kNodeLost / kNodeUnreachable /
  // kNetworkError signal the node may be dead.
  virtual Expected<ChunkOutcome> Execute(const Chunk& chunk,
                                         std::size_t node) = 0;

  // Liveness probe for heartbeat sweeps. Ok = alive.
  virtual Status Probe(std::size_t node) = 0;

  // Learned compute rate for victim ranking; seconds per dim-0 index.
  virtual double SecondsPerRow(std::size_t node) = 0;
  // Broker backlog already queued ahead of this launch on `node`.
  virtual double BacklogSeconds(std::size_t node) = 0;
  // How many of [offset, offset+count) input rows are already resident on
  // `node` (steal locality preference).
  virtual std::uint64_t ResidentRowsOn(std::size_t node, std::uint64_t offset,
                                       std::uint64_t count) = 0;

  // Declares `node` dead to the host layer (directory fail-over, broker
  // drain) and returns the plan-relative output row spans whose only
  // fresh copy died with it — exactly the done chunks that must re-run.
  virtual Expected<std::vector<ChunkLedger::RowSpan>> OnNodeDead(
      std::size_t node) = 0;
};

struct CoordinatorOptions {
  bool stealing = true;             // Loop 1 on/off (ablation + bench).
  std::size_t max_steal_chunks = 2; // Tail chunks per steal attempt.
  bool heartbeat = false;           // Probe idle nodes between dispatches.
  std::chrono::milliseconds heartbeat_interval{50};
};

struct CoordinatorReport {
  Status status = Status::Ok();
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_stolen = 0;
  std::uint64_t chunks_reexecuted = 0;  // attempts > 1.
  double makespan_seconds = 0.0;        // Max node virtual clock.
  std::vector<double> node_busy_seconds;
  std::uint64_t bytes_shipped = 0;
  std::vector<std::size_t> dead_nodes;
};

class StealCoordinator {
 public:
  // `ledger` and `executor` must outlive the coordinator. `nodes` are the
  // node indices eligible to run chunks.
  StealCoordinator(ChunkLedger* ledger, ChunkExecutor* executor,
                   std::vector<std::size_t> nodes, CoordinatorOptions options);

  // Drains the ledger to completion (or until no live node can make
  // progress). Single-threaded; returns the full report.
  CoordinatorReport Run();

 private:
  struct NodeState {
    std::size_t index = 0;
    double clock = 0.0;  // Virtual busy-seconds accumulated this launch.
    bool alive = true;
  };

  // Picks the steal victim: max remaining virtual work, locality breaking
  // ties. Returns nullptr when nothing is worth stealing.
  NodeState* PickVictim(NodeState* thief);
  // Handles an Execute failure: re-queues the chunk and, on a liveness
  // error, fails the node over. Returns false when the error was not a
  // liveness error (launch must abort).
  bool HandleNodeFailure(NodeState* node, std::uint64_t chunk_id,
                         const Status& error);
  void FailOver(NodeState* node);
  std::vector<std::size_t> LiveNodes() const;

  ChunkLedger* ledger_;
  ChunkExecutor* executor_;
  CoordinatorOptions options_;
  std::vector<NodeState> nodes_;
  CoordinatorReport report_;
  std::chrono::steady_clock::time_point last_heartbeat_;
};

}  // namespace haocl::elastic
