// ChunkLedger: per-launch bookkeeping of steal-able work chunks.
//
// An elastic launch breaks every shard of its placement plan into chunks
// (sched::ChunkifyPlan) and tracks each one pending -> running -> done
// with an owning node. The ledger is the single source of truth the
// StealCoordinator closes its two loops over:
//   - work stealing: a drained node Steal()s the TAIL pending chunks of
//     the slowest peer's remaining range, so completed and in-flight work
//     is never touched and the victim keeps executing from the front;
//   - failure recovery: when a node dies mid-launch, ReassignLost() moves
//     its non-done chunks (plus any done chunks whose outputs died with
//     it) back to pending on surviving owners.
// Every transition is guarded by one mutex; the ledger is shared between
// the coordinator's dispatch loop and liveness callbacks.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "sched/scheduler.h"

namespace haocl::elastic {

enum class ChunkState : std::uint8_t { kPending = 0, kRunning = 1, kDone = 2 };

struct Chunk {
  std::uint64_t id = 0;        // 1-based, dense; 0 is never a chunk id.
  std::size_t owner = 0;       // Node currently responsible for it.
  std::uint64_t offset = 0;    // Plan-relative dim-0 offset.
  std::uint64_t count = 0;     // Dim-0 indices.
  ChunkState state = ChunkState::kPending;
  std::uint32_t attempts = 0;  // Executions started (>1 = re-executed).
  bool stolen = false;         // Ever re-owned by a thief.
};

// Cumulative counters for reports and the TransferStats buckets.
struct ChunkLedgerStats {
  std::uint64_t total_chunks = 0;
  std::uint64_t done_chunks = 0;
  std::uint64_t stolen_chunks = 0;     // Chunks that changed owner via steal.
  std::uint64_t requeued_chunks = 0;   // Chunks re-queued by retry/recovery.
};

class ChunkLedger {
 public:
  ChunkLedger() = default;
  ChunkLedger(const ChunkLedger&) = delete;
  ChunkLedger& operator=(const ChunkLedger&) = delete;

  // Builds the ledger from a placement plan: every shard is cut into
  // chunks of at most `chunk_rows` aligned dim-0 indices (0 = one chunk
  // per shard), owned by the shard's node. Fails if the plan is empty.
  Status Init(const sched::PlacementPlan& plan, std::uint64_t align,
              std::uint64_t chunk_rows);

  // The FRONT pending chunk owned by `node` (smallest offset), flipped to
  // running. Empty when the node has nothing pending.
  std::optional<Chunk> Acquire(std::size_t node);

  // Work stealing: moves up to `max_chunks` of the TAIL pending chunks
  // (largest offsets first) from `victim` to `thief` and returns them,
  // still pending, now owned by the thief. Running and done chunks are
  // never stolen. Returned in offset order.
  std::vector<Chunk> Steal(std::size_t victim, std::size_t thief,
                           std::size_t max_chunks);

  // running -> done by the executing node. Fails with kInvalidOperation
  // if the chunk is no longer running with this owner (it was re-targeted
  // meanwhile), so a stale completion never counts.
  Status MarkDone(std::uint64_t chunk_id, std::size_t node);

  // running -> pending (same owner): the execution failed and the chunk
  // goes back in the queue (before an abort, or before ReassignLost moves
  // a dead node's chunks).
  Status Requeue(std::uint64_t chunk_id);

  // Failure recovery: every non-done chunk owned by `dead` — plus every
  // DONE chunk of `dead` whose dim-0 range intersects `lost_rows` (its
  // outputs had no surviving copy) — is re-queued pending, ownership
  // rotated across `survivors`. Returns the re-queued chunks.
  struct RowSpan {
    std::uint64_t begin = 0;  // Plan-relative dim-0 indices.
    std::uint64_t end = 0;
  };
  std::vector<Chunk> ReassignLost(std::size_t dead,
                                  const std::vector<std::size_t>& survivors,
                                  const std::vector<RowSpan>& lost_rows);

  // Pending dim-0 indices still owned by `node` (steal victim ranking).
  [[nodiscard]] std::uint64_t PendingRowsOf(std::size_t node) const;
  // Chunks not yet done (0 = the launch is complete).
  [[nodiscard]] std::uint64_t RemainingChunks() const;
  [[nodiscard]] bool AllDone() const;
  [[nodiscard]] ChunkLedgerStats stats() const;
  // Snapshot of every chunk, in offset order (tests/reports).
  [[nodiscard]] std::vector<Chunk> Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Chunk> chunks_;  // Offset-ordered; index == id - 1.
  ChunkLedgerStats stats_;
};

}  // namespace haocl::elastic
