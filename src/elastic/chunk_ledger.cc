#include "elastic/chunk_ledger.h"

#include <algorithm>
#include <string>

namespace haocl::elastic {

Status ChunkLedger::Init(const sched::PlacementPlan& plan,
                         std::uint64_t align, std::uint64_t chunk_rows) {
  const std::vector<std::uint64_t> shard_rows(plan.shards.size(), chunk_rows);
  std::vector<sched::ChunkSpan> spans =
      sched::ChunkifyPlan(plan, align, shard_rows);
  if (spans.empty()) {
    return Status(ErrorCode::kInvalidValue,
                  "elastic launch needs a non-empty placement plan");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  chunks_.clear();
  chunks_.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Chunk chunk;
    chunk.id = i + 1;
    chunk.owner = plan.shards[spans[i].shard].node;
    chunk.offset = spans[i].offset;
    chunk.count = spans[i].count;
    chunks_.push_back(chunk);
  }
  stats_ = ChunkLedgerStats{};
  stats_.total_chunks = chunks_.size();
  return Status::Ok();
}

std::optional<Chunk> ChunkLedger::Acquire(std::size_t node) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Chunk& chunk : chunks_) {
    if (chunk.owner != node || chunk.state != ChunkState::kPending) continue;
    chunk.state = ChunkState::kRunning;
    ++chunk.attempts;
    return chunk;
  }
  return std::nullopt;
}

std::vector<Chunk> ChunkLedger::Steal(std::size_t victim, std::size_t thief,
                                      std::size_t max_chunks) {
  std::vector<Chunk> stolen;
  if (max_chunks == 0 || victim == thief) return stolen;
  std::lock_guard<std::mutex> lock(mutex_);
  // Tail-first: walk from the largest offset so the victim keeps draining
  // its range front-to-back undisturbed.
  for (auto it = chunks_.rbegin();
       it != chunks_.rend() && stolen.size() < max_chunks; ++it) {
    if (it->owner != victim || it->state != ChunkState::kPending) continue;
    it->owner = thief;
    it->stolen = true;
    ++stats_.stolen_chunks;
    stolen.push_back(*it);
  }
  std::reverse(stolen.begin(), stolen.end());  // Back to offset order.
  return stolen;
}

Status ChunkLedger::MarkDone(std::uint64_t chunk_id, std::size_t node) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (chunk_id == 0 || chunk_id > chunks_.size()) {
    return Status(ErrorCode::kInvalidValue,
                  "no chunk " + std::to_string(chunk_id));
  }
  Chunk& chunk = chunks_[chunk_id - 1];
  if (chunk.state != ChunkState::kRunning || chunk.owner != node) {
    return Status(ErrorCode::kInvalidOperation,
                  "chunk " + std::to_string(chunk_id) +
                      " was re-targeted while node " + std::to_string(node) +
                      " ran it");
  }
  chunk.state = ChunkState::kDone;
  ++stats_.done_chunks;
  return Status::Ok();
}

Status ChunkLedger::Requeue(std::uint64_t chunk_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (chunk_id == 0 || chunk_id > chunks_.size()) {
    return Status(ErrorCode::kInvalidValue,
                  "no chunk " + std::to_string(chunk_id));
  }
  Chunk& chunk = chunks_[chunk_id - 1];
  if (chunk.state != ChunkState::kRunning) {
    return Status(ErrorCode::kInvalidOperation,
                  "chunk " + std::to_string(chunk_id) + " is not running");
  }
  chunk.state = ChunkState::kPending;
  ++stats_.requeued_chunks;
  return Status::Ok();
}

std::vector<Chunk> ChunkLedger::ReassignLost(
    std::size_t dead, const std::vector<std::size_t>& survivors,
    const std::vector<RowSpan>& lost_rows) {
  std::vector<Chunk> requeued;
  if (survivors.empty()) return requeued;
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t next = 0;  // Rotate ownership across survivors.
  for (Chunk& chunk : chunks_) {
    if (chunk.owner != dead) continue;
    bool lost = chunk.state != ChunkState::kDone;
    if (!lost) {
      // A done chunk must re-run only when its output rows died with the
      // node (no surviving fresh copy anywhere).
      for (const RowSpan& span : lost_rows) {
        if (span.begin < chunk.offset + chunk.count &&
            chunk.offset < span.end) {
          lost = true;
          break;
        }
      }
    }
    if (!lost) continue;
    if (chunk.state == ChunkState::kDone) --stats_.done_chunks;
    chunk.state = ChunkState::kPending;
    chunk.owner = survivors[next++ % survivors.size()];
    chunk.stolen = true;
    ++stats_.requeued_chunks;
    requeued.push_back(chunk);
  }
  return requeued;
}

std::uint64_t ChunkLedger::PendingRowsOf(std::size_t node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t rows = 0;
  for (const Chunk& chunk : chunks_) {
    if (chunk.owner == node && chunk.state == ChunkState::kPending) {
      rows += chunk.count;
    }
  }
  return rows;
}

std::uint64_t ChunkLedger::RemainingChunks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t remaining = 0;
  for (const Chunk& chunk : chunks_) {
    remaining += chunk.state != ChunkState::kDone ? 1 : 0;
  }
  return remaining;
}

bool ChunkLedger::AllDone() const { return RemainingChunks() == 0; }

ChunkLedgerStats ChunkLedger::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<Chunk> ChunkLedger::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return chunks_;
}

}  // namespace haocl::elastic
