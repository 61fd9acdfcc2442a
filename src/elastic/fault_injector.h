// FaultInjector: deterministic, scripted faults for elastic launches.
//
// Tests and benchmarks script faults ahead of time — "kill node 1 after
// it finishes 3 chunks" — and the injector fires them off per-node chunk
// counters, so a given script always faults at exactly the same point in
// the dispatch order.
// No clocks, no randomness: re-running the same launch with the same
// script reproduces the same failure bit-for-bit.
//
// The RuntimeChunkExecutor (and mock executors in tests) consult the
// injector around every chunk execution:
//   - BeforeExecute() returns kNodeLost once a node is dead, so in-flight
//     and subsequent chunks on it fail exactly like a vanished peer;
//   - a scripted kill trips AFTER the node completes its Nth chunk, and
//     an optional kill hook lets the harness actually tear the node down
//     (drop the TCP connection, stop the sim server) at that moment.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace haocl::elastic {

class FaultInjector {
 public:
  // After `node` COMPLETES `after_chunks` chunk executions, it dies: the
  // kill hook fires once and every later BeforeExecute on it fails with
  // kNodeLost. after_chunks == 0 kills it before it runs anything.
  void ScriptKill(std::size_t node, std::uint64_t after_chunks);

  // Invoked exactly once, when a scripted kill trips. The harness uses it
  // to physically sever the node (close connection / stop server) so the
  // failure is real, not just simulated.
  void SetKillHook(std::function<void(std::size_t node)> hook);

  // Called by the executor before running a chunk on `node`. kNodeLost if
  // the node is (or just became) dead.
  Status BeforeExecute(std::size_t node);

  // Called after `node` completes a chunk. Trips a scripted kill when the
  // completion count reaches it.
  void AfterExecute(std::size_t node);

  [[nodiscard]] bool IsDead(std::size_t node) const;
  [[nodiscard]] std::uint64_t CompletedChunks(std::size_t node) const;

 private:
  struct NodeScript {
    bool has_kill = false;
    std::uint64_t kill_after = 0;
    bool killed = false;
    std::uint64_t completed = 0;
  };

  void TripKillLocked(std::size_t node, NodeScript& script,
                      std::unique_lock<std::mutex>& lock);

  mutable std::mutex mutex_;
  std::unordered_map<std::size_t, NodeScript> scripts_;
  std::function<void(std::size_t)> kill_hook_;
};

}  // namespace haocl::elastic
