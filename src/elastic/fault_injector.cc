#include "elastic/fault_injector.h"

#include <string>
#include <utility>

namespace haocl::elastic {

void FaultInjector::ScriptKill(std::size_t node, std::uint64_t after_chunks) {
  std::lock_guard<std::mutex> lock(mutex_);
  NodeScript& script = scripts_[node];
  script.has_kill = true;
  script.kill_after = after_chunks;
}

void FaultInjector::SetKillHook(std::function<void(std::size_t)> hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  kill_hook_ = std::move(hook);
}

void FaultInjector::TripKillLocked(std::size_t node, NodeScript& script,
                                   std::unique_lock<std::mutex>& lock) {
  if (script.killed) return;
  script.killed = true;
  std::function<void(std::size_t)> hook = kill_hook_;
  if (hook) {
    // The hook tears down real infrastructure (connections, servers) and
    // must not run under our mutex.
    lock.unlock();
    hook(node);
    lock.lock();
  }
}

Status FaultInjector::BeforeExecute(std::size_t node) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = scripts_.find(node);
  if (it == scripts_.end()) return Status::Ok();
  NodeScript& script = it->second;
  if (script.has_kill && script.completed >= script.kill_after) {
    TripKillLocked(node, script, lock);
    return Status(ErrorCode::kNodeLost,
                  "fault injector: node " + std::to_string(node) +
                      " scripted dead after " +
                      std::to_string(script.kill_after) + " chunks");
  }
  return Status::Ok();
}

void FaultInjector::AfterExecute(std::size_t node) {
  std::unique_lock<std::mutex> lock(mutex_);
  NodeScript& script = scripts_[node];
  ++script.completed;
  if (script.has_kill && script.completed >= script.kill_after) {
    TripKillLocked(node, script, lock);
  }
}

bool FaultInjector::IsDead(std::size_t node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = scripts_.find(node);
  return it != scripts_.end() && it->second.killed;
}

std::uint64_t FaultInjector::CompletedChunks(std::size_t node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = scripts_.find(node);
  return it == scripts_.end() ? 0 : it->second.completed;
}

}  // namespace haocl::elastic
