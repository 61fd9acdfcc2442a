#include "host/command_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace haocl::host {

namespace {
// Minimum distance between consecutive stamps; keeps QUEUED < SUBMIT
// strict even when no modeled work advances the virtual clock in between.
constexpr double kStampEpsilon = 1e-9;
}  // namespace

CommandGraph::CommandGraph() : CommandGraph(Options{}) {}

CommandGraph::CommandGraph(Options options) : options_(std::move(options)) {
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

CommandGraph::~CommandGraph() { Shutdown(); }

double CommandGraph::NextStampLocked() {
  const double now = options_.clock ? options_.clock() : 0.0;
  double next = std::max(now, last_stamp_ + kStampEpsilon);
  if (next <= last_stamp_) {
    // The fixed epsilon underflows once the stamp magnitude eats it
    // (amplified timelines reach ~1e7 virtual seconds); fall back to the
    // next representable double to keep QUEUED < SUBMIT strict.
    next = std::nextafter(last_stamp_,
                          std::numeric_limits<double>::infinity());
  }
  last_stamp_ = next;
  return last_stamp_;
}

void CommandGraph::MarkReadyLocked(Command& command) {
  command.profile.submitted_at = NextStampLocked();
  command.state = CommandState::kSubmitted;
  if (!command.manual) ready_.Push(command.id);
}

void CommandGraph::FinalizeLocked(Command& command, Status status,
                                  FailureWork* failures) {
  CommandProfile& p = command.profile;
  if (p.submitted_at == 0.0) p.submitted_at = NextStampLocked();
  if (p.started_at == 0.0) p.started_at = p.submitted_at;
  p.finished_at = std::max(p.finished_at, p.started_at);
  command.state = status.ok() ? CommandState::kComplete : CommandState::kFailed;
  command.status = std::move(status);
  command.body = nullptr;
  --live_count_;
  ++retired_count_;

  const bool failed = command.state == CommandState::kFailed;
  const Status derived =
      failed ? Status(ErrorCode::kDependencyFailed,
                      "dependency '" + command.label +
                          "' failed: " + command.status.message())
             : Status::Ok();
  for (const Command::Dependent& edge : command.dependents) {
    auto it = commands_.find(edge.id);
    if (it == commands_.end()) continue;
    Command& next = *it->second;
    if (IsTerminal(next.state)) continue;  // Completed early (manual).
    if (failed && edge.strong) {
      failures->emplace_back(edge.id, derived);
    } else if (next.blocking_deps > 0 && --next.blocking_deps == 0) {
      MarkReadyLocked(next);
    }
  }
  // Every reference was released before retirement: reclaim the record now
  // that the dependents are notified. `command` dangles past this point.
  if (command.refs == 0) commands_.erase(command.id);
}

void CommandGraph::DrainFailuresLocked(FailureWork work) {
  // Iterative worklist: a 100k-long event-chained pipeline failing at its
  // head must not recurse once per link.
  while (!work.empty()) {
    auto [id, status] = std::move(work.back());
    work.pop_back();
    auto it = commands_.find(id);
    if (it == commands_.end()) continue;
    Command& command = *it->second;
    if (IsTerminal(command.state)) continue;
    FinalizeLocked(command, std::move(status), &work);
  }
}

void CommandGraph::RetireLocked(Command& command, Status status,
                                const Execution& exec) {
  if (IsTerminal(command.state)) return;  // Shutdown won the race.
  if (exec.has_span_) {
    CommandProfile& p = command.profile;
    if (p.submitted_at == 0.0) p.submitted_at = NextStampLocked();
    p.started_at = std::max(p.submitted_at, exec.span_start_);
    p.finished_at = std::max(p.started_at, exec.span_end_);
  } else if (command.profile.started_at != 0.0) {
    command.profile.finished_at =
        std::max(command.profile.started_at, NextStampLocked());
  }
  FailureWork failures;
  FinalizeLocked(command, std::move(status), &failures);
  DrainFailuresLocked(std::move(failures));
  retired_cv_.notify_all();
}

void CommandGraph::FailBranchLocked(Command& command, const Status& cause) {
  if (IsTerminal(command.state)) return;
  FailureWork work;
  work.emplace_back(command.id, cause);
  DrainFailuresLocked(std::move(work));
  retired_cv_.notify_all();
}

CommandId CommandGraph::Submit(Body body, std::vector<CommandId> deps,
                               std::string label,
                               std::vector<CommandId> order_after) {
  std::lock_guard<std::mutex> lock(mutex_);
  const CommandId id = next_id_++;
  auto owned = std::make_unique<Command>();
  Command& command = *owned;
  command.id = id;
  command.label = label.empty() ? "cmd" + std::to_string(id) : std::move(label);
  command.body = std::move(body);
  command.manual = command.body == nullptr;
  command.profile.queued_at = NextStampLocked();
  commands_.emplace(id, std::move(owned));
  ++live_count_;

  if (shutting_down_) {
    FailBranchLocked(command,
                     Status(ErrorCode::kInternal, "command graph shut down"));
    return id;
  }

  Status early_failure = Status::Ok();
  for (CommandId dep : deps) {
    if (dep == id) continue;
    auto it = commands_.find(dep);
    if (it == commands_.end()) {
      // Ids below next_id_ were issued and later reclaimed through
      // Release: the command retired, and releasing the handle forfeited
      // its failure status — treat as retired OK. Anything else was never
      // issued by this graph.
      if (dep != kNullCommand && dep < next_id_) continue;
      early_failure = Status(ErrorCode::kInvalidValue,
                             "unknown dependency id " + std::to_string(dep));
      break;
    }
    Command& pred = *it->second;
    if (pred.state == CommandState::kFailed) {
      early_failure = Status(ErrorCode::kDependencyFailed,
                             "dependency '" + pred.label +
                                 "' failed: " + pred.status.message());
      break;
    }
    if (pred.state == CommandState::kComplete) continue;
    pred.dependents.push_back({id, /*strong=*/true});
    ++command.blocking_deps;
  }
  if (early_failure.ok()) {
    for (CommandId dep : order_after) {
      if (dep == id) continue;
      auto it = commands_.find(dep);
      if (it == commands_.end()) continue;  // Unknown: order is trivial.
      Command& pred = *it->second;
      if (IsTerminal(pred.state)) continue;  // Order trivially satisfied.
      pred.dependents.push_back({id, /*strong=*/false});
      ++command.blocking_deps;
    }
  }
  if (!early_failure.ok()) {
    FailBranchLocked(command, early_failure);
    return id;
  }
  if (command.blocking_deps == 0) MarkReadyLocked(command);
  return id;
}

CommandId CommandGraph::SubmitManual(std::vector<CommandId> deps,
                                     std::string label) {
  return Submit(nullptr, std::move(deps),
                label.empty() ? "marker" : std::move(label));
}

Status CommandGraph::Complete(CommandId id, Status status) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = commands_.find(id);
  if (it == commands_.end()) {
    return Status(ErrorCode::kInvalidValue,
                  "unknown command id " + std::to_string(id));
  }
  Command& command = *it->second;
  if (!command.manual) {
    return Status(ErrorCode::kInvalidValue,
                  "command " + std::to_string(id) + " is not a marker");
  }
  if (IsTerminal(command.state)) {
    return Status(ErrorCode::kInvalidOperation,
                  "marker " + std::to_string(id) + " already resolved");
  }
  Execution exec;
  RetireLocked(command, std::move(status), exec);
  return Status::Ok();
}

void CommandGraph::WorkerLoop() {
  while (auto popped = ready_.Pop()) {
    const CommandId id = *popped;
    Body body;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = commands_.find(id);
      if (it == commands_.end()) continue;
      Command& command = *it->second;
      if (command.state != CommandState::kSubmitted) continue;
      command.state = CommandState::kRunning;
      command.profile.started_at = NextStampLocked();
      body = std::move(command.body);
      command.body = nullptr;
      ++running_count_;
      peak_running_ = std::max(peak_running_, running_count_);
    }
    Execution exec;
    Status status = body ? body(exec)
                         : Status(ErrorCode::kInternal, "command lost body");
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_count_;
      auto it = commands_.find(id);
      if (it != commands_.end()) RetireLocked(*it->second, std::move(status),
                                              exec);
    }
  }
}

Status CommandGraph::Wait(CommandId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Re-resolve the record on every wakeup: a concurrent Release may
  // reclaim it the moment the command retires.
  while (true) {
    auto it = commands_.find(id);
    if (it == commands_.end()) {
      if (id != kNullCommand && id < next_id_) {
        return Status::Ok();  // Released-and-reclaimed: it retired.
      }
      return Status(ErrorCode::kInvalidValue,
                    "unknown command id " + std::to_string(id));
    }
    if (IsTerminal(it->second->state)) return it->second->status;
    retired_cv_.wait(lock);
  }
}

void CommandGraph::Retain(CommandId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = commands_.find(id);
  if (it != commands_.end()) ++it->second->refs;
}

bool CommandGraph::Release(CommandId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = commands_.find(id);
  if (it == commands_.end()) return true;  // Already reclaimed.
  Command& command = *it->second;
  if (command.refs == 0 || --command.refs > 0) return command.refs == 0;
  // Live commands are reclaimed at retirement (FinalizeLocked).
  if (IsTerminal(command.state)) commands_.erase(it);
  return true;
}

std::size_t CommandGraph::LiveRecords() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return commands_.size();
}

Status CommandGraph::WaitAll() {
  std::unique_lock<std::mutex> lock(mutex_);
  retired_cv_.wait(lock, [this] { return live_count_ == 0; });
  return Status::Ok();
}

Expected<CommandState> CommandGraph::QueryState(CommandId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = commands_.find(id);
  if (it == commands_.end()) {
    return Status(ErrorCode::kInvalidValue,
                  "unknown command id " + std::to_string(id));
  }
  return it->second->state;
}

Expected<CommandProfile> CommandGraph::QueryProfile(CommandId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = commands_.find(id);
  if (it == commands_.end()) {
    return Status(ErrorCode::kInvalidValue,
                  "unknown command id " + std::to_string(id));
  }
  return it->second->profile;
}

Status CommandGraph::QueryStatus(CommandId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = commands_.find(id);
  if (it == commands_.end()) {
    return Status(ErrorCode::kInvalidValue,
                  "unknown command id " + std::to_string(id));
  }
  if (!IsTerminal(it->second->state)) {
    return Status(ErrorCode::kInvalidOperation,
                  "command " + std::to_string(id) + " still in flight");
  }
  return it->second->status;
}

std::uint32_t CommandGraph::RunningCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_count_;
}

std::uint32_t CommandGraph::PeakRunning() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_running_;
}

std::uint64_t CommandGraph::CommandsRetired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retired_count_;
}

void CommandGraph::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) return;
    shutting_down_ = true;
    const Status cause(ErrorCode::kInternal, "command graph shut down");
    // Snapshot the ids: failing a zero-ref command reclaims its record,
    // which would invalidate a live iterator over commands_.
    std::vector<CommandId> ids;
    ids.reserve(commands_.size());
    for (const auto& [id, command] : commands_) ids.push_back(id);
    for (CommandId id : ids) {
      auto it = commands_.find(id);
      if (it == commands_.end()) continue;
      // Running commands retire through their worker; fail the rest.
      if (it->second->state != CommandState::kRunning) {
        FailBranchLocked(*it->second, cause);
      }
    }
  }
  ready_.Close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace haocl::host
