// Asynchronous command graph: the execution engine behind the host
// dispatch API.
//
// Every piece of deferred work the host runtime performs — shadow writes,
// result gathers, buffer copies, kernel launches, user-event markers — is
// submitted here as a *command* with an explicit dependency list. The graph
// tracks per-command state through the OpenCL-style lifecycle
//   queued -> submitted -> running -> complete | failed
// resolves dependencies as predecessors retire, and hands ready commands to
// a small worker pool. Command bodies perform their node RPCs through
// net::RpcClient::CallAsync and block only their own worker, so transfers
// and kernels targeting distinct nodes are in flight simultaneously instead
// of serializing behind one global runtime lock.
//
// Timestamps are virtual-time seconds (the cluster model's clock, see
// host/virtual_timeline.h), strictly monotonic per graph, so
// CL_PROFILING_COMMAND_QUEUED < SUBMIT <= START <= END holds for every
// retired command.
//
// Failure is sticky: a failed command fails every transitive dependent with
// ErrorCode::kDependencyFailed before they run.
//
// Record retention is reference-counted: every command is born with one
// reference (owned by whoever called Submit); Retain/Release adjust it.
// A record whose count reaches zero is reclaimed once the command retires
// — its state, status, and profile (the body is dropped at retirement
// regardless) stay queryable only while a reference is held. This is what
// keeps million-enqueue sessions bounded: the OpenCL shim releases its
// reference from clReleaseEvent and when a queue's tail advances, and the
// cluster runtime's blocking wrappers release after consuming results.
// Dependency edges on reclaimed ids resolve as "already retired OK" (a
// reclaimed command's failure status is gone with its record; releasing a
// handle declares you no longer care).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace haocl::host {

using CommandId = std::uint64_t;
inline constexpr CommandId kNullCommand = 0;

enum class CommandState : std::uint8_t {
  kQueued = 0,     // Waiting on dependencies.
  kSubmitted = 1,  // Dependencies resolved; in the ready queue.
  kRunning = 2,    // A worker is executing the body.
  kComplete = 3,   // Body returned OK (or manual command completed OK).
  kFailed = 4,     // Body returned an error, a dependency failed, or the
                   // graph shut down underneath the command.
};
[[nodiscard]] constexpr bool IsTerminal(CommandState state) {
  return state == CommandState::kComplete || state == CommandState::kFailed;
}

// Virtual-time stamps of one command's lifecycle.
struct CommandProfile {
  double queued_at = 0.0;     // Submit() call.
  double submitted_at = 0.0;  // Last dependency resolved.
  double started_at = 0.0;    // Worker began the body / span start.
  double finished_at = 0.0;   // Body returned / span end.
};

class CommandGraph {
 public:
  // Handed to the body; lets it report the virtual-time span of the work it
  // performed (e.g. the modeled kernel interval). Without a span the
  // command's start/end collapse onto its dispatch stamps.
  class Execution {
   public:
    void SetSpan(double start_seconds, double end_seconds) {
      span_start_ = start_seconds;
      span_end_ = end_seconds;
      has_span_ = true;
    }

   private:
    friend class CommandGraph;
    double span_start_ = 0.0;
    double span_end_ = 0.0;
    bool has_span_ = false;
  };

  using Body = std::function<Status(Execution&)>;

  struct Options {
    std::size_t workers = 4;
    // Virtual-time source (typically the runtime's timeline makespan). The
    // graph enforces strict monotonicity on top of it; unset means stamps
    // are a pure logical clock.
    std::function<double()> clock;
  };

  CommandGraph();  // Default options.
  explicit CommandGraph(Options options);
  ~CommandGraph();
  CommandGraph(const CommandGraph&) = delete;
  CommandGraph& operator=(const CommandGraph&) = delete;

  // Submits a command whose body runs once every dependency retires.
  // `deps` are strong edges: a failed predecessor fails this command with
  // kDependencyFailed. `order_after` are weak edges — scheduling order
  // only; a failed predecessor merely unblocks this command (the runtime's
  // implicit buffer hazards use these, so one failed writer does not
  // poison every later user of the buffer). Dependency ids this graph
  // never issued fail the command immediately (never silently dropped);
  // ids whose records were released-and-reclaimed count as retired OK.
  // Returns the command's id; the graph owns the body.
  CommandId Submit(Body body, std::vector<CommandId> deps = {},
                   std::string label = {},
                   std::vector<CommandId> order_after = {});

  // Submits a command with no body: it completes only through Complete().
  // This is the OpenCL user-event / barrier primitive — dependents stay
  // queued until the application resolves the marker.
  CommandId SubmitManual(std::vector<CommandId> deps = {},
                         std::string label = {});

  // Resolves a manual command (OK completes it; an error fails it and
  // propagates). Errors: unknown id, non-manual command, already terminal.
  Status Complete(CommandId id, Status status = Status::Ok());

  // Blocks until the command retires; returns its terminal status.
  Status Wait(CommandId id);

  // Record reference counting (see the file comment). Retain on an
  // unknown id is a no-op; Release returns true once the record is gone —
  // immediately when the command already retired, else at retirement.
  void Retain(CommandId id);
  bool Release(CommandId id);
  // Records currently held (live commands + retained retirees); the bound
  // the release protocol maintains.
  [[nodiscard]] std::size_t LiveRecords() const;

  // Blocks until every submitted command has retired. Pending manual
  // commands must be Complete()d first or this deadlocks by design.
  Status WaitAll();

  [[nodiscard]] Expected<CommandState> QueryState(CommandId id) const;
  [[nodiscard]] Expected<CommandProfile> QueryProfile(CommandId id) const;
  // Non-blocking peek at a retired command's terminal status; reports
  // kInvalidOperation while the command is still in flight.
  [[nodiscard]] Status QueryStatus(CommandId id) const;

  // Observability: commands currently executing, the high-water mark of
  // simultaneous execution (the overlap proof for the two-node test), and
  // total retirements.
  [[nodiscard]] std::uint32_t RunningCount() const;
  [[nodiscard]] std::uint32_t PeakRunning() const;
  [[nodiscard]] std::uint64_t CommandsRetired() const;

  // Fails every non-terminal command and joins the workers. Idempotent;
  // the destructor calls it.
  void Shutdown();

 private:
  struct Command {
    CommandId id = kNullCommand;
    std::string label;
    Body body;  // Empty for manual commands; dropped on retirement.
    bool manual = false;
    CommandState state = CommandState::kQueued;
    Status status;
    CommandProfile profile;
    std::uint32_t refs = 1;         // Record references (creation ref).
    std::size_t blocking_deps = 0;  // Unresolved predecessors.
    struct Dependent {
      CommandId id = kNullCommand;
      bool strong = true;  // Propagate failure (vs. ordering only).
    };
    std::vector<Dependent> dependents;  // Successors to notify.
  };

  void WorkerLoop();
  // All *Locked helpers require mutex_ held.
  using FailureWork = std::vector<std::pair<CommandId, Status>>;
  double NextStampLocked();
  void MarkReadyLocked(Command& command);
  // Shared retirement core: stamps defaults, marks terminal, notifies
  // dependents; strong dependents of a failure land in `failures`.
  // Reclaims the record when no references remain — `command` is dangling
  // after the call; callers must not touch it again.
  void FinalizeLocked(Command& command, Status status, FailureWork* failures);
  void DrainFailuresLocked(FailureWork work);
  void RetireLocked(Command& command, Status status, const Execution& exec);
  void FailBranchLocked(Command& command, const Status& cause);

  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable retired_cv_;
  std::unordered_map<CommandId, std::unique_ptr<Command>> commands_;
  BlockingQueue<CommandId> ready_;
  std::vector<std::thread> workers_;
  CommandId next_id_ = 1;
  double last_stamp_ = 0.0;
  std::size_t live_count_ = 0;  // Non-terminal commands.
  std::uint32_t running_count_ = 0;
  std::uint32_t peak_running_ = 0;
  std::uint64_t retired_count_ = 0;
  bool shutting_down_ = false;
};

}  // namespace haocl::host
