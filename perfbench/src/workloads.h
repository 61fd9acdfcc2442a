// The benchmark's deployment and its three workloads.
//
// Deployment: two GPU NMP daemons (threads in this process) listening on
// loopback TCP with a TCP peer mesh between them, one ClusterRuntime
// connected over TCP and bound to the OpenCL shim. Every daemon's driver
// is the simulated Tesla P4 with compute_units = nproc / 2, so the two VM
// pools together span this machine's cores.
//
// The load is a closed loop from one client thread on one in-order queue.
// Every kernel is benchmark-owned OpenCL C whose name has no native-kernel
// registry entry, so the VM runs it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/hao_cl.h"
#include "host/cluster_runtime.h"
#include "net/tcp_transport.h"
#include "nmp/node_server.h"
#include "trace.h"

namespace perfbench {

class Deployment {
 public:
  // Spawns the daemons and connects the runtime; `trace` (nullable)
  // decorates every connection end and both drivers.
  static haocl::Expected<std::unique_ptr<Deployment>> Start(
      const std::string& scheduler, TraceRecorder* trace);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] haocl::host::ClusterRuntime& runtime() { return *runtime_; }
  [[nodiscard]] std::size_t node_count() const { return servers_.size(); }

 private:
  Deployment() = default;

  // Declared so destruction runs runtime -> listeners -> servers; the
  // destructor also shuts the servers down explicitly first.
  std::vector<std::unique_ptr<haocl::nmp::NodeServer>> servers_;
  std::vector<std::unique_ptr<haocl::net::TcpListener>> listeners_;
  std::unique_ptr<haocl::host::ClusterRuntime> runtime_;
};

// Times one shim call into a kApi span when a recorder is attached.
class ApiTimer {
 public:
  explicit ApiTimer(TraceRecorder* trace) : trace_(trace) {}
  template <typename Call>
  cl_int operator()(const char* name, bool blocking, Call&& call) {
    if (trace_ == nullptr) return call();
    Span span;
    span.kind = SpanKind::kApi;
    span.name = name;
    span.blocking = blocking;
    span.begin_ns = NowNs();
    const cl_int result = call();
    span.end_ns = NowNs();
    trace_->Record(span);
    return result;
  }

 private:
  TraceRecorder* trace_;
};

// One timed iteration as the client saw it.
struct Iteration {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  // Legs of a transfer iteration (bulk_rw): write -> clFinish, then read.
  double write_s = 0.0;
  double read_s = 0.0;
  bool ok = false;  // Every call succeeded and the output checked out.
};

// Outcome of a workload's end-of-instance checks.
struct InstanceCheck {
  std::uint64_t failed_iterations = 0;  // Iterations whose output is wrong.
  std::vector<std::string> violations;  // Exact-count or output failures.
  double ref_ms = 0.0;                  // Host reference, per iteration.
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  // Runtime scheduling policy this workload runs under.
  [[nodiscard]] virtual const char* scheduler() const { return "user"; }
  // Useful flops per iteration (0 when the workload is about transfers).
  [[nodiscard]] virtual double flops_per_iteration() const { return 0.0; }
  // Bytes each transfer leg moves (bulk_rw), for its GB/s.
  [[nodiscard]] virtual std::uint64_t leg_bytes() const { return 0; }

  // Creates the OpenCL objects on the freshly bound runtime, builds, and
  // warms up (lazy node build, first-touch transfer). False on failure.
  virtual bool Setup(ApiTimer api, std::string* error) = 0;
  // One timed iteration of the closed loop, output checked.
  virtual Iteration Iterate(ApiTimer api) = 0;
  // Checks that need the instance's whole run: exact transfer counts,
  // chained outputs. `runtime` is still bound.
  virtual InstanceCheck Finish(haocl::host::ClusterRuntime& runtime,
                               const haocl::host::TransferStats& before,
                               std::uint64_t iterations) = 0;
  // Releases every OpenCL object (before the runtime goes away).
  virtual void Teardown() = 0;
  // Names of the OpenCL kernels it runs.
  [[nodiscard]] virtual std::vector<std::string> kernel_names() const = 0;
};

// "launch_small", "bulk_rw" or "matmul_chain"; nullptr otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace perfbench
