// perfbench_e2e: wall-clock end-to-end benchmark of HaoCL on loopback-TCP
// daemons, driven through the OpenCL shim.
//
//   perfbench_e2e --workload <launch_small|bulk_rw|matmul_chain>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// A run deploys the cluster several times ("instances"); each instance is
// timed set-up (spawn, connect, build, allocate, warm up) followed by a
// closed measurement loop of seconds / instances. --trace 0 reports the
// end-to-end metrics from untraced instances. --trace 1 alternates
// untraced and traced instances and reports the per-layer metrics from
// the traced ones (plus the tracing overhead between the two).
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero on any output mismatch, native kernel launch or
// exact-count violation.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/log.h"
#include "driver/native_registry.h"
#include "net/message.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// Request types whose round trip and node service are reported.
constexpr haocl::net::MsgType kReportedTypes[] = {
    haocl::net::MsgType::kWriteBuffer, haocl::net::MsgType::kLaunchKernel,
    haocl::net::MsgType::kReadBuffer, haocl::net::MsgType::kPullSlice,
    haocl::net::MsgType::kBuildProgram};

struct Mean {
  double sum = 0.0;
  std::uint64_t count = 0;
  void Add(double v) {
    sum += v;
    ++count;
  }
  [[nodiscard]] double value() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

// Per-layer figures summed over the traced instances.
struct LayerTotals {
  std::uint64_t iterations = 0;
  double window_ns = 0.0;
  LayerSplit split;
  double api_enqueue_ns = 0.0;
  double send_ns = 0.0;
  double frames = 0.0;
  double bytes = 0.0;
  double launch_frames = 0.0;  // Host-link LaunchKernel requests.
  double ndrange_calls = 0.0;
  // Host-link round trips and node service per request type: inside the
  // measured iterations, and over the whole instance (BuildProgram only
  // happens during set-up).
  std::map<std::uint16_t, Mean> rtt_in, rtt_all, service_in, service_all;
  Mean launch_ns;
  Mean build_ns;
  std::vector<double> heartbeat_us;
  VmCounters vm;  // Over the measured loops.
  std::uint64_t native_launches = 0;  // Over whole instances.
  std::uint64_t broker_rejected = 0;
  std::vector<double> iter_ms;
};

// Everything else, summed over all instances.
struct RunTotals {
  std::vector<double> iter_ms;  // Untraced instances only.
  std::vector<double> setup_s;
  double iter_s_sum = 0.0;  // Untraced instances only.
  double write_s = 0.0;
  double read_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  double modeled_s = 0.0;
  std::uint64_t measured = 0;  // Iterations, all instances.
  std::uint64_t p2p_bytes = 0;
  std::uint64_t host_payload_bytes = 0;
  std::uint64_t relay_bytes = 0;
  std::vector<double> ref_ms;
};

void AnalyzeTrace(const std::vector<Span>& spans,
                  const std::vector<Iteration>& iterations, LayerTotals* t) {
  std::vector<Interval> windows;
  for (const Iteration& it : iterations) windows.emplace_back(it.begin_ns, it.end_ns);
  std::vector<std::vector<const Span*>> in_window(windows.size());
  for (const Span& s : spans) {
    // Windows are disjoint and ordered; start at the last one that begins
    // at or before the span.
    auto first = std::upper_bound(
        windows.begin(), windows.end(),
        Interval{s.begin_ns, std::numeric_limits<std::int64_t>::max()});
    std::size_t i = static_cast<std::size_t>(first - windows.begin());
    if (i > 0) --i;
    bool begins_inside = false;
    for (; i < windows.size() && windows[i].first < s.end_ns; ++i) {
      if (windows[i].second <= s.begin_ns) continue;
      in_window[i].push_back(&s);
      begins_inside |= windows[i].first <= s.begin_ns;
    }
    const double dur = static_cast<double>(s.end_ns - s.begin_ns);
    switch (s.kind) {
      case SpanKind::kRpc:
        if (s.peer_link) break;
        t->rtt_all[s.msg_type].Add(dur);
        if (begins_inside) t->rtt_in[s.msg_type].Add(dur);
        if (begins_inside &&
            s.msg_type == static_cast<std::uint16_t>(haocl::net::MsgType::kLaunchKernel)) {
          t->launch_frames += 1.0;
        }
        break;
      case SpanKind::kService:
        if (s.peer_link) break;
        t->service_all[s.msg_type].Add(dur);
        if (begins_inside) t->service_in[s.msg_type].Add(dur);
        break;
      case SpanKind::kSend:
        if (!begins_inside) break;
        t->send_ns += dur;
        t->frames += 1.0;
        t->bytes += static_cast<double>(s.bytes);
        break;
      case SpanKind::kApi:
        if (!begins_inside) break;
        if (!s.blocking) t->api_enqueue_ns += dur;
        if (std::strcmp(s.name, "clEnqueueNDRangeKernel") == 0) t->ndrange_calls += 1.0;
        break;
      case SpanKind::kLaunch:
        if (begins_inside) t->launch_ns.Add(dur);
        break;
      case SpanKind::kBuild:
        t->build_ns.Add(dur);
        break;
    }
  }
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const LayerSplit s = SplitIteration(windows[i], in_window[i]);
    t->split.host_ns += s.host_ns;
    t->split.net_ns += s.net_ns;
    t->split.node_ns += s.node_ns;
    t->split.driver_ns += s.driver_ns;
    t->window_ns += static_cast<double>(windows[i].second - windows[i].first);
  }
  t->iterations += windows.size();
}

VmCounters Delta(const VmCounters& a, const VmCounters& b) {
  VmCounters d;
  d.native_launches = b.native_launches - a.native_launches;
  d.instructions = b.instructions - a.instructions;
  d.batch_steps = b.batch_steps - a.batch_steps;
  d.fused_steps = b.fused_steps - a.fused_steps;
  d.simd_steps = b.simd_steps - a.simd_steps;
  d.bailouts = b.bailouts - a.bailouts;
  return d;
}

void AddInto(VmCounters* sum, const VmCounters& d) {
  sum->native_launches += d.native_launches;
  sum->instructions += d.instructions;
  sum->batch_steps += d.batch_steps;
  sum->fused_steps += d.fused_steps;
  sum->simd_steps += d.simd_steps;
  sum->bailouts += d.bailouts;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0.0;
    std::printf("%-34s %.6g %s\n", name.c_str(), value, unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  name.c_str(), value, unit);
    entries_.push_back(buf);
  }
  void Print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i != 0) json += ", ";
      json += entries_[i];
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> entries_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  RunTotals run;
  LayerTotals layers;
  for (const std::string& kernel : workload->kernel_names()) {
    if (haocl::driver::NativeKernelRegistry::Instance().Contains(kernel)) {
      run.violations.push_back("kernel " + kernel + " has a native twin");
    }
  }

  // Every instance times one set-up, and spreading the measurement over
  // several deployments averages out where their threads happen to land.
  // A traced run alternates untraced and traced instances.
  constexpr int instances = 8;
  const auto budget_ns =
      static_cast<std::int64_t>(args.seconds * 1e9 / instances);
  TraceRecorder recorder;
  for (int instance = 0; instance < instances; ++instance) {
    const bool traced = args.trace && instance % 2 == 1;
    TraceRecorder* trace = traced ? &recorder : nullptr;
    recorder.Clear();
    const std::int64_t setup_begin = NowNs();
    auto deployment = Deployment::Start(workload->scheduler(), trace);
    if (!deployment.ok()) {
      std::fprintf(stderr, "deploy: %s\n", deployment.status().ToString().c_str());
      return 1;
    }
    std::string error;
    if (!workload->Setup(ApiTimer(trace), &error)) {
      std::fprintf(stderr, "%s set-up: %s\n", workload->name(), error.c_str());
      workload->Teardown();
      return 1;
    }
    run.setup_s.push_back(static_cast<double>(NowNs() - setup_begin) / 1e9);

    haocl::host::ClusterRuntime& runtime = (*deployment)->runtime();
    const haocl::host::TransferStats stats_before = runtime.transfer_stats();
    const double makespan_before = runtime.timeline().Makespan();
    const VmCounters vm_before = recorder.vm();
    std::vector<Iteration> iterations;
    const std::int64_t loop_begin = NowNs();
    do {
      iterations.push_back(workload->Iterate(ApiTimer(trace)));
    } while (NowNs() - loop_begin < budget_ns);
    const VmCounters vm_loop = Delta(vm_before, recorder.vm());
    const haocl::host::TransferStats stats_after = runtime.transfer_stats();
    run.modeled_s += runtime.timeline().Makespan() - makespan_before;
    run.measured += iterations.size();
    run.p2p_bytes += stats_after.p2p_bytes - stats_before.p2p_bytes;
    run.host_payload_bytes +=
        stats_after.host_payload_bytes() - stats_before.host_payload_bytes();
    run.relay_bytes += stats_after.relay_bytes - stats_before.relay_bytes;

    for (const Iteration& it : iterations) {
      const double ms = static_cast<double>(it.end_ns - it.begin_ns) / 1e6;
      (traced ? layers.iter_ms : run.iter_ms).push_back(ms);
      if (!traced) run.iter_s_sum += ms / 1e3;
      run.write_s += it.write_s;
      run.read_s += it.read_s;
      run.failed += it.ok ? 0 : 1;
    }
    run.attempted += iterations.size();

    if (traced) {
      AnalyzeTrace(recorder.Spans(), iterations, &layers);
      AddInto(&layers.vm, vm_loop);
      layers.native_launches += recorder.vm().native_launches;
      for (std::size_t node = 0; node < (*deployment)->node_count(); ++node) {
        for (int probe = 0; probe < 100; ++probe) {
          const std::int64_t begin = NowNs();
          if (runtime.ProbeNode(node).ok()) {
            layers.heartbeat_us.push_back(static_cast<double>(NowNs() - begin) / 1e3);
          }
        }
        auto broker = runtime.QueryBrokerStats(node);
        if (broker.ok()) {
          for (const auto& tenant : broker->tenants) {
            layers.broker_rejected += tenant.launches_rejected;
          }
        }
      }
    }

    InstanceCheck check = workload->Finish(runtime, stats_before, iterations.size());
    run.failed += check.failed_iterations;
    run.ref_ms.push_back(check.ref_ms);
    for (std::string& v : check.violations) run.violations.push_back(std::move(v));
    workload->Teardown();
    deployment->reset();
    if (traced && !args.trace_out.empty() &&
        !recorder.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }

  if (layers.native_launches != 0) {
    run.violations.push_back("driver ran " + std::to_string(layers.native_launches) +
                             " native launches");
  }
  const double n = static_cast<double>(run.measured);
  std::printf("workload %s seed %llu: %llu iterations in %d instances\n",
              workload->name(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(run.measured), instances);
  Report report;
  const std::optional<Tail> tail = TailPercentile(run.iter_ms);
  const double tail_ms = tail ? tail->value : 0.0;
  std::printf("  iter_tail_ms %.6g ms: p%.2f of %zu untraced iterations, %zu beyond it\n",
              tail_ms, tail ? tail->percentile : 0.0, run.iter_ms.size(),
              tail ? tail->beyond : std::size_t{0});
  if (!args.trace) {
    report.Add("iter_p50_ms", Median(run.iter_ms), "ms");
    report.Add("setup_s", Median(run.setup_s), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    // Rates follow the mean iteration, which CPU-steal bursts on a shared
    // VM swing far more than the median: printed, not part of the result.
    std::printf("  iters_per_s %.6g\n", Ratio(static_cast<double>(run.iter_ms.size()), run.iter_s_sum));
    std::printf("  fail_ratio %.6g (%llu of %llu)\n",
                Ratio(static_cast<double>(run.failed), static_cast<double>(run.attempted)),
                static_cast<unsigned long long>(run.failed),
                static_cast<unsigned long long>(run.attempted));
    std::printf("  modeled_s %.6g virtual s per iteration\n", Ratio(run.modeled_s, n));
    if (workload->flops_per_iteration() > 0.0) {
      std::printf("  gflops %.6g\n", Ratio(workload->flops_per_iteration() * n,
                                          run.iter_s_sum * 1e9));
    }
    if (run.write_s > 0.0) {
      const double bytes = static_cast<double>(workload->leg_bytes()) * n;
      std::printf("  write_gbps %.6g  read_gbps %.6g\n", bytes / run.write_s / 1e9,
                  bytes / run.read_s / 1e9);
    }
  } else {
    const double iters = static_cast<double>(layers.iterations);
    const double traced_p50 = Median(layers.iter_ms);
    const double untraced_p50 = Median(run.iter_ms);
    report.Add("api.enqueue_us", Ratio(layers.api_enqueue_ns, iters) / 1e3, "us");
    report.Add("host.self_us", Ratio(static_cast<double>(layers.split.host_ns), iters) / 1e3, "us");
    report.Add("net.wire_us", Ratio(static_cast<double>(layers.split.net_ns), iters) / 1e3, "us");
    report.Add("node.self_us", Ratio(static_cast<double>(layers.split.node_ns), iters) / 1e3, "us");
    report.Add("driver.self_us", Ratio(static_cast<double>(layers.split.driver_ns), iters) / 1e3, "us");
    const double accounted =
        100.0 * Ratio(static_cast<double>(layers.split.total_ns()), layers.window_ns);
    report.Add("trace.accounted_pct", accounted, "%");
    if (std::fabs(accounted - 100.0) > 5.0) {
      run.violations.push_back("layer self times cover " + std::to_string(accounted) +
                               "% of the traced iteration wall");
    }
    // Round trips and node service are averaged over the measured
    // iterations, except BuildProgram, which only set-up sends.
    auto type_mean = [](const std::map<std::uint16_t, Mean>& in,
                        const std::map<std::uint16_t, Mean>& all,
                        haocl::net::MsgType type) {
      const auto& from = type == haocl::net::MsgType::kBuildProgram ? all : in;
      auto it = from.find(static_cast<std::uint16_t>(type));
      return it == from.end() ? 0.0 : it->second.value();
    };
    for (haocl::net::MsgType type : kReportedTypes) {
      report.Add(std::string("net.rtt_us.") + haocl::net::MsgTypeName(type),
                 type_mean(layers.rtt_in, layers.rtt_all, type) / 1e3, "us");
    }
    report.Add("net.send_us", Ratio(layers.send_ns, iters) / 1e3, "us");
    report.Add("net.frames", Ratio(layers.frames, iters), "count");
    report.Add("net.bytes", Ratio(layers.bytes, iters), "bytes");
    report.Add("net.heartbeat_rtt_us",
               layers.heartbeat_us.empty() ? 0.0 : Median(layers.heartbeat_us), "us");
    for (haocl::net::MsgType type : kReportedTypes) {
      report.Add(std::string("node.service_us.") + haocl::net::MsgTypeName(type),
                 type_mean(layers.service_in, layers.service_all, type) / 1e3, "us");
    }
    report.Add("driver.launch_us", layers.launch_ns.value() / 1e3, "us");
    report.Add("driver.build_ms", layers.build_ns.value() / 1e6, "ms");
    const double batch = static_cast<double>(layers.vm.batch_steps);
    report.Add("vm.instructions", Ratio(static_cast<double>(layers.vm.instructions), iters), "count");
    report.Add("vm.simd_share", Ratio(static_cast<double>(layers.vm.simd_steps), batch), "ratio");
    report.Add("vm.fused_share", Ratio(static_cast<double>(layers.vm.fused_steps), batch), "ratio");
    report.Add("vm.bailouts", Ratio(static_cast<double>(layers.vm.bailouts), iters), "count");
    report.Add("driver.native_launches", static_cast<double>(layers.native_launches), "count");
    report.Add("host.p2p_bytes", Ratio(static_cast<double>(run.p2p_bytes), n), "bytes");
    report.Add("host.host_payload_bytes", Ratio(static_cast<double>(run.host_payload_bytes), n), "bytes");
    report.Add("host.relay_bytes", Ratio(static_cast<double>(run.relay_bytes), n), "bytes");
    report.Add("sched.shards_per_launch", Ratio(layers.launch_frames, layers.ndrange_calls), "count");
    report.Add("broker.rejected", static_cast<double>(layers.broker_rejected), "count");
    report.Add("ref.host_ms", Median(run.ref_ms), "ms");
    report.Add("model.virtual_s_per_iter", Ratio(run.modeled_s, n), "virtual_s");
    report.Add("iter.tail_ms", tail_ms, "ms");
    report.Add("iter.tail_pct", tail ? tail->percentile : 0.0, "%");
    report.Add("trace_overhead_pct", 100.0 * Ratio(traced_p50 - untraced_p50, untraced_p50), "%");
  }
  for (const std::string& v : run.violations) std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  const std::uint64_t failed = run.failed + run.violations.size();
  const bool correct = failed == 0;
  report.Print(correct, run.attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <launch_small|bulk_rw|matmul_chain> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
                 argv[0]);
    return 2;
  }
  haocl::SetLogLevel(haocl::LogLevel::kError);
  return perfbench::Run(args);
}
