// Multi-tenant serving bench: the broker's two acceptance numbers.
//
//  1) Isolation — one light tenant's per-launch latency, solo vs under a
//     seven-session hog flood, with fair-share arbitration and with the
//     FIFO baseline. Fair share must keep the light tenant within 2x of
//     its solo latency (it waits out at most the launch in service);
//     FIFO makes it queue behind the whole hog fleet. Gate (exit 1 on a
//     miss): fair-share latency below FIFO's; when FIFO is no slower,
//     the flood no longer tells the two policies apart.
//  2) Aggregate throughput — eight concurrent sessions must sustain at
//     least 0.9x the single-session kernel rate through one shared node
//     (the gate serializes kernels, so fair-sharing may not tax the
//     aggregate).
//
// Wall-clock measured (the broker gate schedules real execution, not the
// virtual timeline); emits BENCH_tenancy.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "broker/node_broker.h"
#include "host/cluster_runtime.h"
#include "host/sim_cluster.h"

namespace {

using haocl::host::ClusterRuntime;
using haocl::host::RuntimeOptions;
using haocl::host::SimCluster;

constexpr char kDoubler[] = R"(
  __kernel void doubler(__global int* data, int n) {
    int i = get_global_id(0);
    if (i < n) data[i] = data[i] * 2;
  })";

// The light tenant's kernel must be large enough that its own service
// time dominates the fixed contention tax (one hog launch in service
// plus host-round-trip inflation while hog kernels hold the CPU) —
// otherwise the ratio measures scheduler-quantum noise, not arbitration.
constexpr int kLightInts = 262144;
constexpr int kHogInts = 16384;
constexpr int kLatencySamples = 20;
constexpr int kContendedRounds = 5;
constexpr int kHogFlood = 60;  // Per hog session: enough to outlast the
                               // light tenant's measured window.

struct Tenant {
  std::unique_ptr<ClusterRuntime> owned;  // Null for the cluster's own.
  ClusterRuntime* rt = nullptr;
  ClusterRuntime::LaunchSpec spec;
};

double Median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

// Builds the doubler, materializes an n-int buffer on node 0 via one
// warm launch, and fills in the re-submittable spec.
bool Prepare(Tenant& tenant, int n) {
  ClusterRuntime& rt = *tenant.rt;
  auto program = rt.BuildProgram(kDoubler);
  if (!program.ok()) return false;
  auto buffer = rt.CreateBuffer(static_cast<std::uint64_t>(n) * 4);
  if (!buffer.ok()) return false;
  std::vector<std::int32_t> values(n, 1);
  if (!rt.WriteBuffer(*buffer, 0, values.data(), n * 4).ok()) return false;
  tenant.spec.program = *program;
  tenant.spec.kernel_name = "doubler";
  tenant.spec.args = {haocl::host::KernelArgValue::Buffer(*buffer),
                      haocl::host::KernelArgValue::Scalar<std::int32_t>(n)};
  tenant.spec.global[0] = n;
  tenant.spec.preferred_node = 0;
  haocl::sim::KernelCost hint;
  hint.flops = 1e9;
  hint.bytes = static_cast<double>(n) * 4;
  hint.work_items = n;
  tenant.spec.cost_hint = hint;
  return rt.LaunchKernel(tenant.spec).ok();
}

// Mean blocking-launch latency over kLatencySamples launches.
double MeasureLatencySeconds(Tenant& tenant) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kLatencySamples; ++i) {
    auto result = tenant.rt->LaunchKernel(tenant.spec);
    if (!result.ok()) {
      std::fprintf(stderr, "light launch: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  }
  return Seconds(start) / kLatencySamples;
}

// One shared GPU node serving `hog_sessions` floods plus a light tenant.
// Returns the light tenant's mean contended latency.
double RunContended(haocl::broker::BrokerLimits::Arbitration arbitration,
                    std::size_t hog_sessions) {
  RuntimeOptions first;
  first.session_id = 1;
  first.tenant_name = "hog-1";
  first.tenant_weight = 1.0;
  auto cluster = SimCluster::Create({.gpu_nodes = 1}, first);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().ToString().c_str());
    std::exit(1);
  }
  haocl::broker::BrokerLimits limits;
  limits.arbitration = arbitration;
  (*cluster)->server(0).broker().SetLimits(limits);

  std::vector<Tenant> hogs;
  hogs.push_back({nullptr, &(*cluster)->runtime(), {}});
  for (std::size_t s = 2; s <= hog_sessions; ++s) {
    RuntimeOptions options;
    options.session_id = s;
    options.tenant_name = "hog-" + std::to_string(s);
    options.tenant_weight = 1.0;
    auto runtime = (*cluster)->ConnectSecondSession(options);
    if (!runtime.ok()) std::exit(1);
    Tenant tenant;
    tenant.owned = *std::move(runtime);
    tenant.rt = tenant.owned.get();
    hogs.push_back(std::move(tenant));
  }
  RuntimeOptions light_options;
  light_options.session_id = hog_sessions + 1;
  light_options.tenant_name = "light";
  light_options.tenant_weight = 10.0;
  auto light_runtime = (*cluster)->ConnectSecondSession(light_options);
  if (!light_runtime.ok()) std::exit(1);
  Tenant light;
  light.owned = *std::move(light_runtime);
  light.rt = light.owned.get();

  for (Tenant& hog : hogs) {
    if (!Prepare(hog, kHogInts)) std::exit(1);
  }
  if (!Prepare(light, kLightInts)) std::exit(1);

  for (Tenant& hog : hogs) {
    for (int i = 0; i < kHogFlood; ++i) {
      if (!hog.rt->SubmitLaunch(hog.spec).ok()) std::exit(1);
    }
  }
  const double latency = MeasureLatencySeconds(light);
  for (Tenant& hog : hogs) {
    if (!hog.rt->Finish().ok()) std::exit(1);
  }
  light.rt->Disconnect();
  for (Tenant& hog : hogs) {
    if (hog.owned != nullptr) hog.owned->Disconnect();
  }
  return latency;
}

// The light tenant alone on the node: the isolation baseline.
double RunSolo() {
  RuntimeOptions options;
  options.session_id = 1;
  options.tenant_name = "light";
  options.tenant_weight = 10.0;
  auto cluster = SimCluster::Create({.gpu_nodes = 1}, options);
  if (!cluster.ok()) std::exit(1);
  Tenant light;
  light.rt = &(*cluster)->runtime();
  if (!Prepare(light, kLightInts)) std::exit(1);
  return MeasureLatencySeconds(light);
}

// Kernels-per-second through one node with `sessions` concurrent
// tenants submitting `per_session` chained launches each.
double MeasureThroughput(std::size_t sessions, int per_session) {
  RuntimeOptions first;
  first.session_id = 1;
  first.tenant_name = "t1";
  auto cluster = SimCluster::Create({.gpu_nodes = 1}, first);
  if (!cluster.ok()) std::exit(1);
  std::vector<Tenant> tenants;
  tenants.push_back({nullptr, &(*cluster)->runtime(), {}});
  for (std::size_t s = 2; s <= sessions; ++s) {
    RuntimeOptions options;
    options.session_id = s;
    options.tenant_name = "t" + std::to_string(s);
    auto runtime = (*cluster)->ConnectSecondSession(options);
    if (!runtime.ok()) std::exit(1);
    Tenant tenant;
    tenant.owned = *std::move(runtime);
    tenant.rt = tenant.owned.get();
    tenants.push_back(std::move(tenant));
  }
  for (Tenant& tenant : tenants) {
    if (!Prepare(tenant, kHogInts)) std::exit(1);
  }
  const auto start = std::chrono::steady_clock::now();
  for (Tenant& tenant : tenants) {
    for (int i = 0; i < per_session; ++i) {
      if (!tenant.rt->SubmitLaunch(tenant.spec).ok()) std::exit(1);
    }
  }
  for (Tenant& tenant : tenants) {
    if (!tenant.rt->Finish().ok()) std::exit(1);
  }
  const double elapsed = Seconds(start);
  for (Tenant& tenant : tenants) {
    if (tenant.owned != nullptr) tenant.owned->Disconnect();
  }
  return static_cast<double>(sessions) * per_session / elapsed;
}

}  // namespace

int main() {
  constexpr std::size_t kHogSessions = 7;  // + light = 8 sessions total.

  std::printf("Tenancy: light-tenant latency (mean over %d launches; "
              "contended: median of %d rounds)\n",
              kLatencySamples, kContendedRounds);
  const double solo = RunSolo();
  // Fair share and FIFO take turns, and each reports its median round, so
  // a slow spell on a shared machine cannot decide the comparison.
  std::vector<double> fair_rounds;
  std::vector<double> fifo_rounds;
  for (int round = 0; round < kContendedRounds; ++round) {
    fair_rounds.push_back(RunContended(
        haocl::broker::BrokerLimits::Arbitration::kFairShare, kHogSessions));
    fifo_rounds.push_back(RunContended(
        haocl::broker::BrokerLimits::Arbitration::kFifo, kHogSessions));
  }
  const double fair = Median(fair_rounds);
  const double fifo = Median(fifo_rounds);
  std::printf("  solo            %8.3f ms\n", solo * 1e3);
  std::printf("  fair-share      %8.3f ms  (%.2fx solo, %zu hog sessions)\n",
              fair * 1e3, fair / solo, kHogSessions);
  std::printf("  fifo baseline   %8.3f ms  (%.2fx solo)\n", fifo * 1e3,
              fifo / solo);

  std::printf("\nTenancy: aggregate throughput through one shared node\n");
  const double one = MeasureThroughput(1, 120);
  const double eight = MeasureThroughput(8, 15);
  std::printf("  1 session       %8.1f kernels/s\n", one);
  std::printf("  8 sessions      %8.1f kernels/s  (%.2fx of solo rate)\n",
              eight, eight / one);

  FILE* json = std::fopen("BENCH_tenancy.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"isolation\": {\n"
        "    \"hog_sessions\": %zu, \"light_weight\": 10.0,"
        " \"hog_weight\": 1.0,\n"
        "    \"solo_latency_ms\": %.4f, \"fair_latency_ms\": %.4f,"
        " \"fifo_latency_ms\": %.4f,\n"
        "    \"fair_vs_solo\": %.4f, \"fifo_vs_solo\": %.4f,\n"
        "    \"target\": \"fair_vs_solo <= 2.0\",\n"
        "    \"gate\": \"fair_latency_ms < fifo_latency_ms\"\n"
        "  },\n"
        "  \"throughput\": {\n"
        "    \"sessions\": 8, \"solo_kernels_per_s\": %.2f,"
        " \"aggregate_kernels_per_s\": %.2f, \"ratio\": %.4f,\n"
        "    \"target\": \"ratio >= 0.9\"\n"
        "  }\n"
        "}\n",
        kHogSessions, solo * 1e3, fair * 1e3, fifo * 1e3, fair / solo,
        fifo / solo, one, eight, eight / one);
    std::fclose(json);
    std::printf("\nwrote BENCH_tenancy.json\n");
  }
  haocl::bench::Gates gates;
  gates.Check(fair < fifo, "fair-share light-tenant latency below FIFO's");
  return gates.ExitCode();
}
