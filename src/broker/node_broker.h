// NodeBroker: one per physical device node — the single source of truth
// for that node's memory ledger and compute backlog across EVERY user
// session sharing the node (the paper's multi-user serving story).
//
// Sessions are clients of the broker through a lease/grant protocol:
//  - Memory: each session reserves/releases byte ranges through a
//    session-scoped MemoryLedger view (LedgerFor). The broker charges one
//    node-wide resident total against the device capacity and the
//    session's quota, so two tenants can no longer jointly oversubscribe
//    a device the way private per-session pools allowed.
//  - Compute: every kernel launch first acquires a launch slot
//    (AcquireLaunchSlot). The broker admits or rejects it (admission
//    control, kBackpressure) and then arbitrates the admitted launches
//    with weighted fair queuing: each launch starts at virtual time
//    max(virtual_now, tenant.virtual_finish) and finishes
//    predicted_seconds / weight later, which becomes the tenant's virtual
//    finish; the gate always serves the smallest finish tag and
//    virtual_now advances to the served start tag. A hog tenant's flood
//    queues behind its own share of virtual time while a light tenant's
//    next launch tags near virtual_now — so it waits at most for the
//    kernel in service, never for the hog's whole backlog.
//  - Rates: completed launches from ALL sessions fold into one shared
//    per-kernel seconds-per-flop table, shipped to hosts in
//    BrokerStatsReply so a new session's first adaptive launch plans from
//    rates its neighbours already observed.
//
// Admission control is OFF by default (BrokerLimits.max_backlog_seconds
// == 0): a saturated node then backpressures only through queuing. With a
// limit, a launch is rejected with kBackpressure when the node's total
// admitted backlog would exceed the limit AND the tenant is already over
// its weight share of it — a light tenant under its share is always
// admitted, even on a saturated node.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/memory_ledger.h"
#include "runtime/memory_pool.h"
#include "sched/rate_table.h"

namespace haocl::broker {

// Per-tenant serving parameters, registered at session connect
// (net::ConfigureSessionRequest). Sessions that never configure get the
// defaults: weight 1, no quota.
struct TenantConfig {
  std::string name;
  double weight = 1.0;  // Fair-share weight (relative service rate).
  // Per-tenant cap on resident device bytes (0 = only the device
  // capacity, shared with everyone, applies).
  std::uint64_t mem_quota_bytes = 0;
};

struct BrokerLimits {
  // Admission control: total admitted-but-unfinished modeled seconds the
  // node accepts before rejecting over-share submits. 0 disables it.
  double max_backlog_seconds = 0.0;
  // kFairShare is the production arbiter; kFifo serves launches strictly
  // in arrival order (the starvation baseline BENCH_tenancy compares
  // against).
  enum class Arbitration : std::uint8_t { kFairShare = 0, kFifo = 1 };
  Arbitration arbitration = Arbitration::kFairShare;
};

// Point-in-time serving stats of one tenant.
struct TenantStats {
  std::uint64_t session = 0;
  std::string name;
  double weight = 1.0;
  std::uint64_t mem_quota_bytes = 0;
  std::uint64_t resident_bytes = 0;
  double backlog_seconds = 0.0;   // Admitted, not yet completed.
  double served_seconds = 0.0;    // Modeled seconds completed.
  std::uint64_t launches_admitted = 0;
  std::uint64_t launches_rejected = 0;
  std::uint64_t kernels_completed = 0;
};

// One shared observed kernel rate (all sessions' samples folded).
struct BrokerKernelRate {
  std::string kernel;
  double seconds_per_flop = 0.0;
  std::uint64_t samples = 0;
};

class NodeBroker {
 public:
  // A granted launch slot; pass back to CompleteLaunch exactly once.
  struct LaunchGrant {
    std::uint64_t ticket = 0;
    double predicted_seconds = 0.0;
  };

  explicit NodeBroker(std::uint64_t mem_capacity_bytes,
                      BrokerLimits limits = {});
  ~NodeBroker();

  NodeBroker(const NodeBroker&) = delete;
  NodeBroker& operator=(const NodeBroker&) = delete;

  void SetLimits(BrokerLimits limits);
  [[nodiscard]] BrokerLimits limits() const;

  // Registers (or re-configures) a tenant. Idempotent; stats survive
  // re-registration.
  void RegisterTenant(std::uint64_t session, TenantConfig config);
  // Drops the tenant: its resident bytes leave the node ledger and its
  // ledger view dies — only call once the session's DeviceSession is
  // gone.
  void UnregisterTenant(std::uint64_t session);

  // The session's view onto the shared ledger. Auto-registers the tenant
  // with defaults on first touch. The pointer stays valid until
  // UnregisterTenant (or the broker dies).
  runtime::MemoryLedger* LedgerFor(std::uint64_t session);

  // Admission + arbitration for one kernel launch. Returns kBackpressure
  // without blocking when admission control rejects; otherwise blocks
  // until the weighted-fair-queuing gate serves this launch and returns
  // the grant. `predicted_seconds` is the host/node work estimate the
  // backlog and virtual time advance by (any positive estimate with
  // consistent units works; 0 is clamped to a tiny epsilon).
  Expected<LaunchGrant> AcquireLaunchSlot(std::uint64_t session,
                                          double predicted_seconds);
  // Releases the gate and settles accounting. `modeled_seconds`/`flops`
  // of a successful launch fold into the shared rate table.
  void CompleteLaunch(std::uint64_t session, const LaunchGrant& grant,
                      bool success, double modeled_seconds,
                      const std::string& kernel, double flops);

  // Wakes every waiter with an error; further acquires fail.
  void Shutdown();

  // ---- Introspection ------------------------------------------------------
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t resident_bytes() const;
  [[nodiscard]] std::uint64_t resident_bytes_of(std::uint64_t session) const;
  // Total admitted-but-unfinished modeled seconds (all tenants).
  [[nodiscard]] double backlog_seconds() const;
  [[nodiscard]] double backlog_seconds_of(std::uint64_t session) const;
  [[nodiscard]] std::uint64_t kernels_completed() const;
  [[nodiscard]] TenantStats StatsFor(std::uint64_t session) const;
  [[nodiscard]] std::vector<TenantStats> AllTenants() const;
  [[nodiscard]] std::vector<BrokerKernelRate> KernelRates() const;

 private:
  class SessionLedger;
  struct Tenant {
    TenantConfig config;
    std::unique_ptr<SessionLedger> ledger;
    double virtual_finish = 0.0;
    double backlog_seconds = 0.0;
    double served_seconds = 0.0;
    std::uint64_t launches_admitted = 0;
    std::uint64_t launches_rejected = 0;
    std::uint64_t kernels_completed = 0;
  };
  struct Waiter {
    std::uint64_t ticket = 0;
    std::uint64_t session = 0;
    double start_tag = 0.0;   // virtual_now_ advances to it when served.
    double finish_tag = 0.0;  // Serve order: smallest first, then ticket.
  };

  // SessionLedger backends (each takes mutex_).
  Status ReserveFor(std::uint64_t session, std::uint64_t buffer,
                    std::uint64_t begin, std::uint64_t end);
  std::uint64_t ReleaseFor(std::uint64_t session, std::uint64_t buffer,
                           std::uint64_t begin, std::uint64_t end);
  std::uint64_t ReleaseBufferFor(std::uint64_t session, std::uint64_t buffer);

  // Require mutex_ held.
  Tenant& TenantForLocked(std::uint64_t session);
  double TotalBacklogLocked() const;
  double ActiveWeightLocked(std::uint64_t requester) const;
  bool IsNextLocked(std::uint64_t ticket) const;
  TenantStats StatsForLocked(std::uint64_t session, const Tenant& t) const;

  const std::uint64_t capacity_;  // 0 = unbounded.
  mutable std::mutex mutex_;
  std::condition_variable gate_cv_;
  BrokerLimits limits_;
  bool shutting_down_ = false;
  bool gate_busy_ = false;
  double virtual_now_ = 0.0;
  std::uint64_t next_ticket_ = 1;
  std::vector<Waiter> waiting_;
  std::uint64_t node_resident_ = 0;
  std::uint64_t kernels_completed_ = 0;
  std::map<std::uint64_t, Tenant> tenants_;
  // Shared per-kernel rates: a one-node KernelRateTable every session's
  // completed launches feed (node index 0).
  sched::KernelRateTable rates_{1};
};

}  // namespace haocl::broker
