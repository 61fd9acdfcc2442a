#include "broker/node_broker.h"

#include <algorithm>

namespace haocl::broker {

namespace {
// Weights and predictions are clamped away from zero so virtual-time
// arithmetic stays finite.
constexpr double kMinWeight = 1e-9;
constexpr double kMinPrediction = 1e-9;
}  // namespace

// The per-session view onto the shared ledger. The pool tracks WHICH
// ranges this session holds (interval-accurate, so overlapping writes
// charge nothing twice); the broker enforces capacity and quota across
// all sessions' pools.
class NodeBroker::SessionLedger final : public runtime::MemoryLedger {
 public:
  SessionLedger(NodeBroker* broker, std::uint64_t session)
      : broker_(broker), session_(session) {}

  Status Reserve(std::uint64_t buffer, std::uint64_t begin,
                 std::uint64_t end) override {
    return broker_->ReserveFor(session_, buffer, begin, end);
  }
  std::uint64_t Release(std::uint64_t buffer, std::uint64_t begin,
                        std::uint64_t end) override {
    return broker_->ReleaseFor(session_, buffer, begin, end);
  }
  std::uint64_t ReleaseBuffer(std::uint64_t buffer) override {
    return broker_->ReleaseBufferFor(session_, buffer);
  }
  [[nodiscard]] std::uint64_t resident_bytes() const override {
    return broker_->resident_bytes_of(session_);
  }

  // Unbounded: the broker is the budget, the pool is the bookkeeping.
  [[nodiscard]] runtime::MemoryPool& pool() { return pool_; }
  [[nodiscard]] const runtime::MemoryPool& pool() const { return pool_; }

 private:
  NodeBroker* broker_;
  std::uint64_t session_;
  runtime::MemoryPool pool_{0};
};

NodeBroker::NodeBroker(std::uint64_t mem_capacity_bytes, BrokerLimits limits)
    : capacity_(mem_capacity_bytes), limits_(limits) {}

NodeBroker::~NodeBroker() { Shutdown(); }

void NodeBroker::SetLimits(BrokerLimits limits) {
  std::lock_guard<std::mutex> lock(mutex_);
  limits_ = limits;
}

BrokerLimits NodeBroker::limits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return limits_;
}

void NodeBroker::RegisterTenant(std::uint64_t session, TenantConfig config) {
  std::lock_guard<std::mutex> lock(mutex_);
  Tenant& tenant = TenantForLocked(session);
  if (config.name.empty()) config.name = tenant.config.name;
  tenant.config = std::move(config);
}

void NodeBroker::UnregisterTenant(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(session);
  if (it == tenants_.end()) return;
  const std::uint64_t held = it->second.ledger->pool().resident_bytes();
  node_resident_ -= std::min(node_resident_, held);
  tenants_.erase(it);
  // Any waiter of the dead session keeps its tags and drains normally;
  // completion accounting just finds no tenant to settle.
}

runtime::MemoryLedger* NodeBroker::LedgerFor(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mutex_);
  return TenantForLocked(session).ledger.get();
}

NodeBroker::Tenant& NodeBroker::TenantForLocked(std::uint64_t session) {
  auto& tenant = tenants_[session];
  if (tenant.ledger == nullptr) {
    tenant.ledger = std::make_unique<SessionLedger>(this, session);
    tenant.config.name = "session-" + std::to_string(session);
  }
  return tenant;
}

// ---- Memory lease protocol --------------------------------------------------

Status NodeBroker::ReserveFor(std::uint64_t session, std::uint64_t buffer,
                              std::uint64_t begin, std::uint64_t end) {
  std::lock_guard<std::mutex> lock(mutex_);
  Tenant& tenant = TenantForLocked(session);
  runtime::MemoryPool& pool = tenant.ledger->pool();
  const std::uint64_t add = pool.NewBytesIn({{buffer, begin, end}});
  if (add == 0) return Status::Ok();  // Already resident; nothing to lease.
  if (capacity_ != 0 && node_resident_ + add > capacity_) {
    return Status(ErrorCode::kMemObjectAllocationFailure,
                  "node over capacity: " + std::to_string(node_resident_) +
                      " resident across all sessions + " +
                      std::to_string(add) + " requested > " +
                      std::to_string(capacity_));
  }
  const std::uint64_t quota = tenant.config.mem_quota_bytes;
  if (quota != 0 && pool.resident_bytes() + add > quota) {
    return Status(ErrorCode::kMemObjectAllocationFailure,
                  "tenant '" + tenant.config.name + "' over its " +
                      std::to_string(quota) + "-byte memory quota (" +
                      std::to_string(pool.resident_bytes()) + " resident + " +
                      std::to_string(add) + " requested)");
  }
  HAOCL_RETURN_IF_ERROR(pool.Reserve(buffer, begin, end));
  node_resident_ += add;
  return Status::Ok();
}

std::uint64_t NodeBroker::ReleaseFor(std::uint64_t session,
                                     std::uint64_t buffer,
                                     std::uint64_t begin, std::uint64_t end) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(session);
  if (it == tenants_.end()) return 0;
  const std::uint64_t freed = it->second.ledger->pool().Release(buffer, begin,
                                                                end);
  node_resident_ -= std::min(node_resident_, freed);
  return freed;
}

std::uint64_t NodeBroker::ReleaseBufferFor(std::uint64_t session,
                                           std::uint64_t buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(session);
  if (it == tenants_.end()) return 0;
  const std::uint64_t freed = it->second.ledger->pool().ReleaseBuffer(buffer);
  node_resident_ -= std::min(node_resident_, freed);
  return freed;
}

// ---- Launch admission + arbitration ----------------------------------------

double NodeBroker::TotalBacklogLocked() const {
  double total = 0.0;
  for (const auto& [id, tenant] : tenants_) total += tenant.backlog_seconds;
  return total;
}

double NodeBroker::ActiveWeightLocked(std::uint64_t requester) const {
  double active = 0.0;
  for (const auto& [id, tenant] : tenants_) {
    if (tenant.backlog_seconds > 0.0 || id == requester) {
      active += std::max(tenant.config.weight, kMinWeight);
    }
  }
  return active;
}

bool NodeBroker::IsNextLocked(std::uint64_t ticket) const {
  // Serve the smallest finish tag, then arrival. Ordering by FINISH tag
  // (start tag + predicted_seconds / weight) is what lets the weight
  // decide for tenants that keep only ONE request in flight. Such a
  // tenant is absent from the gate during its own round trip, so virtual
  // time stalls at the start tag the hogs queued at while one of them
  // runs, and the tenant's next start tag (its previous finish) lands
  // just above theirs. By start tag it would lose to every hog queued at
  // the stalled tag; by finish tag its short weighted service still
  // sorts first, so it is served every time it waits.
  const Waiter* best = nullptr;
  for (const Waiter& w : waiting_) {
    if (best == nullptr || w.finish_tag < best->finish_tag ||
        (w.finish_tag == best->finish_tag && w.ticket < best->ticket)) {
      best = &w;
    }
  }
  return best != nullptr && best->ticket == ticket;
}

Expected<NodeBroker::LaunchGrant> NodeBroker::AcquireLaunchSlot(
    std::uint64_t session, double predicted_seconds) {
  const double pred = std::max(predicted_seconds, kMinPrediction);
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutting_down_) {
    return Status(ErrorCode::kDeviceNotAvailable, "node broker shut down");
  }
  double start_tag = 0.0;
  double finish_tag = 0.0;
  {
    Tenant& tenant = TenantForLocked(session);
    if (limits_.max_backlog_seconds > 0.0 &&
        TotalBacklogLocked() + pred > limits_.max_backlog_seconds) {
      // Saturated. Admit only tenants still under their weight share of
      // the backlog budget; reject the rest without blocking.
      const double weight = std::max(tenant.config.weight, kMinWeight);
      const double share = weight / ActiveWeightLocked(session);
      if (tenant.backlog_seconds + pred >
          share * limits_.max_backlog_seconds) {
        ++tenant.launches_rejected;
        return Status(
            ErrorCode::kBackpressure,
            "node saturated (" + std::to_string(TotalBacklogLocked()) +
                "s backlog, limit " +
                std::to_string(limits_.max_backlog_seconds) + "s) and tenant '" +
                tenant.config.name + "' is over its " + std::to_string(share) +
                " share — resubmit later");
      }
    }
    ++tenant.launches_admitted;
    tenant.backlog_seconds += pred;
    if (limits_.arbitration == BrokerLimits::Arbitration::kFairShare) {
      start_tag = std::max(virtual_now_, tenant.virtual_finish);
      finish_tag =
          start_tag + pred / std::max(tenant.config.weight, kMinWeight);
      tenant.virtual_finish = finish_tag;
    }
  }
  const std::uint64_t ticket = next_ticket_++;
  waiting_.push_back({ticket, session, start_tag, finish_tag});
  gate_cv_.wait(lock, [&] {
    return shutting_down_ || (!gate_busy_ && IsNextLocked(ticket));
  });
  waiting_.erase(std::find_if(
      waiting_.begin(), waiting_.end(),
      [ticket](const Waiter& w) { return w.ticket == ticket; }));
  if (shutting_down_) {
    auto it = tenants_.find(session);
    if (it != tenants_.end()) {
      it->second.backlog_seconds =
          std::max(0.0, it->second.backlog_seconds - pred);
    }
    return Status(ErrorCode::kDeviceNotAvailable, "node broker shut down");
  }
  gate_busy_ = true;
  virtual_now_ = std::max(virtual_now_, start_tag);
  return LaunchGrant{ticket, pred};
}

void NodeBroker::CompleteLaunch(std::uint64_t session,
                                const LaunchGrant& grant, bool success,
                                double modeled_seconds,
                                const std::string& kernel, double flops) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    gate_busy_ = false;
    auto it = tenants_.find(session);
    if (it != tenants_.end()) {
      Tenant& tenant = it->second;
      tenant.backlog_seconds =
          std::max(0.0, tenant.backlog_seconds - grant.predicted_seconds);
      if (success) {
        tenant.served_seconds += modeled_seconds;
        ++tenant.kernels_completed;
      }
    }
    if (success) {
      ++kernels_completed_;
      if (flops > 0.0 && modeled_seconds > 0.0) {
        rates_.Observe(0, kernel, modeled_seconds / flops);
      }
    }
  }
  gate_cv_.notify_all();
}

void NodeBroker::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) return;
    shutting_down_ = true;
  }
  gate_cv_.notify_all();
}

// ---- Introspection ----------------------------------------------------------

std::uint64_t NodeBroker::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return node_resident_;
}

std::uint64_t NodeBroker::resident_bytes_of(std::uint64_t session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(session);
  return it == tenants_.end() ? 0 : it->second.ledger->pool().resident_bytes();
}

double NodeBroker::backlog_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return TotalBacklogLocked();
}

double NodeBroker::backlog_seconds_of(std::uint64_t session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(session);
  return it == tenants_.end() ? 0.0 : it->second.backlog_seconds;
}

std::uint64_t NodeBroker::kernels_completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return kernels_completed_;
}

TenantStats NodeBroker::StatsForLocked(std::uint64_t session,
                                       const Tenant& t) const {
  TenantStats stats;
  stats.session = session;
  stats.name = t.config.name;
  stats.weight = t.config.weight;
  stats.mem_quota_bytes = t.config.mem_quota_bytes;
  stats.resident_bytes = t.ledger->pool().resident_bytes();
  stats.backlog_seconds = t.backlog_seconds;
  stats.served_seconds = t.served_seconds;
  stats.launches_admitted = t.launches_admitted;
  stats.launches_rejected = t.launches_rejected;
  stats.kernels_completed = t.kernels_completed;
  return stats;
}

TenantStats NodeBroker::StatsFor(std::uint64_t session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(session);
  if (it == tenants_.end()) {
    TenantStats stats;
    stats.session = session;
    return stats;
  }
  return StatsForLocked(session, it->second);
}

std::vector<TenantStats> NodeBroker::AllTenants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantStats> all;
  all.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) {
    all.push_back(StatsForLocked(id, tenant));
  }
  return all;
}

std::vector<BrokerKernelRate> NodeBroker::KernelRates() const {
  std::vector<BrokerKernelRate> rates;
  for (const auto& [kernel, rate] : rates_.KernelsOf(0)) {
    rates.push_back({kernel, rate.seconds_per_flop, rate.samples});
  }
  return rates;
}

}  // namespace haocl::broker
