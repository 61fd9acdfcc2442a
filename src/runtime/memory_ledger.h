// MemoryLedger: the device-memory accounting surface a DeviceSession
// charges its materializations against.
//
// Historically every session owned a private MemoryPool sized to the
// device capacity, so two sessions sharing one physical node could
// jointly oversubscribe it — each ledger believed it had the whole
// device. The ledger interface breaks that: the NMP hands every session
// a view onto the node's single shared ledger (broker/node_broker.h),
// where capacity is enforced across ALL sessions and per-tenant quotas
// apply. A session constructed without a ledger (unit tests driving
// DeviceSession directly) falls back to a private PoolLedger, which
// reproduces the old single-tenant semantics exactly.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "runtime/memory_pool.h"

namespace haocl::runtime {

class MemoryLedger {
 public:
  virtual ~MemoryLedger() = default;

  // Charges the not-yet-resident bytes of [begin, end) of `buffer`.
  // Fails with kMemObjectAllocationFailure (charging nothing) when they
  // would exceed the device capacity or the session's quota.
  virtual Status Reserve(std::uint64_t buffer, std::uint64_t begin,
                         std::uint64_t end) = 0;
  // Releases the resident bytes of [begin, end); returns bytes freed.
  virtual std::uint64_t Release(std::uint64_t buffer, std::uint64_t begin,
                                std::uint64_t end) = 0;
  // Releases everything the buffer holds; returns bytes freed.
  virtual std::uint64_t ReleaseBuffer(std::uint64_t buffer) = 0;

  // Bytes THIS session has resident.
  [[nodiscard]] virtual std::uint64_t resident_bytes() const = 0;
};

// Private single-session ledger over one MemoryPool: the pre-broker
// behaviour, kept for sessions that are not served through an NMP.
class PoolLedger final : public MemoryLedger {
 public:
  explicit PoolLedger(std::uint64_t capacity_bytes) : pool_(capacity_bytes) {}

  Status Reserve(std::uint64_t buffer, std::uint64_t begin,
                 std::uint64_t end) override {
    return pool_.Reserve(buffer, begin, end);
  }
  std::uint64_t Release(std::uint64_t buffer, std::uint64_t begin,
                        std::uint64_t end) override {
    return pool_.Release(buffer, begin, end);
  }
  std::uint64_t ReleaseBuffer(std::uint64_t buffer) override {
    return pool_.ReleaseBuffer(buffer);
  }
  [[nodiscard]] std::uint64_t resident_bytes() const override {
    return pool_.resident_bytes();
  }

 private:
  MemoryPool pool_;
};

}  // namespace haocl::runtime
