// DeviceSession: the node-local OpenCL execution engine.
//
// One DeviceSession exists per (device node, user session). It owns the
// node-side state a forwarded OpenCL application needs: device buffers,
// built programs, and the driver handle, and it executes the command stream
// in order (the in-order command-queue semantics OpenCL guarantees). The
// NMP is a thin protocol shell around this class; unit tests drive it
// directly without any networking.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/zeroed_bytes.h"
#include "driver/device_driver.h"
#include "net/protocol.h"
#include "runtime/memory_ledger.h"

namespace haocl::runtime {

class DeviceSession {
 public:
  // The driver is shared with other sessions on the same node (a "shared"
  // device in the paper's terms); the session only owns its own objects.
  // Every byte range that materializes here (host writes, peer slices,
  // kernel outputs) is charged against `ledger`, and host eviction
  // notices release it — the node-side half of the tiered-memory ledger.
  // When the NMP supplies a ledger it is a view onto the node's shared
  // broker ledger (capacity enforced across all sessions, quotas apply);
  // without one, the session budgets a private pool at device capacity,
  // the pre-broker single-tenant behaviour. A supplied ledger must
  // outlive the session.
  explicit DeviceSession(driver::DeviceDriver* driver,
                         MemoryLedger* ledger = nullptr)
      : driver_(driver),
        owned_ledger_(ledger == nullptr
                          ? std::make_unique<PoolLedger>(
                                driver->spec().mem_capacity_bytes)
                          : nullptr),
        ledger_(ledger == nullptr ? owned_ledger_.get() : ledger) {}

  DeviceSession(const DeviceSession&) = delete;
  DeviceSession& operator=(const DeviceSession&) = delete;

  // ---- Buffers ----------------------------------------------------------
  // A range of a replica, pinned: `owner` keeps the bytes alive even when
  // the buffer is released meanwhile from another connection.
  struct ReplicaRange {
    std::span<std::uint8_t> bytes;
    std::shared_ptr<const void> owner;
  };

  Status CreateBuffer(std::uint64_t buffer_id, std::uint64_t size);
  // Range-checks [offset, offset + size) and charges it to the ledger,
  // then hands it out to be filled: the one gate every incoming write
  // passes, whether copied (WriteBuffer) or received in place (a write at
  // the head of the NMP's queue, a PullSlice's peer reply).
  Expected<ReplicaRange> ClaimWrite(std::uint64_t buffer_id,
                                    std::uint64_t offset, std::uint64_t size);
  Status WriteBuffer(std::uint64_t buffer_id, std::uint64_t offset,
                     std::span<const std::uint8_t> data);
  // [offset, offset + size) of the replica itself, not a copy: the NMP
  // sends it as the reply's tail. The host never has a write to a range
  // in flight while it reads that range, so the bytes hold still.
  Expected<ReplicaRange> ReadBuffer(std::uint64_t buffer_id,
                                    std::uint64_t offset, std::uint64_t size);
  Status ReleaseBuffer(std::uint64_t buffer_id);

  // ---- Programs ---------------------------------------------------------
  net::BuildProgramReply BuildProgram(std::uint64_t program_id,
                                      const std::string& source);
  Status ReleaseProgram(std::uint64_t program_id);

  // ---- Kernels ----------------------------------------------------------
  net::LaunchKernelReply LaunchKernel(const net::LaunchKernelRequest& request);

  // ---- Node-to-node slice exchange --------------------------------------
  // Transport hook the NMP supplies: fetch [offset, offset + into.size())
  // of a buffer from a peer node straight into `into`. The session itself
  // stays transport-free.
  using PeerFetch = std::function<Status(
      std::uint32_t peer, std::uint64_t buffer_id, std::uint64_t offset,
      std::span<std::uint8_t> into)>;

  // Pulls [offset, offset+size) of `buffer_id` from the request's source
  // peer into the local replica: the range is claimed first (ClaimWrite:
  // range check, ledger charge, pinned replica range) and the peer's bytes
  // land in it. The session lock is NOT held across the peer fetch, so two
  // nodes cross-pulling from each other cannot deadlock. A failed fetch
  // leaves the range charged and its bytes unspecified, as a write cut off
  // mid-tail does; the host never marks this node an owner of it.
  Status PullSlice(const net::PullSliceRequest& request,
                   const PeerFetch& fetch);

  // ---- Tiered memory ----------------------------------------------------
  // Applies a host reservation/eviction notice to the session's memory
  // pool (see net::MemoryNoticeRequest).
  Status MemoryNotice(const net::MemoryNoticeRequest& request);

  // ---- Introspection ----------------------------------------------------
  [[nodiscard]] const sim::DeviceSpec& spec() const { return driver_->spec(); }
  [[nodiscard]] std::size_t buffer_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return buffers_.size();
  }
  [[nodiscard]] std::size_t program_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return programs_.size();
  }
  // Bytes of buffer regions THIS session materialized in device memory
  // per its ledger (its broker tenant's resident_bytes).
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return ledger_->resident_bytes();
  }

 private:
  struct ProgramEntry {
    std::shared_ptr<const oclc::Module> module;
    std::string build_log;
  };

  // [offset, offset + size) of `buffer_id`'s replica, or the error naming
  // `what` went out of range. Requires mutex_ held.
  Expected<ReplicaRange> RangeLocked(std::uint64_t buffer_id,
                                     std::uint64_t offset, std::uint64_t size,
                                     const char* what);

  driver::DeviceDriver* driver_;
  // Fallback private ledger when none is injected (see ctor).
  std::unique_ptr<PoolLedger> owned_ledger_;
  // Device-memory ledger (internally synchronized; safe under mutex_,
  // which never nests inside it).
  MemoryLedger* ledger_;
  // One session is now reachable from several connections at once (the
  // host's channel plus peer slice-exchange channels), so every public
  // entry point locks.
  mutable std::mutex mutex_;
  // Replicas are shared-owned so a reply being sent, a write landing or a
  // kernel running keeps its replica alive past a concurrent release. They
  // are lazily zeroed: only the ranges that bytes land in become resident.
  std::unordered_map<std::uint64_t, std::shared_ptr<ZeroedBytes>> buffers_;
  std::unordered_map<std::uint64_t, ProgramEntry> programs_;
};

}  // namespace haocl::runtime
