// Lanes: several connections of one session to one peer, so a bulk
// payload is not held to one stream's throughput.
//
// One TCP stream moves a payload at the rate one core copies it through
// the socket. A LaneSet splits a host<->node payload of several MiB into
// chunks, one ordinary kWriteBuffer or kReadBuffer frame per lane: the
// main connection plus extra connections dialed to the same peer
// (Connection::Dial) the first time a transfer needs them. The peer
// serves each lane as one more connection of the session, so neither the
// wire format nor the peer changes. A connection that cannot dial (the
// in-process transport, an accepted connection, a decorator that does not
// forward Dial) leaves the set with its main lane, and every transfer is
// then one frame, as without lanes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/status.h"
#include "net/rpc.h"
#include "net/transport.h"

namespace haocl::net {

// The smallest chunk a transfer is split into: a transfer stripes only
// when it is at least twice this large.
inline constexpr std::uint64_t kLaneChunkFloor = 1ULL << 20;

class LaneSet {
 public:
  // Starts the RPC client of the peer's main connection. Transfers use at
  // most one lane per hardware thread, the main one included.
  explicit LaneSet(ConnectionPtr main);
  ~LaneSet();

  LaneSet(const LaneSet&) = delete;
  LaneSet& operator=(const LaneSet&) = delete;

  // The main lane: every request but a striped transfer's chunks.
  [[nodiscard]] RpcClient& main() { return *main_; }

  // How many chunks a transfer of `size` bytes takes: as many lanes as
  // the set may use, each chunk at least kLaneChunkFloor, or 1 (one frame
  // on the main lane). Cheap; dials nothing. Until a transfer learns that
  // the main connection cannot dial, it answers as if it could.
  [[nodiscard]] std::size_t ChunksFor(std::uint64_t size) const;

  // One chunk of a write and the peer's answer to it.
  struct Chunk {
    std::uint64_t offset = 0;  // In the buffer.
    std::uint64_t size = 0;
    Status status;  // The reply's status, or why no reply came.
  };

  // Writes `bytes` to [offset, offset + bytes.size()) of `buffer_id` in
  // `session`, one kWriteBuffer per chunk: the first chunk leaves from the
  // calling thread on the main lane, each other from a sending thread of
  // its own lane (inline when the thread cannot start). Returns every
  // chunk's outcome in buffer order, once every sender is joined and every
  // reply is in or withdrawn at `timeout`: no lane reads `bytes` after.
  std::vector<Chunk> Write(std::uint64_t session, std::uint64_t buffer_id,
                           std::uint64_t offset,
                           std::span<const std::uint8_t> bytes,
                           std::chrono::milliseconds timeout);

  // Reads [offset, offset + into.size()) of `buffer_id` in `session` into
  // `into`, one kReadBuffer per chunk sent from the calling thread; each
  // reply lands in its part of `into` on its lane's reader. Fails with the
  // first chunk's failure, and the bytes of `into` are unspecified unless
  // it succeeds. Returns once every reply is in or withdrawn at `timeout`:
  // no lane writes `into` after.
  Status Read(std::uint64_t session, std::uint64_t buffer_id,
              std::uint64_t offset, std::span<std::uint8_t> into,
              std::chrono::milliseconds timeout);

  // Closes every lane; calls in flight fail.
  void Close();

  // Lanes open now, the main one included.
  [[nodiscard]] std::size_t lane_count() const;
  // Bytes sent over every lane the set ever had.
  [[nodiscard]] std::uint64_t bytes_sent() const;

 private:
  using Lane = std::shared_ptr<RpcClient>;
  struct Call {
    std::uint64_t seq = 0;
    RpcClient::ReplyFuture reply;
  };

  // The lanes for a transfer of `chunks` chunks, the main one first,
  // dialing those the set lacks. An extra lane whose connection ended
  // while it idled is dropped and dialed afresh; a failed dial caps the
  // set at the lanes it has.
  std::vector<Lane> LanesFor(std::size_t chunks);
  // Awaits every call against one deadline (a reply still missing when it
  // passes is withdrawn), then closes and drops each extra lane whose call
  // failed in transport: the next transfer dials a fresh one.
  std::vector<Expected<Message>> AwaitAll(const std::vector<Lane>& lanes,
                                          const std::vector<Call>& calls,
                                          std::chrono::milliseconds timeout);

  const Lane main_;
  std::atomic<std::size_t> max_lanes_;
  mutable std::mutex mutex_;
  std::vector<Lane> extra_;          // Guarded by mutex_.
  std::uint64_t dropped_bytes_ = 0;  // Sent over dropped lanes; mutex_.
  bool closed_ = false;              // Guarded by mutex_.
};

}  // namespace haocl::net
