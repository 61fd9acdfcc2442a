#include "net/lanes.h"

#include <algorithm>
#include <system_error>
#include <thread>
#include <utility>

#include "common/log.h"
#include "net/protocol.h"

namespace haocl::net {
namespace {

// [begin, end) of chunk `i` of `count` over `size` bytes: page-aligned
// boundaries, the last chunk takes the rest.
std::pair<std::uint64_t, std::uint64_t> ChunkBounds(std::uint64_t size,
                                                    std::size_t count,
                                                    std::size_t i) {
  const std::uint64_t step = (size / count) & ~std::uint64_t{4095};
  const std::uint64_t begin = i * step;
  return {begin, i + 1 == count ? size : begin + step};
}

}  // namespace

LaneSet::LaneSet(ConnectionPtr main)
    : main_(std::make_shared<RpcClient>(std::move(main))),
      max_lanes_(std::max(1u, std::thread::hardware_concurrency())) {}

LaneSet::~LaneSet() { Close(); }

std::size_t LaneSet::ChunksFor(std::uint64_t size) const {
  const std::uint64_t fit = size / kLaneChunkFloor;
  const std::size_t lanes = max_lanes_.load(std::memory_order_relaxed);
  if (fit < 2 || lanes < 2) return 1;
  return static_cast<std::size_t>(std::min<std::uint64_t>(lanes, fit));
}

std::vector<LaneSet::Lane> LaneSet::LanesFor(std::size_t chunks) {
  std::vector<Lane> lanes{main_};
  if (chunks < 2) return lanes;
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(extra_, [this](const Lane& lane) {
    if (!lane->ended()) return false;
    lane->Close();
    dropped_bytes_ += lane->bytes_sent();
    return true;
  });
  while (!closed_ && extra_.size() + 1 < chunks) {
    auto dialed = main_->Dial();
    if (!dialed.ok()) {
      if (dialed.status().code() != ErrorCode::kUnimplemented) {
        HAOCL_WARN << "lane dial failed, keeping " << extra_.size() + 1
                   << " lanes: " << dialed.status().ToString();
      }
      max_lanes_.store(extra_.size() + 1, std::memory_order_relaxed);
      break;
    }
    extra_.push_back(std::make_shared<RpcClient>(*std::move(dialed)));
  }
  const std::size_t take = std::min(chunks - 1, extra_.size());
  lanes.insert(lanes.end(), extra_.begin(), extra_.begin() + take);
  return lanes;
}

std::vector<Expected<Message>> LaneSet::AwaitAll(
    const std::vector<Lane>& lanes, const std::vector<Call>& calls,
    std::chrono::milliseconds timeout) {
  using std::chrono::milliseconds;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::vector<Expected<Message>> replies;
  replies.reserve(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const auto left = std::chrono::duration_cast<milliseconds>(
        deadline - std::chrono::steady_clock::now());
    replies.push_back(lanes[i]->Await(calls[i].seq, calls[i].reply,
                                      std::max(left, milliseconds(0))));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 1; i < lanes.size(); ++i) {
    if (replies[i].ok()) continue;
    auto it = std::find(extra_.begin(), extra_.end(), lanes[i]);
    if (it == extra_.end()) continue;  // Another transfer dropped it.
    lanes[i]->Close();
    dropped_bytes_ += lanes[i]->bytes_sent();
    extra_.erase(it);
  }
  return replies;
}

std::vector<LaneSet::Chunk> LaneSet::Write(std::uint64_t session,
                                           std::uint64_t buffer_id,
                                           std::uint64_t offset,
                                           std::span<const std::uint8_t> bytes,
                                           std::chrono::milliseconds timeout) {
  const std::vector<Lane> lanes = LanesFor(ChunksFor(bytes.size()));
  const std::size_t count = lanes.size();
  std::vector<Chunk> chunks(count);
  std::vector<Call> calls(count);
  auto send = [&](std::size_t i) {
    const auto [begin, end] = ChunkBounds(bytes.size(), count, i);
    const auto part = bytes.subspan(begin, end - begin);
    chunks[i].offset = offset + begin;
    chunks[i].size = part.size();
    calls[i].seq = lanes[i]->ReserveSeq();
    calls[i].reply = lanes[i]->CallAsync(
        MsgType::kWriteBuffer, session,
        Encode(WriteBufferRequest{buffer_id, offset + begin, 0, part}), part,
        {}, calls[i].seq);
  };
  std::vector<std::jthread> senders;
  senders.reserve(count);
  for (std::size_t i = 1; i < count; ++i) {
    try {
      senders.emplace_back(send, i);
    } catch (const std::system_error&) {
      send(i);  // No thread to spare: this chunk leaves from here.
    }
  }
  send(0);
  for (std::jthread& sender : senders) sender.join();
  const std::vector<Expected<Message>> replies =
      AwaitAll(lanes, calls, timeout);
  for (std::size_t i = 0; i < count; ++i) {
    chunks[i].status = CheckReply(replies[i], MsgType::kStatusReply);
  }
  return chunks;
}

Status LaneSet::Read(std::uint64_t session, std::uint64_t buffer_id,
                     std::uint64_t offset, std::span<std::uint8_t> into,
                     std::chrono::milliseconds timeout) {
  const std::vector<Lane> lanes = LanesFor(ChunksFor(into.size()));
  const std::size_t count = lanes.size();
  std::vector<std::span<std::uint8_t>> parts(count);
  std::vector<Call> calls(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto [begin, end] = ChunkBounds(into.size(), count, i);
    parts[i] = into.subspan(begin, end - begin);
    calls[i].seq = lanes[i]->ReserveSeq();
    calls[i].reply = lanes[i]->CallAsync(
        MsgType::kReadBuffer, session,
        Encode(ReadBufferRequest{buffer_id, offset + begin, parts[i].size(),
                                 0}),
        {}, parts[i], calls[i].seq);
  }
  const std::vector<Expected<Message>> replies =
      AwaitAll(lanes, calls, timeout);
  Status first;
  for (std::size_t i = 0; i < count; ++i) {
    const Status received = ReceiveReadReply(replies[i], parts[i]);
    if (first.ok() && !received.ok()) first = received;
  }
  return first;
}

void LaneSet::Close() {
  std::vector<Lane> extra;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    extra = extra_;
  }
  main_->Close();
  for (const Lane& lane : extra) lane->Close();
}

std::size_t LaneSet::lane_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return extra_.size() + 1;
}

std::uint64_t LaneSet::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = dropped_bytes_ + main_->bytes_sent();
  for (const Lane& lane : extra_) total += lane->bytes_sent();
  return total;
}

}  // namespace haocl::net
