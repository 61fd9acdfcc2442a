#include "net/sim_transport.h"

#include <cstring>
#include <utility>

namespace haocl::net {
namespace {

// Shared state of one direction of the channel.
struct Pipe {
  BlockingQueue<Message> queue;
};

class SimConnection : public Connection {
 public:
  SimConnection(std::shared_ptr<Pipe> tx, std::shared_ptr<Pipe> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  ~SimConnection() override { Close(); }

  Status Send(const Message& message) override {
    if (closed_.load(std::memory_order_acquire)) {
      return Status(ErrorCode::kNodeUnreachable, "connection closed");
    }
    if (tx_->queue.closed()) {
      return Status(ErrorCode::kNodeUnreachable, "peer closed");
    }
    bytes_sent_.fetch_add(message.WireSize(), std::memory_order_relaxed);
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    // The queued message outlives this call, so a borrowed tail is copied
    // into its payload here, as the receiver of a TCP frame would see it.
    Message queued = message;
    queued.payload.insert(queued.payload.end(), message.tail.begin(),
                          message.tail.end());
    queued.tail = {};
    queued.tail_owner.reset();
    tx_->queue.Push(std::move(queued));
    return Status::Ok();
  }

  void SetSink(FrameSink sink) override { sink_ = std::move(sink); }

  void SetEndHandler(std::function<void()> ended) override {
    ended_ = std::move(ended);
  }

  void Start(MessageHandler handler) override {
    dispatcher_ = std::thread([this, handler = std::move(handler),
                               ended = std::move(ended_)] {
      while (auto msg = rx_->queue.Pop()) {
        Land(*msg);
        handler(*std::move(msg));
      }
      if (ended) ended();
    });
  }

  void Close() override {
    bool expected = false;
    if (!closed_.compare_exchange_strong(expected, true)) {
      // Already closed; still make sure the dispatcher is reaped when
      // Close() races with the destructor.
    }
    tx_->queue.Close();
    rx_->queue.Close();
    if (dispatcher_.joinable()) {
      if (dispatcher_.get_id() == std::this_thread::get_id()) {
        dispatcher_.detach();  // Close() from inside the handler.
      } else {
        dispatcher_.join();
      }
    }
  }

  [[nodiscard]] std::uint64_t bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t messages_sent() const override {
    return messages_sent_.load(std::memory_order_relaxed);
  }

 private:
  // Moves the bulk bytes of `msg` to where the sink claims them, as the
  // TCP reader would have read them there.
  void Land(Message& msg) const {
    const std::size_t prefix = LandingPrefixSize(msg.type);
    if (!sink_.claim || msg.payload.size() <= prefix) return;
    const Message::Header header{msg.type, msg.seq, msg.session,
                                 msg.payload.size()};
    Landing landing =
        sink_.claim(header, std::span(msg.payload).first(prefix));
    if (landing.bytes.empty()) return;
    std::memcpy(landing.bytes.data(), msg.payload.data() + prefix,
                landing.bytes.size());
    msg.payload.resize(prefix);
    msg.tail = landing.bytes;
    msg.tail_owner = std::move(landing.owner);
  }

  std::shared_ptr<Pipe> tx_;
  std::shared_ptr<Pipe> rx_;
  FrameSink sink_;  // Set before Start; read by the dispatcher only.
  std::function<void()> ended_;  // Set before Start; moved to the dispatcher.
  std::thread dispatcher_;
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
};

}  // namespace

std::pair<ConnectionPtr, ConnectionPtr> CreateSimChannel() {
  auto a_to_b = std::make_shared<Pipe>();
  auto b_to_a = std::make_shared<Pipe>();
  auto a = std::make_unique<SimConnection>(a_to_b, b_to_a);
  auto b = std::make_unique<SimConnection>(b_to_a, a_to_b);
  return {std::move(a), std::move(b)};
}

SimListener::~SimListener() { Stop(); }

Status SimListener::Start(AcceptHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  handler_ = std::move(handler);
  running_ = true;
  return Status::Ok();
}

void SimListener::Stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
  handler_ = nullptr;
}

Expected<ConnectionPtr> SimListener::Connect() {
  AcceptHandler handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) {
      return Status(ErrorCode::kNodeUnreachable, "listener not running");
    }
    handler = handler_;
  }
  auto [client, server] = CreateSimChannel();
  handler(std::move(server));
  return std::move(client);
}

}  // namespace haocl::net
