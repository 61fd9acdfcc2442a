// Small concurrency primitives shared by the backbone, NMP, and runtime.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace haocl {

// Unbounded MPMC blocking queue. Close() releases all waiters; a closed
// queue still drains already-enqueued items (so NMP shutdown finishes
// in-flight commands).
template <typename T>
class BlockingQueue {
 public:
  void Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;  // Dropped: producers after close have no receiver.
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  // Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Non-blocking variant.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

// Single-assignment value a waiter can block on; the backbone uses this to
// match asynchronous responses to requests.
template <typename T>
class Promise {
 public:
  void Set(T value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (value_.has_value()) return;  // First writer wins.
      value_ = std::move(value);
    }
    cv_.notify_all();
  }

  const T& Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return value_.has_value(); });
    return *value_;
  }

  template <typename Rep, typename Period>
  const T* WaitFor(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, timeout, [this] { return value_.has_value(); })) {
      return nullptr;
    }
    return &*value_;
  }

  // WaitFor for the value's single consumer: moves it out instead of
  // handing back a reference. nullopt on timeout. The slot stays set
  // (moved-from), so a late Set is still ignored.
  template <typename Rep, typename Period>
  std::optional<T> TakeFor(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, timeout, [this] { return value_.has_value(); })) {
      return std::nullopt;
    }
    return std::move(*value_);
  }

  [[nodiscard]] bool Ready() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return value_.has_value();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<T> value_;
};

}  // namespace haocl
