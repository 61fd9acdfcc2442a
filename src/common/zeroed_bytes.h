// ZeroedBytes: a fixed-size byte array that reads as zeros and costs no
// resident memory until something writes it.
//
// Backed by calloc: a large allocation comes from fresh anonymous pages the
// kernel zero-fills on first touch, so creating a multi-GiB buffer maps
// nothing and only the pages a write lands in become resident. (A
// std::vector value-initializes every byte, touching every page.) Unlike a
// raw mmap it stays a heap allocation, so ASan keeps its redzones around
// the array. ThreadSanitizer's calloc writes every byte, so under TSan the
// array is resident from creation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

namespace haocl {

class ZeroedBytes {
 public:
  ZeroedBytes() = default;
  // Throws std::bad_alloc when the allocation fails.
  explicit ZeroedBytes(std::size_t size)
      : data_(static_cast<std::uint8_t*>(std::calloc(size, 1))), size_(size) {
    if (data_ == nullptr && size != 0) throw std::bad_alloc();
  }
  ~ZeroedBytes() { std::free(data_); }

  ZeroedBytes(ZeroedBytes&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  ZeroedBytes& operator=(ZeroedBytes&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ZeroedBytes(const ZeroedBytes&) = delete;
  ZeroedBytes& operator=(const ZeroedBytes&) = delete;

  [[nodiscard]] std::uint8_t* data() { return data_; }
  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint8_t* begin() { return data_; }
  [[nodiscard]] std::uint8_t* end() { return data_ + size_; }
  [[nodiscard]] const std::uint8_t* begin() const { return data_; }
  [[nodiscard]] const std::uint8_t* end() const { return data_ + size_; }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace haocl
