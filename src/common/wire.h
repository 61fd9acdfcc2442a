// Wire-format serialization for the communication backbone.
//
// Everything that crosses a node boundary (API-call message packages, data
// packages, responses) is encoded with these primitives: little-endian fixed
// width integers, length-prefixed byte strings, and length-prefixed
// containers. The format is deliberately simple so both the real TCP
// transport and the simulated transport share one codec, and so a truncated
// or corrupted frame is detected instead of read out of bounds.
//
// A message struct lists its fields once, in wire order, in a member
// `template <class Ar> void Fields(Ar& ar) { ar(a, b, c); }`. WireWriter and
// WireReader are both such an `ar`: one walk of that list encodes, the other
// decodes. The field kinds and their encodings are tabled in
// docs/wire_protocol.md.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace haocl {

// Overflow-safe range check shared by the API shim and the host runtime:
// true when [offset, offset + size) does not fit in [0, total). Written
// without computing offset + size, which could wrap.
[[nodiscard]] constexpr bool RangeExceeds(std::uint64_t offset,
                                          std::uint64_t size,
                                          std::uint64_t total) {
  return offset > total || size > total - offset;
}

// The largest valid value of an enum field; values run 0..max. Specialise
// it for every enum a message carries. An enum without a specialisation
// never decodes (fails closed).
template <class E>
inline constexpr std::optional<E> kWireEnumMax = std::nullopt;

namespace wire_detail {
template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
}  // namespace wire_detail

// Append-only encoder.
class WireWriter {
 public:
  WireWriter() = default;
  explicit WireWriter(std::size_t reserve) { bytes_.reserve(reserve); }

  template <typename T>
  void WriteFixed(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    bytes_.insert(bytes_.end(), raw, raw + sizeof(T));
  }

  void WriteU8(std::uint8_t v) { WriteFixed(v); }
  void WriteU16(std::uint16_t v) { WriteFixed(v); }
  void WriteU32(std::uint32_t v) { WriteFixed(v); }
  void WriteU64(std::uint64_t v) { WriteFixed(v); }
  void WriteI32(std::int32_t v) { WriteFixed(v); }
  void WriteI64(std::int64_t v) { WriteFixed(v); }
  void WriteF64(double v) { WriteFixed(v); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteString(std::string_view s) {
    WriteU32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  void WriteBytes(const void* data, std::size_t size) {
    WriteU64(size);
    const auto* p = static_cast<const unsigned char*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  void WriteByteVector(const std::vector<std::uint8_t>& v) {
    WriteBytes(v.data(), v.size());
  }

  // Schema walk: appends each field in order.
  template <typename... Fields>
  void operator()(const Fields&... fields) {
    (Write(fields), ...);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const& {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> Take() && { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

 private:
  template <typename T>
  void Write(const T& field) {
    if constexpr (std::is_same_v<T, bool>) {
      WriteBool(field);
    } else if constexpr (std::is_enum_v<T>) {
      WriteFixed(static_cast<std::underlying_type_t<T>>(field));
    } else if constexpr (std::is_arithmetic_v<T>) {
      WriteFixed(field);
    } else if constexpr (std::is_same_v<T, std::string>) {
      WriteString(field);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      WriteByteVector(field);
    } else if constexpr (std::is_same_v<T, std::span<const std::uint8_t>>) {
      // The last field: the bytes follow as the frame's tail.
      WriteU64(field.size());
    } else if constexpr (wire_detail::kIsVector<T>) {
      WriteU32(static_cast<std::uint32_t>(field.size()));
      for (const auto& item : field) Write(item);
    } else if constexpr (std::is_array_v<T>) {
      for (const auto& item : field) Write(item);
    } else {
      // Fields() only hands the members to this writer, which reads them.
      const_cast<T&>(field).Fields(*this);
    }
  }

  std::vector<std::uint8_t> bytes_;
};

// Bounds-checked decoder over a borrowed byte span.
class WireReader {
 public:
  WireReader(const void* data, std::size_t size)
      : data_(static_cast<const std::uint8_t*>(data)), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  template <typename T>
  Expected<T> ReadFixed() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > size_) return Truncated("fixed");
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  Expected<std::uint8_t> ReadU8() { return ReadFixed<std::uint8_t>(); }
  Expected<std::uint16_t> ReadU16() { return ReadFixed<std::uint16_t>(); }
  Expected<std::uint32_t> ReadU32() { return ReadFixed<std::uint32_t>(); }
  Expected<std::uint64_t> ReadU64() { return ReadFixed<std::uint64_t>(); }
  Expected<std::int32_t> ReadI32() { return ReadFixed<std::int32_t>(); }
  Expected<std::int64_t> ReadI64() { return ReadFixed<std::int64_t>(); }
  Expected<double> ReadF64() { return ReadFixed<double>(); }
  Expected<bool> ReadBool() {
    auto v = ReadU8();
    if (!v.ok()) return v.status();
    return *v != 0;
  }

  // Length checks compare against the bytes remaining, never `pos_ + len`:
  // a hostile u64 length would wrap that sum past the bounds check.
  Expected<std::string> ReadString() {
    auto len = ReadU32();
    if (!len.ok()) return len.status();
    if (*len > size_ - pos_) return Truncated("string");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), *len);
    pos_ += *len;
    return s;
  }

  Expected<std::vector<std::uint8_t>> ReadByteVector() {
    auto view = ReadByteView();
    if (!view.ok()) return view.status();
    return std::vector<std::uint8_t>(view->begin(), view->end());
  }

  // Length-prefixed bytes as a view into the decoded span: no copy, valid
  // only while the underlying bytes live.
  Expected<std::span<const std::uint8_t>> ReadByteView() {
    auto len = ReadU64();
    if (!len.ok()) return len.status();
    if (*len > size_ - pos_) return Truncated("bytes");
    std::span<const std::uint8_t> view(data_ + pos_, *len);
    pos_ += *len;
    return view;
  }

  // Schema walk: reads each field in order. The first failure sticks:
  // later fields are left as they were and status() reports it.
  template <typename... Fields>
  void operator()(Fields&... fields) {
    (Read(fields), ...);
  }

  [[nodiscard]] const Status& status() const noexcept { return status_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] bool AtEnd() const noexcept { return pos_ == size_; }

 private:
  static Status Truncated(const char* what) {
    return Status(ErrorCode::kProtocolError,
                  std::string("truncated wire data reading ") + what);
  }

  template <typename T>
  void Read(T& field) {
    if (!status_.ok()) return;
    if constexpr (std::is_same_v<T, bool>) {
      Assign(field, ReadBool());
    } else if constexpr (std::is_enum_v<T>) {
      using Raw = std::underlying_type_t<T>;
      using Unsigned = std::make_unsigned_t<Raw>;
      auto raw = ReadFixed<Raw>();
      if (!raw.ok()) {
        status_ = raw.status();
      } else if (!kWireEnumMax<T> ||
                 static_cast<Unsigned>(*raw) >
                     static_cast<Unsigned>(*kWireEnumMax<T>)) {
        status_ = Status(ErrorCode::kProtocolError,
                         "enum value " + std::to_string(*raw) +
                             " out of range");
      } else {
        field = static_cast<T>(*raw);
      }
    } else if constexpr (std::is_arithmetic_v<T>) {
      Assign(field, ReadFixed<T>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      Assign(field, ReadString());
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      Assign(field, ReadByteVector());
    } else if constexpr (std::is_same_v<T, std::span<const std::uint8_t>>) {
      Assign(field, ReadByteView());
    } else if constexpr (wire_detail::kIsVector<T>) {
      // Every element takes at least one byte, so a count above the bytes
      // remaining is a lie; it is refused before anything is allocated.
      auto count = ReadU32();
      if (!count.ok()) {
        status_ = count.status();
      } else if (*count > remaining()) {
        status_ = Truncated("vector");
      } else {
        field.clear();
        for (std::uint32_t i = 0; i < *count && status_.ok(); ++i) {
          Read(field.emplace_back());
        }
      }
    } else if constexpr (std::is_array_v<T>) {
      for (auto& item : field) Read(item);
    } else {
      field.Fields(*this);
    }
  }

  template <typename T>
  void Assign(T& field, Expected<T> value) {
    if (value.ok()) {
      field = *std::move(value);
    } else {
      status_ = value.status();
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  Status status_;
};

}  // namespace haocl
