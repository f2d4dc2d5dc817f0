#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "support/assert.hpp"

/// \file byte_buffer.hpp
/// Flat byte-oriented serialization used for every message payload that
/// crosses a (real or emulated) processor boundary. Mobile objects serialize
/// themselves through a Writer when they migrate and rebuild from a Reader on
/// the destination; keeping the wire format explicit is what lets the thread
/// backend and the discrete-event backend share all protocol code.

namespace prema::util {

/// Append-only serialization sink producing a contiguous byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { bytes_.reserve(reserve); }

  /// Append the raw object representation of a trivially copyable value.
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteWriter::put requires a trivially copyable type");
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }

  /// Append a length-prefixed byte span.
  void put_bytes(std::span<const std::uint8_t> data) {
    put<std::uint64_t>(data.size());
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  /// Append a length-prefixed string.
  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  /// Append a length-prefixed vector of trivially copyable elements.
  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(T));
  }

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  /// Move the accumulated bytes out; the writer is left empty.
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Sequential deserialization source over a byte span. Bounds-checked: reading
/// past the end aborts (a malformed message is a protocol bug, not user error).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Read back a trivially copyable value written by ByteWriter::put.
  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    PREMA_CHECK_MSG(pos_ + sizeof(T) <= bytes_.size(), "ByteReader overrun");
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Read a length-prefixed byte vector written by put_bytes.
  std::vector<std::uint8_t> get_bytes() {
    const auto n = get<std::uint64_t>();
    PREMA_CHECK_MSG(pos_ + n <= bytes_.size(), "ByteReader overrun (bytes)");
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  /// Read a length-prefixed string written by put_string.
  std::string get_string() {
    const auto n = get<std::uint64_t>();
    PREMA_CHECK_MSG(pos_ + n <= bytes_.size(), "ByteReader overrun (string)");
    std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  /// Read a length-prefixed vector written by put_vector.
  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get<std::uint64_t>();
    PREMA_CHECK_MSG(pos_ + n * sizeof(T) <= bytes_.size(), "ByteReader overrun (vector)");
    std::vector<T> out(n);
    std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace prema::util
