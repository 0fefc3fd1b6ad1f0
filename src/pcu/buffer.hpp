#ifndef PUMI_PCU_BUFFER_HPP
#define PUMI_PCU_BUFFER_HPP

/// \file buffer.hpp
/// \brief Byte-oriented serialization buffers used by all pcu messaging.
///
/// OutBuffer packs trivially-copyable values, strings and vectors into a
/// contiguous byte stream; InBuffer unpacks them in the same order. These are
/// the only (de)serialization primitives in the library: every distributed
/// operation (migration, ghosting, ParMA diffusion) marshals through them.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace pcu {

/// A growable byte buffer with typed append ("pack") operations.
class OutBuffer {
 public:
  OutBuffer() = default;

  /// Append one trivially-copyable value.
  template <typename T>
  void pack(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "pack requires a trivially copyable type");
    const auto* src = reinterpret_cast<const std::byte*>(&value);
    bytes_.insert(bytes_.end(), src, src + sizeof(T));
  }

  /// Append a length-prefixed string.
  void packString(const std::string& s) {
    pack<std::uint64_t>(s.size());
    const auto* src = reinterpret_cast<const std::byte*>(s.data());
    bytes_.insert(bytes_.end(), src, src + s.size());
  }

  /// Append a length-prefixed vector of trivially-copyable elements.
  template <typename T>
  void packVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "packVector requires trivially copyable elements");
    pack<std::uint64_t>(v.size());
    const auto* src = reinterpret_cast<const std::byte*>(v.data());
    bytes_.insert(bytes_.end(), src, src + v.size() * sizeof(T));
  }

  /// Append raw bytes (no length prefix).
  void packBytes(const void* data, std::size_t n) {
    const auto* src = static_cast<const std::byte*>(data);
    bytes_.insert(bytes_.end(), src, src + n);
  }

  /// Pre-size the underlying storage (e.g. when the total coalesced
  /// segment size is known up front).
  void reserve(std::size_t n) { bytes_.reserve(n); }

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] bool empty() const { return bytes_.empty(); }
  [[nodiscard]] const std::byte* data() const { return bytes_.data(); }

  /// Surrender the underlying storage.
  std::vector<std::byte> take() && { return std::move(bytes_); }
  [[nodiscard]] const std::vector<std::byte>& storage() const { return bytes_; }

  void clear() { bytes_.clear(); }

 private:
  std::vector<std::byte> bytes_;
};

/// A read cursor over a byte buffer; unpack order must mirror pack order.
class InBuffer {
 public:
  InBuffer() = default;
  explicit InBuffer(std::vector<std::byte> bytes) : bytes_(std::move(bytes)) {}

  template <typename T>
  T unpack() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "unpack requires a trivially copyable type");
    assert(pos_ + sizeof(T) <= bytes_.size() && "unpack past end of buffer");
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string unpackString() {
    const auto n = unpack<std::uint64_t>();
    assert(pos_ + n <= bytes_.size() && "unpackString past end of buffer");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> unpackVector() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "unpackVector requires trivially copyable elements");
    const auto n = unpack<std::uint64_t>();
    assert(pos_ + n * sizeof(T) <= bytes_.size() &&
           "unpackVector past end of buffer");
    std::vector<T> v(n);
    if (n == 0) return v;  // memcpy with an empty vector's null data() is UB
    std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  /// Consume `n` raw bytes (no length prefix) into a fresh buffer. Used to
  /// split a coalesced segment back into its logical sub-messages.
  std::vector<std::byte> unpackRaw(std::size_t n) {
    assert(pos_ + n <= bytes_.size() && "unpackRaw past end of buffer");
    std::vector<std::byte> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                               bytes_.begin() +
                                   static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace pcu

#endif  // PUMI_PCU_BUFFER_HPP
