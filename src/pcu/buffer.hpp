#ifndef PUMI_PCU_BUFFER_HPP
#define PUMI_PCU_BUFFER_HPP

/// \file buffer.hpp
/// \brief Byte-oriented serialization buffers used by all pcu messaging.
///
/// OutBuffer packs trivially-copyable values, strings and vectors into a
/// contiguous byte stream; InBuffer unpacks them in the same order. These are
/// the only (de)serialization primitives in the library: every distributed
/// operation (migration, ghosting, ParMA diffusion) marshals through them.
/// A read past the end of an InBuffer throws pcu::Error(kProtocol), so a
/// truncated or hostile stream is an error, never an out-of-bounds read.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "pcu/error.hpp"

namespace pcu {

/// A growable byte buffer with typed append ("pack") operations. Appends
/// copy into spare room at the end of the storage and grow it (doubling)
/// only when the room runs out, so a packed field costs one bounds check
/// and one fixed-size copy.
class OutBuffer {
 public:
  OutBuffer() = default;
  /// Adopt an already filled byte stream (a SizedWriter's); later packs
  /// append to it.
  explicit OutBuffer(std::vector<std::byte> bytes)
      : bytes_(std::move(bytes)), size_(bytes_.size()) {}

  /// Append one trivially-copyable value.
  template <typename T>
  void pack(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "pack requires a trivially copyable type");
    packBytes(&value, sizeof(T));
  }

  /// Append a length-prefixed string.
  void packString(const std::string& s) {
    pack<std::uint64_t>(s.size());
    packBytes(s.data(), s.size());
  }

  /// Append a length-prefixed vector of trivially-copyable elements.
  template <typename T>
  void packVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "packVector requires trivially copyable elements");
    pack<std::uint64_t>(v.size());
    packBytes(v.data(), v.size() * sizeof(T));
  }

  /// Append raw bytes (no length prefix).
  void packBytes(const void* data, std::size_t n) {
    if (n > bytes_.size() - size_) grow(n);
    if (n != 0) std::memcpy(bytes_.data() + size_, data, n);
    size_ += n;
  }

  /// Pre-size the underlying storage (e.g. when the total coalesced
  /// segment size is known up front).
  void reserve(std::size_t n) {
    if (n > bytes_.size()) bytes_.resize(n);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const std::byte* data() const { return bytes_.data(); }

  /// Surrender the underlying storage.
  std::vector<std::byte> take() && {
    bytes_.resize(size_);
    size_ = 0;
    return std::move(bytes_);
  }

  void clear() { size_ = 0; }

 private:
  /// Make room for `n` more bytes: at least double the storage.
  void grow(std::size_t n) {
    bytes_.resize(std::max({2 * bytes_.size(), size_ + n, std::size_t{64}}));
  }

  std::vector<std::byte> bytes_;  ///< [0, size_) written, the rest spare
  std::size_t size_ = 0;
};

/// A byte stream of known exact size, filled in place: the writer of the
/// encoders that size their output first (meshToBytes, the partio metadata
/// stream, the integrity ledger's table streams). One allocation, then raw
/// copies; writing past the size or taking a partly filled stream asserts.
class SizedWriter {
 public:
  explicit SizedWriter(std::size_t n) : bytes_(n) {}

  /// Append one trivially-copyable value.
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "put requires a trivially copyable type");
    putBytes(&value, sizeof(T));
  }

  /// Append raw bytes (no length prefix).
  void putBytes(const void* data, std::size_t n) {
    assert(n <= bytes_.size() - at_);
    if (n != 0) std::memcpy(bytes_.data() + at_, data, n);
    at_ += n;
  }

  /// Surrender the stream; every byte must have been written.
  std::vector<std::byte> take() && {
    assert(at_ == bytes_.size());
    return std::move(bytes_);
  }

 private:
  std::vector<std::byte> bytes_;
  std::size_t at_ = 0;
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
    need(sizeof(T), "unpack");
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Read a T into `out` when enough bytes remain; false (nothing read)
  /// otherwise. For decoders that report a short stream in their own terms.
  template <typename T>
  bool tryUnpack(T& out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "tryUnpack requires a trivially copyable type");
    if (remaining() < sizeof(T)) return false;
    std::memcpy(&out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  std::string unpackString() {
    const auto n = unpack<std::uint64_t>();
    need(n, "unpackString");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> unpackVector() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "unpackVector requires trivially copyable elements");
    const auto n = unpack<std::uint64_t>();
    // Compare element counts, not byte counts: n * sizeof(T) may overflow.
    if (n > remaining() / sizeof(T)) overrun("unpackVector", n, sizeof(T));
    std::vector<T> v(n);
    if (n == 0) return v;  // memcpy with an empty vector's null data() is UB
    std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  /// Consume `n` raw bytes (no length prefix) into a fresh buffer. Used to
  /// split a coalesced segment back into its logical sub-messages.
  std::vector<std::byte> unpackRaw(std::size_t n) {
    need(n, "unpackRaw");
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
  void need(std::uint64_t n, const char* what) const {
    if (n > remaining()) overrun(what, n, 1);
  }
  [[noreturn]] void overrun(const char* what, std::uint64_t n,
                            std::size_t unit) const {
    throw Error(ErrorCode::kProtocol, -1,
                std::string(what) + ": read of " + std::to_string(n) + " x " +
                    std::to_string(unit) + " bytes past the end of the buffer (" +
                    std::to_string(remaining()) + " left)");
  }

  std::vector<std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace pcu

#endif  // PUMI_PCU_BUFFER_HPP
