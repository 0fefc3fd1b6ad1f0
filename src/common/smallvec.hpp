#ifndef PUMI_COMMON_SMALLVEC_HPP
#define PUMI_COMMON_SMALLVEC_HPP

/// \file smallvec.hpp
/// \brief Small-buffer vector for upward adjacency lists.
///
/// Upward adjacencies in a tetrahedral mesh are short (a face bounds at most
/// two regions; an edge bounds ~5 faces on average), but there are millions
/// of them. Storing each as a std::vector costs a heap block per entity;
/// SmallVec keeps up to N elements inline and only spills to the heap for
/// the rare long lists. Restricted to trivially copyable element types.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace common {

template <typename T, std::uint32_t N = 4>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec requires trivially copyable elements");

 public:
  SmallVec() = default;
  ~SmallVec() { release(); }

  SmallVec(const SmallVec& o) { copyFrom(o); }
  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) {
      release();
      copyFrom(o);
    }
    return *this;
  }
  SmallVec(SmallVec&& o) noexcept { moveFrom(std::move(o)); }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      release();
      moveFrom(std::move(o));
    }
    return *this;
  }

  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  T* data() { return heap_ ? heap_ : inline_; }
  const T* data() const { return heap_ ? heap_ : inline_; }

  T& operator[](std::uint32_t i) {
    assert(i < size_);
    return data()[i];
  }
  const T& operator[](std::uint32_t i) const {
    assert(i < size_);
    return data()[i];
  }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  void push_back(const T& v) {
    if (size_ == capacity()) grow();
    data()[size_++] = v;
  }

  /// Remove the last occurrence of v; returns whether it was present.
  /// Order is not preserved (back-swap removal). The scan runs from the
  /// back: in an up-list, which holds each entity once, the newest entries
  /// are the likeliest to go.
  bool eraseValue(const T& v) {
    T* p = data();
    for (std::uint32_t i = size_; i-- > 0;) {
      if (p[i] == v) {
        p[i] = p[size_ - 1];
        --size_;
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool contains(const T& v) const {
    const T* p = data();
    for (std::uint32_t i = 0; i < size_; ++i)
      if (p[i] == v) return true;
    return false;
  }

  void clear() { size_ = 0; }

  /// Replace the contents with the n elements at src, growing the
  /// capacity as a push_back sequence would.
  void assign(const T* src, std::uint32_t n) {
    if (n > capacity()) {
      std::uint32_t cap = capacity();
      while (cap < n) cap *= 2;
      T* bigger = new T[cap];
      delete[] heap_;
      heap_ = bigger;
      heap_capacity_ = cap;
    }
    size_ = n;
    if (n != 0) std::memcpy(data(), src, n * sizeof(T));
  }

 private:
  [[nodiscard]] std::uint32_t capacity() const {
    return heap_ ? heap_capacity_ : N;
  }
  void grow() {
    const std::uint32_t new_cap = capacity() * 2;
    T* bigger = new T[new_cap];
    std::memcpy(bigger, data(), size_ * sizeof(T));
    delete[] heap_;
    heap_ = bigger;
    heap_capacity_ = new_cap;
  }
  void release() {
    delete[] heap_;
    heap_ = nullptr;
    heap_capacity_ = 0;
    size_ = 0;
  }
  void copyFrom(const SmallVec& o) {
    size_ = o.size_;
    if (o.heap_) {
      heap_capacity_ = o.heap_capacity_;
      heap_ = new T[heap_capacity_];
      std::memcpy(heap_, o.heap_, size_ * sizeof(T));
    } else {
      std::memcpy(inline_, o.inline_, size_ * sizeof(T));
    }
  }
  void moveFrom(SmallVec&& o) noexcept {
    size_ = o.size_;
    heap_ = o.heap_;
    heap_capacity_ = o.heap_capacity_;
    std::memcpy(inline_, o.inline_, N * sizeof(T));
    o.heap_ = nullptr;
    o.heap_capacity_ = 0;
    o.size_ = 0;
  }

  T inline_[N]{};
  T* heap_ = nullptr;
  std::uint32_t heap_capacity_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace common

#endif  // PUMI_COMMON_SMALLVEC_HPP
