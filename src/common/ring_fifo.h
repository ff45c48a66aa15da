// Growable ring-buffer FIFO for the simulator's per-packet queues (qdisc
// bands, a pipe's wire, the TCP retransmit queue).
//
// Unlike std::deque it allocates nothing until the first push, grows by
// doubling a single power-of-two block when full and never shrinks, so a
// queue that has reached its high-water mark pushes and pops with no
// allocator traffic. pop_front destroys the element at once (a popped
// Packet drops its payload reference immediately). Iterators are random
// access in FIFO order, so std::lower_bound works over a sorted ring.

#ifndef ELEMENT_SRC_COMMON_RING_FIFO_H_
#define ELEMENT_SRC_COMMON_RING_FIFO_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/check.h"

namespace element {

template <typename T>
class RingFifo {
 public:
  static constexpr size_t kInitialCapacity = 8;

  template <bool kConst>
  class Iter {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<kConst, const T*, T*>;
    using reference = std::conditional_t<kConst, const T&, T&>;
    using Ring = std::conditional_t<kConst, const RingFifo, RingFifo>;

    Iter() = default;
    Iter(Ring* ring, size_t index) : ring_(ring), index_(index) {}

    reference operator*() const { return (*ring_)[index_]; }
    pointer operator->() const { return &(*ring_)[index_]; }
    reference operator[](difference_type n) const { return (*ring_)[index_ + n]; }

    Iter& operator++() { ++index_; return *this; }
    Iter operator++(int) { Iter t = *this; ++index_; return t; }
    Iter& operator--() { --index_; return *this; }
    Iter operator--(int) { Iter t = *this; --index_; return t; }
    Iter& operator+=(difference_type n) { index_ += n; return *this; }
    Iter& operator-=(difference_type n) { index_ -= n; return *this; }
    Iter operator+(difference_type n) const { return Iter(ring_, index_ + n); }
    friend Iter operator+(difference_type n, Iter it) { return it + n; }
    Iter operator-(difference_type n) const { return Iter(ring_, index_ - n); }
    difference_type operator-(const Iter& o) const {
      return static_cast<difference_type>(index_) - static_cast<difference_type>(o.index_);
    }

    bool operator==(const Iter& o) const { return index_ == o.index_; }
    bool operator!=(const Iter& o) const { return index_ != o.index_; }
    bool operator<(const Iter& o) const { return index_ < o.index_; }
    bool operator>(const Iter& o) const { return index_ > o.index_; }
    bool operator<=(const Iter& o) const { return index_ <= o.index_; }
    bool operator>=(const Iter& o) const { return index_ >= o.index_; }

   private:
    Ring* ring_ = nullptr;
    size_t index_ = 0;  // logical position, 0 = front
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  RingFifo() = default;
  ~RingFifo() { Release(); }

  RingFifo(RingFifo&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        capacity_(std::exchange(o.capacity_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  RingFifo& operator=(RingFifo&& o) noexcept {
    if (this != &o) {
      Release();
      data_ = std::exchange(o.data_, nullptr);
      capacity_ = std::exchange(o.capacity_, 0);
      head_ = std::exchange(o.head_, 0);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  RingFifo(const RingFifo&) = delete;
  RingFifo& operator=(const RingFifo&) = delete;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // Slots allocated; 0 until the first push.
  size_t capacity() const { return capacity_; }

  T& operator[](size_t i) { return data_[(head_ + i) & (capacity_ - 1)]; }
  const T& operator[](size_t i) const { return data_[(head_ + i) & (capacity_ - 1)]; }
  T& front() { return data_[head_]; }
  const T& front() const { return data_[head_]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      Grow();
    }
    T* slot = &data_[(head_ + size_) & (capacity_ - 1)];
    new (slot) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T&& v) { emplace_back(std::move(v)); }
  void push_back(const T& v) { emplace_back(v); }

  void pop_front() {
    ELEMENT_DCHECK(size_ > 0) << "pop_front on an empty RingFifo";
    std::destroy_at(&data_[head_]);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  // Destroys every element; keeps the storage.
  void clear() {
    while (size_ > 0) {
      pop_front();
    }
  }

 private:
  void Grow() {
    size_t cap = capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
    T* fresh = std::allocator<T>().allocate(cap);
    for (size_t i = 0; i < size_; ++i) {
      T& from = (*this)[i];
      new (&fresh[i]) T(std::move(from));
      std::destroy_at(&from);
    }
    if (data_ != nullptr) {
      std::allocator<T>().deallocate(data_, capacity_);
    }
    data_ = fresh;
    capacity_ = cap;
    head_ = 0;
  }

  void Release() {
    clear();
    if (data_ != nullptr) {
      std::allocator<T>().deallocate(data_, capacity_);
      data_ = nullptr;
      capacity_ = 0;
    }
  }

  T* data_ = nullptr;
  size_t capacity_ = 0;  // 0 or a power of two
  size_t head_ = 0;      // physical index of the front element
  size_t size_ = 0;
};

}  // namespace element

#endif  // ELEMENT_SRC_COMMON_RING_FIFO_H_
