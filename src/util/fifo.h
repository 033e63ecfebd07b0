// FIFO queue over a power-of-two ring that allocates nothing until its
// first push.
//
// libstdc++'s std::deque allocates its map and a first 512-byte node in
// its default constructor, so a deque member costs every owner ~600
// bytes even if nothing is ever queued — the stream engine's per-cube
// admission backlog under the default unbounded policy. The ring grows
// by doubling and keeps its capacity, so a bounded queue reaches its
// limit once and then reuses that storage.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace cmvrp {

template <class T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // Precondition for front() and pop_front(): !empty().
  const T& front() const { return ring_[head_]; }

  void push_back(T value) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> next(ring_.empty() ? 4 : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    ring_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> ring_;  // empty, or a power-of-two capacity
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cmvrp
