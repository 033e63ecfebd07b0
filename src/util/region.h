// A fixed-length array inside a block someone else owns: a pointer and a
// length, nothing allocated.
//
// A cube keeps its fleet, pair slots, destinations and beat slots as
// regions of its one heap block (stream/shard.h). A std::vector's
// operator[] is bounds-checked only under _GLIBCXX_ASSERTIONS; a region
// checks its index in every build without NDEBUG, so Debug and sanitizer
// builds keep the checks the vectors had, and Release pays nothing.
#pragma once

#include <cstddef>

#include "util/check.h"

namespace cmvrp {

template <class T>
class Region {
 public:
  Region(T* data, std::size_t size) : data_(data), size_(size) {}

  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) const {
#ifndef NDEBUG
    CMVRP_CHECK_MSG(i < size_, "region index " << i << " out of range (size "
                                               << size_ << ")");
#endif
    return data_[i];
  }

  T* begin() const { return data_; }
  T* end() const { return data_ + size_; }

 private:
  T* data_;
  std::size_t size_;
};

}  // namespace cmvrp
