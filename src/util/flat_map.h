// Open-addressed hash map with insertion-ordered, contiguous storage.
//
// The serving hot paths (per-message channel lookups in sim/network.h,
// cube groupings in the offline planner and §5 collector, the stream
// engine's out-of-region cube overflow) were all node-based associative
// containers: every lookup chased a heap node, and std::map added an
// rb-tree rebalance per insert. FlatMap keeps the items in one vector
// (contiguous, insertion-ordered — so iteration is deterministic for a
// deterministic insertion sequence, independent of the hash) and resolves
// keys through a power-of-two open-addressed index of positions.
//
// Deliberately minimal: keys must be equality-comparable, and mutating
// a key through iteration is undefined. Lookup is O(1) expected with
// linear probing at load factor <= 0.7; insertion amortized O(1).
//
// An item's position in the items vector is its insertion rank, so it
// stays valid until clear(), erase() or erase_if(): slot() hands it out,
// and at() reads the value back without hashing the key again. Both
// erases close the gaps they leave, which keeps the order of the other
// items and renumbers the positions behind the first one dropped:
// erase() drops one key (one probe when it is absent, O(size + index)
// when it is there), erase_if() drops in bulk at the same cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace cmvrp {

template <class Key, class Value, class Hash>
class FlatMap {
 public:
  struct Item {
    Key key;
    Value value;
  };
  using iterator = typename std::vector<Item>::iterator;
  using const_iterator = typename std::vector<Item>::const_iterator;

  // "No item": find_slot's answer for an absent key, and the mark of an
  // unused index cell.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  FlatMap() = default;

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  void reserve(std::size_t n) {
    items_.reserve(n);
    rehash_for(n);
  }

  // Keeps the capacity; free when already empty (the index is only
  // rewritten when it holds something).
  void clear() {
    if (items_.empty()) return;
    items_.clear();
    index_.assign(index_.size(), kNoSlot);
  }

  // Pointer to the mapped value, or nullptr when absent.
  Value* find(const Key& key) {
    const std::uint32_t pos = find_slot(key);
    return pos == kNoSlot ? nullptr : &items_[pos].value;
  }
  const Value* find(const Key& key) const {
    const std::uint32_t pos = find_slot(key);
    return pos == kNoSlot ? nullptr : &items_[pos].value;
  }

  // Position of `key`'s item, or kNoSlot when absent.
  std::uint32_t find_slot(const Key& key) const {
    if (index_.empty()) return kNoSlot;
    std::size_t cell = Hash{}(key) & (index_.size() - 1);
    for (;;) {
      const std::uint32_t pos = index_[cell];
      if (pos == kNoSlot) return kNoSlot;
      if (items_[pos].key == key) return pos;
      cell = (cell + 1) & (index_.size() - 1);
    }
  }

  // Position of `key`'s item, default-inserting it when absent.
  std::uint32_t slot(const Key& key) {
    if (index_.empty() ||
        items_.size() + 1 > (index_.size() * 7) / 10)
      rehash_for(items_.size() + 1);
    std::size_t cell = Hash{}(key) & (index_.size() - 1);
    for (;;) {
      const std::uint32_t pos = index_[cell];
      if (pos == kNoSlot) {
        index_[cell] = static_cast<std::uint32_t>(items_.size());
        items_.push_back(Item{key, Value{}});
        return index_[cell];
      }
      if (items_[pos].key == key) return pos;
      cell = (cell + 1) & (index_.size() - 1);
    }
  }

  // Drops `key`'s item, keeping the others in insertion order, and
  // returns whether it was there. One probe when it is absent; when it
  // is there, the items behind it move up one position and the index is
  // rebuilt, O(size + index), so positions handed out before are void.
  bool erase(const Key& key) {
    const std::uint32_t pos = find_slot(key);
    if (pos == kNoSlot) return false;
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(pos));
    reindex(index_.size());
    return true;
  }

  // Drops every item for which pred(item) holds, keeping the others in
  // insertion order, and rebuilds the index; O(size + index). Returns
  // the number dropped. Positions handed out before are void.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (pred(static_cast<const Item&>(items_[i]))) continue;
      if (kept != i) items_[kept] = std::move(items_[i]);
      ++kept;
    }
    const std::size_t dropped = items_.size() - kept;
    if (dropped == 0) return 0;
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(kept),
                 items_.end());
    reindex(index_.size());
    return dropped;
  }

  // The value at a position slot() returned.
  Value& at(std::uint32_t pos) { return items_[pos].value; }
  const Value& at(std::uint32_t pos) const { return items_[pos].value; }

  // Find-or-default-insert, like std::map::operator[].
  Value& operator[](const Key& key) { return items_[slot(key)].value; }

  // Insertion-order iteration over contiguous items. Keys are logically
  // const: rewriting one leaves the index pointing at the old hash.
  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  const std::vector<Item>& items() const { return items_; }

 private:

  // The smallest index is 8 cells (up to 5 items): many maps stay tiny,
  // like a small cube's heartbeat table, which holds one clamp per ring
  // channel.
  void rehash_for(std::size_t items) {
    std::size_t want = 8;
    while (want * 7 < items * 10) want <<= 1;
    if (want <= index_.size()) return;
    CMVRP_CHECK_MSG(items < kNoSlot, "FlatMap exceeds 2^32 - 1 items");
    reindex(want);
  }

  // Rebuilds the index at `cells` cells from the items' positions.
  void reindex(std::size_t cells) {
    index_.assign(cells, kNoSlot);
    for (std::size_t i = 0; i < items_.size(); ++i) place(i);
  }

  // Points the first free index cell on item i's probe path at it.
  void place(std::size_t i) {
    const std::size_t mask = index_.size() - 1;
    std::size_t cell = Hash{}(items_[i].key) & mask;
    while (index_[cell] != kNoSlot) cell = (cell + 1) & mask;
    index_[cell] = static_cast<std::uint32_t>(i);
  }

  std::vector<Item> items_;
  std::vector<std::uint32_t> index_;
};

}  // namespace cmvrp
