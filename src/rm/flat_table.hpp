#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace sharq::rm {

/// Small ordered map stored as one sorted vector of (key, value) pairs.
///
/// Per-peer session state is small and read far more often than it
/// changes: a SHARQFEC member's per-level RTT and bridge tables hold a
/// zone's few dozen peers at most (paper §5: O(levels·fanout) state per
/// member), and an SRM member's clock table one entry per peer. A
/// node-based std::map spends a heap block and 32 bytes of tree links on
/// every entry; this table spends one block, which the owner can size
/// once with reserve() when it knows the bound.
///
/// Iteration is ascending by key, exactly as std::map's, so anything that
/// walks a table into an output path (beacon entries, expiry order, the
/// oldest-first shed tie-break) sees the same sequence. Inserting or
/// erasing invalidates iterators past the touched position; erase()
/// returns the iterator to the next entry, as std::map's does.
template <class Key, class Value>
class FlatTable {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t capacity() const { return items_.capacity(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  iterator find(const Key& key) { return find_in(items_, key); }
  const_iterator find(const Key& key) const { return find_in(items_, key); }

  /// Insert (key, value) unless `key` is present; returns the entry and
  /// whether it was inserted.
  std::pair<iterator, bool> try_emplace(const Key& key, const Value& value) {
    auto it = lower_bound(items_, key);
    if (it != items_.end() && it->first == key) return {it, false};
    return {items_.insert(it, value_type(key, value)), true};
  }

  iterator erase(const_iterator pos) { return items_.erase(pos); }

  /// Erase `key` if present; returns the number of entries removed.
  std::size_t erase(const Key& key) {
    auto it = find(key);
    if (it == items_.end()) return 0;
    items_.erase(it);
    return 1;
  }

 private:
  template <class Items>
  static auto lower_bound(Items& items, const Key& key) {
    return std::lower_bound(
        items.begin(), items.end(), key,
        [](const value_type& e, const Key& k) { return e.first < k; });
  }
  template <class Items>
  static auto find_in(Items& items, const Key& key) {
    auto it = lower_bound(items, key);
    return it != items.end() && it->first == key ? it : items.end();
  }

  std::vector<value_type> items_;
};

}  // namespace sharq::rm
