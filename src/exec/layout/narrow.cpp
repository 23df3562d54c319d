#include "exec/layout/narrow.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace flint::exec::layout {

template <typename T>
KeyTable<T>::KeyTable(std::vector<Signed> keys) : keys_(std::move(keys)) {
  for (std::size_t i = 0; i + 1 < keys_.size(); ++i) {
    if (!(keys_[i] < keys_[i + 1])) {
      throw std::logic_error("KeyTable: table is not strictly sorted at entry " +
                             std::to_string(i + 1));
    }
  }
  if (keys_.size() > static_cast<std::size_t>(
                         std::numeric_limits<std::int32_t>::max())) {
    throw std::length_error("KeyTable: more keys than an int32 rank holds");
  }
  // Build bottom-up: each level separates the blocks of the one below,
  // until one block (the root) covers them all; then store root first.
  constexpr Signed kPad = std::numeric_limits<Signed>::max();
  std::vector<std::vector<Signed>> levels;
  levels.reserve(max_levels());
  std::span<const Signed> below = keys_;
  while (below.size() > kBlock) {
    const std::size_t blocks = (below.size() + kBlock - 1) / kBlock;
    std::vector<Signed> level((blocks + kBlock - 1) / kBlock * kBlock, kPad);
    for (std::size_t j = 0; j + 1 < blocks; ++j) {
      level[j] = below[j * kBlock + kBlock - 1];
    }
    levels.push_back(std::move(level));
    below = levels.back();
  }
  levels_ = levels.size();
  std::size_t total = 0;
  for (const auto& level : levels) total += level.size();
  index_.reserve(total);
  for (std::size_t l = 0; l < levels_; ++l) {
    const auto& level = levels[levels_ - 1 - l];
    level_offset_[l] = static_cast<std::uint32_t>(index_.size());
    index_.insert(index_.end(), level.begin(), level.end());
  }
}

template <typename T>
KeyTableSet<T> build_key_tables(const trees::Forest<T>& forest) {
  using Signed = typename core::FloatTraits<T>::Signed;
  std::vector<std::vector<Signed>> keys(forest.feature_count());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    for (const auto& n : forest.tree(t).nodes()) {
      if (n.is_leaf()) continue;
      // Categorical nodes have no threshold: membership is decided from
      // their bitset, never by rank, so they contribute no table entry.
      if (n.is_categorical()) continue;
      // Keyed after the -0.0 -> +0.0 rewrite (core::normalize_zero).
      keys[static_cast<std::size_t>(n.feature)].push_back(
          core::to_radix_key(core::normalize_zero(n.split)));
    }
  }
  KeyTableSet<T> set;
  set.features.reserve(keys.size());
  for (std::size_t f = 0; f < keys.size(); ++f) {
    auto& k = keys[f];
    std::sort(k.begin(), k.end());
    k.erase(std::unique(k.begin(), k.end()), k.end());
    k.shrink_to_fit();
    // The constructor checks strict order; the round trip checks the
    // index: every key at its own rank.
    set.features.emplace_back(std::move(k));
    const auto& table = set.features.back();
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (table.rank_of_key(table.keys()[i]) != static_cast<std::int32_t>(i)) {
        throw std::logic_error(
            "build_key_tables: rank round-trip failed for feature " +
            std::to_string(f) + " entry " + std::to_string(i));
      }
    }
  }
  return set;
}

template <typename T>
std::int32_t rank_of_split(const KeyTable<T>& table, T split) {
  const auto radix = core::to_radix_key(core::normalize_zero(split));
  const std::int32_t rank = table.rank_of_key(radix);
  if (static_cast<std::size_t>(rank) >= table.size() ||
      table.keys()[static_cast<std::size_t>(rank)] != radix) {
    throw std::logic_error(
        "rank_of_split: split missing from its feature's key table");
  }
  return rank;
}

template class KeyTable<float>;
template class KeyTable<double>;
template struct KeyTableSet<float>;
template struct KeyTableSet<double>;
template KeyTableSet<float> build_key_tables<float>(const trees::Forest<float>&);
template KeyTableSet<double> build_key_tables<double>(
    const trees::Forest<double>&);
template std::int32_t rank_of_split<float>(const KeyTable<float>&, float);
template std::int32_t rank_of_split<double>(const KeyTable<double>&, double);

}  // namespace flint::exec::layout
