// exec/layout/narrow — FLInt order-preserving threshold narrowing.
//
// FLInt turns every split into one integer compare, which makes forest
// inference memory-bound: node fetches dominate once the ALU work is a
// single comparison.  The compact node formats (exec/layout/compact.hpp)
// attack that by shrinking what a node *stores* — and the key insight that
// makes shrinking exact is the same monotone bit-pattern order the paper
// proves for full-width floats:
//
//   A node only ever evaluates `x <= s` against the *finite set* of split
//   values its feature is tested with.  Map every float v to
//
//       rank_f(v) = |{ t in splits(f) : t <_FLInt v }|
//
//   (the lower-bound index of v's radix key in the sorted distinct split
//   keys of feature f).  rank_f is monotone in the FLInt total order, and
//   for every split s in the table
//
//       x <=_FLInt s   <=>   rank_f(x) <= rank_f(s)
//
//   exactly: if x <= s = sorted[i], every split strictly below x is among
//   sorted[0..i-1], so rank(x) <= i = rank(s); if x > s, splits sorted[0..i]
//   are all strictly below x, so rank(x) >= i + 1 > rank(s).
//
// Ranks fit whatever integer width covers the table size — up to 16 key
// bits in the 4-byte node, int32 always — so a narrow node can carry a
// full-fidelity threshold.  This is the exact-by-construction form
// of the order-preserving integer narrowing InTreeger applies to thresholds
// (PAPERS.md); exactness is still *verified* at pack time (strict table
// order + every split round-trips through its rank) and property-tested on
// adversarial bit patterns in tests/test_layout.cpp.
//
// The float->int32 identity case needs no table at all: to_radix_key is
// itself a monotone int32 key (core/flint.hpp), so 16-byte float nodes skip
// the per-sample rank remap entirely.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/flint.hpp"
#include "trees/forest.hpp"

namespace flint::exec::layout {

/// Sorted distinct radix keys of every split one feature is tested against,
/// plus the rank remap.  An empty table (feature never tested) maps every
/// value to rank 0, which is trivially exact — no node reads it.
///
/// The remap runs once per feature per sample, so the table carries a
/// static B-ary search index built with it: a B-tree of 64-byte blocks
/// (B = 16 keys for float, 8 for double) whose leaf level is the sorted
/// keys themselves, stored once and never padded.  Upper level l + 1 holds
/// the last key of every block of level l but the final one; the final
/// block's slot and the rest of the level are padded with Signed max to
/// whole blocks, so every level ends in at least one pad and every probe
/// descends into an existing block.  A rank reads one block per level
/// (4 on a 19k-key table), and the index adds about 1/(B - 1) of the keys.
template <typename T>
class KeyTable {
 public:
  using Signed = typename core::FloatTraits<T>::Signed;

  /// Keys per 64-byte index block.
  static constexpr std::size_t kBlock = 64 / sizeof(Signed);

  KeyTable() = default;

  /// Builds the index over `keys`.  Throws std::logic_error unless the
  /// keys are strictly ascending (the narrowing contract hangs on it).
  explicit KeyTable(std::vector<Signed> keys);

  /// The strictly ascending radix keys; key i has rank i.
  [[nodiscard]] std::span<const Signed> keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// rank of a radix key: |{ k in keys() : k < key }| in [0, size()].
  [[nodiscard]] std::int32_t rank_of_key(Signed key) const noexcept {
    // One block per level, root first: the child to descend into is the
    // number of separators below the key.  A pad (Signed max) is never
    // below a key, so the descent stays inside the level.
    std::size_t b = 0;
    for (std::size_t l = 0; l < levels_; ++l) {
      b = b * kBlock +
          count_below(index_.data() + level_offset_[l] + b * kBlock, kBlock,
                      key);
    }
    // Leaf: count inside block b, bounding only the last partial block.
    const std::size_t lo = b * kBlock;
    const std::size_t tail = keys_.size() - lo;
    const std::size_t below =
        tail >= kBlock ? count_below(keys_.data() + lo, kBlock, key)
                       : count_below(keys_.data() + lo, tail, key);
    return static_cast<std::int32_t>(lo + below);
  }

  /// rank of a float value in the FLInt total order.
  [[nodiscard]] std::int32_t rank(T v) const noexcept {
    return rank_of_key(core::to_radix_key(v));
  }

 private:
  /// Upper levels a table of up to INT32_MAX keys can need.
  static constexpr std::size_t max_levels() {
    std::size_t levels = 0;
    for (std::uint64_t span = kBlock; span < (std::uint64_t{1} << 31);
         span *= kBlock) {
      ++levels;
    }
    return levels;
  }

  /// |{ i < n : block[i] < key }| — a plain count the compiler vectorizes.
  /// The unroll hint keeps gcc from unrolling the fixed-size count inside
  /// the level loop before its vectorizer runs: unrolled first, every upper
  /// level compiled to 16 scalar compares and the remap ran ~2x slower.
  static std::size_t count_below(const Signed* block, std::size_t n,
                                 Signed key) noexcept {
    std::uint32_t c = 0;
#pragma GCC unroll 4
    for (std::size_t i = 0; i < n; ++i) c += block[i] < key ? 1u : 0u;
    return c;
  }

  std::vector<Signed> keys_;   ///< leaf level: strictly ascending radix keys
  std::vector<Signed> index_;  ///< every upper level, root first
  std::array<std::uint32_t, max_levels()> level_offset_{};  ///< into index_
  std::size_t levels_ = 0;     ///< upper levels (0 while keys fit one block)
};

/// One KeyTable per feature of a forest.
template <typename T>
struct KeyTableSet {
  std::vector<KeyTable<T>> features;

  /// Largest per-feature table (bounds the rank range).
  [[nodiscard]] std::size_t max_table_size() const noexcept {
    std::size_t m = 0;
    for (const auto& f : features) {
      if (f.size() > m) m = f.size();
    }
    return m;
  }
};

/// Collects, per feature, the sorted distinct radix keys of every split in
/// the forest (split -0.0 normalized to +0.0 first, exactly as the Encoded
/// engine does), and verifies the exactness preconditions: strict ascending
/// order (the KeyTable constructor) and every key at its own rank.  Throws
/// std::logic_error if verification fails (it cannot, by construction —
/// the check guards future refactors).
template <typename T>
[[nodiscard]] KeyTableSet<T> build_key_tables(const trees::Forest<T>& forest);

/// Narrow key of one split value: applies the -0.0 -> +0.0 normalization,
/// ranks the radix key, and verifies the split actually sits in the table
/// at that rank (the exactness precondition every packed node relies on).
/// Throws std::logic_error when it does not — the table was built from a
/// different forest.  The single helper the compact and 4-byte packers go
/// through, so the normalization rule cannot drift between them.
template <typename T>
[[nodiscard]] std::int32_t rank_of_split(const KeyTable<T>& table, T split);

extern template class KeyTable<float>;
extern template class KeyTable<double>;
extern template struct KeyTableSet<float>;
extern template struct KeyTableSet<double>;
extern template KeyTableSet<float> build_key_tables<float>(
    const trees::Forest<float>&);
extern template KeyTableSet<double> build_key_tables<double>(
    const trees::Forest<double>&);
extern template std::int32_t rank_of_split<float>(const KeyTable<float>&,
                                                  float);
extern template std::int32_t rank_of_split<double>(const KeyTable<double>&,
                                                   double);

}  // namespace flint::exec::layout
