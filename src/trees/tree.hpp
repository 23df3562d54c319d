// trees/tree — decision-tree model structure (paper Section IV-A).
//
// Every node carries a feature index FI(n), split value SP(n), left/right
// child links LC(n)/RC(n) and, for leaves, a prediction PR(n).  Traversal
// follows the paper's rule:
//
//     next = (x[FI(n)] <= SP(n)) ? LC(n) : RC(n)
//
// extended with the repo-wide missing/categorical contract
// (docs/ARCHITECTURE.md "NaN routing"):
//
//   * NaN features are tested FIRST, before any comparison, and route to
//     LC(n) iff the node's default-left flag is set (so a node with no
//     flags routes NaN right — exactly what `x <= s` evaluates to under
//     IEEE, which keeps legacy models bit-identical);
//   * categorical nodes replace the threshold test with bitset membership:
//     go left iff trunc(x) is a member of the node's category set
//     (negative values and values beyond the set are non-members).
//
// Nodes are stored in a flat vector (index 0 = root) so the same model feeds
// the native-tree interpreters and all code generators without conversion.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace flint::trees {

inline constexpr std::int32_t kNoChild = -1;

/// Engine-wide feature-count ceiling: PackedNode stores feature indices as
/// int16, and every packed/key-table artifact allocates O(features)
/// side tables, so a model declaring more features than this can neither
/// execute nor be safely materialized.  ForestModel::validate (i.e. every
/// loader) and the static verifier enforce it; a hostile header like
/// "max_feature_idx=999999999" must be rejected before anything sizes an
/// allocation from it.
inline constexpr std::size_t kMaxFeatureCount = 32767;

/// Node flag bits: NaN default direction and categorical-membership splits.
inline constexpr std::uint8_t kNodeDefaultLeft = 1;  ///< NaN routes to LC(n)
inline constexpr std::uint8_t kNodeCategorical = 2;  ///< bitset membership test

/// Shared categorical membership rule: trunc(v) is a member iff its bit is
/// set.  Negative values, values at/after the set's end, and NaN are
/// non-members (callers route NaN by the default-direction flag *before*
/// this test; the `!(v >= 0)` guard merely keeps the trunc well-defined).
template <typename T>
[[nodiscard]] inline bool cat_contains(std::span<const std::uint32_t> words,
                                       T v) noexcept {
  if (!(v >= T{0})) return false;
  if (v >= static_cast<T>(words.size() * 32)) return false;
  const auto idx = static_cast<std::uint32_t>(v);
  return ((words[idx >> 5] >> (idx & 31u)) & 1u) != 0;
}

/// One tree node.  `feature == -1` marks a leaf.
template <typename T>
struct Node {
  std::int32_t feature = -1;    ///< FI(n); -1 for leaves
  T split = T{0};               ///< SP(n); unused for categorical nodes
  std::int32_t left = kNoChild;   ///< LC(n), node index
  std::int32_t right = kNoChild;  ///< RC(n), node index
  std::int32_t prediction = -1;   ///< PR(n), class id; valid for leaves
  std::int32_t cat_slot = -1;     ///< category-set slot; -1 when numeric
  std::uint8_t flags = 0;         ///< kNodeDefaultLeft | kNodeCategorical

  [[nodiscard]] bool is_leaf() const noexcept { return feature < 0; }
  [[nodiscard]] bool default_left() const noexcept {
    return (flags & kNodeDefaultLeft) != 0;
  }
  [[nodiscard]] bool is_categorical() const noexcept {
    return (flags & kNodeCategorical) != 0;
  }
};

/// A single decision tree over feature vectors of fixed width.
template <typename T>
class Tree {
 public:
  Tree() = default;
  explicit Tree(std::size_t feature_count) : feature_count_(feature_count) {}

  /// Appends a node and returns its index.
  std::int32_t add_node(const Node<T>& node);
  /// Sizes the node array for `n` add_node calls.
  void reserve(std::size_t n) { nodes_.reserve(n); }

  /// Convenience builders used by the trainer and the tests.
  std::int32_t add_leaf(std::int32_t prediction);
  std::int32_t add_split(std::int32_t feature, T split);
  /// Numeric split with an explicit NaN default direction.
  std::int32_t add_split(std::int32_t feature, T split, bool default_left);
  /// Categorical membership split over the category set in `cat_slot`.
  std::int32_t add_cat_split(std::int32_t feature, std::int32_t cat_slot,
                             bool default_left);
  void link(std::int32_t parent, std::int32_t left, std::int32_t right);

  /// Registers a category bitset (32 categories per word) and returns its
  /// slot id for add_cat_split.
  std::int32_t add_cat_set(std::span<const std::uint32_t> words);
  [[nodiscard]] std::span<const std::uint32_t> cat_set(std::int32_t slot) const;
  [[nodiscard]] std::int32_t cat_slot_count() const noexcept {
    return static_cast<std::int32_t>(cat_offsets_.size());
  }
  /// True when any node carries missing/categorical semantics (flags != 0);
  /// engines use this to pick their NaN-aware paths.
  [[nodiscard]] bool has_special_splits() const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }
  [[nodiscard]] const Node<T>& node(std::int32_t i) const { return nodes_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] Node<T>& node(std::int32_t i) { return nodes_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] std::span<const Node<T>> nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t feature_count() const noexcept { return feature_count_; }
  void set_feature_count(std::size_t n) noexcept { feature_count_ = n; }

  /// Single-sample inference with ordinary floating-point comparisons.
  /// `x.size()` must be >= feature_count().
  [[nodiscard]] std::int32_t predict(std::span<const T> x) const;

  /// Index of the leaf reached for `x` (used by statistics collection).
  [[nodiscard]] std::int32_t leaf_for(std::span<const T> x) const;

  [[nodiscard]] std::size_t leaf_count() const noexcept;
  [[nodiscard]] std::size_t inner_count() const noexcept { return size() - leaf_count(); }
  /// Longest root-to-leaf edge count (a lone leaf has depth 0).
  [[nodiscard]] std::size_t depth() const;

  /// Structural validation: children in range, exactly one parent per
  /// non-root node, every leaf has a prediction, every inner node has both
  /// children and a feature index inside feature_count().  Returns an empty
  /// string if valid, else a description of the first violation.
  [[nodiscard]] std::string validate() const;

 private:
  std::size_t feature_count_ = 0;
  std::vector<Node<T>> nodes_;
  // Category bitsets, slot-indexed views into one flat word pool.
  std::vector<std::uint32_t> cat_words_;
  std::vector<std::int32_t> cat_offsets_;
  std::vector<std::int32_t> cat_sizes_;
};

extern template struct Node<float>;
extern template struct Node<double>;
extern template class Tree<float>;
extern template class Tree<double>;

}  // namespace flint::trees
