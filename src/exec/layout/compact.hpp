// exec/layout/compact — cache-aware compact node formats and placement.
//
// Once FLInt reduces every split to one integer compare, random-forest
// inference is memory-bound: the wide interpreter's 16/24-byte PackedNode
// stream dominates, and deep-forest throughput degrades exactly where the
// packed image spills out of cache.  This module re-packs a forest into a
// node format engineered for the memory hierarchy:
//
//   CompactNode16 (16 B)  int32 key + int32 right offset + int32 feature
//                         (+ a flags word so four nodes tile a 64-byte
//                         line and no node ever straddles one).
//
// The 4-byte quantized word (quant4.hpp) shares its placement.  Three
// layout tricks:
//
//   * implicit left child — an inner node's left child is ALWAYS the next
//     node (left = self + 1), so nodes store only a relative right offset
//     (right = self + right_off).  Leaves are tagged in the offset's sign
//     bit (right_off < 0) and carry their class id in `key`; no separate
//     leaf array, no absolute child indices.
//   * order-preserving threshold narrowing — node keys are either the raw
//     int32 radix key (float, no per-sample table lookup) or the feature's
//     rank in a per-feature monotone key table (narrow.hpp, double); both
//     make `x <= s` a single integer compare, exactly.
//   * placement — the left-spine of every subtree is contiguous by the
//     implicit-left rule, so placement freedom is *where right subtrees
//     go*.  hot_depth = 0 emits each tree in preorder (every subtree a
//     contiguous cluster — the left-spine-contiguous specialization of
//     vEB-style clustering under the implicit-left constraint).
//     hot_depth = D additionally root-blocks the forest: the spines whose
//     branch depth is < D, across ALL trees, are emitted breadth-first
//     into one contiguous "hot slab" at the front of the node array (the
//     working set every sample touches), and the subtrees hanging below
//     the slab are emitted as preorder clusters behind it.
//
// Traversal comes in two shapes: a blocked batch loop (remap a block of
// samples to keys once, then stream each tree's nodes across the block,
// several samples in lockstep) and an interleaved
// latency path that walks `plan.interleave` trees of ONE sample in
// lockstep, so independent node fetches overlap in the out-of-order window,
// optionally software-prefetching the right ("opposite" of the implicit
// left) child ahead of the compare.  Both shapes stop a sample's vote walk
// once no other class can catch the leader (vote.hpp); score walks visit
// every tree.
//
// Bit-identical to Forest::predict on every input — including NaN routed
// by per-node default directions and categorical membership splits, via a
// Special traversal that consults per-sample NaN/membership masks computed
// once at remap time (tests/test_layout.cpp, tests/test_predictor.cpp,
// tests/test_missing.cpp).  Forests without special splits take the
// original mask-free paths.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/flint.hpp"
#include "exec/layout/narrow.hpp"
#include "exec/layout/plan.hpp"
#include "trees/forest.hpp"

namespace flint::exec::layout {

/// CompactNode16 `aux` flag bits (the word that used to be pure line pad).
inline constexpr std::int32_t kC16DefaultLeft = 1;  ///< NaN routes left
inline constexpr std::int32_t kC16Categorical = 2;  ///< key = cat slot

/// 16-byte compact node.  Inner: `key` is the narrowed threshold, right
/// child at self + right_off (> 0), left child at self + 1.  Leaf:
/// right_off < 0, `key` is the class id, and `feature` is 0 — a valid
/// column, so branchless lockstep loops may read keys[feature] before the
/// leaf test resolves.  `aux` carries the missing/categorical flags (zero
/// on every node of a forest without such splits — the fast traversal
/// never reads it); categorical nodes store their engine-level category
/// slot in `key`.
struct CompactNode16 {
  std::int32_t key = 0;
  std::int32_t right_off = -1;
  std::int32_t feature = -1;
  std::int32_t aux = 0;  ///< flags; 4 nodes tile a 64 B line, none straddles
};
static_assert(sizeof(CompactNode16) == 16, "CompactNode16 must stay 16 bytes");

/// Flag accessors the Special traversal uses; the non-special path never
/// reads `aux`.
[[nodiscard]] inline bool node_default_left(const CompactNode16& n) noexcept {
  return (n.aux & kC16DefaultLeft) != 0;
}
[[nodiscard]] inline bool node_categorical(const CompactNode16& n) noexcept {
  return (n.aux & kC16Categorical) != 0;
}

/// A forest packed into one compact node array.  `Node` is CompactNode16;
/// `Key` follows its key field.
template <typename T, typename Node>
struct CompactForest {
  using Key = decltype(Node::key);

  int num_classes = 0;
  std::size_t feature_count = 0;
  std::size_t hot_nodes = 0;     ///< nodes in the hot slab (0 for pure DFS)
  bool identity_keys = false;    ///< float: key = radix key, table-free
  bool has_special = false;      ///< any default-left / categorical node
  std::vector<Node> nodes;       ///< all trees, placement per LayoutPlan
  std::vector<std::int32_t> roots;  ///< position of each tree's root
  KeyTableSet<T> tables;         ///< rank tables (empty when identity_keys)

  /// Category side tables (has_special only): every categorical NODE owns
  /// one engine slot (its compact `key`), so per-sample membership can be
  /// precomputed per slot without consulting the node again.
  std::vector<std::uint32_t> cat_words;   ///< category bitsets, all slots
  std::vector<std::int32_t> cat_offsets;  ///< word offset per slot
  std::vector<std::int32_t> cat_sizes;    ///< word count per slot
  std::vector<std::int32_t> cat_feature;  ///< feature each slot tests

  [[nodiscard]] std::size_t cat_slot_count() const noexcept {
    return cat_feature.size();
  }
  [[nodiscard]] std::span<const std::uint32_t> cat_set_of_slot(
      std::size_t s) const noexcept {
    return {cat_words.data() + static_cast<std::size_t>(cat_offsets[s]),
            static_cast<std::size_t>(cat_sizes[s])};
  }

  /// Per-sample side masks the Special traversal consults before any key
  /// compare: `nan_out[f]` = 1 iff x[f] is NaN (detected from the integer
  /// encoding, (bits & abs_mask) > exp_mask); `member_out[s]` = 1 iff
  /// x[cat_feature[s]] is a member of slot s's category set.  `nan_out`
  /// needs feature_count slots, `member_out` cat_slot_count() slots.
  void special_masks(const T* x, std::uint8_t* nan_out,
                     std::uint8_t* member_out) const {
    for (std::size_t f = 0; f < feature_count; ++f) {
      nan_out[f] = core::is_nan_bits<T>(core::si_bits(x[f])) ? 1 : 0;
    }
    for (std::size_t s = 0; s < cat_feature.size(); ++s) {
      const T v = x[static_cast<std::size_t>(cat_feature[s])];
      member_out[s] = (!core::is_nan_bits<T>(core::si_bits(v)) &&
                       trees::cat_contains(cat_set_of_slot(s), v))
                          ? 1
                          : 0;
    }
  }

  /// Remaps one sample to narrow comparison keys; `out` needs
  /// feature_count slots.  Thread-safe.
  void remap(const T* x, Key* out) const {
    if (identity_keys) {
      for (std::size_t f = 0; f < feature_count; ++f) {
        out[f] = static_cast<Key>(core::to_radix_key(x[f]));
      }
    } else {
      for (std::size_t f = 0; f < feature_count; ++f) {
        out[f] = static_cast<Key>(tables.features[f].rank(x[f]));
      }
    }
  }

  /// Same remap widened to int32 and written at `stride`-element spacing —
  /// feature f lands at out[f * stride].  With stride = 8 this writes one
  /// lane of the AVX2 kernels' feature-major key tiles directly.
  void remap32(const T* x, std::int32_t* out, std::size_t stride) const {
    if (identity_keys) {
      for (std::size_t f = 0; f < feature_count; ++f) {
        out[f * stride] =
            static_cast<std::int32_t>(core::to_radix_key(x[f]));
      }
    } else {
      for (std::size_t f = 0; f < feature_count; ++f) {
        out[f * stride] = tables.features[f].rank(x[f]);
      }
    }
  }
};

/// One slot of an emission order: which source node sits at this packed
/// position.
struct EmissionItem {
  std::int32_t tree = 0;
  std::int32_t node = 0;
};

/// The placement pass shared by every packed node format.  Placement is
/// geometry-independent — it decides only the ORDER nodes are emitted in
/// (hot slab spines breadth-first across trees, then preorder cold
/// clusters; see the file comment) — so formats whose field widths depend
/// on the resulting offsets (the 4-byte quantized word sizes its offset
/// bits from max_right_offset) can compute the order first and pick their
/// geometry second.
struct EmissionOrder {
  std::vector<EmissionItem> order;  ///< packed position -> source node
  std::vector<std::vector<std::int32_t>> pos;  ///< [tree][node] -> position
  std::size_t hot_nodes = 0;  ///< leading nodes in the hot slab (0 = pure DFS)
  /// Largest relative right-child offset any inner node needs (0 when the
  /// forest is all leaves).
  std::int64_t max_right_offset = 0;
};

/// Computes the emission order for `forest` at `hot_depth` and verifies the
/// placement invariants every compact format relies on (left child at
/// parent + 1, every right child after its parent, no node dropped).
/// Throws std::logic_error when an invariant fails — impossible by
/// construction; the check guards refactors.
template <typename T>
[[nodiscard]] EmissionOrder compute_emission_order(
    const trees::Forest<T>& forest, std::size_t hot_depth);

/// Packs `forest` per `plan` (hot_depth is consulted).  Returns
/// std::nullopt and sets `why` when the model cannot be represented in the
/// node fields (rank/feature/class overflow).  `tables` is shared with the
/// caller (built once per forest).
template <typename T, typename Node>
[[nodiscard]] std::optional<CompactForest<T, Node>> try_pack(
    const trees::Forest<T>& forest, const LayoutPlan& plan,
    const KeyTableSet<T>& tables, std::string* why = nullptr);

/// Compact-layout execution engine: owns one packed c16 forest and serves
/// both traversal shapes.  The source Forest does not need
/// to outlive it.  predict/predict_batch are const-thread-safe (all vote
/// and key scratch is function-local), so ParallelPredictor can partition
/// batches without cloning.
template <typename T>
class LayoutForestEngine {
 public:
  /// Packs with `plan` (width must be C16 — Wide is the factory's
  /// fallback, not an engine mode).  Throws std::invalid_argument when the
  /// forest is empty or not representable at 16 bytes.
  LayoutForestEngine(const trees::Forest<T>& forest, const LayoutPlan& plan,
                     const KeyTableSet<T>& tables);

  /// Binds an already-packed image (exec/artifacts) without re-packing;
  /// `plan.width` is overridden to C16.  Throws std::invalid_argument on an
  /// empty image.
  LayoutForestEngine(CompactForest<T, CompactNode16> packed,
                     const LayoutPlan& plan);

  [[nodiscard]] const LayoutPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] std::size_t feature_count() const noexcept {
    return feature_count_;
  }
  [[nodiscard]] std::size_t tree_count() const noexcept { return tree_count_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }
  /// Bytes per packed node.
  [[nodiscard]] std::size_t node_bytes() const noexcept {
    return sizeof(CompactNode16);
  }
  /// Nodes in the shared hot slab (0 under pure DFS placement).
  [[nodiscard]] std::size_t hot_node_count() const noexcept {
    return hot_nodes_;
  }

  /// Classifies `n_samples` row-major samples into `out`.  Small batches
  /// take the interleaved latency path, larger ones the blocked loop.
  void predict_batch(const T* features, std::size_t n_samples,
                     std::int32_t* out) const;

  /// Float-accumulate epilogue for additive leaf-value models
  /// (model/forest_model.hpp): each leaf's compact `key` payload indexes a
  /// row of `leaf_values` (`n_outputs` values per row) and
  /// `out[s*n_outputs+j]` becomes base[j] (zeros when `base` is empty)
  /// plus the sum of the rows the sample's trees land on, accumulated in
  /// tree order over the same remapped-key blocked lockstep traversal as
  /// predict_batch.  Row indices must fit the packed key width — the same
  /// pack-time gate that bounds class ids.  Thread-safe; zero samples =
  /// no-op.
  void predict_scores(const T* features, std::size_t n_samples,
                      std::span<const T> leaf_values, std::size_t n_outputs,
                      std::span<const T> base, T* out) const;

  /// Majority-vote class for one sample (interleaved lockstep traversal).
  [[nodiscard]] std::int32_t predict(std::span<const T> x) const;

 private:
  void bind_packed(CompactForest<T, CompactNode16> packed);

  LayoutPlan plan_;
  int num_classes_ = 0;
  std::size_t feature_count_ = 0;
  std::size_t tree_count_ = 0;
  std::size_t node_count_ = 0;
  std::size_t hot_nodes_ = 0;
  CompactForest<T, CompactNode16> packed_;
};

extern template EmissionOrder compute_emission_order<float>(
    const trees::Forest<float>&, std::size_t);
extern template EmissionOrder compute_emission_order<double>(
    const trees::Forest<double>&, std::size_t);
extern template struct CompactForest<float, CompactNode16>;
extern template struct CompactForest<double, CompactNode16>;
extern template std::optional<CompactForest<float, CompactNode16>>
try_pack<float, CompactNode16>(const trees::Forest<float>&, const LayoutPlan&,
                               const KeyTableSet<float>&, std::string*);
extern template std::optional<CompactForest<double, CompactNode16>>
try_pack<double, CompactNode16>(const trees::Forest<double>&,
                                const LayoutPlan&, const KeyTableSet<double>&,
                                std::string*);
extern template class LayoutForestEngine<float>;
extern template class LayoutForestEngine<double>;

}  // namespace flint::exec::layout
