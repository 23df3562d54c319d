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
// The 4-byte quantized word (quant4.hpp) shares its placement, its fill
// loop and every field but the node array (LayoutImage).  Three layout
// tricks:
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
// An image supplies the one engine (engine.hpp) with three things: its
// node decode (view()), its row-key function (quantize_row) and its AVX2
// step kernel (kernels.hpp).  NaN default directions and categorical
// membership splits route through per-sample NaN/membership masks
// (LayoutImage::special_masks) and the node's flag bits.
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

/// Routing flag bits of a compact node (the values of
/// trees::kNodeDefaultLeft / kNodeCategorical): CompactNode16 keeps them in
/// `aux`, the 4-byte word in its flags sidecar.  Zero on every node of a
/// forest without special splits — the fast traversal never reads them.
inline constexpr std::uint8_t kLayoutDefaultLeft = 1;  ///< NaN routes left
inline constexpr std::uint8_t kLayoutCategorical = 2;  ///< key = cat slot

/// 16-byte compact node.  Inner: `key` is the narrowed threshold, right
/// child at self + right_off (> 0), left child at self + 1.  Leaf:
/// right_off < 0, `key` is the class id, and `feature` is 0 — a valid
/// column, so branchless lockstep loops may read keys[feature] before the
/// leaf test resolves.  `aux` carries the flag bits; categorical nodes
/// store their engine-level category slot in `key`.
struct CompactNode16 {
  std::int32_t key = 0;
  std::int32_t right_off = -1;
  std::int32_t feature = -1;
  std::int32_t aux = 0;  ///< flags; 4 nodes tile a 64 B line, none straddles
};
static_assert(sizeof(CompactNode16) == 16, "CompactNode16 must stay 16 bytes");

[[nodiscard]] inline bool node_default_left(const CompactNode16& n) noexcept {
  return (n.aux & kLayoutDefaultLeft) != 0;
}
[[nodiscard]] inline bool node_categorical(const CompactNode16& n) noexcept {
  return (n.aux & kLayoutCategorical) != 0;
}

/// One decoded node, as every traversal and the verifier read it: the leaf
/// tag, the right-child offset (> 0 on inner nodes, <= 0 on leaves), the
/// feature (0 on leaves) and the key — the threshold key, the category
/// slot of a categorical node, or a leaf's payload.
template <typename NodeKey>
struct NodeStep {
  bool leaf;
  std::int32_t off;
  std::size_t feature;
  NodeKey key;
};

/// The c16 node decode: signed int32 fields, flags in `aux`.
struct C16View {
  const CompactNode16* nodes;

  [[nodiscard]] NodeStep<std::int32_t> at(std::int32_t i) const noexcept {
    const CompactNode16& n = nodes[i];
    return {n.right_off < 0, n.right_off, static_cast<std::size_t>(n.feature),
            n.key};
  }
  [[nodiscard]] std::uint8_t flags(std::int32_t i) const noexcept {
    return static_cast<std::uint8_t>(nodes[i].aux);
  }
};

/// The fields every compact image carries, whatever its node word.
template <typename T>
struct LayoutImage {
  using Scalar = T;

  int num_classes = 0;
  std::size_t feature_count = 0;
  std::size_t hot_nodes = 0;     ///< nodes in the hot slab (0 for pure DFS)
  bool has_special = false;      ///< any default-left / categorical node
  std::vector<std::int32_t> roots;  ///< position of each tree's root
  KeyTableSet<T> tables;         ///< rank tables (empty for float c16)

  /// Category side tables (has_special only): every categorical NODE owns
  /// one engine slot (its node key), so per-sample membership can be
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
};

/// A forest packed into one compact node array.  `Node` is CompactNode16;
/// `Key` is the row-key element type the scalar traversals read.
template <typename T, typename Node>
struct CompactForest : LayoutImage<T> {
  using Key = decltype(Node::key);
  static constexpr NodeWidth kWidth = NodeWidth::C16;

  bool identity_keys = false;  ///< float: key = radix key, table-free
  std::vector<Node> nodes;     ///< all trees, placement per LayoutPlan

  [[nodiscard]] C16View view() const noexcept { return {nodes.data()}; }
  [[nodiscard]] std::uint8_t node_flags(std::size_t p) const noexcept {
    return static_cast<std::uint8_t>(nodes[p].aux);
  }

  /// Maps one sample row to node keys — the radix key itself
  /// (identity_keys) or the feature's rank — writing feature f at
  /// out[f * stride] (stride 8 fills one lane of an AVX2 key tile).
  /// Thread-safe.
  template <typename K>
  void quantize_row(const T* x, K* out, std::size_t stride = 1) const {
    if (identity_keys) {
      for (std::size_t f = 0; f < this->feature_count; ++f) {
        out[f * stride] = static_cast<K>(core::to_radix_key(x[f]));
      }
    } else {
      for (std::size_t f = 0; f < this->feature_count; ++f) {
        out[f * stride] = static_cast<K>(this->tables.features[f].rank(x[f]));
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

}  // namespace flint::exec::layout
