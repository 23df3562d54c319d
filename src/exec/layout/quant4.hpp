// exec/layout/quant4 — the 4-byte quantized node format (layout:q4).
//
// The 16-byte node (compact.hpp) stores a full int32 key, feature and
// offset.  This module pushes the same memory-bound argument to its end:
// ONE 32-bit word per node, so four times the forest fits in each cache
// level, and the hot loop is integer-only end to end.
//
//   CompactNode4 (4 B)   [ leaf:1 | right_off:O | feature:F | key:K ]
//
// The bit budget is resolved PER FOREST at pack time: placement is decided
// first (compute_emission_order — the same hot-slab/preorder pass every
// compact format shares, and geometry-independent by construction), which
// fixes the largest relative right offset; O covers that offset, F covers
// the feature count, and the key keeps the remaining K = 31 - F - O bits,
// capped at 16 and required >= 8 (the int16/int8 quantized threshold).
// Leaves set the sign bit and carry their class id / leaf-value row in the
// key bits with feature and offset bits zero, so branchless lockstep loops
// can decode every field before the leaf test resolves.
//
// Thresholds are quantized per feature under a QuantPlan (quant/quant_plan):
// features whose rank table fits K bits keep the exact rank contract —
// bit-identical inference, the narrow.hpp theorem at 4 bytes — and larger
// tables fall back to a calibrated affine map with a measured per-feature
// fitness (how many distinct thresholds survive).  The plan travels with
// the packed image, so verify/inspect/bench all report the same contract.
//
// Everything else — the fields of LayoutImage, the fill loop, the engine
// (engine.hpp) — is shared with the 16-byte node.  What is q4's own: the
// word encode and decode (Q4Geometry, Q4View), the row-key function
// (quantize_row, the per-block quantization the engine runs), and the AVX2
// step kernel.  NaN default-direction and categorical splits ride in a
// per-node flags SIDECAR (allocated only for special forests) — the
// 4-byte word itself has no spare bits to borrow.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/layout/compact.hpp"
#include "exec/layout/narrow.hpp"
#include "exec/layout/plan.hpp"
#include "quant/quant_plan.hpp"
#include "trees/forest.hpp"

namespace flint::exec::layout {

/// The packed word.  Default-constructed as an out-of-range leaf so an
/// uninitialized node can never masquerade as a valid inner node.
struct CompactNode4 {
  std::uint32_t word = 0x8000'0000u;
};
static_assert(sizeof(CompactNode4) == 4, "CompactNode4 must stay 4 bytes");

/// Sign bit of the word = leaf tag (decoded with one arithmetic shift).
inline constexpr std::uint32_t kQ4LeafBit = 0x8000'0000u;

/// Per-forest bit budget of the word's three fields (sums to 31).
struct Q4Geometry {
  std::uint32_t key_bits = 16;
  std::uint32_t feature_bits = 8;
  std::uint32_t offset_bits = 7;

  [[nodiscard]] constexpr std::uint32_t key_mask() const noexcept {
    return (std::uint32_t{1} << key_bits) - 1u;
  }
  [[nodiscard]] constexpr std::uint32_t feature_mask() const noexcept {
    return (std::uint32_t{1} << feature_bits) - 1u;
  }
  [[nodiscard]] constexpr std::uint32_t offset_mask() const noexcept {
    return (std::uint32_t{1} << offset_bits) - 1u;
  }
  [[nodiscard]] constexpr std::uint32_t feature_shift() const noexcept {
    return key_bits;
  }
  [[nodiscard]] constexpr std::uint32_t offset_shift() const noexcept {
    return key_bits + feature_bits;
  }

  [[nodiscard]] constexpr std::uint32_t encode(std::uint32_t key,
                                               std::uint32_t feature,
                                               std::uint32_t right_off)
      const noexcept {
    return key | (feature << feature_shift()) | (right_off << offset_shift());
  }
  [[nodiscard]] constexpr std::uint32_t encode_leaf(std::uint32_t payload)
      const noexcept {
    return kQ4LeafBit | payload;
  }

  [[nodiscard]] constexpr bool is_leaf(std::uint32_t w) const noexcept {
    return (w & kQ4LeafBit) != 0;
  }
  [[nodiscard]] constexpr std::uint32_t key_of(std::uint32_t w) const noexcept {
    return w & key_mask();
  }
  [[nodiscard]] constexpr std::uint32_t feature_of(std::uint32_t w)
      const noexcept {
    return (w >> feature_shift()) & feature_mask();
  }
  [[nodiscard]] constexpr std::uint32_t offset_of(std::uint32_t w)
      const noexcept {
    return (w >> offset_shift()) & offset_mask();
  }
};

/// The q4 node decode: the per-forest bit split, unsigned keys, flags in
/// the sidecar (`flag_bytes`, read only when the image has special splits).
struct Q4View {
  const CompactNode4* nodes;
  const std::uint8_t* flag_bytes;
  Q4Geometry geom;

  [[nodiscard]] NodeStep<std::uint32_t> at(std::int32_t i) const noexcept {
    const std::uint32_t w = nodes[i].word;
    return {geom.is_leaf(w), static_cast<std::int32_t>(geom.offset_of(w)),
            geom.feature_of(w), geom.key_of(w)};
  }
  [[nodiscard]] std::uint8_t flags(std::int32_t i) const noexcept {
    return flag_bytes[i];
  }
};

/// A forest packed into 4-byte words plus its quantization plan.
template <typename T>
struct Q4Forest : LayoutImage<T> {
  using Key = std::uint16_t;
  static constexpr NodeWidth kWidth = NodeWidth::Q4;

  Q4Geometry geom;
  quant::QuantPlan qplan;  ///< per-feature quantizers; bits == geom.key_bits
  std::vector<CompactNode4> nodes;
  /// Per-node kLayoutDefaultLeft/kLayoutCategorical bits; empty unless
  /// has_special.
  std::vector<std::uint8_t> flags;

  [[nodiscard]] Q4View view() const noexcept {
    return {nodes.data(), flags.data(), geom};
  }
  [[nodiscard]] std::uint8_t node_flags(std::size_t p) const noexcept {
    return flags.empty() ? 0 : flags[p];
  }

  /// Bit-exact contract: every feature keys by exact rank.
  [[nodiscard]] bool exact() const noexcept { return qplan.all_exact(); }

  /// Largest stored key any feature can produce (a key span of at most
  /// 255 fits a byte).
  [[nodiscard]] std::int64_t max_key_span() const noexcept {
    std::int64_t m = 0;
    for (const auto& fq : qplan.features) m = std::max(m, fq.key_span());
    return m;
  }

  /// Quantizes one sample row to stored keys, writing feature f at
  /// out[f * stride]: exact features rank through the table, affine
  /// features go through their calibrated map.  Thread-safe.
  template <typename K>
  void quantize_row(const T* x, K* out, std::size_t stride = 1) const {
    for (std::size_t f = 0; f < this->feature_count; ++f) {
      const auto& fq = qplan.features[f];
      if (fq.exact()) {
        out[f * stride] =
            static_cast<K>(this->tables.features[f].rank(x[f]));
      } else {
        out[f * stride] = static_cast<K>(
            fq.quantize(static_cast<double>(x[f])) - fq.q_lo);
      }
    }
  }
};

/// Packs `forest` into the 4-byte format at `plan.hot_depth`.  Placement
/// runs first; the geometry is then sized from the measured offset extent
/// and the feature count, and every node is validated as it is encoded
/// (key/feature/offset ranges, leaf payloads, implicit-left).  Returns
/// std::nullopt and sets `why` when the 31-bit budget cannot be met (fewer
/// than 8 key bits left, payload overflow, ...).  `force_affine` routes
/// every tested feature through the affine map — the deterministic lossy
/// path behind the quant:affine backend.
template <typename T>
[[nodiscard]] std::optional<Q4Forest<T>> try_pack_q4(
    const trees::Forest<T>& forest, const LayoutPlan& plan,
    const KeyTableSet<T>& tables, bool force_affine = false,
    std::string* why = nullptr);

extern template struct Q4Forest<float>;
extern template struct Q4Forest<double>;
extern template std::optional<Q4Forest<float>> try_pack_q4<float>(
    const trees::Forest<float>&, const LayoutPlan&, const KeyTableSet<float>&,
    bool, std::string*);
extern template std::optional<Q4Forest<double>> try_pack_q4<double>(
    const trees::Forest<double>&, const LayoutPlan&,
    const KeyTableSet<double>&, bool, std::string*);

}  // namespace flint::exec::layout
