// exec/interpreter — native-tree execution engines (paper Section IV:
// "native trees where nodes become an array-like data structure and a
// narrow loop reads out the node values").
//
// Five execution paths run the same model — FloatForestEngine plus the four
// FlintForestEngine variants:
//
//   * FloatForestEngine     — hardware floating-point comparisons (reference)
//   * FlintVariant::Encoded — thresholds pre-resolved offline into
//                             EncodedThreshold (Theorem 2 at build time);
//                             the hot loop is a single integer compare.
//   * FlintVariant::Theorem1 / Theorem2 — the runtime formulations, kept for
//                             the ablation bench.
//   * FlintVariant::RadixKey — splits pre-mapped to monotone keys; the
//                             feature vector is remapped once per sample.
//
// All engines are bit-exactly equivalent to Forest::predict for every
// input, including NaN routed by per-node default directions and
// categorical membership splits (property-tested); the paper's headline
// claim is that this equivalence costs nothing — the benches quantify it.
// Forests without missing/categorical splits run the original
// single-compare hot loop (the special checks are a dead template branch).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/flint.hpp"
#include "trees/forest.hpp"

namespace flint::exec {

enum class FlintVariant { Encoded, Theorem1, Theorem2, RadixKey };

[[nodiscard]] const char* to_string(FlintVariant v);

/// PackedNode flag bits.  The byte that used to hold only the Encoded
/// engine's sign-flip bool now carries the missing/categorical semantics
/// too — same 16/24-byte node sizes.
inline constexpr std::uint8_t kPackedSignFlip = 1;     ///< ThresholdMode::SignFlip
inline constexpr std::uint8_t kPackedDefaultLeft = 2;  ///< NaN routes left
inline constexpr std::uint8_t kPackedCategorical = 4;  ///< payload = cat slot

/// Flat node of the packed execution arrays.  For leaves `feature == -1`
/// and `payload` is the class id; for inner nodes `payload` is the encoded
/// immediate (Encoded/RadixKey engines), the raw split bits (Theorem
/// engines), or — when kPackedCategorical is set — the engine-level
/// category-set slot index.
///
/// Members are ordered widest-first and `feature` is narrowed to int16 (the
/// engines gate feature_count <= 32767 at pack time) so the float node is
/// exactly 16 bytes — four per cache line, no pad waste; the old
/// {payload, int32 feature, left, right, sign_flip} order padded to 20.
/// The double node is 24 bytes either way (int64 alignment), asserted below
/// so a regression is a compile error.  Threshold payloads stay full-width:
/// serialization round-trips remain bit-exact.
template <typename T>
struct PackedNode {
  using Signed = typename core::FloatTraits<T>::Signed;
  Signed payload = 0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::int16_t feature = -1;
  std::uint8_t flags = 0;  ///< kPackedSignFlip | kPackedDefaultLeft | kPackedCategorical
};

static_assert(sizeof(PackedNode<float>) == 16,
              "PackedNode<float> must tile cache lines (4 per 64 B)");
static_assert(sizeof(PackedNode<double>) == 24,
              "PackedNode<double> gained pad bytes");

/// Forest inference engine with a selectable comparison strategy.
/// The engine keeps a packed copy of the forest; the source Forest object
/// does not need to outlive it.
template <typename T>
class FlintForestEngine {
 public:
  using Signed = typename core::FloatTraits<T>::Signed;

  FlintForestEngine(const trees::Forest<T>& forest, FlintVariant variant);

  [[nodiscard]] FlintVariant variant() const noexcept { return variant_; }
  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] std::size_t tree_count() const noexcept { return roots_.size(); }
  [[nodiscard]] std::size_t feature_count() const noexcept { return feature_count_; }

  /// Majority-vote class for one sample.
  [[nodiscard]] std::int32_t predict(std::span<const T> x) const;

  /// Class predicted by tree `t` alone.  Thread-safe (touches no mutable
  /// scratch), which makes it the building block of the blocked batch path
  /// in predict/.  The RadixKey variant reads the sample's radix keys
  /// (core::to_radix_key per feature) from `keys`; the other variants
  /// ignore `keys`.
  [[nodiscard]] std::int32_t predict_tree(std::size_t t, std::span<const T> x,
                                          std::span<const Signed> keys = {}) const;

  /// Batch prediction; `out` must have one slot per row.
  void predict_batch(const data::Dataset<T>& dataset, std::span<std::int32_t> out) const;

  /// Fraction of dataset rows classified as labeled.
  [[nodiscard]] double accuracy(const data::Dataset<T>& dataset) const;

  /// Read-only view of the packed image, consumed by verify/ to prove the
  /// pack preserved the source forest (the hot loops assume it blindly).
  [[nodiscard]] std::span<const PackedNode<T>> nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::span<const std::size_t> roots() const noexcept {
    return roots_;
  }
  [[nodiscard]] bool has_special() const noexcept { return has_special_; }
  [[nodiscard]] std::size_t cat_slot_count() const noexcept {
    return cat_offsets_.size();
  }
  [[nodiscard]] std::span<const std::uint32_t> cat_set_of_slot(
      std::size_t slot) const noexcept {
    return cat_span(slot);
  }

 private:
  /// `Special` compiles in the NaN-default-direction / categorical checks;
  /// forests without such splits dispatch to the Special=false instantiation
  /// and keep the original single-compare hot loop.
  template <FlintVariant V, bool Special>
  [[nodiscard]] std::int32_t predict_tree_impl(std::size_t root,
                                               std::span<const T> x,
                                               std::span<const Signed> keys) const;
  template <FlintVariant V, bool Special>
  [[nodiscard]] std::int32_t predict_impl(std::span<const T> x,
                                          std::span<const Signed> keys) const;

  [[nodiscard]] std::span<const std::uint32_t> cat_span(
      std::size_t slot) const noexcept {
    return {cat_words_.data() + static_cast<std::size_t>(cat_offsets_[slot]),
            static_cast<std::size_t>(cat_sizes_[slot])};
  }

  FlintVariant variant_;
  int num_classes_ = 0;
  std::size_t feature_count_ = 0;
  bool has_special_ = false;           ///< any default-left / categorical node
  std::vector<PackedNode<T>> nodes_;   ///< all trees concatenated
  std::vector<std::size_t> roots_;     ///< root index of each tree in nodes_
  std::vector<std::uint32_t> cat_words_;   ///< category bitsets, all slots
  std::vector<std::int32_t> cat_offsets_;  ///< word offset per engine slot
  std::vector<std::int32_t> cat_sizes_;    ///< word count per engine slot
  mutable std::vector<Signed> key_scratch_;  ///< RadixKey per-sample remap buffer
  mutable std::vector<int> vote_scratch_;    ///< per-call vote counts (no allocation)
};

/// Reference engine: hardware float comparisons over the same packed layout
/// (so engine-vs-engine benches isolate the comparison operator, not memory
/// layout differences).
template <typename T>
class FloatForestEngine {
 public:
  explicit FloatForestEngine(const trees::Forest<T>& forest);

  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] std::size_t tree_count() const noexcept { return roots_.size(); }
  [[nodiscard]] std::int32_t predict(std::span<const T> x) const;
  void predict_batch(const data::Dataset<T>& dataset, std::span<std::int32_t> out) const;
  [[nodiscard]] double accuracy(const data::Dataset<T>& dataset) const;

 private:
  struct FloatNode {
    T split = T{0};
    std::int32_t feature = -1;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t cat_slot = -1;  ///< engine category-set slot, -1 = numeric
    std::uint8_t flags = 0;      ///< kPackedDefaultLeft | kPackedCategorical
  };

  template <bool Special>
  [[nodiscard]] std::int32_t predict_tree_impl(std::size_t root,
                                               std::span<const T> x) const;

  [[nodiscard]] std::span<const std::uint32_t> cat_span(
      std::size_t slot) const noexcept {
    return {cat_words_.data() + static_cast<std::size_t>(cat_offsets_[slot]),
            static_cast<std::size_t>(cat_sizes_[slot])};
  }

  int num_classes_ = 0;
  bool has_special_ = false;
  std::vector<FloatNode> nodes_;
  std::vector<std::size_t> roots_;
  std::vector<std::uint32_t> cat_words_;
  std::vector<std::int32_t> cat_offsets_;
  std::vector<std::int32_t> cat_sizes_;
  mutable std::vector<int> vote_scratch_;    ///< per-call vote counts (no allocation)
};

extern template class FlintForestEngine<float>;
extern template class FlintForestEngine<double>;
extern template class FloatForestEngine<float>;
extern template class FloatForestEngine<double>;

}  // namespace flint::exec
