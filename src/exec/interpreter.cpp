#include "exec/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "exec/pack_checks.hpp"

namespace flint::exec {

const char* to_string(FlintVariant v) {
  switch (v) {
    case FlintVariant::Encoded: return "encoded";
    case FlintVariant::Theorem1: return "theorem1";
    case FlintVariant::Theorem2: return "theorem2";
    case FlintVariant::RadixKey: return "radix";
  }
  return "?";
}

namespace {

/// Copies a tree's category-set slots into an engine-level pool, returning
/// the engine slot base for that tree (engine slot = base + tree slot).
template <typename T>
std::size_t append_cat_slots(const trees::Tree<T>& tree,
                             std::vector<std::uint32_t>& words,
                             std::vector<std::int32_t>& offsets,
                             std::vector<std::int32_t>& sizes) {
  const std::size_t base = offsets.size();
  for (std::int32_t s = 0; s < tree.cat_slot_count(); ++s) {
    const auto set = tree.cat_set(s);
    offsets.push_back(static_cast<std::int32_t>(words.size()));
    sizes.push_back(static_cast<std::int32_t>(set.size()));
    words.insert(words.end(), set.begin(), set.end());
  }
  return base;
}

}  // namespace

template <typename T>
FlintForestEngine<T>::FlintForestEngine(const trees::Forest<T>& forest,
                                        FlintVariant variant)
    : variant_(variant),
      num_classes_(forest.num_classes()),
      feature_count_(forest.feature_count()) {
  if (forest.empty()) {
    throw std::invalid_argument("FlintForestEngine: empty forest");
  }
  if (feature_count_ > 32767) {
    throw std::invalid_argument(
        "FlintForestEngine: feature count exceeds PackedNode's int16 "
        "feature field (max 32767)");
  }
  nodes_.reserve(forest.total_nodes());
  roots_.reserve(forest.size());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    const auto& tree = forest.tree(t);
    const std::size_t base = nodes_.size();
    const std::size_t slot_base =
        append_cat_slots(tree, cat_words_, cat_offsets_, cat_sizes_);
    roots_.push_back(base);
    for (const auto& n : tree.nodes()) {
      PackedNode<T> p;
      p.feature = static_cast<std::int16_t>(n.feature);
      if (n.is_leaf()) {
        check_leaf_class(n.prediction, num_classes_, t);
        p.payload = static_cast<Signed>(n.prediction);
      } else {
        p.left = n.left + static_cast<std::int32_t>(base);
        p.right = n.right + static_cast<std::int32_t>(base);
        if (n.default_left()) p.flags |= kPackedDefaultLeft;
        if (n.is_categorical()) {
          p.flags |= kPackedCategorical;
          p.payload = static_cast<Signed>(
              slot_base + static_cast<std::size_t>(n.cat_slot));
        } else {
          const T split = core::normalize_zero(n.split);
          switch (variant_) {
            case FlintVariant::Encoded: {
              const auto enc = core::encode_threshold_le(split);
              p.payload = enc.immediate;
              if (enc.mode == core::ThresholdMode::SignFlip) {
                p.flags |= kPackedSignFlip;
              }
              break;
            }
            case FlintVariant::RadixKey:
              p.payload = core::to_radix_key(split);
              break;
            case FlintVariant::Theorem1:
            case FlintVariant::Theorem2:
              p.payload = core::si_bits(split);
              break;
          }
        }
        if (p.flags & (kPackedDefaultLeft | kPackedCategorical)) {
          has_special_ = true;
        }
      }
      nodes_.push_back(p);
    }
  }
  if (variant_ == FlintVariant::RadixKey) {
    key_scratch_.resize(feature_count_);
  }
  vote_scratch_.assign(static_cast<std::size_t>(std::max(num_classes_, 1)), 0);
}

template <typename T>
template <FlintVariant V, bool Special>
std::int32_t FlintForestEngine<T>::predict_tree_impl(
    std::size_t root, std::span<const T> x,
    std::span<const Signed> keys) const {
  // The variant is a template parameter so the hot loop carries exactly one
  // comparison sequence and no runtime dispatch.  The Special branch detects
  // NaN from the FLInt integer form itself — (bits & abs_mask) > exp_mask —
  // so the missing-value check stays inside integer arithmetic; the check
  // precedes every compare, matching trees::Tree::leaf_for.
  std::size_t i = root;
  while (true) {
    const PackedNode<T>& n = nodes_[i];
    if (n.feature < 0) return static_cast<std::int32_t>(n.payload);
    const auto f = static_cast<std::size_t>(n.feature);
    bool go_left;
    if constexpr (Special) {
      const Signed raw = core::si_bits(x[f]);
      if (core::is_nan_bits<T>(raw)) {
        go_left = (n.flags & kPackedDefaultLeft) != 0;
        i = static_cast<std::size_t>(go_left ? n.left : n.right);
        continue;
      }
      if (n.flags & kPackedCategorical) {
        go_left = trees::cat_contains(
            cat_span(static_cast<std::size_t>(n.payload)), x[f]);
        i = static_cast<std::size_t>(go_left ? n.left : n.right);
        continue;
      }
    }
    if constexpr (V == FlintVariant::Encoded) {
      const Signed xi = core::si_bits(x[f]);
      go_left = (n.flags & kPackedSignFlip)
                    ? (n.payload <= (xi ^ core::FloatTraits<T>::sign_mask))
                    : (xi <= n.payload);
    } else if constexpr (V == FlintVariant::Theorem1) {
      // x <= s  <=>  s >= x.
      go_left = core::ge_theorem1(core::from_si_bits<T>(n.payload), x[f]);
    } else if constexpr (V == FlintVariant::Theorem2) {
      go_left = core::ge_theorem2(core::from_si_bits<T>(n.payload), x[f]);
    } else {
      go_left = keys[f] <= n.payload;
    }
    i = static_cast<std::size_t>(go_left ? n.left : n.right);
  }
}

template <typename T>
template <FlintVariant V, bool Special>
std::int32_t FlintForestEngine<T>::predict_impl(
    std::span<const T> x, std::span<const Signed> keys) const {
  // Vote accumulation mirrors Forest::predict (argmax, lowest id on ties).
  std::int32_t best_class = 0;
  int best_votes = 0;
  std::fill(vote_scratch_.begin(), vote_scratch_.end(), 0);
  for (const std::size_t root : roots_) {
    const std::int32_t c = predict_tree_impl<V, Special>(root, x, keys);
    const int v = ++vote_scratch_[static_cast<std::size_t>(c)];
    if (v > best_votes || (v == best_votes && c < best_class)) {
      best_votes = v;
      best_class = c;
    }
  }
  return best_class;
}

template <typename T>
std::int32_t FlintForestEngine<T>::predict(std::span<const T> x) const {
  const auto run = [&](auto variant_tag) -> std::int32_t {
    constexpr FlintVariant V = decltype(variant_tag)::value;
    std::span<const Signed> keys;
    if constexpr (V == FlintVariant::RadixKey) {
      for (std::size_t f = 0; f < feature_count_; ++f) {
        key_scratch_[f] = core::to_radix_key(x[f]);
      }
      keys = key_scratch_;
    }
    return has_special_ ? predict_impl<V, true>(x, keys)
                        : predict_impl<V, false>(x, keys);
  };
  switch (variant_) {
    case FlintVariant::Encoded:
      return run(std::integral_constant<FlintVariant, FlintVariant::Encoded>{});
    case FlintVariant::Theorem1:
      return run(std::integral_constant<FlintVariant, FlintVariant::Theorem1>{});
    case FlintVariant::Theorem2:
      return run(std::integral_constant<FlintVariant, FlintVariant::Theorem2>{});
    case FlintVariant::RadixKey:
      return run(std::integral_constant<FlintVariant, FlintVariant::RadixKey>{});
  }
  return 0;  // unreachable
}

template <typename T>
std::int32_t FlintForestEngine<T>::predict_tree(
    std::size_t t, std::span<const T> x, std::span<const Signed> keys) const {
  const std::size_t root = roots_[t];
  const auto run = [&](auto variant_tag) -> std::int32_t {
    constexpr FlintVariant V = decltype(variant_tag)::value;
    return has_special_ ? predict_tree_impl<V, true>(root, x, keys)
                        : predict_tree_impl<V, false>(root, x, keys);
  };
  switch (variant_) {
    case FlintVariant::Encoded:
      return run(std::integral_constant<FlintVariant, FlintVariant::Encoded>{});
    case FlintVariant::Theorem1:
      return run(std::integral_constant<FlintVariant, FlintVariant::Theorem1>{});
    case FlintVariant::Theorem2:
      return run(std::integral_constant<FlintVariant, FlintVariant::Theorem2>{});
    case FlintVariant::RadixKey:
      return run(std::integral_constant<FlintVariant, FlintVariant::RadixKey>{});
  }
  return 0;  // unreachable
}

template <typename T>
void FlintForestEngine<T>::predict_batch(const data::Dataset<T>& dataset,
                                         std::span<std::int32_t> out) const {
  if (out.size() < dataset.rows()) {
    throw std::invalid_argument("predict_batch: output span too small");
  }
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    out[r] = predict(dataset.row(r));
  }
}

template <typename T>
double FlintForestEngine<T>::accuracy(const data::Dataset<T>& dataset) const {
  if (dataset.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    if (predict(dataset.row(r)) == dataset.label(r)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(dataset.rows());
}

template <typename T>
FloatForestEngine<T>::FloatForestEngine(const trees::Forest<T>& forest)
    : num_classes_(forest.num_classes()) {
  if (forest.empty()) {
    throw std::invalid_argument("FloatForestEngine: empty forest");
  }
  nodes_.reserve(forest.total_nodes());
  roots_.reserve(forest.size());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    const auto& tree = forest.tree(t);
    const std::size_t base = nodes_.size();
    const std::size_t slot_base =
        append_cat_slots(tree, cat_words_, cat_offsets_, cat_sizes_);
    roots_.push_back(base);
    for (const auto& n : tree.nodes()) {
      FloatNode p;
      p.feature = n.feature;
      if (n.is_leaf()) {
        check_leaf_class(n.prediction, num_classes_, t);
        p.feature = -1;
        p.left = n.prediction;  // payload reuse for leaves
      } else {
        p.split = n.split;
        p.left = n.left + static_cast<std::int32_t>(base);
        p.right = n.right + static_cast<std::int32_t>(base);
        if (n.default_left()) p.flags |= kPackedDefaultLeft;
        if (n.is_categorical()) {
          p.flags |= kPackedCategorical;
          p.cat_slot = static_cast<std::int32_t>(
              slot_base + static_cast<std::size_t>(n.cat_slot));
        }
        if (p.flags != 0) has_special_ = true;
      }
      nodes_.push_back(p);
    }
  }
  vote_scratch_.assign(static_cast<std::size_t>(std::max(num_classes_, 1)), 0);
}

template <typename T>
template <bool Special>
std::int32_t FloatForestEngine<T>::predict_tree_impl(
    std::size_t root, std::span<const T> x) const {
  std::size_t i = root;
  while (true) {
    const FloatNode& n = nodes_[i];
    if (n.feature < 0) return n.left;  // payload reuse for leaves
    const T v = x[static_cast<std::size_t>(n.feature)];
    bool go_left;
    if constexpr (Special) {
      if (std::isnan(v)) {
        go_left = (n.flags & kPackedDefaultLeft) != 0;
      } else if (n.flags & kPackedCategorical) {
        go_left = trees::cat_contains(
            cat_span(static_cast<std::size_t>(n.cat_slot)), v);
      } else {
        go_left = v <= n.split;
      }
    } else {
      go_left = v <= n.split;
    }
    i = static_cast<std::size_t>(go_left ? n.left : n.right);
  }
}

template <typename T>
std::int32_t FloatForestEngine<T>::predict(std::span<const T> x) const {
  std::int32_t best_class = 0;
  int best_votes = 0;
  std::fill(vote_scratch_.begin(), vote_scratch_.end(), 0);
  for (const std::size_t root : roots_) {
    const std::int32_t c = has_special_ ? predict_tree_impl<true>(root, x)
                                        : predict_tree_impl<false>(root, x);
    const int v = ++vote_scratch_[static_cast<std::size_t>(c)];
    if (v > best_votes || (v == best_votes && c < best_class)) {
      best_votes = v;
      best_class = c;
    }
  }
  return best_class;
}

template <typename T>
void FloatForestEngine<T>::predict_batch(const data::Dataset<T>& dataset,
                                         std::span<std::int32_t> out) const {
  if (out.size() < dataset.rows()) {
    throw std::invalid_argument("predict_batch: output span too small");
  }
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    out[r] = predict(dataset.row(r));
  }
}

template <typename T>
double FloatForestEngine<T>::accuracy(const data::Dataset<T>& dataset) const {
  if (dataset.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    if (predict(dataset.row(r)) == dataset.label(r)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(dataset.rows());
}

template class FlintForestEngine<float>;
template class FlintForestEngine<double>;
template class FloatForestEngine<float>;
template class FloatForestEngine<double>;

}  // namespace flint::exec
