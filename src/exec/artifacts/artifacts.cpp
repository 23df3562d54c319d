#include "exec/artifacts/artifacts.hpp"

#include <stdexcept>
#include <utility>

#include "core/hash.hpp"

namespace flint::exec::artifacts {

template <typename T>
ExecArtifacts<T>::ExecArtifacts(const trees::Forest<T>& forest,
                                std::size_t block_size,
                                const layout::CacheInfo& cache,
                                std::optional<layout::NodeWidth> force_width)
    : forest_(&forest),
      stats_(trees::forest_stats(forest)),
      tables_(layout::build_key_tables(forest)) {
  fit_.feature_count = forest.feature_count();
  fit_.num_classes = forest.num_classes();
  plan_ = layout::auto_plan(stats_, fit_, block_size, cache, force_width);
  // An auto Q4 verdict is tentative: the pack-time bit budget and the
  // quantization contract (exact ranks, or threshold-preserving affine
  // maps) decide whether the 4-byte image may serve.  Pack it now; on any
  // failure demote and re-tune with the 4-byte rung closed.
  if (!force_width && plan_.width == layout::NodeWidth::Q4) {
    const layout::Q4Forest<T>* img = try_q4_at(plan_.hot_depth);
    if (img == nullptr || !(img->exact() || img->qplan.accuracy_contract())) {
      fit_.allow_q4 = false;
      plan_ = layout::auto_plan(stats_, fit_, block_size, cache, force_width);
    }
  }
}

template <typename T>
const layout::CompactForest<T, layout::CompactNode16>*
ExecArtifacts<T>::try_compact16_at(std::size_t hot_depth, std::string* why) {
  auto it = c16_.find(hot_depth);
  if (it == c16_.end()) {
    layout::LayoutPlan plan = plan_;
    plan.width = layout::NodeWidth::C16;
    plan.hot_depth = hot_depth;
    std::string reason;
    auto packed = layout::try_pack<T, layout::CompactNode16>(*forest_, plan,
                                                             tables_, &reason);
    it = c16_.emplace(hot_depth, std::move(packed)).first;
    c16_why_[hot_depth] = reason;
  }
  if (!it->second) {
    if (why != nullptr) *why = c16_why_[hot_depth];
    return nullptr;
  }
  return &*it->second;
}

template <typename T>
const layout::Q4Forest<T>* ExecArtifacts<T>::try_q4_at(std::size_t hot_depth,
                                                       std::string* why) {
  auto it = q4_.find(hot_depth);
  if (it == q4_.end()) {
    layout::LayoutPlan plan = plan_;
    plan.width = layout::NodeWidth::Q4;
    plan.hot_depth = hot_depth;
    std::string reason;
    auto packed = layout::try_pack_q4<T>(*forest_, plan, tables_,
                                         /*force_affine=*/false, &reason);
    it = q4_.emplace(hot_depth, std::move(packed)).first;
    q4_why_[hot_depth] = reason;
  }
  if (!it->second) {
    if (why != nullptr) *why = q4_why_[hot_depth];
    return nullptr;
  }
  return &*it->second;
}

template <typename T>
std::optional<layout::CompactForest<T, layout::CompactNode16>>
ExecArtifacts<T>::take_c16(std::string* why) {
  if (try_compact16_at(plan_.hot_depth, why) == nullptr) return std::nullopt;
  return std::move(c16_.extract(plan_.hot_depth).mapped());
}

template <typename T>
std::optional<layout::Q4Forest<T>> ExecArtifacts<T>::take_q4(
    std::string* why) {
  if (try_q4_at(plan_.hot_depth, why) == nullptr) return std::nullopt;
  return std::move(q4_.extract(plan_.hot_depth).mapped());
}

template <typename T>
const layout::CompactForest<T, layout::CompactNode16>&
ExecArtifacts<T>::compact16() {
  std::string why;
  const auto* packed = try_compact16_at(plan_.hot_depth, &why);
  if (packed == nullptr) {
    throw std::invalid_argument("ExecArtifacts::compact16: " + why);
  }
  return *packed;
}

template <typename T>
const FlintForestEngine<T>& ExecArtifacts<T>::packed_engine() {
  if (!packed_) {
    packed_.emplace(*forest_, FlintVariant::Encoded);
  }
  return *packed_;
}

template <typename T>
std::uint64_t ExecArtifacts<T>::content_hash() const {
  if (hash_) return *hash_;
  core::Fnv1a64 h;
  h.add(forest_->num_classes());
  h.add(forest_->feature_count());
  h.add(forest_->size());
  for (const auto& tree : forest_->trees()) {
    h.add(tree.size());
    for (const auto& node : tree.nodes()) {
      h.add(node.feature);
      h.add(core::si_bits(node.split));
      h.add(node.left);
      h.add(node.right);
      h.add(node.prediction);
      h.add(node.cat_slot);
      h.add(node.flags);
    }
    h.add(tree.cat_slot_count());
    for (std::int32_t s = 0; s < tree.cat_slot_count(); ++s) {
      h.add_span(tree.cat_set(s));
    }
  }
  hash_ = h.digest();
  return *hash_;
}

template class ExecArtifacts<float>;
template class ExecArtifacts<double>;

}  // namespace flint::exec::artifacts
