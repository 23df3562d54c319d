// exec/layout/engine — the one execution engine of both compact widths.
//
// FLInt changes only the compare, and so do the two compact widths: a c16
// and a q4 image differ in how a node word decodes, how a sample row
// becomes keys, and which AVX2 kernel gathers their words (compact.hpp,
// quant4.hpp, kernels.hpp).  Everything else — the traversal shapes, the
// key rule, the vote and score epilogues, the dispatch — is written once
// here, over whichever packed image the engine binds.
//
// Traversal comes in two shapes.  The blocked batch loop computes a block
// of samples' keys once, then streams each tree's nodes across the block,
// several samples in lockstep (an AVX2 tile kernel on AVX2 hosts, 8 lanes
// per vector).  The interleaved latency path walks `plan.interleave` trees
// of ONE sample in lockstep, so independent node fetches overlap in the
// out-of-order window, optionally software-prefetching the right
// ("opposite" of the implicit left) child ahead of the compare.  Both
// shapes stop a sample's vote walk once no other class can catch the
// leader (vote.hpp); score walks visit every tree.
//
// The key rule: row keys (radix keys or ranks for c16, quantized keys for
// q4) are computed one block at a time — straight into the AVX2 tile lanes
// on the vector path — so scratch never grows with the batch, and after
// that the traversal touches only integer keys and packed nodes.
//
// Bit-identical to Forest::predict on every input — including NaN routed
// by per-node default directions and categorical membership splits, via a
// Special traversal that consults per-sample NaN/membership masks computed
// with the keys (tests/test_layout.cpp, tests/test_predictor.cpp,
// tests/test_missing.cpp); q4 under an all-exact quantization plan.
// Forests without special splits take the mask-free paths.
#pragma once

#include <cstdint>
#include <span>

#include "exec/layout/compact.hpp"
#include "exec/layout/plan.hpp"
#include "exec/layout/quant4.hpp"

namespace flint::exec::layout {

/// Execution engine over one packed image (CompactForest<T, CompactNode16>
/// or Q4Forest<T>), bound as packed — by ExecArtifacts or a packer; the
/// engine never packs.  The source Forest does not need to outlive it.
/// predict/predict_batch/predict_scores are const-thread-safe (all scratch
/// is function-local), so ParallelPredictor can partition batches without
/// cloning.
template <typename Image>
class LayoutForestEngine {
 public:
  using T = typename Image::Scalar;

  /// Binds `packed` under `plan`; plan.width becomes the image's width.
  /// Throws std::invalid_argument on an empty image.
  LayoutForestEngine(Image packed, const LayoutPlan& plan);

  [[nodiscard]] const LayoutPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const Image& packed() const noexcept { return packed_; }
  [[nodiscard]] int num_classes() const noexcept {
    return packed_.num_classes;
  }
  [[nodiscard]] std::size_t feature_count() const noexcept {
    return packed_.feature_count;
  }
  [[nodiscard]] std::size_t tree_count() const noexcept {
    return packed_.roots.size();
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return packed_.nodes.size();
  }
  /// Bytes per packed node.
  [[nodiscard]] std::size_t node_bytes() const noexcept {
    return sizeof(packed_.nodes[0]);
  }
  /// Nodes in the shared hot slab (0 under pure DFS placement).
  [[nodiscard]] std::size_t hot_node_count() const noexcept {
    return packed_.hot_nodes;
  }

  /// Classifies `n_samples` row-major samples into `out`.  Small batches
  /// take the interleaved latency path, larger ones the blocked loop.
  void predict_batch(const T* features, std::size_t n_samples,
                     std::int32_t* out) const;

  /// Float-accumulate epilogue for additive leaf-value models
  /// (model/forest_model.hpp): each leaf's key payload indexes a row of
  /// `leaf_values` (`n_outputs` values per row) and `out[s*n_outputs+j]`
  /// becomes base[j] (zeros when `base` is empty) plus the sum of the rows
  /// the sample's trees land on, accumulated in tree order over the same
  /// blocked lockstep traversal as predict_batch.  Row indices must fit
  /// the packed key width — the same pack-time gate that bounds class
  /// ids.  Thread-safe; zero samples = no-op.
  void predict_scores(const T* features, std::size_t n_samples,
                      std::span<const T> leaf_values, std::size_t n_outputs,
                      std::span<const T> base, T* out) const;

  /// Majority-vote class for one sample (interleaved lockstep traversal).
  [[nodiscard]] std::int32_t predict(std::span<const T> x) const;

 private:
  LayoutPlan plan_;
  Image packed_;
};

extern template class LayoutForestEngine<CompactForest<float, CompactNode16>>;
extern template class LayoutForestEngine<CompactForest<double, CompactNode16>>;
extern template class LayoutForestEngine<Q4Forest<float>>;
extern template class LayoutForestEngine<Q4Forest<double>>;

}  // namespace flint::exec::layout
