// model/forest_model — the unified forest IR every ingestion path targets
// and every execution backend consumes.
//
// FLInt's integer reinterpretation of `x <= s` applies to ANY axis-aligned
// tree ensemble, not only this repo's internally trained majority-vote
// classifiers.  The IR separates the two things an ensemble is made of:
//
//   * STRUCTURE — a trees::Forest<T>, unchanged, so every existing engine
//     (interpreters, compact layouts, codegen) runs it
//     as-is.  The per-leaf int32 payload is overloaded by leaf kind:
//       LeafKind::ClassId     payload = class id (the v1 semantics)
//       LeafKind::ScoreVector payload = ROW INDEX into leaf_values
//       LeafKind::Scalar      payload = row index, n_outputs == 1
//     For score kinds the structural Forest's num_classes() equals the
//     number of leaf-value rows, which keeps every engine's payload-range
//     gate (pack checks, compact key-width fitness) meaningful without any
//     engine knowing about leaf values.
//
//   * SEMANTICS — typed leaf values plus an Aggregation descriptor:
//       ArgmaxVotes  majority vote over per-tree class ids (random forest
//                    classification; ties toward the lower class id)
//       SumScores    scores[k] = base_score[k] + sum over trees of
//                    leaf_values[payload][k], optionally passed through a
//                    link function (GBDT margins, soft-vote probability
//                    averaging, regression)
//
// Thresholds are ingested bit-exactly (hex or round-trip-exact decimal
// parsing at the model's own precision — see docs/MODEL_FORMATS.md), so
// FLInt's threshold encoding remains a pure function of the stored bits for
// imported models exactly as it is for native ones.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trees/forest.hpp"

namespace flint::model {

/// What a leaf's int32 payload means (see file comment).
enum class LeafKind : std::uint8_t { ClassId, ScoreVector, Scalar };

/// How per-tree leaf results combine into one prediction.
enum class AggregationMode : std::uint8_t { ArgmaxVotes, SumScores };

/// Optional transform applied to the summed scores (element-wise sigmoid,
/// row-wise softmax).  Links never change an argmax, so classification
/// through predict_batch is link-invariant; predict_scores applies them.
enum class Link : std::uint8_t { None, Sigmoid, Softmax };

[[nodiscard]] const char* to_string(LeafKind kind);
[[nodiscard]] const char* to_string(AggregationMode mode);
[[nodiscard]] const char* to_string(Link link);

/// Parses the to_string spellings back; throws std::invalid_argument on an
/// unknown token (used by the v2 text reader).
[[nodiscard]] LeafKind leaf_kind_from_string(std::string_view s);
[[nodiscard]] AggregationMode aggregation_mode_from_string(std::string_view s);
[[nodiscard]] Link link_from_string(std::string_view s);

/// Aggregation descriptor.  `base_score` holds one offset per output in
/// margin space (empty = all zeros); it is added before the link.
template <typename T>
struct Aggregation {
  AggregationMode mode = AggregationMode::ArgmaxVotes;
  Link link = Link::None;
  std::vector<T> base_score;
};

/// The unified IR: structure + typed leaves + aggregation.
template <typename T>
struct ForestModel {
  trees::Forest<T> forest;
  LeafKind leaf_kind = LeafKind::ClassId;
  Aggregation<T> aggregation;
  /// Score outputs per sample; 0 for ClassId models.
  int n_outputs = 0;
  /// Row-major rows x n_outputs leaf-value table (empty for ClassId).
  std::vector<T> leaf_values;
  /// Declared missing-value semantics: when true, NaN inputs are accepted
  /// at the Predictor boundary and routed by each node's default-direction
  /// flag; when false the boundary keeps its hard NaN gate.
  bool handles_missing = false;
  /// LightGBM zero_as_missing: inputs with |x| <= 1e-35 (LightGBM's
  /// kZeroThreshold) are rewritten to NaN before routing.  Implies
  /// handles_missing.
  bool zero_as_missing = false;

  [[nodiscard]] bool is_vote() const noexcept {
    return leaf_kind == LeafKind::ClassId;
  }
  [[nodiscard]] std::size_t leaf_rows() const noexcept {
    return n_outputs > 0 ? leaf_values.size() /
                               static_cast<std::size_t>(n_outputs)
                         : 0;
  }
  [[nodiscard]] std::span<const T> leaf_row(std::size_t row) const {
    const auto k = static_cast<std::size_t>(n_outputs);
    return {leaf_values.data() + row * k, k};
  }

  /// Classification classes this model predicts:
  ///   ClassId            forest.num_classes()
  ///   SumScores, k > 1   k (argmax over outputs)
  ///   SumScores, k == 1  2 with a sigmoid link (binary margin), else 0
  /// 0 means regression — predict_batch is unavailable, predict_scores is
  /// the API.
  [[nodiscard]] int num_classes() const noexcept;
  [[nodiscard]] bool is_classifier() const noexcept { return num_classes() > 0; }

  /// One-line id for logs and inspect output, e.g.
  /// "vector[3] sum+softmax (5 trees, 3 classes)".
  [[nodiscard]] std::string describe() const;

  /// Structural + semantic validation: forest non-empty and per-tree valid,
  /// payloads in range (class ids < num_classes, rows < leaf_rows()),
  /// leaf_values shape, kind/mode/link consistency, base_score length,
  /// finite leaf values.  Returns "" when valid, else the first violation.
  [[nodiscard]] std::string validate() const;
};

/// Wraps a trained majority-vote forest as a ForestModel (the v1 bridge).
template <typename T>
[[nodiscard]] ForestModel<T> from_vote_forest(trees::Forest<T> forest);

/// Per-tree [min, max] over the leaf values a tree can emit (ClassId trees
/// report the class-id range).  Drives examples/model_inspect.
template <typename T>
struct LeafValueRange {
  T lo = T{0};
  T hi = T{0};
};
template <typename T>
[[nodiscard]] std::vector<LeafValueRange<T>> per_tree_leaf_ranges(
    const ForestModel<T>& model);

/// Applies `link` in place to n_samples x n_outputs score rows.
/// Sigmoid/softmax are evaluated in double and rounded once to T, so every
/// backend that produces identical raw sums produces identical final
/// scores.
template <typename T>
void apply_link(Link link, std::size_t n_samples, std::size_t n_outputs,
                T* scores);

/// Applies base_score + link to raw per-tree sums: `scores` holds
/// n_samples x n_outputs accumulated leaf sums WITHOUT base; on return it
/// holds the final scores (base added, link applied).
template <typename T>
void finalize_scores(const ForestModel<T>& model, std::size_t n_samples,
                     T* scores);

/// Reduces one sample's FINAL scores to a class id with the repo-wide
/// first-maximum tie rule (k == 1: probability > 0.5 -> class 1).
/// Precondition: model.is_classifier().
template <typename T>
[[nodiscard]] std::int32_t class_from_scores(const ForestModel<T>& model,
                                             const T* scores);

/// The hot-path form over RAW sums (base included, link NOT applied):
/// sigmoid is monotone with p > 0.5 <=> raw > 0, and softmax preserves
/// each row's order, so classification never needs the exp calls.  Must
/// stay aligned with class_from_scores — tests/test_model.cpp pins the
/// equivalence; this is the single implementation the predictors use.
template <typename T>
[[nodiscard]] std::int32_t class_from_raw(int n_outputs, const T* raw);

extern template struct Aggregation<float>;
extern template struct Aggregation<double>;
extern template struct ForestModel<float>;
extern template struct ForestModel<double>;
extern template ForestModel<float> from_vote_forest<float>(trees::Forest<float>);
extern template ForestModel<double> from_vote_forest<double>(trees::Forest<double>);
extern template std::vector<LeafValueRange<float>> per_tree_leaf_ranges<float>(
    const ForestModel<float>&);
extern template std::vector<LeafValueRange<double>> per_tree_leaf_ranges<double>(
    const ForestModel<double>&);
extern template void apply_link<float>(Link, std::size_t, std::size_t, float*);
extern template void apply_link<double>(Link, std::size_t, std::size_t,
                                        double*);
extern template void finalize_scores<float>(const ForestModel<float>&,
                                            std::size_t, float*);
extern template void finalize_scores<double>(const ForestModel<double>&,
                                             std::size_t, double*);
extern template std::int32_t class_from_scores<float>(const ForestModel<float>&,
                                                      const float*);
extern template std::int32_t class_from_scores<double>(
    const ForestModel<double>&, const double*);
extern template std::int32_t class_from_raw<float>(int, const float*);
extern template std::int32_t class_from_raw<double>(int, const double*);

}  // namespace flint::model
