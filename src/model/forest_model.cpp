#include "model/forest_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace flint::model {

const char* to_string(LeafKind kind) {
  switch (kind) {
    case LeafKind::ClassId: return "class";
    case LeafKind::ScoreVector: return "vector";
    case LeafKind::Scalar: return "scalar";
  }
  return "?";
}

const char* to_string(AggregationMode mode) {
  switch (mode) {
    case AggregationMode::ArgmaxVotes: return "vote";
    case AggregationMode::SumScores: return "sum";
  }
  return "?";
}

const char* to_string(Link link) {
  switch (link) {
    case Link::None: return "none";
    case Link::Sigmoid: return "sigmoid";
    case Link::Softmax: return "softmax";
  }
  return "?";
}

LeafKind leaf_kind_from_string(std::string_view s) {
  if (s == "class") return LeafKind::ClassId;
  if (s == "vector") return LeafKind::ScoreVector;
  if (s == "scalar") return LeafKind::Scalar;
  throw std::invalid_argument("unknown leaf kind '" + std::string(s) +
                              "' (class|vector|scalar)");
}

AggregationMode aggregation_mode_from_string(std::string_view s) {
  if (s == "vote") return AggregationMode::ArgmaxVotes;
  if (s == "sum") return AggregationMode::SumScores;
  throw std::invalid_argument("unknown aggregation '" + std::string(s) +
                              "' (vote|sum)");
}

Link link_from_string(std::string_view s) {
  if (s == "none") return Link::None;
  if (s == "sigmoid") return Link::Sigmoid;
  if (s == "softmax") return Link::Softmax;
  throw std::invalid_argument("unknown link '" + std::string(s) +
                              "' (none|sigmoid|softmax)");
}

template <typename T>
int ForestModel<T>::num_classes() const noexcept {
  if (is_vote()) return forest.num_classes();
  if (n_outputs > 1) return n_outputs;
  return aggregation.link == Link::Sigmoid ? 2 : 0;
}

template <typename T>
std::string ForestModel<T>::describe() const {
  std::string s = to_string(leaf_kind);
  if (!is_vote()) s += "[" + std::to_string(n_outputs) + "]";
  s += std::string(" ") + to_string(aggregation.mode);
  if (aggregation.link != Link::None) {
    s += std::string("+") + to_string(aggregation.link);
  }
  s += " (" + std::to_string(forest.size()) + " trees, ";
  const int classes = num_classes();
  s += classes > 0 ? std::to_string(classes) + " classes)" : "regression)";
  return s;
}

template <typename T>
std::string ForestModel<T>::validate() const {
  if (forest.empty()) return "empty forest";
  if (forest.feature_count() > trees::kMaxFeatureCount) {
    // Allocation-bomb gate: engines and key tables size O(features) arrays
    // from this declared count (see kMaxFeatureCount).
    return "feature count " + std::to_string(forest.feature_count()) +
           " exceeds the engine limit of " +
           std::to_string(trees::kMaxFeatureCount);
  }
  if (zero_as_missing && !handles_missing) {
    return "zero_as_missing implies handles_missing";
  }
  for (std::size_t t = 0; t < forest.size(); ++t) {
    if (const std::string err = forest.tree(t).validate(); !err.empty()) {
      return "tree " + std::to_string(t) + ": " + err;
    }
    if (forest.tree(t).feature_count() != forest.feature_count()) {
      return "tree " + std::to_string(t) + ": feature count " +
             std::to_string(forest.tree(t).feature_count()) +
             " != forest feature count " +
             std::to_string(forest.feature_count());
    }
    // Tree::validate skips the feature-range check when the tree declares
    // feature_count 0 (in-progress trees have no width yet), but a *model*
    // with inner nodes must bound every feature index: predictors size
    // input rows from feature_count(), so a container header understating
    // it ("tree 0 3" with splits on f0) would read past the caller's
    // buffer.  Mirrors the verifier's tree.feature_range.
    for (const auto& n : forest.tree(t).nodes()) {
      if (!n.is_leaf() &&
          static_cast<std::size_t>(n.feature) >= forest.feature_count()) {
        return "tree " + std::to_string(t) + ": feature " +
               std::to_string(n.feature) + " outside [0, " +
               std::to_string(forest.feature_count()) + ")";
      }
    }
  }
  if (is_vote()) {
    if (aggregation.mode != AggregationMode::ArgmaxVotes) {
      return "class leaves require vote aggregation";
    }
    if (aggregation.link != Link::None) return "vote models take no link";
    if (n_outputs != 0) return "class leaves have no score outputs";
    if (!leaf_values.empty()) return "class leaves carry no leaf-value table";
    if (!aggregation.base_score.empty()) return "vote models take no base score";
    if (forest.num_classes() < 1) return "vote model needs >= 1 class";
    const int classes = forest.num_classes();
    for (std::size_t t = 0; t < forest.size(); ++t) {
      for (const auto& n : forest.tree(t).nodes()) {
        if (n.is_leaf() && (n.prediction < 0 || n.prediction >= classes)) {
          return "tree " + std::to_string(t) + ": leaf class " +
                 std::to_string(n.prediction) + " out of range for " +
                 std::to_string(classes) + " classes";
        }
      }
    }
    return "";
  }
  // Score kinds.
  if (aggregation.mode != AggregationMode::SumScores) {
    return "score leaves require sum aggregation";
  }
  if (n_outputs < 1) return "score model needs n_outputs >= 1";
  if (leaf_kind == LeafKind::Scalar && n_outputs != 1) {
    return "scalar leaves imply n_outputs == 1";
  }
  if (aggregation.link == Link::Sigmoid && n_outputs != 1) {
    return "sigmoid link implies n_outputs == 1";
  }
  if (aggregation.link == Link::Softmax && n_outputs < 2) {
    return "softmax link implies n_outputs >= 2";
  }
  const auto k = static_cast<std::size_t>(n_outputs);
  if (leaf_values.empty() || leaf_values.size() % k != 0) {
    return "leaf_values size " + std::to_string(leaf_values.size()) +
           " is not a non-empty multiple of n_outputs " + std::to_string(k);
  }
  if (!aggregation.base_score.empty() && aggregation.base_score.size() != k) {
    return "base_score has " + std::to_string(aggregation.base_score.size()) +
           " entries, expected 0 or " + std::to_string(k);
  }
  for (std::size_t i = 0; i < leaf_values.size(); ++i) {
    if (!std::isfinite(static_cast<double>(leaf_values[i]))) {
      return "non-finite leaf value at row " + std::to_string(i / k) +
             " output " + std::to_string(i % k);
    }
  }
  for (std::size_t i = 0; i < aggregation.base_score.size(); ++i) {
    if (!std::isfinite(static_cast<double>(aggregation.base_score[i]))) {
      return "non-finite base score entry " + std::to_string(i);
    }
  }
  const auto rows = leaf_rows();
  // The structural forest's num_classes doubles as the payload bound every
  // engine enforces at pack time; it must equal the row count exactly.
  if (forest.num_classes() != static_cast<int>(rows)) {
    return "structural num_classes " + std::to_string(forest.num_classes()) +
           " != leaf-value rows " + std::to_string(rows);
  }
  for (std::size_t t = 0; t < forest.size(); ++t) {
    for (const auto& n : forest.tree(t).nodes()) {
      if (n.is_leaf() &&
          (n.prediction < 0 ||
           static_cast<std::size_t>(n.prediction) >= rows)) {
        return "tree " + std::to_string(t) + ": leaf row " +
               std::to_string(n.prediction) + " out of range for " +
               std::to_string(rows) + " leaf-value rows";
      }
    }
  }
  return "";
}

template <typename T>
ForestModel<T> from_vote_forest(trees::Forest<T> forest) {
  ForestModel<T> model;
  model.forest = std::move(forest);
  model.leaf_kind = LeafKind::ClassId;
  model.aggregation.mode = AggregationMode::ArgmaxVotes;
  return model;
}

template <typename T>
std::vector<LeafValueRange<T>> per_tree_leaf_ranges(
    const ForestModel<T>& model) {
  std::vector<LeafValueRange<T>> ranges(model.forest.size());
  for (std::size_t t = 0; t < model.forest.size(); ++t) {
    bool first = true;
    LeafValueRange<T>& r = ranges[t];
    for (const auto& n : model.forest.tree(t).nodes()) {
      if (!n.is_leaf()) continue;
      if (model.is_vote()) {
        const T v = static_cast<T>(n.prediction);
        r.lo = first ? v : std::min(r.lo, v);
        r.hi = first ? v : std::max(r.hi, v);
        first = false;
      } else {
        const auto row =
            model.leaf_row(static_cast<std::size_t>(n.prediction));
        for (const T v : row) {
          r.lo = first ? v : std::min(r.lo, v);
          r.hi = first ? v : std::max(r.hi, v);
          first = false;
        }
      }
    }
  }
  return ranges;
}

template <typename T>
void apply_link(Link link, std::size_t n_samples, std::size_t n_outputs,
                T* scores) {
  if (link == Link::None) return;
  const std::size_t k = n_outputs;
  for (std::size_t s = 0; s < n_samples; ++s) {
    T* row = scores + s * k;
    switch (link) {
      case Link::None: break;
      case Link::Sigmoid:
        // Double-domain evaluation, rounded once to T: backends with
        // identical raw sums produce identical final scores.
        for (std::size_t j = 0; j < k; ++j) {
          row[j] = static_cast<T>(
              1.0 / (1.0 + std::exp(-static_cast<double>(row[j]))));
        }
        break;
      case Link::Softmax: {
        double hi = static_cast<double>(row[0]);
        for (std::size_t j = 1; j < k; ++j) {
          hi = std::max(hi, static_cast<double>(row[j]));
        }
        double denom = 0.0;
        for (std::size_t j = 0; j < k; ++j) {
          denom += std::exp(static_cast<double>(row[j]) - hi);
        }
        for (std::size_t j = 0; j < k; ++j) {
          row[j] = static_cast<T>(
              std::exp(static_cast<double>(row[j]) - hi) / denom);
        }
        break;
      }
    }
  }
}

template <typename T>
void finalize_scores(const ForestModel<T>& model, std::size_t n_samples,
                     T* scores) {
  const auto k = static_cast<std::size_t>(std::max(model.n_outputs, 1));
  const auto& base = model.aggregation.base_score;
  if (!base.empty()) {
    for (std::size_t s = 0; s < n_samples; ++s) {
      T* row = scores + s * k;
      for (std::size_t j = 0; j < k; ++j) row[j] += base[j];
    }
  }
  apply_link(model.aggregation.link, n_samples, k, scores);
}

template <typename T>
std::int32_t class_from_scores(const ForestModel<T>& model, const T* scores) {
  const int k = model.n_outputs;
  if (k == 1) {
    // Sigmoid binary: p > 0.5 is class 1; the boundary itself falls to
    // class 0, matching the first-maximum rule over {1-p, p}.
    return scores[0] > static_cast<T>(0.5) ? 1 : 0;
  }
  std::int32_t best = 0;
  for (int j = 1; j < k; ++j) {
    if (scores[j] > scores[best]) best = j;
  }
  return best;
}

template <typename T>
std::int32_t class_from_raw(int n_outputs, const T* raw) {
  if (n_outputs == 1) {
    // sigmoid(raw) > 0.5  <=>  raw > 0; the boundary falls to class 0
    // exactly like class_from_scores' p > 0.5 rule.
    return raw[0] > T{0} ? 1 : 0;
  }
  std::int32_t best = 0;
  for (int j = 1; j < n_outputs; ++j) {
    if (raw[j] > raw[best]) best = j;
  }
  return best;
}

template struct Aggregation<float>;
template struct Aggregation<double>;
template struct ForestModel<float>;
template struct ForestModel<double>;
template ForestModel<float> from_vote_forest<float>(trees::Forest<float>);
template ForestModel<double> from_vote_forest<double>(trees::Forest<double>);
template std::vector<LeafValueRange<float>> per_tree_leaf_ranges<float>(
    const ForestModel<float>&);
template std::vector<LeafValueRange<double>> per_tree_leaf_ranges<double>(
    const ForestModel<double>&);
template void apply_link<float>(Link, std::size_t, std::size_t, float*);
template void apply_link<double>(Link, std::size_t, std::size_t, double*);
template void finalize_scores<float>(const ForestModel<float>&, std::size_t,
                                     float*);
template void finalize_scores<double>(const ForestModel<double>&, std::size_t,
                                      double*);
template std::int32_t class_from_scores<float>(const ForestModel<float>&,
                                               const float*);
template std::int32_t class_from_scores<double>(const ForestModel<double>&,
                                                const double*);
template std::int32_t class_from_raw<float>(int, const float*);
template std::int32_t class_from_raw<double>(int, const double*);

}  // namespace flint::model
