// trees/tree_stats — empirical branch statistics for cache-aware layout.
//
// The CAGS generator (Buschjaeger et al. ICDM'18, Chen et al. TECS'22, paper
// Section V) lays trees out by the probability that execution takes each
// branch, measured by pushing the *training* set through the tree.  This
// module collects per-node visit counts and left-branch probabilities, plus
// summary statistics used by the reports and the model_inspect example.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "trees/forest.hpp"
#include "trees/tree.hpp"

namespace flint::trees {

/// Per-node empirical statistics, aligned with Tree::nodes() indices.
struct BranchStats {
  std::vector<std::uint64_t> visits;      ///< samples reaching each node
  std::vector<double> left_probability;   ///< P(go left | reached); 0.5 for unseen/leaf

  [[nodiscard]] std::size_t size() const noexcept { return visits.size(); }
};

/// Runs `dataset` through `tree`, counting node visits and left-edge takes.
/// Nodes never visited get probability 0.5 (uninformative prior), as do
/// leaves.
template <typename T>
[[nodiscard]] BranchStats collect_branch_stats(const Tree<T>& tree,
                                               const data::Dataset<T>& dataset);

/// One BranchStats per tree of the forest.
template <typename T>
[[nodiscard]] std::vector<BranchStats> collect_branch_stats(
    const Forest<T>& forest, const data::Dataset<T>& dataset);

/// Aggregate shape metrics for reporting.  Computed in a single DFS —
/// depth, leaf count and split-sign counts come out of one walk instead of
/// one tree traversal per field (Tree::depth + Tree::leaf_count + a DFS).
struct TreeShape {
  std::size_t nodes = 0;
  std::size_t leaves = 0;
  std::size_t depth = 0;
  double mean_leaf_depth = 0.0;          ///< averaged over leaves
  std::size_t negative_splits = 0;       ///< split values < 0 (SignFlip path)
  std::size_t nonnegative_splits = 0;
};

template <typename T>
[[nodiscard]] TreeShape tree_shape(const Tree<T>& tree);

/// Per-feature split-value summary across the whole forest.
struct FeatureSplitStats {
  std::uint64_t splits = 0;   ///< inner nodes testing this feature
  double min_split = 0.0;     ///< smallest split value (valid iff splits > 0)
  double max_split = 0.0;     ///< largest split value (valid iff splits > 0)
};

/// Whole-forest structural summary, computed once (one DFS per tree) and
/// meant to be passed around instead of re-walking trees: the layout
/// auto-tuner (exec/layout/plan.hpp) sizes the hot slab from the per-tree
/// depth/node counts and prices the q4 rank remap from the per-feature
/// split counts; the split ranges are exposed for reports and inspection
/// tools; the packers read total_nodes for reservation — none of them
/// touch Tree again.
struct ForestStats {
  std::vector<TreeShape> trees;           ///< aligned with Forest::tree indices
  std::vector<FeatureSplitStats> features;  ///< indexed by feature id
  std::size_t total_nodes = 0;
  std::size_t total_leaves = 0;
  std::size_t max_depth = 0;              ///< max over trees
  double mean_leaf_depth = 0.0;           ///< over all leaves of all trees
};

template <typename T>
[[nodiscard]] ForestStats forest_stats(const Forest<T>& forest);

}  // namespace flint::trees
