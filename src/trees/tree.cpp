#include "trees/tree.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace flint::trees {

template <typename T>
std::int32_t Tree<T>::add_node(const Node<T>& node) {
  nodes_.push_back(node);
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

template <typename T>
std::int32_t Tree<T>::add_leaf(std::int32_t prediction) {
  Node<T> n;
  n.feature = -1;
  n.prediction = prediction;
  return add_node(n);
}

template <typename T>
std::int32_t Tree<T>::add_split(std::int32_t feature, T split) {
  if (feature < 0) throw std::invalid_argument("Tree::add_split: negative feature");
  Node<T> n;
  n.feature = feature;
  n.split = split;
  return add_node(n);
}

template <typename T>
std::int32_t Tree<T>::add_split(std::int32_t feature, T split,
                                bool default_left) {
  const std::int32_t i = add_split(feature, split);
  if (default_left) node(i).flags |= kNodeDefaultLeft;
  return i;
}

template <typename T>
std::int32_t Tree<T>::add_cat_split(std::int32_t feature, std::int32_t cat_slot,
                                    bool default_left) {
  if (feature < 0) {
    throw std::invalid_argument("Tree::add_cat_split: negative feature");
  }
  if (cat_slot < 0 || cat_slot >= cat_slot_count()) {
    throw std::invalid_argument("Tree::add_cat_split: cat_slot out of range");
  }
  Node<T> n;
  n.feature = feature;
  n.cat_slot = cat_slot;
  n.flags = kNodeCategorical;
  if (default_left) n.flags |= kNodeDefaultLeft;
  return add_node(n);
}

template <typename T>
std::int32_t Tree<T>::add_cat_set(std::span<const std::uint32_t> words) {
  if (words.empty()) {
    throw std::invalid_argument("Tree::add_cat_set: empty category set");
  }
  cat_offsets_.push_back(static_cast<std::int32_t>(cat_words_.size()));
  cat_sizes_.push_back(static_cast<std::int32_t>(words.size()));
  cat_words_.insert(cat_words_.end(), words.begin(), words.end());
  return static_cast<std::int32_t>(cat_offsets_.size() - 1);
}

template <typename T>
std::span<const std::uint32_t> Tree<T>::cat_set(std::int32_t slot) const {
  const auto s = static_cast<std::size_t>(slot);
  return {cat_words_.data() + cat_offsets_[s],
          static_cast<std::size_t>(cat_sizes_[s])};
}

template <typename T>
bool Tree<T>::has_special_splits() const noexcept {
  for (const auto& n : nodes_) {
    if (!n.is_leaf() && n.flags != 0) return true;
  }
  return false;
}

template <typename T>
void Tree<T>::link(std::int32_t parent, std::int32_t left, std::int32_t right) {
  auto& p = node(parent);
  p.left = left;
  p.right = right;
}

template <typename T>
std::int32_t Tree<T>::predict(std::span<const T> x) const {
  return node(leaf_for(x)).prediction;
}

template <typename T>
std::int32_t Tree<T>::leaf_for(std::span<const T> x) const {
  std::int32_t i = 0;
  const Node<T>* n = &node(i);
  while (!n->is_leaf()) {
    const T v = x[static_cast<std::size_t>(n->feature)];
    bool go_left;
    if (std::isnan(v)) {
      // Missing routes by the default-direction flag.  Flagless nodes send
      // NaN right — exactly what IEEE `v <= split` evaluates to, so legacy
      // models keep their pre-missing-support behavior bit for bit.
      go_left = n->default_left();
    } else if (n->is_categorical()) {
      go_left = cat_contains(cat_set(n->cat_slot), v);
    } else {
      go_left = v <= n->split;
    }
    i = go_left ? n->left : n->right;
    n = &node(i);
  }
  return i;
}

template <typename T>
std::size_t Tree<T>::leaf_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const Node<T>& n) { return n.is_leaf(); }));
}

template <typename T>
std::size_t Tree<T>::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative DFS with explicit (node, depth) stack; trees can be deep.
  std::size_t max_depth = 0;
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [i, d] = stack.back();
    stack.pop_back();
    const Node<T>& n = node(i);
    if (n.is_leaf()) {
      max_depth = std::max(max_depth, d);
    } else {
      stack.emplace_back(n.left, d + 1);
      stack.emplace_back(n.right, d + 1);
    }
  }
  return max_depth;
}

template <typename T>
std::string Tree<T>::validate() const {
  if (nodes_.empty()) return "tree has no nodes";
  const auto n_nodes = static_cast<std::int32_t>(nodes_.size());
  std::vector<int> parents(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node<T>& n = nodes_[i];
    if (n.is_leaf()) {
      if (n.prediction < 0) {
        return "leaf node " + std::to_string(i) + " has no prediction";
      }
      if (n.left != kNoChild || n.right != kNoChild) {
        return "leaf node " + std::to_string(i) + " has children";
      }
      // Engines force leaf flags/cat_slot on their packed images, so stray
      // values here could never change a prediction — but they make the
      // tree ambiguous (is it a leaf or a mangled split?), so a container
      // carrying them is rejected rather than silently normalized.
      if (n.flags != 0) {
        return "leaf node " + std::to_string(i) + " carries split flags";
      }
      if (n.cat_slot != -1) {
        return "leaf node " + std::to_string(i) + " carries a cat_slot";
      }
      continue;
    }
    if (feature_count_ != 0 &&
        static_cast<std::size_t>(n.feature) >= feature_count_) {
      return "node " + std::to_string(i) + " feature index out of range";
    }
    if (n.is_categorical()) {
      if (n.cat_slot < 0 || n.cat_slot >= cat_slot_count()) {
        return "categorical node " + std::to_string(i) +
               " cat_slot out of range";
      }
    } else if (n.cat_slot != -1) {
      return "numeric node " + std::to_string(i) + " carries a cat_slot";
    } else if (std::isnan(n.split)) {
      // +-inf is ordered and stays (an always-taken split round-trips the
      // containers bit-exactly), but NaN has no integer rank: narrowing and
      // the NaN -> +inf missing substitution both break on it (the
      // verifier's tree.split_nan).  Rejecting here keeps loader-accepted
      // models verify-clean, since every container parse funnels through
      // this method.
      return "numeric node " + std::to_string(i) + " has a NaN split";
    }
    if (n.left < 0 || n.left >= n_nodes || n.right < 0 || n.right >= n_nodes) {
      return "node " + std::to_string(i) + " child index out of range";
    }
    if (n.left == n.right) {
      return "node " + std::to_string(i) + " has identical children";
    }
    ++parents[static_cast<std::size_t>(n.left)];
    ++parents[static_cast<std::size_t>(n.right)];
  }
  if (parents[0] != 0) return "root node has a parent";
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (parents[i] != 1) {
      return "node " + std::to_string(i) + " has " + std::to_string(parents[i]) +
             " parents (expected 1)";
    }
  }
  // One parent per node still admits a cycle cut off from the root.  Walk
  // from the root, clearing each reached node's count: with one parent
  // each, the walk meets no node twice, and a count left set was never
  // reached.
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const Node<T>& n = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    if (n.is_leaf()) continue;
    for (const std::int32_t child : {n.left, n.right}) {
      parents[static_cast<std::size_t>(child)] = 0;
      stack.push_back(child);
    }
  }
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (parents[i] != 0) {
      return "node " + std::to_string(i) + " is not reachable from the root";
    }
  }
  return {};
}

template struct Node<float>;
template struct Node<double>;
template class Tree<float>;
template class Tree<double>;

}  // namespace flint::trees
