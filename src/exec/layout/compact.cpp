#include "exec/layout/compact.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "exec/layout/kernels.hpp"
#include "exec/layout/vote.hpp"
#include "exec/pack_checks.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define FLINT_PREFETCH(p) __builtin_prefetch((p))
#else
#define FLINT_PREFETCH(p) ((void)0)
#endif

namespace flint::exec::layout {

namespace {

/// -0.0 splits normalize to +0.0 before keying (core::encode_threshold_le
/// semantics; build_key_tables applies the same rewrite).
template <typename T>
T normalize_zero(T split) {
  return split == T{0} ? T{0} : split;
}

}  // namespace

// ---------------------------------------------------------------------------
// Packing: emission order (hot slab + preorder clusters), then node fill.
// ---------------------------------------------------------------------------

template <typename T>
EmissionOrder compute_emission_order(const trees::Forest<T>& forest,
                                     std::size_t hot_depth) {
  // A spine (a node and its chain of left descendants down to a leaf) is
  // the atomic placement unit: the implicit-left rule welds it together.
  // Spines whose branch depth is < hot_depth are emitted breadth-first
  // across all trees into the shared hot slab; every other subtree is
  // deferred and later emitted as one contiguous preorder cluster.
  struct Item {
    std::int32_t tree;
    std::int32_t node;
    std::uint32_t depth;
  };
  const std::size_t total = forest.total_nodes();
  EmissionOrder eo;
  eo.pos.resize(forest.size());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    eo.pos[t].assign(forest.tree(t).size(), -1);
  }
  eo.order.reserve(total);
  std::deque<Item> fifo;
  std::vector<Item> cold;

  auto emit_spine = [&](Item it) {
    const auto& tree = forest.tree(static_cast<std::size_t>(it.tree));
    std::int32_t n = it.node;
    std::uint32_t d = it.depth;
    while (true) {
      eo.pos[static_cast<std::size_t>(it.tree)][static_cast<std::size_t>(n)] =
          static_cast<std::int32_t>(eo.order.size());
      eo.order.push_back({it.tree, n});
      const auto& nd = tree.node(n);
      if (nd.is_leaf()) break;
      const Item right{it.tree, nd.right, d + 1};
      if (right.depth < hot_depth) {
        fifo.push_back(right);
      } else {
        cold.push_back(right);
      }
      n = nd.left;
      ++d;
    }
  };

  for (std::size_t t = 0; t < forest.size(); ++t) {
    const Item root{static_cast<std::int32_t>(t), 0, 0};
    if (hot_depth == 0) {
      cold.push_back(root);
    } else {
      fifo.push_back(root);
    }
  }
  while (!fifo.empty()) {
    const Item it = fifo.front();
    fifo.pop_front();
    emit_spine(it);
  }
  eo.hot_nodes = eo.order.size();
  // Cold phase: each deferred subtree as one preorder cluster (preorder
  // emits a parent's left child immediately after it, satisfying the
  // implicit-left rule within the cluster).
  std::vector<std::int32_t> stack;
  for (const Item& sub : cold) {
    const auto& tree = forest.tree(static_cast<std::size_t>(sub.tree));
    stack.assign(1, sub.node);
    while (!stack.empty()) {
      const std::int32_t n = stack.back();
      stack.pop_back();
      eo.pos[static_cast<std::size_t>(sub.tree)][static_cast<std::size_t>(n)] =
          static_cast<std::int32_t>(eo.order.size());
      eo.order.push_back({sub.tree, n});
      const auto& nd = tree.node(n);
      if (!nd.is_leaf()) {
        stack.push_back(nd.right);  // popped second
        stack.push_back(nd.left);   // popped first: lands at parent + 1
      }
    }
  }
  if (eo.order.size() != total) {
    throw std::logic_error(
        "layout::compute_emission_order: emission order dropped nodes");
  }
  // Placement invariants + the offset extent formats size their fields
  // from: left child at parent + 1, right child strictly after its parent.
  for (std::size_t p = 0; p < total; ++p) {
    const EmissionItem it = eo.order[p];
    const auto& tree = forest.tree(static_cast<std::size_t>(it.tree));
    const auto& nd = tree.node(it.node);
    if (nd.is_leaf()) continue;
    const auto& tpos = eo.pos[static_cast<std::size_t>(it.tree)];
    if (tpos[static_cast<std::size_t>(nd.left)] !=
        static_cast<std::int32_t>(p) + 1) {
      throw std::logic_error(
          "layout::compute_emission_order: placement broke the implicit-left "
          "rule");
    }
    const std::int64_t off =
        static_cast<std::int64_t>(tpos[static_cast<std::size_t>(nd.right)]) -
        static_cast<std::int64_t>(p);
    if (off <= 0) {
      throw std::logic_error(
          "layout::compute_emission_order: right child placed before its "
          "parent");
    }
    eo.max_right_offset = std::max(eo.max_right_offset, off);
  }
  return eo;
}

template <typename T, typename Node>
std::optional<CompactForest<T, Node>> try_pack(const trees::Forest<T>& forest,
                                               const LayoutPlan& plan,
                                               const KeyTableSet<T>& tables,
                                               std::string* why) {
  using Key = decltype(Node::key);
  auto fail = [&](std::string reason) -> std::optional<CompactForest<T, Node>> {
    if (why) *why = std::move(reason);
    return std::nullopt;
  };

  if (forest.empty()) return fail("empty forest");

  CompactForest<T, Node> packed;
  packed.num_classes = forest.num_classes();
  packed.feature_count = forest.feature_count();
  // float thresholds ARE monotone int32 keys under to_radix_key, so the
  // float node skips the rank table (and the per-sample search).
  packed.identity_keys = std::is_same_v<T, float>;
  packed.has_special = forest.has_special_splits();
  if (!packed.identity_keys) packed.tables = tables;

  // Representability gates for the int32 fields.
  constexpr std::int64_t key_max = 0x7FFF'FFFFll;
  if (static_cast<std::int64_t>(packed.feature_count) > key_max) {
    return fail("feature index does not fit the node's feature field");
  }
  if (packed.num_classes > key_max) {
    return fail("class id does not fit the node key");
  }
  if (!packed.identity_keys &&
      static_cast<std::int64_t>(tables.max_table_size()) > key_max) {
    return fail("a feature has more distinct thresholds than the node key "
                "width can rank");
  }
  if (!packed.identity_keys &&
      tables.features.size() != packed.feature_count) {
    return fail("key table set does not match the forest's feature count");
  }
  if (packed.has_special) {
    // Categorical slots live in the node key (one engine slot per
    // categorical node); count them up front for the width gate.
    std::int64_t n_cat = 0;
    for (std::size_t t = 0; t < forest.size(); ++t) {
      for (const auto& n : forest.tree(t).nodes()) {
        if (!n.is_leaf() && n.is_categorical()) ++n_cat;
      }
    }
    if (n_cat > key_max) {
      return fail("categorical slot index does not fit the node key");
    }
  }

  // --- Pass 1: emission order (shared placement pass). ---------------------
  const EmissionOrder eo = compute_emission_order(forest, plan.hot_depth);
  const std::size_t total = forest.total_nodes();
  const auto& pos = eo.pos;
  packed.hot_nodes = eo.hot_nodes;

  // --- Pass 2: fill nodes (keys, offsets, roots). --------------------------
  packed.nodes.resize(total);
  packed.roots.resize(forest.size());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    packed.roots[t] = pos[t][0];
  }
  for (std::size_t p = 0; p < total; ++p) {
    const EmissionItem it = eo.order[p];
    const auto& tree = forest.tree(static_cast<std::size_t>(it.tree));
    const auto& nd = tree.node(it.node);
    Node out{};
    if (nd.is_leaf()) {
      check_leaf_class(nd.prediction, packed.num_classes,
                       static_cast<std::size_t>(it.tree));
      out.key = static_cast<Key>(nd.prediction);
      // Feature 0 (any valid column), not -1: the branchless lockstep
      // loops read keys[feature] before the leaf test resolves.
      out.feature = 0;
      out.right_off = -1;  // sign bit = leaf tag
    } else {
      const auto& tpos = pos[static_cast<std::size_t>(it.tree)];
      if (tpos[static_cast<std::size_t>(nd.left)] !=
          static_cast<std::int32_t>(p) + 1) {
        throw std::logic_error(
            "layout::try_pack: placement broke the implicit-left rule");
      }
      const std::int64_t off =
          static_cast<std::int64_t>(tpos[static_cast<std::size_t>(nd.right)]) -
          static_cast<std::int64_t>(p);
      if (off <= 0 || off > 0x7FFF'FFFFll) {
        throw std::logic_error(
            "layout::try_pack: right child placed before its parent");
      }
      out.right_off = static_cast<std::int32_t>(off);
      out.feature = nd.feature;
      if (nd.is_categorical()) {
        // One engine slot per categorical node: the slot remembers its
        // feature and bitset so per-sample membership precomputes per slot.
        const auto slot = static_cast<std::int64_t>(packed.cat_slot_count());
        const auto set = tree.cat_set(nd.cat_slot);
        packed.cat_offsets.push_back(
            static_cast<std::int32_t>(packed.cat_words.size()));
        packed.cat_sizes.push_back(static_cast<std::int32_t>(set.size()));
        packed.cat_words.insert(packed.cat_words.end(), set.begin(),
                                set.end());
        packed.cat_feature.push_back(nd.feature);
        out.key = static_cast<Key>(slot);
        out.aux |= kC16Categorical;
      } else if (packed.identity_keys) {
        out.key = static_cast<Key>(core::to_radix_key(
            normalize_zero(nd.split)));
      } else {
        // rank_of_split normalizes -0.0 and verifies the exactness
        // precondition (split present at its own rank).
        out.key = static_cast<Key>(rank_of_split(
            tables.features[static_cast<std::size_t>(nd.feature)],
            nd.split));
      }
      if (nd.default_left()) out.aux |= kC16DefaultLeft;
    }
    packed.nodes[p] = out;
  }
  return packed;
}

// ---------------------------------------------------------------------------
// Traversal.
// ---------------------------------------------------------------------------

namespace {

/// Samples advanced in lockstep through one tree by the blocked path: the
/// across-samples dual of the latency path's across-trees interleave.  One
/// serial pointer chase per sample would leave the memory system idle
/// between dependent node fetches; W independent chases overlap in the
/// out-of-order window, each step one compact node load.
constexpr std::size_t kBlockLockstep = 16;

/// Lockstep walk of trees [t0, t1) over `n` lanes of a remapped block,
/// kBlockLockstep lanes in flight at a time; lane l reads its keys (and
/// Special masks) at block row rows[l].  `on_leaf(lane, leaf_key)` fires
/// once per (tree, lane) with the converged leaf's key payload.
template <bool Prefetch, bool Special, typename T, typename Node,
          typename OnLeaf>
void lockstep_walk(const CompactForest<T, Node>& f, std::size_t t0,
                   std::size_t t1, const std::int32_t* rows, std::size_t n,
                   const typename CompactForest<T, Node>::Key* keys,
                   const std::uint8_t* nan_mask, const std::uint8_t* member,
                   OnLeaf&& on_leaf) {
  using Key = typename CompactForest<T, Node>::Key;
  const std::size_t cols = f.feature_count;
  const std::size_t n_slots = f.cat_slot_count();
  const Node* nodes = f.nodes.data();
  for (std::size_t t = t0; t < t1; ++t) {
    const std::int32_t root = f.roots[t];
    for (std::size_t s0 = 0; s0 < n; s0 += kBlockLockstep) {
      const std::size_t g = std::min(kBlockLockstep, n - s0);
      const Key* krow[kBlockLockstep];
      std::size_t row[kBlockLockstep];
      std::int32_t cur[kBlockLockstep];
      for (std::size_t r = 0; r < g; ++r) {
        row[r] = static_cast<std::size_t>(rows[s0 + r]);
        cur[r] = root;
        krow[r] = keys + row[r] * cols;
      }
      // Branch-free lockstep rounds: finished lanes step by 0 on their
      // leaf (leaves read key column 0, a valid index by construction)
      // until the whole group converges — no per-lane liveness branches
      // for the predictor to miss.
      bool any_inner = true;
      while (any_inner) {
        any_inner = false;
        for (std::size_t r = 0; r < g; ++r) {
          const Node& nd = nodes[cur[r]];
          const std::int32_t off = nd.right_off;
          const bool leaf = off < 0;
          bool go;
          if constexpr (Special) {
            const auto fi = static_cast<std::size_t>(nd.feature);
            if (nan_mask[row[r] * cols + fi]) {
              go = node_default_left(nd);
            } else if (node_categorical(nd)) {
              go = member[row[r] * n_slots +
                          static_cast<std::size_t>(nd.key)] != 0;
            } else {
              go = krow[r][fi] <= nd.key;
            }
          } else {
            go = krow[r][static_cast<std::size_t>(nd.feature)] <= nd.key;
          }
          if constexpr (Prefetch) {
            FLINT_PREFETCH(&nodes[cur[r] + (leaf ? 0 : off)]);
          }
          cur[r] += leaf ? 0 : (go ? 1 : off);
          any_inner |= !leaf;
        }
      }
      for (std::size_t r = 0; r < g; ++r) {
        on_leaf(s0 + r, static_cast<std::int32_t>(nodes[cur[r]].key));
      }
    }
  }
}

/// Blocked batch loop shared by the vote and score epilogues: remap each
/// block of samples to narrow keys (and Special masks) once, then hand it
/// to `body(base, block, keys, nan_mask, member)` to walk.
template <bool Special, typename T, typename Node, typename Body>
void for_each_block(const CompactForest<T, Node>& f, std::size_t block_size,
                    const T* features, std::size_t n_samples, Body&& body) {
  using Key = typename CompactForest<T, Node>::Key;
  const std::size_t cols = f.feature_count;
  const std::size_t n_slots = f.cat_slot_count();
  std::vector<Key> keys(block_size * cols);
  // Special side masks, remapped alongside the keys: NaN flags per feature
  // and categorical membership per slot (see CompactForest::special_masks).
  std::vector<std::uint8_t> nan_mask(Special ? block_size * cols : 0);
  std::vector<std::uint8_t> member(
      Special ? std::max<std::size_t>(block_size * n_slots, 1) : 0);
  for (std::size_t base = 0; base < n_samples; base += block_size) {
    const std::size_t block = std::min(block_size, n_samples - base);
    for (std::size_t s = 0; s < block; ++s) {
      f.remap(features + (base + s) * cols, keys.data() + s * cols);
      if constexpr (Special) {
        f.special_masks(features + (base + s) * cols,
                        nan_mask.data() + s * cols,
                        member.data() + s * n_slots);
      }
    }
    body(base, block, keys.data(), nan_mask.data(), member.data());
  }
}

/// Vote epilogue over the blocked traversal, with the exact early exit
/// (vote.hpp): lanes are compacted at every check, since each scalar lane
/// is its own chain.
template <bool Prefetch, bool Special, typename T, typename Node>
void predict_blocked(const CompactForest<T, Node>& f, std::size_t block_size,
                     const T* features, std::size_t n_samples,
                     std::int32_t* out) {
  using Key = typename CompactForest<T, Node>::Key;
  const auto classes = static_cast<std::size_t>(std::max(f.num_classes, 1));
  std::vector<int> votes(block_size * classes);
  std::vector<std::int32_t> sample_of(block_size);
  for_each_block<Special>(
      f, block_size, features, n_samples,
      [&](std::size_t base, std::size_t block, const Key* keys,
          const std::uint8_t* nan_mask, const std::uint8_t* member) {
        std::fill(votes.begin(),
                  votes.begin() + static_cast<std::ptrdiff_t>(block * classes),
                  0);
        vote_with_exit(
            f.roots.size(), classes, block, 0, votes.data(), sample_of.data(),
            out + base,
            [&](std::size_t t0, std::size_t t1, std::size_t live) {
              lockstep_walk<Prefetch, Special>(
                  f, t0, t1, sample_of.data(), live, keys, nan_mask, member,
                  [&](std::size_t lane, std::int32_t key) {
                    ++votes[lane * classes + static_cast<std::size_t>(key)];
                  });
            },
            [](std::size_t, std::size_t) {});
      });
}

/// Interleaved latency path: R trees of ONE sample advance in lockstep, so
/// R independent node fetches are in flight per round instead of one
/// serial pointer chase.  `votes` must hold num_classes zeroed slots.  Past
/// the midpoint, the walk stops after the first group that decides the
/// vote (vote.hpp).
template <bool Prefetch, bool Special, typename T, typename Node>
void predict_one_interleaved(const CompactForest<T, Node>& f,
                             std::size_t interleave,
                             const typename CompactForest<T, Node>::Key* keys,
                             const std::uint8_t* nan_mask,
                             const std::uint8_t* member, int* votes) {
  const Node* nodes = f.nodes.data();
  const std::size_t trees = f.roots.size();
  const auto classes = static_cast<std::size_t>(std::max(f.num_classes, 1));
  const std::size_t R = std::clamp<std::size_t>(interleave, 1, kMaxInterleave);
  std::int32_t cur[kMaxInterleave];
  for (std::size_t t0 = 0; t0 < trees; t0 += R) {
    const std::size_t g = std::min(R, trees - t0);
    for (std::size_t r = 0; r < g; ++r) {
      cur[r] = f.roots[t0 + r];
      FLINT_PREFETCH(&nodes[cur[r]]);
    }
    std::uint32_t alive = (1u << g) - 1u;  // g <= kMaxInterleave = 16
    while (alive) {
      for (std::size_t r = 0; r < g; ++r) {
        if (!(alive & (1u << r))) continue;
        const Node& nd = nodes[cur[r]];
        const std::int32_t off = nd.right_off;
        if (off < 0) {
          ++votes[static_cast<std::int32_t>(nd.key)];
          alive &= ~(1u << r);
          continue;
        }
        bool go;
        if constexpr (Special) {
          const auto fi = static_cast<std::size_t>(nd.feature);
          if (nan_mask[fi]) {
            go = node_default_left(nd);
          } else if (node_categorical(nd)) {
            go = member[static_cast<std::size_t>(nd.key)] != 0;
          } else {
            go = keys[fi] <= nd.key;
          }
        } else {
          go = keys[nd.feature] <= nd.key;
        }
        if constexpr (Prefetch) {
          FLINT_PREFETCH(&nodes[cur[r] + off]);
        }
        const std::int32_t next = cur[r] + (go ? 1 : off);
        FLINT_PREFETCH(&nodes[next]);  // overlaps with the other lanes
        cur[r] = next;
      }
    }
    const std::size_t done = t0 + g;
    if (2 * done >= trees && vote_decided(votes, classes, trees - done)) {
      return;
    }
  }
}

#if defined(FLINT_SIMD_AVX2)
/// AVX2 blocked batch: remap each block into feature-major int32 key tiles
/// of 8 lanes and let vote_tiles drive the vector kernel over them (padded
/// lanes are zero-filled — they traverse to some leaf on well-defined
/// inputs and their votes are ignored).  Works for any scalar T: after the
/// remap the traversal only sees int32 keys and compact nodes.
template <typename T, typename Node>
void predict_blocked_avx2(const CompactForest<T, Node>& f,
                          std::size_t block_size, const T* features,
                          std::size_t n_samples, std::int32_t* out) {
  constexpr std::size_t W = kTileLanes;
  const std::size_t cols = f.feature_count;
  const auto classes = static_cast<std::size_t>(std::max(f.num_classes, 1));
  const std::size_t max_tiles = (block_size + W - 1) / W;
  std::vector<std::int32_t> tiles(max_tiles * cols * W);
  std::vector<int> votes(max_tiles * W * classes);
  std::vector<std::int32_t> sample_of(block_size);
  for (std::size_t base = 0; base < n_samples; base += block_size) {
    const std::size_t block = std::min(block_size, n_samples - base);
    for (std::size_t s = 0; s < block; ++s) {
      f.remap32(features + (base + s) * cols,
                tiles.data() + (s / W) * cols * W + (s % W), W);
    }
    vote_tiles(f.roots.size(), classes, cols, block, tiles.data(),
               votes.data(), sample_of.data(), out + base,
               [&](std::size_t t0, std::size_t t1, std::size_t n_tiles) {
                 predict_tiles_avx2(f.nodes.data(), f.roots.data() + t0,
                                    t1 - t0, tiles.data(), n_tiles, cols,
                                    votes.data(), classes);
               });
  }
}
#endif  // FLINT_SIMD_AVX2

/// Float-accumulate epilogue over the same blocked traversal: each lane's
/// leaf key indexes a leaf-value row added into the sample's score row.
/// The tree loop stays outermost, so every sample accumulates in tree
/// order — the same summation order as the reference per-tree loop
/// (docs/MODEL_FORMATS.md "Numerical contract").  `out` rows are
/// pre-initialized by the caller.
template <bool Prefetch, bool Special, typename T, typename Node>
void score_blocked(const CompactForest<T, Node>& f, std::size_t block_size,
                   const T* features, std::size_t n_samples,
                   const T* leaf_values, std::size_t n_outputs, T* out) {
  using Key = typename CompactForest<T, Node>::Key;
  std::vector<std::int32_t> rows(block_size);
  std::iota(rows.begin(), rows.end(), 0);
  for_each_block<Special>(
      f, block_size, features, n_samples,
      [&](std::size_t base, std::size_t block, const Key* keys,
          const std::uint8_t* nan_mask, const std::uint8_t* member) {
        lockstep_walk<Prefetch, Special>(
            f, 0, f.roots.size(), rows.data(), block, keys, nan_mask, member,
            [&](std::size_t lane, std::int32_t key) {
              const T* lv =
                  leaf_values + static_cast<std::size_t>(key) * n_outputs;
              T* srow = out + (base + lane) * n_outputs;
              for (std::size_t j = 0; j < n_outputs; ++j) srow[j] += lv[j];
            });
      });
}

/// Batches below this take the interleaved path (blocked amortization has
/// nothing to amortize over).
constexpr std::size_t kLatencyPathMaxBatch = 8;

template <typename T, typename Node>
void predict_batch_impl(const CompactForest<T, Node>& f,
                        const LayoutPlan& plan, const T* features,
                        std::size_t n_samples, std::int32_t* out) {
  using Key = typename CompactForest<T, Node>::Key;
  if (n_samples <= kLatencyPathMaxBatch) {
    const std::size_t cols = f.feature_count;
    const auto classes = static_cast<std::size_t>(std::max(f.num_classes, 1));
    std::vector<Key> keys(cols);
    std::vector<int> votes(classes);
    std::vector<std::uint8_t> nan_mask(f.has_special ? cols : 0);
    std::vector<std::uint8_t> member(
        f.has_special ? std::max<std::size_t>(f.cat_slot_count(), 1) : 0);
    for (std::size_t s = 0; s < n_samples; ++s) {
      f.remap(features + s * cols, keys.data());
      std::fill(votes.begin(), votes.end(), 0);
      if (f.has_special) {
        f.special_masks(features + s * cols, nan_mask.data(), member.data());
        if (plan.prefetch_opposite) {
          predict_one_interleaved<true, true>(f, plan.interleave, keys.data(),
                                              nan_mask.data(), member.data(),
                                              votes.data());
        } else {
          predict_one_interleaved<false, true>(f, plan.interleave, keys.data(),
                                               nan_mask.data(), member.data(),
                                               votes.data());
        }
      } else if (plan.prefetch_opposite) {
        predict_one_interleaved<true, false>(f, plan.interleave, keys.data(),
                                             nullptr, nullptr, votes.data());
      } else {
        predict_one_interleaved<false, false>(f, plan.interleave, keys.data(),
                                              nullptr, nullptr, votes.data());
      }
      out[s] = argmax_first(votes.data(), classes);
    }
    return;
  }
  if (f.has_special) {
    // Special forests always take the scalar blocked loop: the AVX2 kernel
    // has no NaN/categorical path.
    if (plan.prefetch_opposite) {
      predict_blocked<true, true>(f, plan.block_size, features, n_samples,
                                  out);
    } else {
      predict_blocked<false, true>(f, plan.block_size, features, n_samples,
                                   out);
    }
    return;
  }
#if defined(FLINT_SIMD_AVX2)
  // FLINT_LAYOUT_FORCE_SCALAR=1 pins the portable lockstep loop — used by
  // the tests to cover the scalar path on hosts that would always take the
  // vector kernel, and as an escape hatch when diagnosing either.  The
  // node-count gate keeps the kernel's int32 BYTE offsets (index << 4)
  // from wrapping on images past 2 GiB — such forests fall back to the
  // scalar loop, whose indices stay element-scaled.
  const char* force_scalar = std::getenv("FLINT_LAYOUT_FORCE_SCALAR");
  const bool image_addressable =
      f.nodes.size() <= static_cast<std::size_t>(
                            std::numeric_limits<std::int32_t>::max()) /
                            sizeof(Node);
  if (!(force_scalar && force_scalar[0] == '1') && image_addressable &&
      layout_avx2_supported()) {
    predict_blocked_avx2(f, plan.block_size, features, n_samples, out);
    return;
  }
#endif
  if (plan.prefetch_opposite) {
    predict_blocked<true, false>(f, plan.block_size, features, n_samples,
                                 out);
  } else {
    predict_blocked<false, false>(f, plan.block_size, features, n_samples,
                                  out);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// LayoutForestEngine.
// ---------------------------------------------------------------------------

template <typename T>
LayoutForestEngine<T>::LayoutForestEngine(const trees::Forest<T>& forest,
                                          const LayoutPlan& plan,
                                          const KeyTableSet<T>& tables)
    : plan_(plan) {
  if (forest.empty()) {
    throw std::invalid_argument("LayoutForestEngine: empty forest");
  }
  plan_.block_size = std::max<std::size_t>(plan_.block_size, 1);
  plan_.interleave = std::clamp<std::size_t>(plan_.interleave, 1,
                                             kMaxInterleave);
  if (plan_.width != NodeWidth::C16) {
    throw std::invalid_argument(
        "LayoutForestEngine: only the 16-byte width is an engine mode");
  }
  std::string why;
  auto packed = try_pack<T, CompactNode16>(forest, plan_, tables, &why);
  if (!packed) {
    throw std::invalid_argument("LayoutForestEngine(c16): " + why);
  }
  hot_nodes_ = packed->hot_nodes;
  packed_ = std::move(*packed);
  num_classes_ = forest.num_classes();
  feature_count_ = forest.feature_count();
  tree_count_ = forest.size();
  node_count_ = forest.total_nodes();
}

template <typename T>
void LayoutForestEngine<T>::bind_packed(CompactForest<T, CompactNode16> packed) {
  if (packed.nodes.empty()) {
    throw std::invalid_argument("LayoutForestEngine: empty packed image");
  }
  plan_.block_size = std::max<std::size_t>(plan_.block_size, 1);
  plan_.interleave =
      std::clamp<std::size_t>(plan_.interleave, 1, kMaxInterleave);
  hot_nodes_ = packed.hot_nodes;
  num_classes_ = packed.num_classes;
  feature_count_ = packed.feature_count;
  tree_count_ = packed.roots.size();
  node_count_ = packed.nodes.size();
  packed_ = std::move(packed);
}

template <typename T>
LayoutForestEngine<T>::LayoutForestEngine(
    CompactForest<T, CompactNode16> packed, const LayoutPlan& plan)
    : plan_(plan) {
  plan_.width = NodeWidth::C16;
  bind_packed(std::move(packed));
}

template <typename T>
void LayoutForestEngine<T>::predict_batch(const T* features,
                                          std::size_t n_samples,
                                          std::int32_t* out) const {
  if (n_samples == 0) return;
  predict_batch_impl(packed_, plan_, features, n_samples, out);
}

template <typename T>
void LayoutForestEngine<T>::predict_scores(const T* features,
                                           std::size_t n_samples,
                                           std::span<const T> leaf_values,
                                           std::size_t n_outputs,
                                           std::span<const T> base,
                                           T* out) const {
  if (n_samples == 0) return;
  if (n_outputs == 0 || leaf_values.size() % n_outputs != 0) {
    throw std::invalid_argument(
        "LayoutForestEngine::predict_scores: leaf_values is not a multiple "
        "of n_outputs");
  }
  if (!base.empty() && base.size() != n_outputs) {
    throw std::invalid_argument(
        "LayoutForestEngine::predict_scores: base size mismatch");
  }
  for (std::size_t s = 0; s < n_samples; ++s) {
    for (std::size_t j = 0; j < n_outputs; ++j) {
      out[s * n_outputs + j] = base.empty() ? T{0} : base[j];
    }
  }
  if (packed_.has_special) {
    if (plan_.prefetch_opposite) {
      score_blocked<true, true>(packed_, plan_.block_size, features, n_samples,
                                leaf_values.data(), n_outputs, out);
    } else {
      score_blocked<false, true>(packed_, plan_.block_size, features,
                                 n_samples, leaf_values.data(), n_outputs,
                                 out);
    }
  } else if (plan_.prefetch_opposite) {
    score_blocked<true, false>(packed_, plan_.block_size, features, n_samples,
                               leaf_values.data(), n_outputs, out);
  } else {
    score_blocked<false, false>(packed_, plan_.block_size, features,
                                n_samples, leaf_values.data(), n_outputs, out);
  }
}

template <typename T>
std::int32_t LayoutForestEngine<T>::predict(std::span<const T> x) const {
  std::int32_t result = -1;
  predict_batch(x.data(), 1, &result);
  return result;
}

template EmissionOrder compute_emission_order<float>(
    const trees::Forest<float>&, std::size_t);
template EmissionOrder compute_emission_order<double>(
    const trees::Forest<double>&, std::size_t);
template struct CompactForest<float, CompactNode16>;
template struct CompactForest<double, CompactNode16>;
template std::optional<CompactForest<float, CompactNode16>>
try_pack<float, CompactNode16>(const trees::Forest<float>&, const LayoutPlan&,
                               const KeyTableSet<float>&, std::string*);
template std::optional<CompactForest<double, CompactNode16>>
try_pack<double, CompactNode16>(const trees::Forest<double>&,
                                const LayoutPlan&, const KeyTableSet<double>&,
                                std::string*);
template class LayoutForestEngine<float>;
template class LayoutForestEngine<double>;

}  // namespace flint::exec::layout
