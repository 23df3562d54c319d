// Placement and the packers of both compact widths: one emission order,
// one node-fill loop, and the per-format encode around it (c16's int32
// fields, q4's geometry sizing and quantized word).
#include "exec/layout/compact.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <stdexcept>

#include "exec/layout/quant4.hpp"
#include "exec/pack_checks.hpp"

namespace flint::exec::layout {

// ---------------------------------------------------------------------------
// Placement: emission order (hot slab + preorder clusters).
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

namespace {

/// Categorical nodes of `forest`: each owns one category slot, stored in
/// its node key, so the count gates the key width.
template <typename T>
std::int64_t categorical_nodes(const trees::Forest<T>& forest) {
  std::int64_t n_cat = 0;
  for (std::size_t t = 0; t < forest.size(); ++t) {
    for (const auto& n : forest.tree(t).nodes()) {
      if (!n.is_leaf() && n.is_categorical()) ++n_cat;
    }
  }
  return n_cat;
}

/// What the fill loop hands a format's encode for one packed position.
struct NodeFill {
  bool leaf = false;
  std::int32_t right_off = 0;  ///< inner: the checked forward offset
  std::uint8_t flags = 0;      ///< kLayoutDefaultLeft | kLayoutCategorical
  std::int32_t slot = 0;       ///< categorical: its category slot
};

/// The node-fill loop both packers share.  It sets the roots and, for each
/// packed position in emission order, checks a leaf's class id, an inner
/// node's implicit left child and its right offset (against the format's
/// `max_offset`), registers a categorical node's bitset as the image's next
/// category slot, and sets the default-left flag; then `encode(p, node,
/// fill)` writes the format's word and returns false to abandon the pack.
template <typename T, typename Encode>
bool fill_nodes(const trees::Forest<T>& forest, const EmissionOrder& eo,
                std::int64_t max_offset, LayoutImage<T>& img,
                Encode&& encode) {
  img.roots.resize(forest.size());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    img.roots[t] = eo.pos[t][0];
  }
  for (std::size_t p = 0; p < eo.order.size(); ++p) {
    const EmissionItem it = eo.order[p];
    const auto& tree = forest.tree(static_cast<std::size_t>(it.tree));
    const auto& nd = tree.node(it.node);
    NodeFill fill;
    if (nd.is_leaf()) {
      check_leaf_class(nd.prediction, img.num_classes,
                       static_cast<std::size_t>(it.tree));
      fill.leaf = true;
    } else {
      const auto& tpos = eo.pos[static_cast<std::size_t>(it.tree)];
      if (tpos[static_cast<std::size_t>(nd.left)] !=
          static_cast<std::int32_t>(p) + 1) {
        throw std::logic_error(
            "layout: placement broke the implicit-left rule");
      }
      const std::int64_t off =
          static_cast<std::int64_t>(tpos[static_cast<std::size_t>(nd.right)]) -
          static_cast<std::int64_t>(p);
      if (off <= 0 || off > max_offset) {
        throw std::logic_error(
            "layout: right child offset escaped the node's offset field");
      }
      fill.right_off = static_cast<std::int32_t>(off);
      if (nd.is_categorical()) {
        const auto set = tree.cat_set(nd.cat_slot);
        fill.slot = static_cast<std::int32_t>(img.cat_slot_count());
        img.cat_offsets.push_back(
            static_cast<std::int32_t>(img.cat_words.size()));
        img.cat_sizes.push_back(static_cast<std::int32_t>(set.size()));
        img.cat_words.insert(img.cat_words.end(), set.begin(), set.end());
        img.cat_feature.push_back(nd.feature);
        fill.flags |= kLayoutCategorical;
      }
      if (nd.default_left()) fill.flags |= kLayoutDefaultLeft;
    }
    if (!encode(p, nd, fill)) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// c16: int32 fields.
// ---------------------------------------------------------------------------

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
  if (packed.has_special && categorical_nodes(forest) > key_max) {
    return fail("categorical slot index does not fit the node key");
  }

  const EmissionOrder eo = compute_emission_order(forest, plan.hot_depth);
  packed.hot_nodes = eo.hot_nodes;
  packed.nodes.resize(eo.order.size());
  fill_nodes(forest, eo, key_max, packed,
             [&](std::size_t p, const trees::Node<T>& nd,
                 const NodeFill& fill) {
               Node& out = packed.nodes[p];
               if (fill.leaf) {
                 out.key = static_cast<Key>(nd.prediction);
                 // Feature 0 (any valid column), not -1: the branchless
                 // lockstep loops read keys[feature] before the leaf test
                 // resolves.
                 out.feature = 0;
                 out.right_off = -1;  // sign bit = leaf tag
                 return true;
               }
               out.right_off = fill.right_off;
               out.feature = nd.feature;
               out.aux = fill.flags;
               if (fill.flags & kLayoutCategorical) {
                 out.key = static_cast<Key>(fill.slot);
               } else if (packed.identity_keys) {
                 out.key = static_cast<Key>(
                     core::to_radix_key(core::normalize_zero(nd.split)));
               } else {
                 // rank_of_split normalizes -0.0 and verifies the exactness
                 // precondition (split present at its own rank).
                 out.key = static_cast<Key>(rank_of_split(
                     tables.features[static_cast<std::size_t>(nd.feature)],
                     nd.split));
               }
               return true;
             });
  return packed;
}

// ---------------------------------------------------------------------------
// q4: geometry from the placement, then the quantized word.
// ---------------------------------------------------------------------------

template <typename T>
std::optional<Q4Forest<T>> try_pack_q4(const trees::Forest<T>& forest,
                                       const LayoutPlan& plan,
                                       const KeyTableSet<T>& tables,
                                       bool force_affine, std::string* why) {
  auto fail = [&](std::string reason) -> std::optional<Q4Forest<T>> {
    if (why) *why = std::move(reason);
    return std::nullopt;
  };

  if (forest.empty()) return fail("empty forest");

  Q4Forest<T> packed;
  packed.num_classes = forest.num_classes();
  packed.feature_count = forest.feature_count();
  packed.has_special = forest.has_special_splits();
  if (tables.features.size() != packed.feature_count) {
    return fail("key table set does not match the forest's feature count");
  }

  // Placement first: the emission order is geometry-independent, and its
  // offset extent is an input to the geometry choice below.
  const EmissionOrder eo = compute_emission_order(forest, plan.hot_depth);

  // Geometry: F covers the feature indices, O covers the measured offset
  // extent, the key keeps the rest (capped at 16 so sample keys stay
  // int16-addressable; at least 8 — the int8 floor — or the model is not
  // packable at 4 bytes).
  const std::size_t fc = std::max<std::size_t>(packed.feature_count, 1);
  const auto F = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::bit_width(fc - 1)));
  const auto O = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::bit_width(
             static_cast<std::uint64_t>(eo.max_right_offset))));
  if (F + O > 31 - 8) {
    return fail("q4 geometry: " + std::to_string(O) + " offset bits + " +
                std::to_string(F) +
                " feature bits leave fewer than 8 key bits");
  }
  Q4Geometry geom;
  geom.feature_bits = F;
  geom.offset_bits = 31 - F - std::min<std::uint32_t>(16, 31 - F - O);
  geom.key_bits = 31 - F - geom.offset_bits;
  packed.geom = geom;
  packed.hot_nodes = eo.hot_nodes;

  const auto key_mask = static_cast<std::int64_t>(geom.key_mask());
  if (static_cast<std::int64_t>(packed.num_classes) - 1 > key_mask) {
    return fail("class id / leaf row does not fit the q4 key bits");
  }
  if (packed.has_special && categorical_nodes(forest) > key_mask) {
    return fail("categorical slot index does not fit the q4 key bits");
  }

  // Quantization plan at the key width the geometry actually provides.
  packed.qplan = quant::plan_from_tables(
      tables, static_cast<int>(geom.key_bits), force_affine);
  packed.tables = tables;

  packed.nodes.resize(eo.order.size());
  if (packed.has_special) packed.flags.assign(eo.order.size(), 0);
  const bool keys_fit = fill_nodes(
      forest, eo, geom.offset_mask(), packed,
      [&](std::size_t p, const trees::Node<T>& nd, const NodeFill& fill) {
        if (packed.has_special) packed.flags[p] = fill.flags;
        if (fill.leaf) {
          packed.nodes[p].word =
              geom.encode_leaf(static_cast<std::uint32_t>(nd.prediction));
          return true;
        }
        std::int64_t k = fill.slot;
        if (!(fill.flags & kLayoutCategorical)) {
          const auto& fq =
              packed.qplan.features[static_cast<std::size_t>(nd.feature)];
          // rank_of_split normalizes -0.0 and verifies the exactness
          // precondition (split present at its own rank).
          k = fq.exact()
                  ? rank_of_split(
                        tables.features[static_cast<std::size_t>(nd.feature)],
                        nd.split)
                  : fq.quantize(static_cast<double>(
                        core::normalize_zero(nd.split))) -
                        fq.q_lo;
          if (k < 0 || k > key_mask) return false;
        }
        packed.nodes[p].word =
            geom.encode(static_cast<std::uint32_t>(k),
                        static_cast<std::uint32_t>(nd.feature),
                        static_cast<std::uint32_t>(fill.right_off));
        return true;
      });
  if (!keys_fit) return fail("quantized threshold escaped the q4 key range");
  return packed;
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
template struct Q4Forest<float>;
template struct Q4Forest<double>;
template std::optional<Q4Forest<float>> try_pack_q4<float>(
    const trees::Forest<float>&, const LayoutPlan&, const KeyTableSet<float>&,
    bool, std::string*);
template std::optional<Q4Forest<double>> try_pack_q4<double>(
    const trees::Forest<double>&, const LayoutPlan&,
    const KeyTableSet<double>&, bool, std::string*);

}  // namespace flint::exec::layout
