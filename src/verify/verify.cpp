#include "verify/verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "exec/artifacts/artifacts.hpp"
#include "exec/interpreter.hpp"
#include "exec/layout/compact.hpp"
#include "exec/layout/plan.hpp"
#include "exec/layout/quant4.hpp"
#include "model/loaders.hpp"

namespace flint::verify {

void Report::add(Diagnostic d) {
  if (diagnostics.size() >= kMaxDiagnostics) {
    ++suppressed;
    return;
  }
  diagnostics.push_back(std::move(d));
}

namespace {

/// Diagnostic emitter bound to one artifact name.
class Sink {
 public:
  Sink(Report& report, std::string artifact)
      : report_(report), artifact_(std::move(artifact)) {}

  void add(std::string check, std::int64_t tree, std::int64_t node,
           std::string message) {
    ++count_;
    report_.add({std::move(check), artifact_, tree, node, std::move(message)});
  }

  [[nodiscard]] bool clean() const noexcept { return count_ == 0; }

 private:
  Report& report_;
  std::string artifact_;
  std::size_t count_ = 0;
};

/// Rank of `split` in its feature's key table IF the exactness round trip
/// holds (the split's radix key present at its own rank); nullopt when the
/// table cannot represent this split — the invariant every narrowed node
/// relies on.
template <typename T>
std::optional<std::int32_t> checked_rank(
    const exec::layout::KeyTable<T>& table, T split) {
  const auto key = core::to_radix_key(core::normalize_zero(split));
  const auto r = table.rank_of_key(key);
  if (static_cast<std::size_t>(r) >= table.size() ||
      table.keys()[static_cast<std::size_t>(r)] != key) {
    return std::nullopt;
  }
  return r;
}

/// True when a categorical bitset can never match any input (no set bit).
bool cat_set_unsatisfiable(std::span<const std::uint32_t> words) {
  for (const auto w : words) {
    if (w != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Model-level checks.
// ---------------------------------------------------------------------------

/// Structural checks over one tree; `payload_limit` bounds leaf payloads
/// (classes for vote models, leaf-value rows for score models).  Returns
/// false when child links are out of range — the reachability walk (and any
/// packing) would be unsafe.
template <typename T>
bool verify_tree_structure(const trees::Tree<T>& tree, std::int64_t t,
                           std::int64_t payload_limit, Sink& s,
                           Report& report) {
  const auto n_nodes = static_cast<std::int64_t>(tree.size());
  bool links_ok = true;
  for (std::int64_t i = 0; i < n_nodes; ++i) {
    const auto& n = tree.node(static_cast<std::int32_t>(i));
    ++report.nodes_checked;
    if ((n.flags & ~(trees::kNodeDefaultLeft | trees::kNodeCategorical)) !=
        0) {
      s.add("tree.flags_known", t, i,
            "unknown flag bits " + std::to_string(n.flags));
    }
    if (n.is_leaf()) {
      if (n.left != trees::kNoChild || n.right != trees::kNoChild) {
        s.add("tree.leaf_links", t, i, "leaf has child links");
        links_ok = false;
      }
      if (n.prediction < 0 || n.prediction >= payload_limit) {
        s.add("tree.leaf_payload", t, i,
              "leaf payload " + std::to_string(n.prediction) +
                  " outside [0, " + std::to_string(payload_limit) + ")");
      }
      if (n.flags != 0) {
        s.add("tree.leaf_flags", t, i,
              "leaf carries routing flags " + std::to_string(n.flags));
      }
      if (n.cat_slot != -1) {
        s.add("tree.cat_slot", t, i, "leaf carries a category slot");
      }
      continue;
    }
    if (n.left == trees::kNoChild || n.right == trees::kNoChild) {
      s.add("tree.inner_children", t, i, "inner node missing a child");
      links_ok = false;
    } else if (n.left < 0 || n.left >= n_nodes || n.right < 0 ||
               n.right >= n_nodes) {
      s.add("tree.child_range", t, i,
            "child link (" + std::to_string(n.left) + ", " +
                std::to_string(n.right) + ") outside [0, " +
                std::to_string(n_nodes) + ")");
      links_ok = false;
    }
    if (n.feature >= static_cast<std::int64_t>(tree.feature_count())) {
      s.add("tree.feature_range", t, i,
            "feature " + std::to_string(n.feature) + " outside [0, " +
                std::to_string(tree.feature_count()) + ")");
    }
    if (n.is_categorical()) {
      if (n.cat_slot < 0 || n.cat_slot >= tree.cat_slot_count()) {
        s.add("tree.cat_slot", t, i,
              "category slot " + std::to_string(n.cat_slot) +
                  " outside [0, " + std::to_string(tree.cat_slot_count()) +
                  ")");
      } else if (cat_set_unsatisfiable(tree.cat_set(n.cat_slot))) {
        s.add("tree.cat_set_empty", t, i,
              "categorical split can never match (empty bitset)");
      }
    } else {
      if (n.cat_slot != -1) {
        s.add("tree.cat_slot", t, i, "numeric node carries a category slot");
      }
      if (std::isnan(n.split)) {
        s.add("tree.split_nan", t, i,
              "numeric split is NaN (no integer rank; breaks narrowing and "
              "missing-value routing)");
      }
    }
  }
  if (!links_ok) return false;

  // Reachability / single-visit walk from the root (node 0).
  std::vector<std::uint8_t> seen(tree.size(), 0);
  std::vector<std::int32_t> stack{0};
  bool cycle = false;
  while (!stack.empty() && !cycle) {
    const std::int32_t i = stack.back();
    stack.pop_back();
    if (seen[static_cast<std::size_t>(i)]) {
      s.add("tree.cycle", t, i,
            "node reached twice (cycle or shared subtree)");
      cycle = true;
      break;
    }
    seen[static_cast<std::size_t>(i)] = 1;
    const auto& n = tree.node(i);
    if (!n.is_leaf()) {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  if (!cycle) {
    for (std::int64_t i = 0; i < n_nodes; ++i) {
      if (!seen[static_cast<std::size_t>(i)]) {
        s.add("tree.unreachable", t, i, "node not reachable from the root");
        break;  // one per tree: the rest of the orphan cluster follows it
      }
    }
  }
  return !cycle;
}

template <typename T>
void verify_model_semantics(const model::ForestModel<T>& m, Sink& s) {
  using model::AggregationMode;
  using model::LeafKind;
  using model::Link;
  const bool kind_known = m.leaf_kind == LeafKind::ClassId ||
                          m.leaf_kind == LeafKind::ScoreVector ||
                          m.leaf_kind == LeafKind::Scalar;
  const bool mode_known = m.aggregation.mode == AggregationMode::ArgmaxVotes ||
                          m.aggregation.mode == AggregationMode::SumScores;
  const bool link_known = m.aggregation.link == Link::None ||
                          m.aggregation.link == Link::Sigmoid ||
                          m.aggregation.link == Link::Softmax;
  if (!kind_known || !mode_known || !link_known) {
    s.add("model.aggregation", -1, -1,
          "leaf kind / aggregation mode / link enum value out of range");
    return;
  }
  if (m.zero_as_missing && !m.handles_missing) {
    s.add("model.missing", -1, -1,
          "zero_as_missing implies handles_missing");
  }
  if (m.leaf_kind == LeafKind::ClassId) {
    if (m.n_outputs != 0 || !m.leaf_values.empty()) {
      s.add("model.outputs", -1, -1,
            "vote model carries score outputs / leaf values");
    }
    if (m.aggregation.mode != AggregationMode::ArgmaxVotes ||
        m.aggregation.link != Link::None) {
      s.add("model.aggregation", -1, -1,
            "vote leaves require argmax aggregation with no link");
    }
    if (!m.aggregation.base_score.empty()) {
      s.add("model.base_score", -1, -1, "vote model carries a base score");
    }
    if (m.forest.num_classes() < 1) {
      s.add("forest.num_classes", -1, -1,
            "vote forest declares " + std::to_string(m.forest.num_classes()) +
                " classes");
    }
    return;
  }
  // Score kinds (ScoreVector / Scalar).
  if (m.aggregation.mode != AggregationMode::SumScores) {
    s.add("model.aggregation", -1, -1,
          "score leaves require sum aggregation");
  }
  if (m.n_outputs < 1 ||
      (m.leaf_kind == LeafKind::Scalar && m.n_outputs != 1)) {
    s.add("model.outputs", -1, -1,
          "score model declares " + std::to_string(m.n_outputs) +
              " outputs");
    return;  // row/shape arithmetic below needs a sane k
  }
  const auto k = static_cast<std::size_t>(m.n_outputs);
  if (m.leaf_values.empty() || m.leaf_values.size() % k != 0) {
    s.add("model.leaf_values_shape", -1, -1,
          "leaf_values size " + std::to_string(m.leaf_values.size()) +
              " is not a positive multiple of " + std::to_string(k));
    return;
  }
  const auto rows = static_cast<std::int64_t>(m.leaf_values.size() / k);
  if (static_cast<std::int64_t>(m.forest.num_classes()) != rows) {
    // The structural class count doubles as the payload-range gate every
    // engine applies; for score kinds it must equal the row count.
    s.add("forest.num_classes", -1, -1,
          "structural num_classes " + std::to_string(m.forest.num_classes()) +
              " != " + std::to_string(rows) + " leaf-value rows");
  }
  if (!m.aggregation.base_score.empty() &&
      m.aggregation.base_score.size() != k) {
    s.add("model.base_score", -1, -1,
          "base_score has " + std::to_string(m.aggregation.base_score.size()) +
              " entries, expected 0 or " + std::to_string(k));
  }
  for (std::size_t i = 0; i < m.leaf_values.size(); ++i) {
    if (!std::isfinite(static_cast<double>(m.leaf_values[i]))) {
      s.add("model.leaf_values_finite", -1, static_cast<std::int64_t>(i / k),
            "non-finite leaf value at row " + std::to_string(i / k) +
                " output " + std::to_string(i % k));
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-artifact checks.
// ---------------------------------------------------------------------------

/// PackedNode image (the Encoded interpreter): index-aligned with the
/// source forest, absolute child links, per-node EncodedThreshold payloads.
template <typename T>
void verify_packed_nodes(const trees::Forest<T>& forest,
                         const exec::FlintForestEngine<T>& engine,
                         Report& report) {
  Sink s(report, "packed");
  const auto nodes = engine.nodes();
  const auto roots = engine.roots();
  if (roots.size() != forest.size() ||
      nodes.size() != forest.total_nodes() ||
      engine.has_special() != forest.has_special_splits()) {
    s.add("packed.shape", -1, -1,
          "packed image shape does not match the source forest");
    return;
  }
  std::size_t base = 0;
  std::size_t slot_base = 0;
  for (std::size_t t = 0; t < forest.size(); ++t) {
    const auto& tree = forest.tree(t);
    const auto ti = static_cast<std::int64_t>(t);
    if (roots[t] != base) {
      s.add("packed.root_range", ti, -1,
            "root at " + std::to_string(roots[t]) + ", expected " +
                std::to_string(base));
      return;  // alignment lost; every comparison below would misfire
    }
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const auto& n = tree.node(static_cast<std::int32_t>(i));
      const auto& p = nodes[base + i];
      const auto ni = static_cast<std::int64_t>(base + i);
      ++report.nodes_checked;
      if (p.feature != static_cast<std::int16_t>(n.feature)) {
        s.add("packed.structure", ti, ni, "feature index diverged");
        continue;
      }
      if (n.is_leaf()) {
        if (p.payload !=
                static_cast<typename core::FloatTraits<T>::Signed>(
                    n.prediction) ||
            p.left != -1 || p.right != -1 || p.flags != 0) {
          s.add("packed.leaf", ti, ni,
                "leaf payload/links diverged from the source leaf");
        }
        continue;
      }
      const auto want_left =
          n.left + static_cast<std::int32_t>(base);
      const auto want_right =
          n.right + static_cast<std::int32_t>(base);
      if (p.left != want_left || p.right != want_right) {
        s.add("packed.structure", ti, ni, "child links diverged");
      }
      const bool p_default_left = (p.flags & exec::kPackedDefaultLeft) != 0;
      const bool p_categorical = (p.flags & exec::kPackedCategorical) != 0;
      if (p_default_left != n.default_left() ||
          p_categorical != n.is_categorical()) {
        s.add("packed.structure", ti, ni, "routing flags diverged");
        continue;
      }
      if (n.is_categorical()) {
        const auto slot = static_cast<std::size_t>(p.payload);
        const auto want_slot =
            slot_base + static_cast<std::size_t>(n.cat_slot);
        if (p.payload < 0 || slot >= engine.cat_slot_count() ||
            slot != want_slot) {
          s.add("packed.cat", ti, ni,
                "category slot " + std::to_string(p.payload) +
                    ", expected " + std::to_string(want_slot));
          continue;
        }
        const auto got = engine.cat_set_of_slot(slot);
        const auto want = tree.cat_set(n.cat_slot);
        if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
          s.add("packed.cat", ti, ni, "category bitset diverged");
        }
        continue;
      }
      const auto enc = core::encode_threshold_le(n.split);
      const bool want_flip = enc.mode == core::ThresholdMode::SignFlip;
      const bool got_flip = (p.flags & exec::kPackedSignFlip) != 0;
      if (p.payload != enc.immediate || got_flip != want_flip) {
        s.add("packed.threshold", ti, ni,
              "encoded threshold diverged from encode_threshold_le of the "
              "source split");
      }
    }
    base += tree.size();
    slot_base += static_cast<std::size_t>(tree.cat_slot_count());
  }
}

/// The key a numeric inner node must carry (nullopt when the key table
/// cannot represent its split), and the diagnostic when it does not.
struct KeyWant {
  std::optional<std::int64_t> key;
  const char* mismatch;
};

/// c16: the split's radix key (float) or its exact rank.
template <typename T>
KeyWant expected_key(
    const exec::layout::CompactForest<T, exec::layout::CompactNode16>& f,
    const exec::layout::KeyTableSet<T>& tables, const trees::Node<T>& n) {
  KeyWant want{std::nullopt,
               "narrowed key does not reproduce the source threshold exactly"};
  if (f.identity_keys) {
    want.key = core::to_radix_key(core::normalize_zero(n.split));
  } else if (static_cast<std::size_t>(n.feature) < tables.features.size()) {
    want.key = checked_rank(
        tables.features[static_cast<std::size_t>(n.feature)], n.split);
  }
  return want;
}

/// q4: the node's plan contract — the exact source rank for exact
/// features, the affine map of the source threshold otherwise.
template <typename T>
KeyWant expected_key(const exec::layout::Q4Forest<T>& f,
                     const exec::layout::KeyTableSet<T>& tables,
                     const trees::Node<T>& n) {
  const auto& fq = f.qplan.features[static_cast<std::size_t>(n.feature)];
  if (!fq.exact()) {
    return {fq.quantize(static_cast<double>(core::normalize_zero(n.split))) -
                fq.q_lo,
            "quantized key does not reproduce the plan's affine map of the "
            "source threshold"};
  }
  KeyWant want{std::nullopt,
               "quantized key does not reproduce the source threshold's rank "
               "exactly"};
  if (static_cast<std::size_t>(n.feature) < tables.features.size()) {
    want.key = checked_rank(
        tables.features[static_cast<std::size_t>(n.feature)], n.split);
  }
  return want;
}

/// Header checks only a format's own fields need; false stops the walk.
/// The c16 header has none.
template <typename T>
bool header_checks(
    const trees::Forest<T>&,
    const exec::layout::CompactForest<T, exec::layout::CompactNode16>&,
    Sink&) {
  return true;
}

/// q4: the geometry bits must sum to the 31-bit budget, the quantization
/// plan must cover the forest at the packed key width with monotone maps (a
/// negative scale would invert every comparison), and the flags sidecar
/// must exist exactly for special forests.
template <typename T>
bool header_checks(const trees::Forest<T>& forest,
                   const exec::layout::Q4Forest<T>& f, Sink& s) {
  const exec::layout::Q4Geometry g = f.geom;
  if (g.key_bits + g.feature_bits + g.offset_bits != 31 || g.key_bits < 8 ||
      g.key_bits > 16 || g.feature_bits < 1 || g.offset_bits < 1) {
    s.add("q4.geometry", -1, -1,
          "bit split " + std::to_string(g.key_bits) + "+" +
              std::to_string(g.feature_bits) + "+" +
              std::to_string(g.offset_bits) +
              " violates the [leaf:1|off|feat|key] budget");
    return false;
  }
  if (f.qplan.bits != static_cast<int>(g.key_bits) ||
      f.qplan.features.size() != forest.feature_count()) {
    s.add("q4.plan", -1, -1,
          "quantization plan does not cover the forest at the packed key "
          "width");
    return false;
  }
  for (std::size_t fi = 0; fi < f.qplan.features.size(); ++fi) {
    const auto& fq = f.qplan.features[fi];
    if (!fq.exact() && !(fq.scale >= 0.0)) {
      s.add("q4.plan", -1, static_cast<std::int64_t>(fi),
            "affine scale is negative or NaN — the quantized order would "
            "invert");
    }
  }
  const bool flags_ok = f.has_special ? f.flags.size() == f.nodes.size()
                                      : f.flags.empty();
  if (!flags_ok) {
    s.add("q4.structure", -1, -1,
          "flags sidecar size does not match the special-split state");
    return false;
  }
  return true;
}

/// Lockstep walk of one compact image (c16 or q4) against the source
/// forest: pairs (source node, packed node) from each root through the
/// image's own node decode, enforcing the implicit-left rule, the sign-bit
/// leaf tag, the keys (expected_key), the flags, the category slots and
/// full single-visit coverage of the packed array.  Check ids are
/// `<prefix>.<check>`; `artifact` names the image in the report.
template <typename Image>
void verify_image(const trees::Forest<typename Image::Scalar>& forest,
                  const Image& f,
                  const exec::layout::KeyTableSet<typename Image::Scalar>&
                      tables,
                  const std::string& artifact, const std::string& prefix,
                  Report& report) {
  Sink s(report, artifact);
  const auto id = [&](const char* check) { return prefix + "." + check; };
  const auto size = static_cast<std::int64_t>(f.nodes.size());
  if (f.roots.size() != forest.size() ||
      f.nodes.size() != forest.total_nodes() ||
      f.num_classes != forest.num_classes() ||
      f.feature_count != forest.feature_count() ||
      f.has_special != forest.has_special_splits()) {
    s.add(id("roots"), -1, -1, "packed shape does not match the source forest");
    return;
  }
  if (!header_checks(forest, f, s)) return;
  if (f.hot_nodes > f.nodes.size()) {
    s.add(id("hot"), -1, -1,
          "hot slab larger than the node array (" +
              std::to_string(f.hot_nodes) + " > " +
              std::to_string(f.nodes.size()) + ")");
  }
  if (f.cat_offsets.size() != f.cat_sizes.size() ||
      f.cat_offsets.size() != f.cat_feature.size()) {
    s.add(id("cat"), -1, -1, "category slot tables ragged");
    return;
  }
  const auto nodes = f.view();
  std::vector<std::uint8_t> seen(f.nodes.size(), 0);
  std::vector<std::pair<std::int32_t, std::int64_t>> stack;
  for (std::size_t t = 0; t < forest.size(); ++t) {
    const auto& tree = forest.tree(t);
    const auto ti = static_cast<std::int64_t>(t);
    if (f.roots[t] < 0 || f.roots[t] >= size) {
      s.add(id("roots"), ti, -1,
            "root " + std::to_string(f.roots[t]) + " outside [0, " +
                std::to_string(size) + ")");
      continue;
    }
    stack.assign(1, {0, f.roots[t]});
    while (!stack.empty()) {
      const auto [i, p] = stack.back();
      stack.pop_back();
      if (p < 0 || p >= size) {
        s.add(id("offset"), ti, p, "node index outside the array");
        continue;
      }
      if (seen[static_cast<std::size_t>(p)]) {
        s.add(id("structure"), ti, p,
              "packed node reached twice (placement overlap)");
        continue;
      }
      seen[static_cast<std::size_t>(p)] = 1;
      ++report.nodes_checked;
      const auto& n = tree.node(i);
      const auto pn = nodes.at(static_cast<std::int32_t>(p));
      const std::uint8_t fl = f.node_flags(static_cast<std::size_t>(p));
      const auto feature = static_cast<std::int64_t>(pn.feature);
      if (n.is_leaf()) {
        if (!pn.leaf) {
          s.add(id("leaf"), ti, p,
                "source leaf packed without the sign-bit leaf tag");
          continue;
        }
        if (static_cast<std::int64_t>(pn.key) != n.prediction ||
            feature != 0 || pn.off > 0 || fl != 0) {
          s.add(id("leaf"), ti, p,
                "leaf payload/feature/offset/flags diverged from the source "
                "leaf");
        }
        continue;
      }
      if (pn.leaf) {
        s.add(id("offset"), ti, p,
              "source inner node packed with the leaf tag set");
        continue;
      }
      const auto roff = static_cast<std::int64_t>(pn.off);
      const std::int64_t left = p + 1;
      const std::int64_t right = p + roff;
      if (roff <= 0 || left >= size || right >= size) {
        s.add(id("offset"), ti, p,
              "child offsets (+1, +" + std::to_string(roff) +
                  ") leave the array of " + std::to_string(size) + " nodes");
        continue;
      }
      if (feature != n.feature ||
          ((fl & exec::layout::kLayoutDefaultLeft) != 0) != n.default_left() ||
          ((fl & exec::layout::kLayoutCategorical) != 0) !=
              n.is_categorical()) {
        s.add(id("structure"), ti, p,
              "feature/flags diverged from the source node");
      }
      if (n.is_categorical()) {
        const auto slot = static_cast<std::int64_t>(pn.key);
        if (slot < 0 ||
            slot >= static_cast<std::int64_t>(f.cat_slot_count())) {
          s.add(id("cat"), ti, p,
                "category slot " + std::to_string(slot) + " outside [0, " +
                    std::to_string(f.cat_slot_count()) + ")");
        } else {
          const auto us = static_cast<std::size_t>(slot);
          const auto off = f.cat_offsets[us];
          const auto sz = f.cat_sizes[us];
          const auto want = tree.cat_set(n.cat_slot);
          if (f.cat_feature[us] != n.feature || off < 0 || sz < 0 ||
              static_cast<std::size_t>(off) + static_cast<std::size_t>(sz) >
                  f.cat_words.size() ||
              static_cast<std::size_t>(sz) != want.size() ||
              !std::equal(want.begin(), want.end(),
                          f.cat_words.begin() + off)) {
            s.add(id("cat"), ti, p,
                  "category slot " + std::to_string(slot) +
                      " feature/bitset diverged");
          }
        }
      } else {
        const KeyWant want = expected_key(f, tables, n);
        if (!want.key || static_cast<std::int64_t>(pn.key) != *want.key) {
          s.add(id("key"), ti, p, want.mismatch);
        }
      }
      stack.push_back({n.right, right});
      stack.push_back({n.left, left});
    }
  }
  std::size_t visited = 0;
  for (const auto v : seen) visited += v;
  if (visited != f.nodes.size()) {
    s.add(id("orphan"), -1, -1,
          std::to_string(f.nodes.size() - visited) +
              " packed nodes unreachable from every root");
  }
}

}  // namespace

template <typename T>
void verify_tables(const trees::Forest<T>& forest,
                   const exec::layout::KeyTableSet<T>& tables,
                   Report& report) {
  Sink s(report, "tables");
  if (tables.features.size() != forest.feature_count()) {
    s.add("tables.shape", -1, -1,
          "key table count " + std::to_string(tables.features.size()) +
              " != feature count " +
              std::to_string(forest.feature_count()));
    return;
  }
  for (std::size_t fi = 0; fi < tables.features.size(); ++fi) {
    const auto keys = tables.features[fi].keys();
    for (std::size_t i = 1; i < keys.size(); ++i) {
      if (keys[i - 1] >= keys[i]) {
        s.add("tables.monotone", -1, static_cast<std::int64_t>(i),
              "feature " + std::to_string(fi) +
                  " rank table not strictly ascending at index " +
                  std::to_string(i));
        break;
      }
    }
  }
  for (std::size_t t = 0; t < forest.size(); ++t) {
    const auto& tree = forest.tree(t);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const auto& n = tree.node(static_cast<std::int32_t>(i));
      if (n.is_leaf() || n.is_categorical()) continue;
      if (static_cast<std::size_t>(n.feature) >= tables.features.size()) {
        continue;  // tree.feature_range owns this violation
      }
      if (!checked_rank(
              tables.features[static_cast<std::size_t>(n.feature)],
              n.split)) {
        s.add("tables.exact", static_cast<std::int64_t>(t),
              static_cast<std::int64_t>(i),
              "split does not round-trip through its rank (table built "
              "from a different forest?)");
      }
    }
  }
}

template <typename T>
Report verify_model_only(const model::ForestModel<T>& m) {
  Report report;
  report.artifacts_checked.push_back("model");
  Sink s(report, "model");
  verify_model_semantics(m, s);
  if (m.forest.empty()) {
    s.add("forest.empty", -1, -1, "forest has no trees");
    return report;
  }
  if (m.forest.feature_count() > trees::kMaxFeatureCount) {
    // Checked before any packed artifact is built: engines and key tables
    // size O(features) allocations from this count, so an absurd declared
    // width is an allocation bomb, not just an execution error.
    s.add("model.features", -1, -1,
          "feature count " + std::to_string(m.forest.feature_count()) +
              " exceeds the engine limit of " +
              std::to_string(trees::kMaxFeatureCount));
    return report;
  }
  const std::int64_t payload_limit = m.forest.num_classes();
  for (std::size_t t = 0; t < m.forest.size(); ++t) {
    const auto& tree = m.forest.tree(t);
    if (tree.empty()) {
      s.add("forest.empty", static_cast<std::int64_t>(t), -1,
            "tree has no nodes");
      continue;
    }
    verify_tree_structure(tree, static_cast<std::int64_t>(t), payload_limit,
                          s, report);
  }
  return report;
}

template <typename T>
Report verify_model(const model::ForestModel<T>& m) {
  Report report = verify_model_only(m);
  if (!report.ok()) {
    // Packed constructors assume a structurally valid forest; building them
    // from a corrupt one would throw (or worse) instead of diagnosing.
    return report;
  }
  const auto& forest = m.forest;
  try {
    // One artifact build feeds every packed check below — verify_model
    // inspects exactly the images the engines and the code generator bind,
    // not freshly packed lookalikes.
    exec::artifacts::ExecArtifacts<T> art(forest);
    verify_tables(forest, art.tables(), report);
    report.artifacts_checked.push_back("tables");
    if (!report.ok()) return report;

    verify_packed_nodes(forest, art.packed_engine(), report);
    report.artifacts_checked.push_back("packed");

    for (const std::size_t hot_depth : {std::size_t{0}, std::size_t{4}}) {
      const auto check = [&](const auto* image, const std::string& artifact,
                             const std::string& prefix) {
        if (image == nullptr) return;
        verify_image(forest, *image, art.tables(), artifact, prefix, report);
        if (hot_depth == 0 && image->hot_nodes != 0) {
          report.add({prefix + ".hot", artifact, -1, -1,
                      "pure-DFS plan produced a hot slab"});
        }
        if (hot_depth == 0) report.artifacts_checked.push_back(artifact);
      };
      check(art.try_compact16_at(hot_depth), "c16", "compact");
      check(art.try_q4_at(hot_depth), "q4", "q4");
    }
  } catch (const std::exception& e) {
    report.add({"pack.exception", "pack", -1, -1, e.what()});
  }
  return report;
}

Report verify_file(const std::string& path) {
  try {
    const auto model = model::load_external_model<float>(path);
    return verify_model(model);
  } catch (const std::exception& e) {
    Report report;
    report.artifacts_checked.push_back("file");
    report.add({"parse.load", "file", -1, -1, e.what()});
    return report;
  }
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

void write_human(std::ostream& out, const Report& report) {
  for (const auto& d : report.diagnostics) {
    out << d.check << " [" << d.artifact << "]";
    if (d.tree >= 0) out << " tree " << d.tree;
    if (d.node >= 0) out << " node " << d.node;
    out << ": " << d.message << "\n";
  }
  if (report.suppressed > 0) {
    out << "... " << report.suppressed << " further diagnostics suppressed\n";
  }
  if (report.ok()) {
    out << "PASS: " << report.nodes_checked << " node checks across ";
    for (std::size_t i = 0; i < report.artifacts_checked.size(); ++i) {
      out << (i ? ", " : "") << report.artifacts_checked[i];
    }
    out << "\n";
  } else {
    out << "FAIL: " << (report.diagnostics.size() + report.suppressed)
        << " invariant violations\n";
  }
}

namespace {

void json_escape(std::ostream& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

std::string to_json(const Report& report) {
  std::ostringstream out;
  out << "{\"ok\": " << (report.ok() ? "true" : "false")
      << ", \"nodes_checked\": " << report.nodes_checked
      << ", \"suppressed\": " << report.suppressed
      << ", \"artifacts_checked\": [";
  for (std::size_t i = 0; i < report.artifacts_checked.size(); ++i) {
    if (i) out << ", ";
    out << '"';
    json_escape(out, report.artifacts_checked[i]);
    out << '"';
  }
  out << "], \"diagnostics\": [";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const auto& d = report.diagnostics[i];
    if (i) out << ", ";
    out << "{\"check\": \"";
    json_escape(out, d.check);
    out << "\", \"artifact\": \"";
    json_escape(out, d.artifact);
    out << "\", \"tree\": " << d.tree << ", \"node\": " << d.node
        << ", \"message\": \"";
    json_escape(out, d.message);
    out << "\"}";
  }
  out << "]}";
  return out.str();
}

template Report verify_model<float>(const model::ForestModel<float>&);
template Report verify_model<double>(const model::ForestModel<double>&);
template Report verify_model_only<float>(const model::ForestModel<float>&);
template Report verify_model_only<double>(const model::ForestModel<double>&);
template void verify_tables<float>(const trees::Forest<float>&,
                                   const exec::layout::KeyTableSet<float>&,
                                   Report&);
template void verify_tables<double>(const trees::Forest<double>&,
                                    const exec::layout::KeyTableSet<double>&,
                                    Report&);

}  // namespace flint::verify
