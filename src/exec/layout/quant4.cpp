#include "exec/layout/quant4.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
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
// Packing: shared placement pass, then geometry, then validated encode.
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
  const std::size_t total = forest.total_nodes();

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
  if (packed.has_special) {
    std::int64_t n_cat = 0;
    for (std::size_t t = 0; t < forest.size(); ++t) {
      for (const auto& n : forest.tree(t).nodes()) {
        if (!n.is_leaf() && n.is_categorical()) ++n_cat;
      }
    }
    if (n_cat > key_mask) {
      return fail("categorical slot index does not fit the q4 key bits");
    }
  }

  // Quantization plan at the key width the geometry actually provides.
  packed.qplan = quant::plan_from_tables(
      tables, static_cast<int>(geom.key_bits), force_affine);
  packed.tables = tables;

  // Encode, node by node, validating every field as it is written.
  packed.nodes.resize(total);
  packed.roots.resize(forest.size());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    packed.roots[t] = eo.pos[t][0];
  }
  if (packed.has_special) packed.flags.assign(total, 0);
  for (std::size_t p = 0; p < total; ++p) {
    const EmissionItem it = eo.order[p];
    const auto& tree = forest.tree(static_cast<std::size_t>(it.tree));
    const auto& nd = tree.node(it.node);
    if (nd.is_leaf()) {
      check_leaf_class(nd.prediction, packed.num_classes,
                       static_cast<std::size_t>(it.tree));
      packed.nodes[p].word =
          geom.encode_leaf(static_cast<std::uint32_t>(nd.prediction));
      continue;
    }
    const auto& tpos = eo.pos[static_cast<std::size_t>(it.tree)];
    const std::int64_t off =
        static_cast<std::int64_t>(tpos[static_cast<std::size_t>(nd.right)]) -
        static_cast<std::int64_t>(p);
    if (off <= 0 || off > static_cast<std::int64_t>(geom.offset_mask())) {
      // compute_emission_order bounded the extent the geometry was sized
      // from; an overflow here is a packer bug, not a model property.
      throw std::logic_error("layout::try_pack_q4: offset escaped geometry");
    }
    std::uint32_t key = 0;
    if (nd.is_categorical()) {
      const auto slot = static_cast<std::int64_t>(packed.cat_slot_count());
      const auto set = tree.cat_set(nd.cat_slot);
      packed.cat_offsets.push_back(
          static_cast<std::int32_t>(packed.cat_words.size()));
      packed.cat_sizes.push_back(static_cast<std::int32_t>(set.size()));
      packed.cat_words.insert(packed.cat_words.end(), set.begin(), set.end());
      packed.cat_feature.push_back(nd.feature);
      key = static_cast<std::uint32_t>(slot);
      packed.flags[p] |= kQ4Categorical;
    } else {
      const auto& fq =
          packed.qplan.features[static_cast<std::size_t>(nd.feature)];
      std::int64_t k;
      if (fq.exact()) {
        // rank_of_split normalizes -0.0 and verifies the exactness
        // precondition (split present at its own rank).
        k = rank_of_split(
            tables.features[static_cast<std::size_t>(nd.feature)], nd.split);
      } else {
        k = fq.quantize(static_cast<double>(normalize_zero(nd.split))) -
            fq.q_lo;
      }
      if (k < 0 || k > key_mask) {
        return fail("quantized threshold escaped the q4 key range");
      }
      key = static_cast<std::uint32_t>(k);
    }
    packed.nodes[p].word =
        geom.encode(key, static_cast<std::uint32_t>(nd.feature),
                    static_cast<std::uint32_t>(off));
    if (nd.default_left()) packed.flags[p] |= kQ4DefaultLeft;
  }
  return packed;
}

// ---------------------------------------------------------------------------
// Traversal over the batch-boundary quantized column block.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kQ4BlockLockstep = 16;
constexpr std::size_t kQ4LatencyMaxBatch = 8;

/// Lockstep walk of trees [t0, t1) over `n` lanes of pre-quantized keys:
/// the q4 counterpart of compact.cpp's lockstep_walk, minus the per-block
/// remap — keys were quantized once for the whole batch by the caller.
/// Lane l reads its keys (and Special masks) at row rows[l] of `qkeys`, a
/// column block of cols_a keys a row; `on_leaf(lane, payload)` fires once
/// per (tree, lane).
template <bool Prefetch, bool Special, typename KeyT, typename T,
          typename OnLeaf>
void q4_lockstep_walk(const Q4Forest<T>& f, std::size_t t0, std::size_t t1,
                      const std::int32_t* rows, std::size_t n,
                      const KeyT* qkeys, const std::uint8_t* nan_mask,
                      const std::uint8_t* member, std::size_t cols_a,
                      std::size_t slots_a, OnLeaf&& on_leaf) {
  const Q4Geometry g = f.geom;
  const CompactNode4* nodes = f.nodes.data();
  const std::uint8_t* flags = f.flags.data();
  for (std::size_t t = t0; t < t1; ++t) {
    const std::int32_t root = f.roots[t];
    for (std::size_t s0 = 0; s0 < n; s0 += kQ4BlockLockstep) {
      const std::size_t gsz = std::min(kQ4BlockLockstep, n - s0);
      const KeyT* krow[kQ4BlockLockstep];
      std::size_t row[kQ4BlockLockstep];
      std::int32_t cur[kQ4BlockLockstep];
      for (std::size_t r = 0; r < gsz; ++r) {
        row[r] = static_cast<std::size_t>(rows[s0 + r]);
        cur[r] = root;
        krow[r] = qkeys + row[r] * cols_a;
      }
      bool any_inner = true;
      while (any_inner) {
        any_inner = false;
        for (std::size_t r = 0; r < gsz; ++r) {
          const std::uint32_t w = nodes[cur[r]].word;
          const bool leaf = (w & kQ4LeafBit) != 0;
          const auto key = g.key_of(w);
          const auto fi = static_cast<std::size_t>(g.feature_of(w));
          const auto off = static_cast<std::int32_t>(g.offset_of(w));
          bool go;
          if constexpr (Special) {
            const std::uint8_t fl = flags[cur[r]];
            if (nan_mask[row[r] * cols_a + fi]) {
              go = (fl & kQ4DefaultLeft) != 0;
            } else if (fl & kQ4Categorical) {
              go = member[row[r] * slots_a + static_cast<std::size_t>(key)] !=
                   0;
            } else {
              go = static_cast<std::uint32_t>(krow[r][fi]) <= key;
            }
          } else {
            go = static_cast<std::uint32_t>(krow[r][fi]) <= key;
          }
          if constexpr (Prefetch) {
            FLINT_PREFETCH(&nodes[cur[r] + (leaf ? 0 : off)]);
          }
          cur[r] += leaf ? 0 : (go ? 1 : off);
          any_inner |= !leaf;
        }
      }
      for (std::size_t r = 0; r < gsz; ++r) {
        on_leaf(s0 + r,
                static_cast<std::int32_t>(g.key_of(nodes[cur[r]].word)));
      }
    }
  }
}

/// Vote epilogue over the blocked traversal, with the exact early exit
/// (vote.hpp): lanes are compacted at every check, since each scalar lane
/// is its own chain.
template <bool Prefetch, bool Special, typename KeyT, typename T>
void q4_predict_blocked(const Q4Forest<T>& f, std::size_t block_size,
                        const KeyT* qkeys, const std::uint8_t* nan_mask,
                        const std::uint8_t* member, std::size_t cols_a,
                        std::size_t slots_a, std::size_t n_samples,
                        std::int32_t* out) {
  const auto classes = static_cast<std::size_t>(std::max(f.num_classes, 1));
  std::vector<int> votes(block_size * classes);
  std::vector<std::int32_t> sample_of(block_size);
  for (std::size_t base = 0; base < n_samples; base += block_size) {
    const std::size_t block = std::min(block_size, n_samples - base);
    const KeyT* bkeys = qkeys + base * cols_a;
    const std::uint8_t* bnan = Special ? nan_mask + base * cols_a : nullptr;
    const std::uint8_t* bmember = Special ? member + base * slots_a : nullptr;
    std::fill(votes.begin(),
              votes.begin() + static_cast<std::ptrdiff_t>(block * classes), 0);
    vote_with_exit(
        f.roots.size(), classes, block, 0, votes.data(), sample_of.data(),
        out + base,
        [&](std::size_t t0, std::size_t t1, std::size_t live) {
          q4_lockstep_walk<Prefetch, Special>(
              f, t0, t1, sample_of.data(), live, bkeys, bnan, bmember, cols_a,
              slots_a, [&](std::size_t lane, std::int32_t key) {
                ++votes[lane * classes + static_cast<std::size_t>(key)];
              });
        },
        [](std::size_t, std::size_t) {});
  }
}

/// Interleaved latency path: R trees of one sample in lockstep (quantized
/// keys for the one sample were produced by the caller).  Past the
/// midpoint, the walk stops after the first group that decides the vote
/// (vote.hpp).
template <bool Prefetch, bool Special, typename T>
void q4_predict_one_interleaved(const Q4Forest<T>& f, std::size_t interleave,
                                const std::uint16_t* keys,
                                const std::uint8_t* nan_mask,
                                const std::uint8_t* member, int* votes) {
  const Q4Geometry g = f.geom;
  const CompactNode4* nodes = f.nodes.data();
  const std::uint8_t* flags = f.flags.data();
  const std::size_t trees = f.roots.size();
  const auto classes = static_cast<std::size_t>(std::max(f.num_classes, 1));
  const std::size_t R = std::clamp<std::size_t>(interleave, 1, kMaxInterleave);
  std::int32_t cur[kMaxInterleave];
  for (std::size_t t0 = 0; t0 < trees; t0 += R) {
    const std::size_t gsz = std::min(R, trees - t0);
    for (std::size_t r = 0; r < gsz; ++r) {
      cur[r] = f.roots[t0 + r];
      FLINT_PREFETCH(&nodes[cur[r]]);
    }
    std::uint32_t alive = (1u << gsz) - 1u;  // gsz <= kMaxInterleave = 16
    while (alive) {
      for (std::size_t r = 0; r < gsz; ++r) {
        if (!(alive & (1u << r))) continue;
        const std::uint32_t w = nodes[cur[r]].word;
        if (w & kQ4LeafBit) {
          ++votes[static_cast<std::int32_t>(g.key_of(w))];
          alive &= ~(1u << r);
          continue;
        }
        const auto key = g.key_of(w);
        const auto fi = static_cast<std::size_t>(g.feature_of(w));
        const auto off = static_cast<std::int32_t>(g.offset_of(w));
        bool go;
        if constexpr (Special) {
          const std::uint8_t fl = flags[cur[r]];
          if (nan_mask[fi]) {
            go = (fl & kQ4DefaultLeft) != 0;
          } else if (fl & kQ4Categorical) {
            go = member[static_cast<std::size_t>(key)] != 0;
          } else {
            go = static_cast<std::uint32_t>(keys[fi]) <= key;
          }
        } else {
          go = static_cast<std::uint32_t>(keys[fi]) <= key;
        }
        if constexpr (Prefetch) {
          FLINT_PREFETCH(&nodes[cur[r] + off]);
        }
        const std::int32_t next = cur[r] + (go ? 1 : off);
        FLINT_PREFETCH(&nodes[next]);  // overlaps with the other lanes
        cur[r] = next;
      }
    }
    const std::size_t done = t0 + gsz;
    if (2 * done >= trees && vote_decided(votes, classes, trees - done)) {
      return;
    }
  }
}

#if defined(FLINT_SIMD_AVX2)
/// AVX2 blocked batch over the 4-byte image: per block, WIDEN the
/// already-quantized column block into feature-major int32 tiles of 8
/// lanes (a cast, not a search — the rank remap the wider kernels pay per
/// block ran once, at the batch boundary) and let vote_tiles drive the q4
/// vector kernel over them.
template <typename KeyT, typename T>
void q4_predict_blocked_avx2(const Q4Forest<T>& f, std::size_t block_size,
                             const KeyT* qkeys, std::size_t cols_a,
                             std::size_t n_samples, std::int32_t* out) {
  constexpr std::size_t W = kTileLanes;
  const auto classes = static_cast<std::size_t>(std::max(f.num_classes, 1));
  const std::size_t max_tiles = (block_size + W - 1) / W;
  std::vector<std::int32_t> tiles(max_tiles * cols_a * W);
  std::vector<int> votes(max_tiles * W * classes);
  std::vector<std::int32_t> sample_of(block_size);
  const auto* words = reinterpret_cast<const std::uint32_t*>(f.nodes.data());
  for (std::size_t base = 0; base < n_samples; base += block_size) {
    const std::size_t block = std::min(block_size, n_samples - base);
    for (std::size_t s = 0; s < block; ++s) {
      const KeyT* qrow = qkeys + (base + s) * cols_a;
      std::int32_t* lane = tiles.data() + (s / W) * cols_a * W + (s % W);
      for (std::size_t c = 0; c < cols_a; ++c) {
        lane[c * W] = static_cast<std::int32_t>(qrow[c]);
      }
    }
    vote_tiles(f.roots.size(), classes, cols_a, block, tiles.data(),
               votes.data(), sample_of.data(), out + base,
               [&](std::size_t t0, std::size_t t1, std::size_t n_tiles) {
                 predict_tiles_q4_avx2(words, f.roots.data() + t0, t1 - t0,
                                       tiles.data(), n_tiles, cols_a,
                                       votes.data(), classes, f.geom.key_bits,
                                       f.geom.feature_bits);
               });
  }
}
#endif  // FLINT_SIMD_AVX2

/// Whole-batch quantization + dispatch.  KeyT is the column block's
/// element type: uint8 when every feature's key range fits a byte.
template <typename KeyT, typename T>
void q4_predict_batch_impl(const Q4Forest<T>& f, const LayoutPlan& plan,
                           const T* features, std::size_t n_samples,
                           std::int32_t* out) {
  const std::size_t cols = f.feature_count;
  const std::size_t cols_a = std::max<std::size_t>(cols, 1);
  const std::size_t slots_a = std::max<std::size_t>(f.cat_slot_count(), 1);
  const auto classes = static_cast<std::size_t>(std::max(f.num_classes, 1));

  if (n_samples <= kQ4LatencyMaxBatch) {
    std::vector<std::uint16_t> keys(cols_a, 0);
    std::vector<int> votes(classes);
    std::vector<std::uint8_t> nan_mask(f.has_special ? cols_a : 0);
    std::vector<std::uint8_t> member(f.has_special ? slots_a : 0);
    for (std::size_t s = 0; s < n_samples; ++s) {
      f.quantize_row(features + s * cols, keys.data());
      std::fill(votes.begin(), votes.end(), 0);
      if (f.has_special) {
        f.special_masks(features + s * cols, nan_mask.data(), member.data());
        if (plan.prefetch_opposite) {
          q4_predict_one_interleaved<true, true>(f, plan.interleave,
                                                 keys.data(), nan_mask.data(),
                                                 member.data(), votes.data());
        } else {
          q4_predict_one_interleaved<false, true>(f, plan.interleave,
                                                  keys.data(), nan_mask.data(),
                                                  member.data(), votes.data());
        }
      } else if (plan.prefetch_opposite) {
        q4_predict_one_interleaved<true, false>(
            f, plan.interleave, keys.data(), nullptr, nullptr, votes.data());
      } else {
        q4_predict_one_interleaved<false, false>(
            f, plan.interleave, keys.data(), nullptr, nullptr, votes.data());
      }
      out[s] = argmax_first(votes.data(), classes);
    }
    return;
  }

  // Batch boundary: ONE quantization pass for the whole batch; the hot
  // loops below never see a float again.
  std::vector<KeyT> qkeys(n_samples * cols_a, KeyT{0});
  std::vector<std::uint8_t> nan_mask(
      f.has_special ? n_samples * cols_a : 0);
  std::vector<std::uint8_t> member(f.has_special ? n_samples * slots_a : 0);
  for (std::size_t s = 0; s < n_samples; ++s) {
    f.quantize_row(features + s * cols, qkeys.data() + s * cols_a);
    if (f.has_special) {
      f.special_masks(features + s * cols, nan_mask.data() + s * cols_a,
                      member.data() + s * slots_a);
    }
  }
  if (f.has_special) {
    if (plan.prefetch_opposite) {
      q4_predict_blocked<true, true>(f, plan.block_size, qkeys.data(),
                                     nan_mask.data(), member.data(), cols_a,
                                     slots_a, n_samples, out);
    } else {
      q4_predict_blocked<false, true>(f, plan.block_size, qkeys.data(),
                                      nan_mask.data(), member.data(), cols_a,
                                      slots_a, n_samples, out);
    }
    return;
  }
#if defined(FLINT_SIMD_AVX2)
  // Same escape hatches as the wider kernels: FLINT_LAYOUT_FORCE_SCALAR
  // pins the portable loop; the node-count gate keeps int32 node indices
  // addressable.
  const char* force_scalar = std::getenv("FLINT_LAYOUT_FORCE_SCALAR");
  const bool image_addressable =
      f.nodes.size() <= static_cast<std::size_t>(
                            std::numeric_limits<std::int32_t>::max()) /
                            sizeof(CompactNode4);
  if (!(force_scalar && force_scalar[0] == '1') && image_addressable &&
      layout_avx2_supported()) {
    q4_predict_blocked_avx2(f, plan.block_size, qkeys.data(), cols_a,
                            n_samples, out);
    return;
  }
#endif
  if (plan.prefetch_opposite) {
    q4_predict_blocked<true, false>(f, plan.block_size, qkeys.data(), nullptr,
                                    nullptr, cols_a, slots_a, n_samples, out);
  } else {
    q4_predict_blocked<false, false>(f, plan.block_size, qkeys.data(), nullptr,
                                     nullptr, cols_a, slots_a, n_samples, out);
  }
}

/// Score epilogue: same batch-boundary block, float accumulation in tree
/// order (the traversal's tree loop is outermost).
template <bool Prefetch, bool Special, typename KeyT, typename T>
void q4_score_blocked(const Q4Forest<T>& f, std::size_t block_size,
                      const KeyT* qkeys, const std::uint8_t* nan_mask,
                      const std::uint8_t* member, std::size_t cols_a,
                      std::size_t slots_a, std::size_t n_samples,
                      const T* leaf_values, std::size_t n_outputs, T* out) {
  std::vector<std::int32_t> rows(block_size);
  std::iota(rows.begin(), rows.end(), 0);
  for (std::size_t base = 0; base < n_samples; base += block_size) {
    const std::size_t block = std::min(block_size, n_samples - base);
    q4_lockstep_walk<Prefetch, Special>(
        f, 0, f.roots.size(), rows.data(), block, qkeys + base * cols_a,
        Special ? nan_mask + base * cols_a : nullptr,
        Special ? member + base * slots_a : nullptr, cols_a, slots_a,
        [&](std::size_t lane, std::int32_t key) {
          const T* lv = leaf_values + static_cast<std::size_t>(key) * n_outputs;
          T* srow = out + (base + lane) * n_outputs;
          for (std::size_t j = 0; j < n_outputs; ++j) srow[j] += lv[j];
        });
  }
}

template <typename KeyT, typename T>
void q4_score_batch_impl(const Q4Forest<T>& f, const LayoutPlan& plan,
                         const T* features, std::size_t n_samples,
                         const T* leaf_values, std::size_t n_outputs, T* out) {
  const std::size_t cols = f.feature_count;
  const std::size_t cols_a = std::max<std::size_t>(cols, 1);
  const std::size_t slots_a = std::max<std::size_t>(f.cat_slot_count(), 1);
  std::vector<KeyT> qkeys(n_samples * cols_a, KeyT{0});
  std::vector<std::uint8_t> nan_mask(f.has_special ? n_samples * cols_a : 0);
  std::vector<std::uint8_t> member(f.has_special ? n_samples * slots_a : 0);
  for (std::size_t s = 0; s < n_samples; ++s) {
    f.quantize_row(features + s * cols, qkeys.data() + s * cols_a);
    if (f.has_special) {
      f.special_masks(features + s * cols, nan_mask.data() + s * cols_a,
                      member.data() + s * slots_a);
    }
  }
  if (f.has_special) {
    if (plan.prefetch_opposite) {
      q4_score_blocked<true, true>(f, plan.block_size, qkeys.data(),
                                   nan_mask.data(), member.data(), cols_a,
                                   slots_a, n_samples, leaf_values, n_outputs,
                                   out);
    } else {
      q4_score_blocked<false, true>(f, plan.block_size, qkeys.data(),
                                    nan_mask.data(), member.data(), cols_a,
                                    slots_a, n_samples, leaf_values, n_outputs,
                                    out);
    }
  } else if (plan.prefetch_opposite) {
    q4_score_blocked<true, false>(f, plan.block_size, qkeys.data(), nullptr,
                                  nullptr, cols_a, slots_a, n_samples,
                                  leaf_values, n_outputs, out);
  } else {
    q4_score_blocked<false, false>(f, plan.block_size, qkeys.data(), nullptr,
                                   nullptr, cols_a, slots_a, n_samples,
                                   leaf_values, n_outputs, out);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Q4ForestEngine.
// ---------------------------------------------------------------------------

template <typename T>
Q4ForestEngine<T>::Q4ForestEngine(const trees::Forest<T>& forest,
                                  const LayoutPlan& plan,
                                  const KeyTableSet<T>& tables,
                                  bool force_affine)
    : plan_(plan) {
  plan_.width = NodeWidth::Q4;
  plan_.block_size = std::max<std::size_t>(plan_.block_size, 1);
  plan_.interleave =
      std::clamp<std::size_t>(plan_.interleave, 1, kMaxInterleave);
  std::string why;
  auto packed = try_pack_q4(forest, plan_, tables, force_affine, &why);
  if (!packed) {
    throw std::invalid_argument("Q4ForestEngine: " + why);
  }
  packed_ = std::move(*packed);
}

template <typename T>
Q4ForestEngine<T>::Q4ForestEngine(Q4Forest<T> packed, const LayoutPlan& plan)
    : plan_(plan), packed_(std::move(packed)) {
  if (packed_.nodes.empty()) {
    throw std::invalid_argument("Q4ForestEngine: empty packed image");
  }
  plan_.width = NodeWidth::Q4;
  plan_.block_size = std::max<std::size_t>(plan_.block_size, 1);
  plan_.interleave =
      std::clamp<std::size_t>(plan_.interleave, 1, kMaxInterleave);
}

template <typename T>
void Q4ForestEngine<T>::predict_batch(const T* features, std::size_t n_samples,
                                      std::int32_t* out) const {
  if (n_samples == 0) return;
  if (packed_.max_key_span() <= 255) {
    q4_predict_batch_impl<std::uint8_t>(packed_, plan_, features, n_samples,
                                        out);
  } else {
    q4_predict_batch_impl<std::uint16_t>(packed_, plan_, features, n_samples,
                                         out);
  }
}

template <typename T>
void Q4ForestEngine<T>::predict_scores(const T* features,
                                       std::size_t n_samples,
                                       std::span<const T> leaf_values,
                                       std::size_t n_outputs,
                                       std::span<const T> base, T* out) const {
  if (n_samples == 0) return;
  if (n_outputs == 0 || leaf_values.size() % n_outputs != 0) {
    throw std::invalid_argument(
        "Q4ForestEngine::predict_scores: leaf_values is not a multiple of "
        "n_outputs");
  }
  if (!base.empty() && base.size() != n_outputs) {
    throw std::invalid_argument(
        "Q4ForestEngine::predict_scores: base size mismatch");
  }
  for (std::size_t s = 0; s < n_samples; ++s) {
    for (std::size_t j = 0; j < n_outputs; ++j) {
      out[s * n_outputs + j] = base.empty() ? T{0} : base[j];
    }
  }
  if (packed_.max_key_span() <= 255) {
    q4_score_batch_impl<std::uint8_t>(packed_, plan_, features, n_samples,
                                      leaf_values.data(), n_outputs, out);
  } else {
    q4_score_batch_impl<std::uint16_t>(packed_, plan_, features, n_samples,
                                       leaf_values.data(), n_outputs, out);
  }
}

template <typename T>
std::int32_t Q4ForestEngine<T>::predict(std::span<const T> x) const {
  std::int32_t result = -1;
  predict_batch(x.data(), 1, &result);
  return result;
}

template struct Q4Forest<float>;
template struct Q4Forest<double>;
template std::optional<Q4Forest<float>> try_pack_q4<float>(
    const trees::Forest<float>&, const LayoutPlan&, const KeyTableSet<float>&,
    bool, std::string*);
template std::optional<Q4Forest<double>> try_pack_q4<double>(
    const trees::Forest<double>&, const LayoutPlan&,
    const KeyTableSet<double>&, bool, std::string*);
template class Q4ForestEngine<float>;
template class Q4ForestEngine<double>;

}  // namespace flint::exec::layout
