#include "exec/layout/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "exec/layout/kernels.hpp"
#include "exec/layout/vote.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define FLINT_PREFETCH(p) __builtin_prefetch((p))
#else
#define FLINT_PREFETCH(p) ((void)0)
#endif

namespace flint::exec::layout {

namespace {

/// Samples advanced in lockstep through one tree by the blocked path: the
/// across-samples dual of the latency path's across-trees interleave.  One
/// serial pointer chase per sample would leave the memory system idle
/// between dependent node fetches; W independent chases overlap in the
/// out-of-order window, each step one compact node load.
constexpr std::size_t kBlockLockstep = 16;

/// Batches up to this size take the interleaved path (blocked amortization
/// has nothing to amortize over).
constexpr std::size_t kLatencyPathMaxBatch = 8;

/// Row stride of every key and NaN-mask buffer: a model without features
/// still gets the one column its leaves read.
template <typename Image>
std::size_t key_cols(const Image& f) {
  return std::max<std::size_t>(f.feature_count, 1);
}

template <typename Image>
std::size_t vote_classes(const Image& f) {
  return static_cast<std::size_t>(std::max(f.num_classes, 1));
}

/// `x <= key` in the node key's own type: signed for c16, unsigned for q4.
template <typename K, typename NodeKey>
bool key_le(K x, NodeKey key) {
  return static_cast<NodeKey>(x) <= key;
}

/// Lockstep walk of trees [t0, t1) over `n` lanes of a key block,
/// kBlockLockstep lanes in flight at a time; lane l reads its keys (and
/// Special masks) at block row rows[l].  `on_leaf(lane, leaf_key)` fires
/// once per (tree, lane) with the converged leaf's key payload.
template <bool Prefetch, bool Special, typename Image, typename OnLeaf>
void lockstep_walk(const Image& f, std::size_t t0, std::size_t t1,
                   const std::int32_t* rows, std::size_t n,
                   const typename Image::Key* keys,
                   const std::uint8_t* nan_mask, const std::uint8_t* member,
                   OnLeaf&& on_leaf) {
  using Key = typename Image::Key;
  const std::size_t cols = key_cols(f);
  const std::size_t n_slots = f.cat_slot_count();
  const auto nodes = f.view();
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
          const auto nd = nodes.at(cur[r]);
          bool go;
          if constexpr (Special) {
            const std::uint8_t fl = nodes.flags(cur[r]);
            if (nan_mask[row[r] * cols + nd.feature]) {
              go = (fl & kLayoutDefaultLeft) != 0;
            } else if (fl & kLayoutCategorical) {
              go = member[row[r] * n_slots +
                          static_cast<std::size_t>(nd.key)] != 0;
            } else {
              go = key_le(krow[r][nd.feature], nd.key);
            }
          } else {
            go = key_le(krow[r][nd.feature], nd.key);
          }
          if constexpr (Prefetch) {
            FLINT_PREFETCH(&nodes.nodes[cur[r] + (nd.leaf ? 0 : nd.off)]);
          }
          cur[r] += nd.leaf ? 0 : (go ? 1 : nd.off);
          any_inner |= !nd.leaf;
        }
      }
      for (std::size_t r = 0; r < g; ++r) {
        on_leaf(s0 + r, static_cast<std::int32_t>(nodes.at(cur[r]).key));
      }
    }
  }
}

/// Blocked batch loop shared by the vote and score epilogues: computes each
/// block's row keys (and Special masks) once, then hands the block to
/// `body(base, block, keys, nan_mask, member)` to walk.  Scratch is sized
/// by the rows a block actually holds.
template <bool Special, typename Image, typename Body>
void for_each_block(const Image& f, std::size_t block_size,
                    const typename Image::Scalar* features,
                    std::size_t n_samples, Body&& body) {
  const std::size_t fc = f.feature_count;
  const std::size_t cols = key_cols(f);
  const std::size_t n_slots = f.cat_slot_count();
  const std::size_t rows = std::min(block_size, n_samples);
  std::vector<typename Image::Key> keys(rows * cols);
  std::vector<std::uint8_t> nan_mask(Special ? rows * cols : 0);
  std::vector<std::uint8_t> member(
      Special ? std::max<std::size_t>(rows * n_slots, 1) : 0);
  for (std::size_t base = 0; base < n_samples; base += block_size) {
    const std::size_t block = std::min(block_size, n_samples - base);
    for (std::size_t s = 0; s < block; ++s) {
      const auto* x = features + (base + s) * fc;
      f.quantize_row(x, keys.data() + s * cols);
      if constexpr (Special) {
        f.special_masks(x, nan_mask.data() + s * cols,
                        member.data() + s * n_slots);
      }
    }
    body(base, block, keys.data(), nan_mask.data(), member.data());
  }
}

/// Vote epilogue over the blocked traversal, with the exact early exit
/// (vote.hpp): lanes are compacted at every check, since each scalar lane
/// is its own chain.
template <bool Prefetch, bool Special, typename Image>
void predict_blocked(const Image& f, std::size_t block_size,
                     const typename Image::Scalar* features,
                     std::size_t n_samples, std::int32_t* out) {
  using Key = typename Image::Key;
  const std::size_t classes = vote_classes(f);
  const std::size_t rows = std::min(block_size, n_samples);
  std::vector<int> votes(rows * classes);
  std::vector<std::int32_t> sample_of(rows);
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

/// Float-accumulate epilogue over the same blocked traversal: each lane's
/// leaf key indexes a leaf-value row added into the sample's score row.
/// The tree loop stays outermost, so every sample accumulates in tree
/// order — the same summation order as the reference per-tree loop
/// (docs/MODEL_FORMATS.md "Numerical contract").  `out` rows are
/// pre-initialized by the caller.
template <bool Prefetch, bool Special, typename Image>
void score_blocked(const Image& f, std::size_t block_size,
                   const typename Image::Scalar* features,
                   std::size_t n_samples,
                   const typename Image::Scalar* leaf_values,
                   std::size_t n_outputs, typename Image::Scalar* out) {
  using Key = typename Image::Key;
  std::vector<std::int32_t> rows(std::min(block_size, n_samples));
  std::iota(rows.begin(), rows.end(), 0);
  for_each_block<Special>(
      f, block_size, features, n_samples,
      [&](std::size_t base, std::size_t block, const Key* keys,
          const std::uint8_t* nan_mask, const std::uint8_t* member) {
        lockstep_walk<Prefetch, Special>(
            f, 0, f.roots.size(), rows.data(), block, keys, nan_mask, member,
            [&](std::size_t lane, std::int32_t key) {
              const auto* lv =
                  leaf_values + static_cast<std::size_t>(key) * n_outputs;
              auto* srow = out + (base + lane) * n_outputs;
              for (std::size_t j = 0; j < n_outputs; ++j) srow[j] += lv[j];
            });
      });
}

/// Interleaved latency path: R trees of ONE sample advance in lockstep, so
/// R independent node fetches are in flight per round instead of one
/// serial pointer chase.  `votes` must hold num_classes zeroed slots.  Past
/// the midpoint, the walk stops after the first group that decides the
/// vote (vote.hpp).
template <bool Prefetch, bool Special, typename Image>
void predict_one_interleaved(const Image& f, std::size_t interleave,
                             const typename Image::Key* keys,
                             const std::uint8_t* nan_mask,
                             const std::uint8_t* member, int* votes) {
  const auto nodes = f.view();
  const std::size_t trees = f.roots.size();
  const std::size_t classes = vote_classes(f);
  const std::size_t R = std::clamp<std::size_t>(interleave, 1, kMaxInterleave);
  std::int32_t cur[kMaxInterleave];
  for (std::size_t t0 = 0; t0 < trees; t0 += R) {
    const std::size_t g = std::min(R, trees - t0);
    for (std::size_t r = 0; r < g; ++r) {
      cur[r] = f.roots[t0 + r];
      FLINT_PREFETCH(&nodes.nodes[cur[r]]);
    }
    std::uint32_t alive = (1u << g) - 1u;  // g <= kMaxInterleave = 16
    while (alive) {
      for (std::size_t r = 0; r < g; ++r) {
        if (!(alive & (1u << r))) continue;
        const auto nd = nodes.at(cur[r]);
        if (nd.leaf) {
          ++votes[static_cast<std::size_t>(nd.key)];
          alive &= ~(1u << r);
          continue;
        }
        bool go;
        if constexpr (Special) {
          const std::uint8_t fl = nodes.flags(cur[r]);
          if (nan_mask[nd.feature]) {
            go = (fl & kLayoutDefaultLeft) != 0;
          } else if (fl & kLayoutCategorical) {
            go = member[static_cast<std::size_t>(nd.key)] != 0;
          } else {
            go = key_le(keys[nd.feature], nd.key);
          }
        } else {
          go = key_le(keys[nd.feature], nd.key);
        }
        if constexpr (Prefetch) {
          FLINT_PREFETCH(&nodes.nodes[cur[r] + nd.off]);
        }
        const std::int32_t next = cur[r] + (go ? 1 : nd.off);
        FLINT_PREFETCH(&nodes.nodes[next]);  // overlaps with the other lanes
        cur[r] = next;
      }
    }
    const std::size_t done = t0 + g;
    if (2 * done >= trees && vote_decided(votes, classes, trees - done)) {
      return;
    }
  }
}

/// The latency path over a small batch: each sample's keys (and Special
/// masks), then one interleaved walk.
template <bool Prefetch, bool Special, typename Image>
void predict_latency(const Image& f, std::size_t interleave,
                     const typename Image::Scalar* features,
                     std::size_t n_samples, std::int32_t* out) {
  const std::size_t fc = f.feature_count;
  const std::size_t classes = vote_classes(f);
  std::vector<typename Image::Key> keys(key_cols(f));
  std::vector<int> votes(classes);
  std::vector<std::uint8_t> nan_mask(Special ? key_cols(f) : 0);
  std::vector<std::uint8_t> member(
      Special ? std::max<std::size_t>(f.cat_slot_count(), 1) : 0);
  for (std::size_t s = 0; s < n_samples; ++s) {
    f.quantize_row(features + s * fc, keys.data());
    if constexpr (Special) {
      f.special_masks(features + s * fc, nan_mask.data(), member.data());
    }
    std::fill(votes.begin(), votes.end(), 0);
    predict_one_interleaved<Prefetch, Special>(
        f, interleave, keys.data(), nan_mask.data(), member.data(),
        votes.data());
    out[s] = argmax_first(votes.data(), classes);
  }
}

#if defined(FLINT_SIMD_AVX2)
/// AVX2 block driver: quantize each block straight into feature-major
/// int32 key tiles of 8 lanes and let vote_tiles drive the image's tile
/// kernel over them (padded lanes are zero-filled — they traverse to some
/// leaf on well-defined inputs and their votes are ignored).
template <typename Image>
void predict_blocked_avx2(const Image& f, std::size_t block_size,
                          const typename Image::Scalar* features,
                          std::size_t n_samples, std::int32_t* out) {
  constexpr std::size_t W = kTileLanes;
  const std::size_t fc = f.feature_count;
  const std::size_t cols = key_cols(f);
  const std::size_t classes = vote_classes(f);
  const std::size_t rows = std::min(block_size, n_samples);
  const std::size_t max_tiles = (rows + W - 1) / W;
  std::vector<std::int32_t> tiles(max_tiles * cols * W);
  std::vector<int> votes(max_tiles * W * classes);
  std::vector<std::int32_t> sample_of(rows);
  const auto nodes = f.view();
  for (std::size_t base = 0; base < n_samples; base += block_size) {
    const std::size_t block = std::min(block_size, n_samples - base);
    for (std::size_t s = 0; s < block; ++s) {
      f.quantize_row(features + (base + s) * fc,
                     tiles.data() + (s / W) * cols * W + (s % W), W);
    }
    vote_tiles(f.roots.size(), classes, cols, block, tiles.data(),
               votes.data(), sample_of.data(), out + base,
               [&](std::size_t t0, std::size_t t1, std::size_t n_tiles) {
                 predict_tiles_avx2(nodes, f.roots.data() + t0, t1 - t0,
                                    tiles.data(), n_tiles, cols, votes.data(),
                                    classes);
               });
  }
}

/// Whether a vote batch takes the AVX2 block driver: the host supports it,
/// the forest has no special splits (the tile kernels have no
/// NaN/categorical path), FLINT_LAYOUT_FORCE_SCALAR=1 is unset (it pins the
/// portable loop — the tests use it to cover the scalar path on hosts that
/// would always take the vector kernel), and the image is addressable: the
/// node-count gate keeps the c16 kernel's int32 BYTE offsets (index << 4)
/// from wrapping on images past 2 GiB.
template <typename Image>
bool use_avx2(const Image& f) {
  const char* force_scalar = std::getenv("FLINT_LAYOUT_FORCE_SCALAR");
  const bool addressable =
      f.nodes.size() <=
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) /
          sizeof(f.nodes[0]);
  return !f.has_special && !(force_scalar && force_scalar[0] == '1') &&
         addressable && layout_avx2_supported();
}
#endif  // FLINT_SIMD_AVX2

/// The one Prefetch x Special dispatch: calls `run(prefetch, special)` with
/// std::bool_constant arguments matching the plan and the image.
template <typename Image, typename Run>
void dispatch(const Image& f, const LayoutPlan& plan, Run&& run) {
  const auto with_special = [&](auto prefetch) {
    if (f.has_special) {
      run(prefetch, std::true_type{});
    } else {
      run(prefetch, std::false_type{});
    }
  };
  if (plan.prefetch_opposite) {
    with_special(std::true_type{});
  } else {
    with_special(std::false_type{});
  }
}

}  // namespace

template <typename Image>
LayoutForestEngine<Image>::LayoutForestEngine(Image packed,
                                              const LayoutPlan& plan)
    : plan_(plan), packed_(std::move(packed)) {
  if (packed_.nodes.empty()) {
    throw std::invalid_argument("LayoutForestEngine: empty packed image");
  }
  plan_.width = Image::kWidth;
  plan_.block_size = std::max<std::size_t>(plan_.block_size, 1);
  plan_.interleave =
      std::clamp<std::size_t>(plan_.interleave, 1, kMaxInterleave);
}

template <typename Image>
void LayoutForestEngine<Image>::predict_batch(const T* features,
                                              std::size_t n_samples,
                                              std::int32_t* out) const {
  if (n_samples == 0) return;
  const bool latency = n_samples <= kLatencyPathMaxBatch;
#if defined(FLINT_SIMD_AVX2)
  if (!latency && use_avx2(packed_)) {
    predict_blocked_avx2(packed_, plan_.block_size, features, n_samples, out);
    return;
  }
#endif
  dispatch(packed_, plan_, [&](auto prefetch, auto special) {
    constexpr bool P = decltype(prefetch)::value;
    constexpr bool S = decltype(special)::value;
    if (latency) {
      predict_latency<P, S>(packed_, plan_.interleave, features, n_samples,
                            out);
    } else {
      predict_blocked<P, S>(packed_, plan_.block_size, features, n_samples,
                            out);
    }
  });
}

template <typename Image>
void LayoutForestEngine<Image>::predict_scores(const T* features,
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
  dispatch(packed_, plan_, [&](auto prefetch, auto special) {
    score_blocked<decltype(prefetch)::value, decltype(special)::value>(
        packed_, plan_.block_size, features, n_samples, leaf_values.data(),
        n_outputs, out);
  });
}

template <typename Image>
std::int32_t LayoutForestEngine<Image>::predict(std::span<const T> x) const {
  std::int32_t result = -1;
  predict_batch(x.data(), 1, &result);
  return result;
}

template class LayoutForestEngine<CompactForest<float, CompactNode16>>;
template class LayoutForestEngine<CompactForest<double, CompactNode16>>;
template class LayoutForestEngine<Q4Forest<float>>;
template class LayoutForestEngine<Q4Forest<double>>;

}  // namespace flint::exec::layout
