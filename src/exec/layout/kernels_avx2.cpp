// exec/layout/kernels_avx2 — AVX2 lockstep traversal over compact nodes
// (8 samples per tile).  See kernels.hpp for the tile/vote conventions.
//
// Gather addressing: vpgatherdd scales indices by at most 8, while c16
// nodes are 16 bytes, so lane indices are pre-shifted into BYTE offsets
// and gathered with scale 1.
//
// Leaves step by 0 (their gathered offset is negative; the and-not with
// the leaf mask zeroes the advance), so the loop needs no per-lane active
// mask and exits when every lane's offset sign bit is set.
#include "exec/layout/kernels.hpp"

#if defined(FLINT_SIMD_AVX2)

#include <immintrin.h>

namespace flint::exec::layout {

bool layout_avx2_supported() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

namespace {

constexpr std::size_t W = kTileLanes;

}  // namespace

void predict_tiles_avx2(const C16View& nodes, const std::int32_t* roots,
                        std::size_t trees, const std::int32_t* tiles,
                        std::size_t n_tiles, std::size_t cols, int* votes,
                        std::size_t classes) {
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i one = _mm256_set1_epi32(1);
  const char* base = reinterpret_cast<const char*>(nodes.nodes);
  constexpr int shift = 4;  // 16-byte nodes
  for (std::size_t t = 0; t < trees; ++t) {
    const __m256i root = _mm256_set1_epi32(roots[t]);
    for (std::size_t tile0 = 0; tile0 < n_tiles; tile0 += kTileGroup) {
      const std::size_t g = std::min(kTileGroup, n_tiles - tile0);
      __m256i cur[kTileGroup];
      const std::int32_t* x[kTileGroup];
      bool done[kTileGroup];
      std::size_t remaining = g;
      for (std::size_t i = 0; i < g; ++i) {
        cur[i] = root;
        x[i] = tiles + (tile0 + i) * cols * W;
        done[i] = false;
      }
      while (remaining) {
        for (std::size_t i = 0; i < g; ++i) {
          if (done[i]) continue;
          const __m256i bytes = _mm256_slli_epi32(cur[i], shift);
          const __m256i off = _mm256_i32gather_epi32(
              reinterpret_cast<const int*>(base + 4), bytes, 1);
          if (_mm256_movemask_ps(_mm256_castsi256_ps(off)) == 0xFF) {
            done[i] = true;
            --remaining;
            continue;
          }
          const __m256i key = _mm256_i32gather_epi32(
              reinterpret_cast<const int*>(base), bytes, 1);
          const __m256i feat = _mm256_i32gather_epi32(
              reinterpret_cast<const int*>(base + 8), bytes, 1);
          const __m256i kidx =
              _mm256_add_epi32(_mm256_slli_epi32(feat, 3), lane_ids);
          const __m256i kx = _mm256_i32gather_epi32(x[i], kidx, 4);
          const __m256i go_right = _mm256_cmpgt_epi32(kx, key);
          const __m256i leaf = _mm256_srai_epi32(off, 31);
          const __m256i step = _mm256_andnot_si256(
              leaf, _mm256_blendv_epi8(one, off, go_right));
          cur[i] = _mm256_add_epi32(cur[i], step);
        }
      }
      for (std::size_t i = 0; i < g; ++i) {
        // Class id of each converged lane: the leaf's `key` field.
        const __m256i cls = _mm256_i32gather_epi32(
            reinterpret_cast<const int*>(base),
            _mm256_slli_epi32(cur[i], shift), 1);
        alignas(32) std::int32_t cbuf[W];
        _mm256_store_si256(reinterpret_cast<__m256i*>(cbuf), cls);
        int* vrow = votes + (tile0 + i) * W * classes;
        for (std::size_t l = 0; l < W; ++l) {
          ++vrow[l * classes + static_cast<std::size_t>(cbuf[l])];
        }
      }
    }
  }
}

// q4 walk: the node is ONE dword, so a step is two gathers total (word +
// sample key) and the gather scale is the element size itself — no byte
// pre-shift.  The leaf tag is the word's own sign bit, so the convergence
// test is a movemask of the raw gathered words.
void predict_tiles_avx2(const Q4View& nodes, const std::int32_t* roots,
                        std::size_t trees, const std::int32_t* tiles,
                        std::size_t n_tiles, std::size_t cols, int* votes,
                        std::size_t classes) {
  const std::uint32_t key_bits = nodes.geom.key_bits;
  const std::uint32_t feature_bits = nodes.geom.feature_bits;
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i key_mask =
      _mm256_set1_epi32(static_cast<int>((1u << key_bits) - 1u));
  const __m256i feat_mask =
      _mm256_set1_epi32(static_cast<int>((1u << feature_bits) - 1u));
  const __m256i off_mask = _mm256_set1_epi32(
      static_cast<int>((1u << (31 - key_bits - feature_bits)) - 1u));
  const __m128i feat_shift = _mm_cvtsi32_si128(static_cast<int>(key_bits));
  const __m128i off_shift =
      _mm_cvtsi32_si128(static_cast<int>(key_bits + feature_bits));
  const int* base = reinterpret_cast<const int*>(nodes.nodes);
  for (std::size_t t = 0; t < trees; ++t) {
    const __m256i root = _mm256_set1_epi32(roots[t]);
    for (std::size_t tile0 = 0; tile0 < n_tiles; tile0 += kTileGroup) {
      const std::size_t g = std::min(kTileGroup, n_tiles - tile0);
      __m256i cur[kTileGroup];
      __m256i last[kTileGroup];
      const std::int32_t* x[kTileGroup];
      bool done[kTileGroup];
      std::size_t remaining = g;
      for (std::size_t i = 0; i < g; ++i) {
        cur[i] = root;
        x[i] = tiles + (tile0 + i) * cols * W;
        done[i] = false;
      }
      while (remaining) {
        for (std::size_t i = 0; i < g; ++i) {
          if (done[i]) continue;
          const __m256i w = _mm256_i32gather_epi32(base, cur[i], 4);
          last[i] = w;
          if (_mm256_movemask_ps(_mm256_castsi256_ps(w)) == 0xFF) {
            done[i] = true;
            --remaining;
            continue;
          }
          const __m256i key = _mm256_and_si256(w, key_mask);
          const __m256i feat =
              _mm256_and_si256(_mm256_srl_epi32(w, feat_shift), feat_mask);
          const __m256i off =
              _mm256_and_si256(_mm256_srl_epi32(w, off_shift), off_mask);
          const __m256i kidx =
              _mm256_add_epi32(_mm256_slli_epi32(feat, 3), lane_ids);
          const __m256i kx = _mm256_i32gather_epi32(x[i], kidx, 4);
          const __m256i go_right = _mm256_cmpgt_epi32(kx, key);
          const __m256i leaf = _mm256_srai_epi32(w, 31);
          const __m256i step = _mm256_andnot_si256(
              leaf, _mm256_blendv_epi8(one, off, go_right));
          cur[i] = _mm256_add_epi32(cur[i], step);
        }
      }
      for (std::size_t i = 0; i < g; ++i) {
        const __m256i cls = _mm256_and_si256(last[i], key_mask);
        alignas(32) std::int32_t cbuf[W];
        _mm256_store_si256(reinterpret_cast<__m256i*>(cbuf), cls);
        int* vrow = votes + (tile0 + i) * W * classes;
        for (std::size_t l = 0; l < W; ++l) {
          ++vrow[l * classes + static_cast<std::size_t>(cbuf[l])];
        }
      }
    }
  }
}

}  // namespace flint::exec::layout

#endif  // FLINT_SIMD_AVX2
