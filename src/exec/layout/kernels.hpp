// exec/layout/kernels — the AVX2 step kernels of the two compact widths.
//
// The scalar blocked loop (engine.cpp) walks kBlockLockstep samples in
// lockstep per tree; on AVX2 hosts the same algorithm runs 8 lanes per
// vector instruction instead.  Because a compact node is one contiguous
// record, a step costs 4 (c16) or 2 (q4) vpgatherdd loads, and the gathered
// image is small, which is what pays off once the forest spills L2.  The
// two kernels differ only in the words they gather and how they decode
// them; the block driver over them is one (engine.cpp).
//
// The AVX2 translation unit is compiled only when CMake detects an x86-64
// toolchain with -mavx2; callers must additionally check
// layout_avx2_supported() at runtime before dispatching.
//
// Sample keys arrive as feature-major int32 tiles of 8 lanes
// (tile[c*8 + l] = key of lane l, feature c), written by the image's
// quantize_row with an 8-element stride; votes are laid out
// votes[(tile*8 + l) * classes + c].
#pragma once

#include <cstddef>
#include <cstdint>

#include "exec/layout/compact.hpp"
#include "exec/layout/quant4.hpp"

namespace flint::exec::layout {

/// Lanes per key tile (one __m256i of int32 keys).
inline constexpr std::size_t kTileLanes = 8;

/// Independent tiles walked concurrently per tree.  A single tile is a
/// serial chain (index -> gather -> compare -> index), bound by gather
/// LATENCY (~a cache access per level); kTileGroup independent chains
/// pipeline those gathers and approach gather THROUGHPUT instead.  This is
/// the vector analog of the scalar path's kBlockLockstep interleave.
inline constexpr std::size_t kTileGroup = 4;

#if defined(FLINT_SIMD_AVX2)

/// Runtime check (the TU is compiled with -mavx2, the host must agree).
[[nodiscard]] bool layout_avx2_supported() noexcept;

/// Walks trees [roots, roots + trees) of the image `nodes` decodes over
/// `n_tiles` 8-lane key tiles and accumulates per-lane votes (see file
/// comment for layouts).  Thread-safe: touches only its arguments.
void predict_tiles_avx2(const C16View& nodes, const std::int32_t* roots,
                        std::size_t trees, const std::int32_t* tiles,
                        std::size_t n_tiles, std::size_t cols, int* votes,
                        std::size_t classes);

/// The 4-byte walk: one gather per step fetches the whole node word,
/// decoded with the forest's pack-time bit split (key_bits low,
/// feature_bits above, right offset above that, sign bit = leaf).
void predict_tiles_avx2(const Q4View& nodes, const std::int32_t* roots,
                        std::size_t trees, const std::int32_t* tiles,
                        std::size_t n_tiles, std::size_t cols, int* votes,
                        std::size_t classes);

#endif  // FLINT_SIMD_AVX2

}  // namespace flint::exec::layout
