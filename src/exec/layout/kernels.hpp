// exec/layout/kernels — architecture-specialized lockstep kernels over the
// compact node formats.
//
// The scalar blocked loop in compact.cpp walks kBlockLockstep samples in
// lockstep per tree; on AVX2 hosts the same algorithm runs 8 lanes per
// vector instruction instead.  Because a compact node is one contiguous
// record, a step costs 4 (c16) or 2 (q4) vpgatherdd loads, and the gathered
// image is small, which is what pays off once the forest spills L2.
//
// The AVX2 translation unit is compiled only when CMake detects an x86-64
// toolchain with -mavx2; callers must additionally check
// layout_avx2_supported() at runtime before dispatching.
//
// Sample keys arrive as feature-major int32 tiles of 8 lanes
// (tile[c*8 + l] = key of lane l, feature c), produced by
// CompactForest::remap32 with an 8-element stride; votes are laid out
// votes[(tile*8 + l) * classes + c].
#pragma once

#include <cstddef>
#include <cstdint>

#include "exec/layout/compact.hpp"

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

/// Walks every tree over `n_tiles` 8-lane key tiles and accumulates
/// per-lane votes (see file comment for layouts).  Thread-safe: touches
/// only its arguments.
void predict_tiles_avx2(const CompactNode16* nodes, const std::int32_t* roots,
                        std::size_t trees, const std::int32_t* tiles,
                        std::size_t n_tiles, std::size_t cols, int* votes,
                        std::size_t classes);

/// The 4-byte (layout:q4) walk: one gather per step fetches the whole node
/// word, decoded with the forest's pack-time bit split (key_bits low,
/// feature_bits above, right offset above that, sign bit = leaf).  `words`
/// is the packed CompactNode4 image viewed as raw uint32s so this header
/// needs no quant4.hpp include; tiles carry the batch-boundary quantized
/// sample keys (already integers — no remap ran per block).
void predict_tiles_q4_avx2(const std::uint32_t* words,
                           const std::int32_t* roots, std::size_t trees,
                           const std::int32_t* tiles, std::size_t n_tiles,
                           std::size_t cols, int* votes, std::size_t classes,
                           std::uint32_t key_bits, std::uint32_t feature_bits);

#endif  // FLINT_SIMD_AVX2

}  // namespace flint::exec::layout
