// exec/artifacts — the one-stop execution-artifact bundle.
//
// Every execution family used to re-derive its own view of the forest at
// construction time: the wide interpreter packed PackedNode arrays, the
// layout engine ran the auto-tuner and packed compact images, codegen
// walked the trees yet again, and verify rebuilt all of them a second time
// to check images it never actually executed.  ExecArtifacts centralizes
// that: built once per forest, it owns
//
//   * ForestStats            — shape/branch summaries (one DFS),
//   * KeyTableSet            — per-feature monotone threshold tables,
//   * NarrowFit + LayoutPlan — the auto-tuner verdict,
//   * PackedNode image       — via the wide Encoded interpreter engine,
//   * CompactForest<16>      — the c16 image, cached per hot_depth,
//   * Q4Forest               — the 4-byte quantized image + its QuantPlan,
//   * content_hash           — a structural FNV-1a digest keying the JIT
//                              compile cache.
//
// The eager part of construction is the cheap summary set (stats, tables,
// plan); each packed image is built lazily on first access and cached.
// make_predictor builds one bundle per layout-family predictor and plans
// from it (c16 and q4 take their image out of it, jit:layout generates
// from its c16 image); `flint-forest inspect` reports the same plan from a
// bundle of its own.  verify_model also builds its own bundle and checks
// the images at hot depths 0 and 4 only — not the image a predictor holds,
// whose plan may pick another hot depth.  The bundle borrows the forest —
// it must outlive the ExecArtifacts object (an engine, which must survive
// the forest, takes its image out with take_c16 or take_q4).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "exec/interpreter.hpp"
#include "exec/layout/compact.hpp"
#include "exec/layout/narrow.hpp"
#include "exec/layout/plan.hpp"
#include "exec/layout/quant4.hpp"
#include "trees/forest.hpp"
#include "trees/tree_stats.hpp"

namespace flint::exec::artifacts {

template <typename T>
class ExecArtifacts {
 public:
  /// Builds the summary artifacts (stats, key tables, narrowing fit, layout
  /// plan).  Packed images are built lazily — except when the auto-tuner
  /// picks the 4-byte width: a Q4 plan is only tentative until the image
  /// packs AND its quantization contract holds (bit-exact ranks, or every
  /// affine feature preserving its thresholds), so that image is packed
  /// eagerly here and the plan demoted (allow_q4 = false, re-tuned) when
  /// the contract fails.  A pinned force_width skips the demotion — the
  /// caller asked for that width and gets the packer's error instead.
  /// `forest` is borrowed.
  explicit ExecArtifacts(
      const trees::Forest<T>& forest, std::size_t block_size = 64,
      const layout::CacheInfo& cache = layout::detect_cache_info(),
      std::optional<layout::NodeWidth> force_width = std::nullopt);

  [[nodiscard]] const trees::Forest<T>& forest() const noexcept {
    return *forest_;
  }
  [[nodiscard]] const trees::ForestStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const layout::KeyTableSet<T>& tables() const noexcept {
    return tables_;
  }
  [[nodiscard]] const layout::NarrowFit& fit() const noexcept { return fit_; }
  [[nodiscard]] const layout::LayoutPlan& plan() const noexcept {
    return plan_;
  }

  /// Packed images at a given hot_depth (cached per depth).  compact16()
  /// packs at plan().hot_depth and throws std::invalid_argument with the
  /// packer's reason when the model is not representable at that width;
  /// the try_ variants return nullptr and set `why` instead (verify walks
  /// every width without aborting).
  const layout::CompactForest<T, layout::CompactNode16>& compact16();
  const layout::CompactForest<T, layout::CompactNode16>* try_compact16_at(
      std::size_t hot_depth, std::string* why = nullptr);
  const layout::Q4Forest<T>* try_q4_at(std::size_t hot_depth,
                                       std::string* why = nullptr);
  /// Move the image at plan().hot_depth out of the bundle (packing it
  /// first if needed), for an engine that outlives the bundle; a later
  /// accessor re-packs.  std::nullopt, with `why` set, when it does not
  /// pack.
  std::optional<layout::CompactForest<T, layout::CompactNode16>> take_c16(
      std::string* why = nullptr);
  std::optional<layout::Q4Forest<T>> take_q4(std::string* why = nullptr);

  /// The wide interpreter's packed image, via the Encoded engine (cached).
  const FlintForestEngine<T>& packed_engine();

  /// Structural content digest: forest topology, threshold bits, flags,
  /// category bitsets, leaf payloads, class/feature counts.  Any split
  /// mutation changes it.  Used (combined with model semantics and compiler
  /// options) as the JIT compile-cache key.  Cached after first call.
  [[nodiscard]] std::uint64_t content_hash() const;

 private:
  const trees::Forest<T>* forest_;
  trees::ForestStats stats_;
  layout::KeyTableSet<T> tables_;
  layout::NarrowFit fit_;
  layout::LayoutPlan plan_;
  std::map<std::size_t,
           std::optional<layout::CompactForest<T, layout::CompactNode16>>>
      c16_;
  std::map<std::size_t, std::optional<layout::Q4Forest<T>>> q4_;
  std::map<std::size_t, std::string> c16_why_;
  std::map<std::size_t, std::string> q4_why_;
  std::optional<FlintForestEngine<T>> packed_;
  mutable std::optional<std::uint64_t> hash_;
};

extern template class ExecArtifacts<float>;
extern template class ExecArtifacts<double>;

}  // namespace flint::exec::artifacts
