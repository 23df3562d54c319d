// exec/layout/plan — the layout auto-tuner: picks node width, placement and
// traversal for a forest at predictor-creation time.
//
// The decision inputs are all cheap, pre-computed summaries — nothing here
// re-walks trees:
//
//   * trees::ForestStats        — per-tree depth/node counts, total nodes,
//                                 per-feature split counts and ranges (one
//                                 DFS, cached); the split counts price the
//                                 q4 rank remap, the shape fields size the
//                                 hot slab;
//   * layout::KeyTableSet       — per-feature distinct-threshold counts
//                                 (built once, reused by the packer);
//   * the host cache hierarchy  — L2/LLC sizes via sysconf, falling back to
//                                 the sysfs cache topology and then to
//                                 clamped defaults (see detect_cache_info).
//
// Decision rules (documented in docs/ARCHITECTURE.md):
//
//   width      q4 when the c16 image would spill L2 by 2x *and* the
//              per-sample rank remap stays a small fraction of the
//              traversal work it buys back (tentative: the caller demotes
//              it when the 4-byte pack or its contract fails); else c16;
//              Wide only when even c16 cannot represent the model
//              (feature index overflow — fall back to the proven wide
//              interpreter).  The remap is priced at
//              ~log2(splits_f) halving steps per feature, from the
//              per-feature split counts.  The KeyTable search index ranks
//              in one 64-byte block per level, so that price is
//              conservative; it stays so that plans do not move until a
//              regime bench recalibrates it.
//   hot_depth  0 (pure per-tree DFS clustering) while the packed image fits
//              L2; otherwise the deepest root-block level whose slab
//              estimate stays within half of L2, so every tree's top levels
//              survive across block boundaries.
//   interleave trees walked in lockstep on the single-sample latency path:
//              enough independent pointer chases to cover a memory access,
//              capped by the ensemble size and kMaxInterleave.
//   prefetch   opposite-child software prefetch on, once the image exceeds
//              L2 (the right-child line is the probable miss; left is the
//              adjacent node by construction).
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "trees/tree_stats.hpp"

namespace flint::exec::layout {

/// Compact node width; Wide means "do not re-pack, use the wide
/// interpreter" (make_predictor falls back to the encoded engine).  Q4 is
/// the 4-byte quantized word (exec/layout/quant4.hpp): feature/offset/key
/// bit budgets are resolved per forest at pack time, so its static fit
/// checks here are necessary-but-not-sufficient — callers that auto-tune
/// Q4 must be prepared to demote when packing or the quantization contract
/// fails (NarrowFit::allow_q4 is the demotion lever).
enum class NodeWidth { C16, Q4, Wide };

[[nodiscard]] const char* to_string(NodeWidth w);

/// Upper bound on trees traversed in lockstep by the latency path (bounds
/// the cursor array on the stack).
inline constexpr std::size_t kMaxInterleave = 16;

/// Everything the compact engine needs to know about how to lay out and
/// traverse one forest.  Produced by auto_plan or assembled by hand (the
/// tests pin exact configurations).
struct LayoutPlan {
  NodeWidth width = NodeWidth::C16;
  /// Root-block levels packed into the shared hot slab; 0 = pure per-tree
  /// DFS (subtree-clustered) placement.
  std::size_t hot_depth = 0;
  /// Samples per cache block of the batched path.
  std::size_t block_size = 64;
  /// Trees walked in lockstep per sample on the latency path, in
  /// [1, kMaxInterleave].
  std::size_t interleave = 4;
  /// Software-prefetch the right (non-implicit) child while descending.
  bool prefetch_opposite = false;

  /// Short descriptor for names/bench labels, e.g. "q4/slab4/il8".
  [[nodiscard]] std::string describe() const;
};

/// Host cache sizes consulted by the tuner.  detect_cache_info() never
/// returns zero fields; a hand-assembled CacheInfo with zeros (tests) falls
/// back to auto_plan's conservative 256 KiB L2 guard.
struct CacheInfo {
  std::size_t l2_bytes = 0;
  std::size_t llc_bytes = 0;
};

/// Best-effort detection, as a fallback chain (each link fills only the
/// fields the previous ones left at zero):
///
///   1. sysconf(_SC_LEVEL2/3_CACHE_SIZE) — returns -1 or 0 on musl and in
///      many container/cgroup setups, so it cannot be trusted alone;
///   2. the sysfs cache topology
///      (/sys/devices/system/cpu/cpu0/cache/index*/{level,type,size});
///   3. documented defaults: 1 MiB L2, 8 MiB LLC.
///
/// The merged result is passed through sanitize_cache_info, so callers
/// always see plausible, clamped, non-zero sizes.
[[nodiscard]] CacheInfo detect_cache_info();

/// Parses one sysfs cache `size` value — decimal digits with an optional
/// K/M/G suffix (case-insensitive) and trailing whitespace, e.g. "512K",
/// "8M".  Returns 0 when the text does not parse.
[[nodiscard]] std::size_t parse_sysfs_cache_size(std::string_view text);

/// Reads L2/LLC sizes from a sysfs-style cache directory (`cache_dir`
/// containing index*/{level,type,size}, normally
/// /sys/devices/system/cpu/cpu0/cache).  Instruction caches are skipped;
/// the deepest level >= 3 wins the LLC slot.  Fields stay zero when nothing
/// is readable.  Parameterized on the directory so the fallback chain is
/// unit-testable against a fake tree (tests/test_layout.cpp).
[[nodiscard]] CacheInfo cache_info_from_sysfs(const std::string& cache_dir);

/// Final link of the chain: fills zero fields with the documented defaults
/// (1 MiB L2, 8 MiB LLC) and clamps implausible probe results into
/// [32 KiB, 64 MiB] for L2 and [512 KiB, 1 GiB] for the LLC, keeping
/// llc >= l2.
[[nodiscard]] CacheInfo sanitize_cache_info(CacheInfo info);

/// Narrowing fitness extracted from the key tables (see narrow.hpp).
struct NarrowFit {
  std::size_t feature_count = 0;
  int num_classes = 0;
  /// Permission flag for the auto ladder only (pinned layout:q4 ignores
  /// it): cleared by callers after a Q4 pack or contract failure, so
  /// re-running auto_plan yields the best non-quantized plan.  Q4
  /// packability depends on per-forest bit budgets known only at pack
  /// time, hence this try-then-demote protocol instead of a static check.
  bool allow_q4 = true;
};

/// Picks width + placement + traversal for a forest; `stats` and `fit` are
/// the cached summaries described in the file comment.  Deterministic given
/// its inputs (tests pass a fixed CacheInfo).  `force_width` pins the node
/// width (the layout:c16/q4 backends) — placement and traversal are then
/// tuned for THAT width's image size, not the width auto would have chosen;
/// the caller must have checked width_fits first.
[[nodiscard]] LayoutPlan auto_plan(
    const trees::ForestStats& stats, const NarrowFit& fit,
    std::size_t block_size, const CacheInfo& cache = detect_cache_info(),
    std::optional<NodeWidth> force_width = std::nullopt);

/// True iff a forest with these properties is representable at `width`
/// (feature index, class id and rank ranges all fit the node fields).
[[nodiscard]] bool width_fits(NodeWidth width, const NarrowFit& fit);

/// Human-readable reason a width does not fit (for error messages); empty
/// when width_fits.
[[nodiscard]] std::string width_unfit_reason(NodeWidth width,
                                             const NarrowFit& fit);

}  // namespace flint::exec::layout
