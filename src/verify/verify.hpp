// verify — the static forest verifier: proves, without executing a single
// prediction, that a ForestModel and every packed artifact derived from it
// satisfy the invariant catalog the execution engines rely on.
//
// The FLInt encoding is only sound if each packed form preserves it
// exactly: encoded integer thresholds must equal encode_threshold_le of
// the source split, CompactNode16 relative offsets must respect the
// implicit-left rule with the sign-bit leaf tag, rank narrowing must be an
// order isomorphism on the split set, categorical slots and NaN
// default-direction flags must survive placement.  The engines *assume*
// these invariants on their hot paths (no bounds checks, no leaf checks
// before key loads); this module *checks* them, so a corrupt model is
// rejected at ingest instead of corrupting inference.
//
// Catalog (stable check ids — docs/VERIFICATION.md holds the full table):
//
//   parse.load            loader rejected the file (message carries line)
//   forest.empty          no trees, or a tree with no nodes
//   forest.num_classes    class count < 1 / != leaf-value rows (score kinds)
//   tree.child_range      child index outside [0, tree size)
//   tree.cycle            node reachable twice (cycle or shared subtree)
//   tree.unreachable      node not reachable from the root
//   tree.inner_children   inner node missing a child
//   tree.leaf_links       leaf with a child link
//   tree.leaf_payload     leaf payload outside [0, classes | leaf rows)
//   tree.leaf_flags       leaf carrying the categorical flag
//   tree.feature_range    inner feature outside [0, feature_count)
//   tree.split_nan        numeric split is NaN; +-inf is ordered and allowed
//   tree.flags_known      unknown bits in node flags
//   tree.cat_slot         categorical slot out of range / stray slot id
//   tree.cat_set_empty    categorical bitset with no members possible
//   model.features        feature count beyond the engine limit
//                         (trees::kMaxFeatureCount — an allocation bomb)
//   model.outputs         n_outputs inconsistent with LeafKind
//   model.leaf_values_shape   leaf_values not rows x n_outputs
//   model.leaf_values_finite  non-finite leaf value
//   model.base_score      base_score length != n_outputs
//   model.aggregation     kind/mode/link combination not well-formed
//   model.missing         zero_as_missing without handles_missing, or
//                         default-left flags on a model declared NaN-free
//   tables.shape          key-table count != feature_count
//   tables.monotone       rank table not strictly ascending
//   tables.exact          a split does not round-trip through its rank
//   packed.*              PackedNode image (Encoded engine) diverges from
//                         the source forest (structure, threshold, leaf,
//                         cat, orphan, root_range)
//   compact.*             CompactNode16 image diverges (roots, offset,
//                         structure, key, leaf, cat, orphan, hot)
//   q4.*                  4-byte quantized image diverges (roots, geometry,
//                         plan, offset, structure, key, leaf, cat, orphan,
//                         hot) — q4.key covers both contracts: exact ranks
//                         must round-trip, affine keys must reproduce the
//                         plan's own monotone map
//   pack.exception        constructing an artifact threw
//
// verify_model is pure and allocation-bounded: it builds each packed form
// through the same public APIs the predictor factory uses and walks them
// lockstep against the source trees.  serve calls it on every ingest, so a
// corrupt hot-swap is rejected before the registry's shared_ptr flip.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exec/layout/narrow.hpp"
#include "model/forest_model.hpp"

namespace flint::verify {

/// One invariant violation.  `check` is a stable id from the catalog above;
/// `artifact` names the packed form ("model", "tables", "packed", "c16",
/// "q4", "file"); `tree`/`node` are indices when the violation is
/// node-level (-1 otherwise; `node` indexes the artifact's own node array
/// for packed forms, the source tree's for model-level checks).
struct Diagnostic {
  std::string check;
  std::string artifact;
  std::int64_t tree = -1;
  std::int64_t node = -1;
  std::string message;
};

/// Verification outcome: every violation found (bounded — after
/// kMaxDiagnostics further ones only bump `suppressed`), plus what was
/// covered so the "pass" is auditable.
struct Report {
  static constexpr std::size_t kMaxDiagnostics = 200;

  std::vector<Diagnostic> diagnostics;
  std::vector<std::string> artifacts_checked;
  std::size_t nodes_checked = 0;
  std::size_t suppressed = 0;

  [[nodiscard]] bool ok() const noexcept { return diagnostics.empty(); }

  /// Appends a diagnostic, honoring the cap.
  void add(Diagnostic d);
};

/// Verifies a ForestModel plus every packed artifact built from it
/// (PackedNode image, CompactNode16 and the 4-byte quantized Q4Forest at
/// hot_depth 0 and 4, rank tables).  Packed artifacts are only attempted
/// when the model-level checks pass — their constructors assume a
/// structurally valid forest.
template <typename T>
[[nodiscard]] Report verify_model(const model::ForestModel<T>& model);

/// Model-level checks only (structure + semantics, no packing).  The
/// building block verify_model starts with; exposed for tests that mutate
/// in-memory models.
template <typename T>
[[nodiscard]] Report verify_model_only(const model::ForestModel<T>& model);

/// Rank-table checks against a forest: shape, strict monotonicity, and the
/// exactness round trip for every numeric split.  Exposed so corrupt
/// tables (which cannot be produced through build_key_tables) are testable.
template <typename T>
void verify_tables(const trees::Forest<T>& forest,
                   const exec::layout::KeyTableSet<T>& tables, Report& report);

/// Loads `path` (native v1/v2 or any external format convert accepts) and
/// verifies it.  Loader rejections become a "parse.load" diagnostic whose
/// message carries the loader's line/node context — the CLI never throws on
/// a corrupt file, it reports.
[[nodiscard]] Report verify_file(const std::string& path);

/// Human-readable report: one line per diagnostic
/// ("<check> [artifact] tree T node N: message"), then a PASS/FAIL summary.
void write_human(std::ostream& out, const Report& report);

/// Machine-readable report: {"ok": bool, "artifacts_checked": [...],
/// "nodes_checked": N, "suppressed": N, "diagnostics": [{check, artifact,
/// tree, node, message}, ...]}.
[[nodiscard]] std::string to_json(const Report& report);

extern template Report verify_model<float>(const model::ForestModel<float>&);
extern template Report verify_model<double>(const model::ForestModel<double>&);
extern template Report verify_model_only<float>(
    const model::ForestModel<float>&);
extern template Report verify_model_only<double>(
    const model::ForestModel<double>&);
extern template void verify_tables<float>(
    const trees::Forest<float>&, const exec::layout::KeyTableSet<float>&,
    Report&);
extern template void verify_tables<double>(
    const trees::Forest<double>&, const exec::layout::KeyTableSet<double>&,
    Report&);

}  // namespace flint::verify
