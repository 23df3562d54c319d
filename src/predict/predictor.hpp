// predict/predictor — the batched, backend-agnostic inference layer.
//
// Every backend is one execution engine plus one aggregation epilogue —
// FLInt changes only the comparison inside an unchanged traversal.  The
// engines are the reference (per-sample Forest::predict), the encoded
// FLInt interpreter, the compact 16-byte and quantized 4-byte layouts, and
// the generated jit:layout module; the epilogue is a majority-vote tally,
// or for additive leaf-value models a tree-order score sum plus the
// model's link.  The paper's other formulations (FloatForestEngine and the
// Theorem 1/2 and radix FlintForestEngine variants) are driven directly by
// the ablation bench and the tests, not through this factory.
// Each pair is served behind one interface:
//
//     predictor->predict_batch(features, n_samples, out);
//
// so the CLI, the experiment harness, the benches and the tests stop
// hand-rolling engine selection.  Backends are created by name through
// make_predictor (see backend_help() for the vocabulary), and any predictor
// can be wrapped in a ParallelPredictor to spread a batch over a worker
// pool.
//
// Contracts every implementation obeys:
//
//   * predict_batch is bit-identical to per-sample Forest::predict on the
//     same model for every non-NaN input (property-tested in
//     tests/test_predictor.cpp) — the paper's "accuracy unchanged" claim
//     extended to the batched path;
//   * NaN features are rejected with std::invalid_argument at the batch
//     boundary unless the predictor's MissingPolicy allows them (the
//     model-aware factory sets it when the model declares missing-value
//     support).  The FLInt engines order NaN bit patterns deterministically
//     but differently from IEEE comparison, so for legacy models a NaN
//     input is the one case where backends could silently diverge; refusing
//     it keeps the bit-identical contract unconditional.  Missing-capable
//     models instead route NaN by each node's default direction —
//     identically in every backend (see README "NaN/zero semantics");
//   * do_predict_batch is const-thread-safe: concurrent calls on one object
//     from different threads must not race.  All vote/key scratch is
//     function-local, which is what lets ParallelPredictor partition a
//     batch without cloning backends.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "jit/options.hpp"
#include "model/forest_model.hpp"
#include "trees/forest.hpp"

namespace flint::predict {

/// LightGBM's kZeroThreshold: |x| at or below this counts as "zero" for
/// models trained with zero_as_missing.
inline constexpr double kZeroAsMissingThreshold = 1e-35;

/// How a predictor treats missing values at the batch boundary.  The
/// default is the hard NaN reject that keeps legacy models' bit-identical
/// contract unconditional; the model-aware make_predictor overrides it on
/// the OUTERMOST predictor from ForestModel::handles_missing /
/// ::zero_as_missing, so the boundary rewrite runs exactly once even under
/// a ParallelPredictor (whose workers dispatch prevalidated blocks).
struct MissingPolicy {
  /// NaN features pass the boundary and route per the forest's per-node
  /// default directions (the trees/tree.hpp missing contract).
  bool allow_nan = false;
  /// |x| <= kZeroAsMissingThreshold is rewritten to a missing value before
  /// dispatch (LightGBM zero_as_missing models).  Implies allow_nan.
  bool zero_as_missing = false;
  /// The forest carries no default-direction or categorical node, so the
  /// backends run their unchanged legacy paths; NaN inputs are rewritten to
  /// +infinity, which `x <= t` sends right at every finite split — exactly
  /// the flag-free missing contract.  Set only by the factory, which
  /// rejects the one model shape where the rewrite would be inexact (a
  /// +inf split).
  bool substitute_nan = false;
};

/// Rewrites `data` in place per `policy`: zero_as_missing maps
/// |x| <= kZeroAsMissingThreshold to the missing value; substitute_nan
/// makes that value +infinity and rewrites NaN to it as well.  This is
/// exactly what predict_batch applies at its boundary — exposed for callers
/// that dispatch prevalidated batches themselves (the serve runtime).
/// No-op for policies without rewrites.
template <typename T>
void apply_missing_rewrites(const MissingPolicy& policy, std::span<T> data);

extern template void apply_missing_rewrites<float>(const MissingPolicy&,
                                                   std::span<float>);
extern template void apply_missing_rewrites<double>(const MissingPolicy&,
                                                    std::span<double>);

/// Abstract batched forest classifier over feature scalar T.
template <typename T>
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Backend id, e.g. "encoded", "jit:layout", "parallel(encoded,x4)".
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int num_classes() const noexcept = 0;
  [[nodiscard]] virtual std::size_t feature_count() const noexcept = 0;

  /// Score outputs per sample (model::ForestModel::n_outputs) for backends
  /// built from an additive leaf-value model; 0 for the classic
  /// majority-vote backends, whose only product is a class id.
  [[nodiscard]] virtual int num_outputs() const noexcept { return 0; }
  /// True iff predict_scores is available (score-model backends).
  [[nodiscard]] bool supports_scores() const noexcept {
    return num_outputs() > 0;
  }

  /// Classifies `n_samples` row-major samples.  `features` must hold exactly
  /// `n_samples * feature_count()` values — none of them NaN unless
  /// missing_policy().allow_nan — and `out` at least one slot per sample;
  /// throws std::invalid_argument otherwise.  `n_samples == 0` is a valid
  /// no-op.
  void predict_batch(std::span<const T> features, std::size_t n_samples,
                     std::span<std::int32_t> out) const;

  /// Missing-value treatment at the batch boundary (see MissingPolicy).
  [[nodiscard]] const MissingPolicy& missing_policy() const noexcept {
    return missing_policy_;
  }
  void set_missing_policy(const MissingPolicy& policy) noexcept {
    missing_policy_ = policy;
  }

  /// Convenience overload over a Dataset's backing storage.
  void predict_batch(const data::Dataset<T>& dataset,
                     std::span<std::int32_t> out) const;

  /// Single-sample convenience (a batch of one).  `x` must hold at least
  /// feature_count() values; throws std::invalid_argument otherwise.
  [[nodiscard]] std::int32_t predict_one(std::span<const T> x) const;

  /// Runs the backend hook directly on a batch the *caller* has already
  /// validated (shape and NaN gates and the missing-policy boundary
  /// rewrites skipped).  For decorators re-slicing a
  /// validated batch (ParallelPredictor's worker blocks) and for timing
  /// harnesses that hoist validation out of the measured region so the
  /// timer sees traversal cost, not the O(n x d) boundary scan.  Passing
  /// unvalidated data here is undefined behavior — use predict_batch.
  void predict_batch_prevalidated(const T* features, std::size_t n_samples,
                                  std::int32_t* out) const {
    if (n_samples == 0) return;
    do_predict_batch(features, n_samples, out);
  }

  /// Final model scores for `n_samples` row-major samples:
  /// `out[s*num_outputs()+j]` = base_score[j] + sum of leaf values over
  /// trees, passed through the model's link (sigmoid probability, softmax
  /// distribution, or the raw sum for link-free models; see
  /// docs/MODEL_FORMATS.md "Numerical contract").  Shape/NaN validation
  /// matches predict_batch; `out` needs n_samples * num_outputs() slots.
  /// Throws std::logic_error for backends with num_outputs() == 0
  /// (majority-vote models carry no leaf-value table).
  void predict_scores(std::span<const T> features, std::size_t n_samples,
                      std::span<T> out) const;

  /// Convenience overload over a Dataset's backing storage; wider rows are
  /// compacted to the model width exactly like predict_batch's overload.
  void predict_scores(const data::Dataset<T>& dataset, std::span<T> out) const;

  /// predict_batch_prevalidated's dual for the score path.
  void predict_scores_prevalidated(const T* features, std::size_t n_samples,
                                   T* out) const {
    if (n_samples == 0) return;
    do_predict_scores(features, n_samples, out);
  }

  /// Fraction of dataset rows classified as labeled.
  [[nodiscard]] double accuracy(const data::Dataset<T>& dataset) const;

 protected:
  /// Shape-checked batch hook; must be const-thread-safe (see file comment).
  virtual void do_predict_batch(const T* features, std::size_t n_samples,
                                std::int32_t* out) const = 0;

  /// Shape-checked score hook; must be const-thread-safe.  The default
  /// rejects the call — the answer for every predictor with
  /// num_outputs() == 0.
  virtual void do_predict_scores(const T* features, std::size_t n_samples,
                                 T* out) const;

 private:
  MissingPolicy missing_policy_{};
};

/// CPU parallelism actually available to this process: the smaller of
/// hardware_concurrency() and the cgroup CPU quota, when one applies.  In a
/// container limited to 2 CPUs on a 64-core host, hardware_concurrency()
/// still reports 64 — sizing a pool from it spawns 62 threads that thrash
/// against the quota.  Never returns 0.  This is what `threads == 0` means
/// everywhere in this layer (ParallelPredictor, PredictorOptions, the CLI's
/// `--threads 0`, the serve runtime's `workers == 0`).
[[nodiscard]] unsigned available_parallelism();

/// Testable core of available_parallelism: reads the CPU quota from a
/// cgroup filesystem rooted at `cgroup_root` — v2 `cpu.max` ("<quota>
/// <period>" in microseconds, or "max" for unlimited) first, then v1
/// `cpu/cpu.cfs_quota_us` + `cpu/cpu.cfs_period_us` (-1 quota = unlimited).
/// Returns the quota in whole CPUs (rounded up, at least 1), or 0 when no
/// quota applies or nothing is readable.
[[nodiscard]] unsigned cgroup_cpu_quota(
    const std::string& cgroup_root = "/sys/fs/cgroup");

/// Knobs for make_predictor.
struct PredictorOptions {
  /// Samples per cache block of the blocked backends: each block's votes
  /// are accumulated tree by tree so a tree's node array is read once per
  /// block instead of once per sample.
  std::size_t block_size = 64;
  /// > 1 wraps the backend in a ParallelPredictor with this many workers;
  /// 0 means available_parallelism() (hardware_concurrency capped by the
  /// cgroup CPU quota).
  unsigned threads = 1;
  /// Compiler settings for the "jit:" backends.
  jit::JitOptions jit;
};

/// Builds a predictor for `backend` from a trained majority-vote forest.
/// The forest does not need to outlive the predictor.  Throws
/// std::invalid_argument for an unknown backend name (message lists the
/// vocabulary) and propagates JIT compilation failures.  Backends:
///
///   reference                 per-sample Forest::predict (votes allocated
///                             per call; the semantics baseline)
///   flint | encoded           FlintForestEngine/Encoded, blocked batch
///   layout:auto               the LayoutPlan auto-tuner's verdict
///                             (exec/layout/plan.hpp): compact node width +
///                             hot-slab placement + traversal picked from
///                             forest stats and cache sizes; falls back to
///                             the wide encoded engine when no compact
///                             width fits
///   layout:c16                LayoutForestEngine pinned to 16-byte compact
///                             nodes (throws when the model cannot be
///                             packed at that width)
///   layout:q4                 LayoutForestEngine pinned to 4-byte quantized
///                             nodes (exec/layout/quant4.hpp): per-feature
///                             exact-rank or calibrated-affine thresholds
///                             under a QuantPlan, features quantized once
///                             per block, integer-only hot loop; the auto
///                             tuner picks this width itself only when the
///                             exactness/accuracy contract holds — pinning
///                             accepts any packable image (lossy included)
///   quant:affine              the 4-byte pipeline with every feature
///                             forced through its calibrated affine map —
///                             the deterministic lossy configuration the
///                             quantization benches and accuracy gates
///                             measure
///   jit:layout                generated C compiled in-process from the
///                             bundle's CompactNode16 image: FLInt
///                             thresholds as immediates, tile-blocked batch
///                             bodies, NaN/categorical routing generated —
///                             no interpreter fallback; modules are shared
///                             through a content-hash compile cache
///                             (jit/cache.hpp)
///
/// Every layout-family backend (layout:*, quant:affine, jit:layout) plans
/// from one exec::artifacts::ExecArtifacts build — the bundle `flint-forest
/// inspect` reports from — so name() carries the plan it runs, e.g.
/// "layout:q4/dfs/il4".  `threads != 1` wraps the result in a
/// ParallelPredictor.  Forests with default-direction or categorical nodes
/// (Forest::has_special_splits) are served with NaN routing compiled in
/// and the result's MissingPolicy accepts NaN — in every backend.
template <typename T>
[[nodiscard]] std::unique_ptr<Predictor<T>> make_predictor(
    const trees::Forest<T>& forest, std::string_view backend,
    const PredictorOptions& options = {});

/// Model-aware factory: the same backend vocabulary and rules for any
/// ForestModel.  A majority-vote model gets exactly what the forest
/// overload builds for its forest.  An additive leaf-value model (GBDT,
/// soft-vote, regression) gets the same engine with the score epilogue:
/// predict_scores is base + the leaf-value rows the sample's trees land on,
/// summed in tree order (bit-identical across backends), through the
/// model's link; the compact layouts' key-width gates then bound the
/// leaf-value row index like a class id.  predict_batch classifies from
/// the raw sums when model.is_classifier() and throws std::logic_error for
/// regression models — predict_scores is their API.  The model does not
/// need to outlive the predictor.
///
/// Models with handles_missing get a MissingPolicy that admits NaN and
/// applies the model's zero_as_missing rewrite at the batch boundary;
/// other score models keep the hard NaN reject.
template <typename T>
[[nodiscard]] std::unique_ptr<Predictor<T>> make_predictor(
    const model::ForestModel<T>& model, std::string_view backend,
    const PredictorOptions& options = {});

/// Backend names of the reference and the encoded interpreter.
[[nodiscard]] std::vector<std::string> interpreter_backends();
/// Backend names of the compact cache-aware layouts (exec/layout).
[[nodiscard]] std::vector<std::string> layout_backends();
/// Backend names of the quantized-execution configurations (quant:affine —
/// the 4-byte pipeline with the lossy all-affine plan pinned).
[[nodiscard]] std::vector<std::string> quant_backends();
/// Backend names routed through codegen + in-process compilation.
[[nodiscard]] std::vector<std::string> jit_backends();
/// One-line vocabulary string for CLI usage/error messages.
[[nodiscard]] std::string backend_help();
/// True iff `backend` is a name make_predictor accepts (lists + aliases) —
/// the single vocabulary check for callers that want to validate a name
/// without constructing a predictor (e.g. the CLI on an empty dataset,
/// where jit:* construction would compile and load code for nothing).
[[nodiscard]] bool is_known_backend(std::string_view backend);

/// Nearest valid backend name by edit distance (for "did you mean ...?"
/// error messages); empty when nothing is plausibly close.
[[nodiscard]] std::string suggest_backend(std::string_view backend);

/// Decorator that spreads predict_batch over a persistent std::jthread
/// worker pool.  Samples are handed out in blocks through an atomic cursor,
/// so results are bit-identical for every thread count (each sample's
/// prediction is independent).  Vote scratch lives inside the inner
/// backend's function-local buffers, one set per worker by construction.
template <typename T>
class ParallelPredictor final : public Predictor<T> {
 public:
  /// `threads == 0` means available_parallelism(); `block_size` is the
  /// unit of work handed to a worker (samples).
  ParallelPredictor(std::unique_ptr<Predictor<T>> inner, unsigned threads,
                    std::size_t block_size = 256);
  ~ParallelPredictor() override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int num_classes() const noexcept override {
    return inner_->num_classes();
  }
  [[nodiscard]] std::size_t feature_count() const noexcept override {
    return inner_->feature_count();
  }
  [[nodiscard]] int num_outputs() const noexcept override {
    return inner_->num_outputs();
  }
  [[nodiscard]] unsigned thread_count() const noexcept;

 protected:
  void do_predict_batch(const T* features, std::size_t n_samples,
                        std::int32_t* out) const override;
  void do_predict_scores(const T* features, std::size_t n_samples,
                         T* out) const override;

 private:
  struct Pool;  // jthread worker pool (definition in predictor.cpp)
  std::unique_ptr<Predictor<T>> inner_;
  std::unique_ptr<Pool> pool_;
  std::size_t block_size_;
};

extern template class Predictor<float>;
extern template class Predictor<double>;
extern template class ParallelPredictor<float>;
extern template class ParallelPredictor<double>;

}  // namespace flint::predict
