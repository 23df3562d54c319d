#include "predict/predictor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "codegen/cgen_layout.hpp"
#include "core/hash.hpp"
#include "core/thread_annotations.hpp"
#include "exec/artifacts/artifacts.hpp"
#include "exec/interpreter.hpp"
#include "exec/layout/compact.hpp"
#include "exec/layout/engine.hpp"
#include "exec/layout/plan.hpp"
#include "exec/layout/quant4.hpp"
#include "exec/layout/vote.hpp"
#include "jit/cache.hpp"
#include "predict/jit_predictor.hpp"

namespace flint::predict {

// ---------------------------------------------------------------------------
// Available parallelism: hardware_concurrency capped by the cgroup quota.
// ---------------------------------------------------------------------------

namespace {

/// Ceiling division of two positive quota values into whole CPUs.
unsigned quota_to_cpus(long quota_us, long period_us) {
  const long cpus = (quota_us + period_us - 1) / period_us;
  return static_cast<unsigned>(std::max(1l, cpus));
}

}  // namespace

unsigned cgroup_cpu_quota(const std::string& cgroup_root) {
  // cgroup v2: one file, "<quota> <period>" in microseconds or "max <period>".
  {
    std::ifstream f(cgroup_root + "/cpu.max");
    if (f) {
      std::string quota;
      long period = 0;
      if (f >> quota >> period) {
        if (quota == "max") return 0;  // explicit "no limit"
        char* end = nullptr;
        const long q = std::strtol(quota.c_str(), &end, 10);
        if (end != nullptr && *end == '\0' && q > 0 && period > 0) {
          return quota_to_cpus(q, period);
        }
      }
      return 0;  // v2 hierarchy present but malformed: treat as unlimited
    }
  }
  // cgroup v1: quota and period in separate files; quota -1 = unlimited.
  std::ifstream fq(cgroup_root + "/cpu/cpu.cfs_quota_us");
  std::ifstream fp(cgroup_root + "/cpu/cpu.cfs_period_us");
  long quota = 0;
  long period = 0;
  if ((fq >> quota) && (fp >> period) && quota > 0 && period > 0) {
    return quota_to_cpus(quota, period);
  }
  return 0;
}

unsigned available_parallelism() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned quota = cgroup_cpu_quota();
  return quota ? std::min(hw, quota) : hw;
}

// ---------------------------------------------------------------------------
// Predictor base: shape validation + conveniences.
// ---------------------------------------------------------------------------

namespace {

/// The boundary-rewrite predicate of MissingPolicy: zeros (when
/// zero_as_missing) and NaN (when substitute_nan rewrites NaN to +inf).
template <typename T>
bool needs_missing_rewrite(const MissingPolicy& policy, T v) {
  if (policy.zero_as_missing &&
      std::fabs(v) <= static_cast<T>(kZeroAsMissingThreshold)) {
    return true;
  }
  return policy.substitute_nan && std::isnan(v);
}

/// Rewrites a shape-checked batch per the missing policy.  zero_as_missing
/// maps |x| <= kZeroAsMissingThreshold to the missing value; substitute_nan
/// makes that value +infinity (instead of quiet NaN) and rewrites incoming
/// NaN to it as well — against a forest with no default directions,
/// `x <= t` sends +inf right at every finite split, which is exactly the
/// flag-free missing contract (the factory refuses the one inexact shape, a
/// +inf split).  Returns `features` untouched — no copy — when nothing
/// needs rewriting.
template <typename T>
std::span<const T> missing_transform(const MissingPolicy& policy,
                                     std::span<const T> features,
                                     std::vector<T>& scratch) {
  if (!policy.zero_as_missing && !policy.substitute_nan) return features;
  std::size_t first = 0;
  for (; first < features.size(); ++first) {
    if (needs_missing_rewrite(policy, features[first])) break;
  }
  if (first == features.size()) return features;
  scratch.assign(features.begin(), features.end());
  apply_missing_rewrites<T>(
      policy, std::span<T>(scratch.data() + first, scratch.size() - first));
  return scratch;
}

/// The batch boundary predict_batch and predict_scores share: the shape
/// checks, the NaN gate and the missing-policy rewrite.  `api` prefixes
/// every error; `k` is the outputs per sample (0 = one class id each).
/// Returns the batch to dispatch: `features` itself, or `scratch` when a
/// rewrite had to copy it.
template <typename T>
std::span<const T> admit_batch(const Predictor<T>& predictor, const char* api,
                               std::span<const T> features,
                               std::size_t n_samples, std::size_t out_size,
                               std::size_t k, std::vector<T>& scratch) {
  const std::size_t cols = predictor.feature_count();
  if (features.size() != n_samples * cols) {
    throw std::invalid_argument(
        std::string(api) + ": feature span holds " +
        std::to_string(features.size()) + " values, expected " +
        std::to_string(n_samples * cols) + " (" + std::to_string(n_samples) +
        " samples x " + std::to_string(cols) + " features)");
  }
  if (k == 0 && out_size < n_samples) {
    throw std::invalid_argument(std::string(api) + ": output span too small");
  }
  if (out_size < n_samples * k) {
    throw std::invalid_argument(
        std::string(api) + ": output span holds " + std::to_string(out_size) +
        " values, needs " + std::to_string(n_samples * k) + " (" +
        std::to_string(n_samples) + " samples x " + std::to_string(k) +
        " outputs)");
  }
  // Missing gate: unless the model declares missing support, NaN features
  // are rejected — the FLInt engines order NaN bit patterns instead of
  // comparing unordered, so for legacy models NaN is the one input class
  // where backends could silently diverge from Forest::predict.
  // Missing-capable models admit NaN (routed per-node by the backends'
  // special paths) after the policy's boundary rewrites.
  const MissingPolicy& policy = predictor.missing_policy();
  if (!policy.allow_nan) {
    for (std::size_t i = 0; i < features.size(); ++i) {
      if (std::isnan(features[i])) {
        throw std::invalid_argument(
            std::string(api) + ": NaN feature at sample " +
            std::to_string(i / cols) + ", feature " +
            std::to_string(i % cols) +
            " (this model declares no missing-value support; see README "
            "\"NaN/zero semantics\")");
      }
    }
  }
  return missing_transform<T>(policy, features, scratch);
}

/// The model-width rows of a dataset, for the Dataset overloads: its values
/// as they are when the widths match; for a wider dataset (the row stride
/// differs from the model width) the leading feature_count() values of
/// every row, compacted into `compact` once so the batch still flows
/// through the blocked/parallel fast path instead of degrading to one
/// re-validated predict_one per row.  A narrower dataset throws.
template <typename T>
std::span<const T> model_rows(const Predictor<T>& predictor, const char* api,
                              const data::Dataset<T>& dataset,
                              std::vector<T>& compact) {
  const std::size_t cols = predictor.feature_count();
  if (dataset.cols() < cols) {
    throw std::invalid_argument(std::string(api) +
                                ": dataset has fewer features than the model");
  }
  if (dataset.cols() == cols) return dataset.values();
  compact.resize(dataset.rows() * cols);
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    const auto row = dataset.row(r);
    std::copy(row.begin(), row.begin() + cols, compact.begin() + r * cols);
  }
  return compact;
}

}  // namespace

template <typename T>
void apply_missing_rewrites(const MissingPolicy& policy, std::span<T> data) {
  if (!policy.zero_as_missing && !policy.substitute_nan) return;
  const T missing = policy.substitute_nan
                        ? std::numeric_limits<T>::infinity()
                        : std::numeric_limits<T>::quiet_NaN();
  for (T& v : data) {
    if (needs_missing_rewrite(policy, v)) v = missing;
  }
}

template void apply_missing_rewrites<float>(const MissingPolicy&,
                                            std::span<float>);
template void apply_missing_rewrites<double>(const MissingPolicy&,
                                             std::span<double>);

template <typename T>
void Predictor<T>::predict_batch(std::span<const T> features,
                                 std::size_t n_samples,
                                 std::span<std::int32_t> out) const {
  std::vector<T> scratch;
  const std::span<const T> data = admit_batch<T>(
      *this, "predict_batch", features, n_samples, out.size(), 0, scratch);
  if (n_samples != 0) do_predict_batch(data.data(), n_samples, out.data());
}

template <typename T>
void Predictor<T>::predict_batch(const data::Dataset<T>& dataset,
                                 std::span<std::int32_t> out) const {
  std::vector<T> compact;
  predict_batch(model_rows<T>(*this, "predict_batch", dataset, compact),
                dataset.rows(), out);
}

template <typename T>
void Predictor<T>::predict_scores(std::span<const T> features,
                                  std::size_t n_samples,
                                  std::span<T> out) const {
  if (!supports_scores()) {
    throw std::logic_error(
        "predict_scores: backend '" + name() +
        "' exposes no scores (majority-vote model; build the predictor from "
        "an additive leaf-value ForestModel)");
  }
  std::vector<T> scratch;
  const std::span<const T> data = admit_batch<T>(
      *this, "predict_scores", features, n_samples, out.size(),
      static_cast<std::size_t>(num_outputs()), scratch);
  if (n_samples != 0) do_predict_scores(data.data(), n_samples, out.data());
}

template <typename T>
void Predictor<T>::predict_scores(const data::Dataset<T>& dataset,
                                  std::span<T> out) const {
  std::vector<T> compact;
  predict_scores(model_rows<T>(*this, "predict_scores", dataset, compact),
                 dataset.rows(), out);
}

template <typename T>
void Predictor<T>::do_predict_scores(const T* /*features*/,
                                     std::size_t /*n_samples*/,
                                     T* /*out*/) const {
  // Unreachable through predict_scores (the supports_scores gate throws
  // first); direct prevalidated calls on a vote backend land here.
  throw std::logic_error("do_predict_scores: backend '" + name() +
                         "' exposes no scores");
}

template <typename T>
std::int32_t Predictor<T>::predict_one(std::span<const T> x) const {
  // first() below has an out-of-bounds precondition (UB), so the shape
  // error must be thrown before slicing, not left to predict_batch.
  if (x.size() < feature_count()) {
    throw std::invalid_argument(
        "predict_one: sample holds " + std::to_string(x.size()) +
        " values, model needs " + std::to_string(feature_count()));
  }
  std::int32_t result = -1;
  predict_batch(x.first(feature_count()), 1, {&result, 1});
  return result;
}

template <typename T>
double Predictor<T>::accuracy(const data::Dataset<T>& dataset) const {
  if (dataset.empty()) return 0.0;
  std::vector<std::int32_t> out(dataset.rows());
  predict_batch(dataset, out);
  std::size_t hits = 0;
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    if (out[r] == dataset.label(r)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(dataset.rows());
}

namespace {

// ---------------------------------------------------------------------------
// Engines.  Every backend is one engine plus one aggregation epilogue, so
// one Predictor class serves them all (EnginePredictor below).  An engine
// provides
//
//   predict_batch(features, n, out)      majority-vote class per sample
//   predict_scores(features, n, leaf_values, k, base, out)
//                                        base[j] + the sample's leaf-value
//                                        rows summed IN TREE ORDER, no link
//
// The layout and q4 engines implement that contract themselves; the encoded
// interpreter, the reference and jit:layout get the adapters in this
// section.  Tree-order accumulation is the reference summation order,
// so raw sums are bit-identical across every backend on identical inputs,
// and the link (applied once, in double) preserves that
// (docs/MODEL_FORMATS.md "Numerical contract").
// ---------------------------------------------------------------------------

/// Seeds each sample's score row with the base margins (zeros when empty).
template <typename T>
void init_rows(std::span<const T> base, std::size_t k, std::size_t n_samples,
               T* out) {
  for (std::size_t s = 0; s < n_samples; ++s) {
    for (std::size_t j = 0; j < k; ++j) {
      out[s * k + j] = base.empty() ? T{0} : base[j];
    }
  }
}

/// Adds leaf-value row `row` into one sample's score row.
template <typename T>
void add_row(std::span<const T> leaf_values, std::size_t k, std::int32_t row,
             T* srow) {
  const T* lv = leaf_values.data() + static_cast<std::size_t>(row) * k;
  for (std::size_t j = 0; j < k; ++j) srow[j] += lv[j];
}

// The encoded interpreter: blocked batch over engine.predict_tree.
//
// Layout of the hot loop: samples are cut into blocks of `block_size`;
// within a block, each tree classifies every sample of the block before the
// next tree is touched.  A tree's node array is therefore streamed through
// the cache once per block instead of once per sample, and the B x C vote
// matrix (or the B x k score rows) is the only state carried across trees.

/// The one blocked tree-scan skeleton both epilogues (vote and score)
/// share: samples cut into blocks, then every tree's payload streamed
/// across the block.  `block_begin(base, count)` / `block_end(base, count)`
/// bracket each block; `on_payload(global_sample, local_sample, payload)`
/// consumes one tree's leaf payload.
template <typename T, typename BlockBegin, typename OnPayload,
          typename BlockEnd>
void blocked_tree_scan(const exec::FlintForestEngine<T>& engine,
                       std::size_t cols, std::size_t block_size,
                       const T* features, std::size_t n_samples,
                       BlockBegin&& block_begin, OnPayload&& on_payload,
                       BlockEnd&& block_end) {
  const std::size_t trees = engine.tree_count();
  for (std::size_t base = 0; base < n_samples; base += block_size) {
    const std::size_t block = std::min(block_size, n_samples - base);
    block_begin(base, block);
    for (std::size_t t = 0; t < trees; ++t) {
      for (std::size_t s = 0; s < block; ++s) {
        const std::span<const T> row{features + (base + s) * cols, cols};
        on_payload(base + s, s, engine.predict_tree(t, row));
      }
    }
    block_end(base, block);
  }
}

/// The encoded FlintForestEngine under the engine contract: the blocked
/// scan with a vote tally or a leaf-row add as the per-payload step.
template <typename T>
struct BlockedEngine {
  exec::FlintForestEngine<T> engine;
  std::size_t cols;
  std::size_t block_size;

  void predict_batch(const T* features, std::size_t n_samples,
                     std::int32_t* out) const {
    const auto classes =
        static_cast<std::size_t>(std::max(engine.num_classes(), 1));
    std::vector<int> votes(block_size * classes);
    blocked_tree_scan(
        engine, cols, block_size, features, n_samples,
        [&](std::size_t, std::size_t block) {
          std::fill(votes.begin(), votes.begin() + block * classes, 0);
        },
        [&](std::size_t, std::size_t s, std::int32_t c) {
          ++votes[s * classes + static_cast<std::size_t>(c)];
        },
        [&](std::size_t base, std::size_t block) {
          for (std::size_t s = 0; s < block; ++s) {
            out[base + s] =
                exec::layout::argmax_first(votes.data() + s * classes, classes);
          }
        });
  }

  void predict_scores(const T* features, std::size_t n_samples,
                      std::span<const T> leaf_values, std::size_t k,
                      std::span<const T> base, T* out) const {
    init_rows(base, k, n_samples, out);
    blocked_tree_scan(
        engine, cols, block_size, features, n_samples,
        [](std::size_t, std::size_t) {},
        [&](std::size_t global, std::size_t, std::int32_t row) {
          add_row(leaf_values, k, row, out + global * k);
        },
        [](std::size_t, std::size_t) {});
  }
};

/// Semantics baseline: per-sample Forest::predict, and per-sample,
/// per-tree Tree::predict accumulation, over an owned forest copy — what
/// every other backend is property-tested against.
template <typename T>
struct ReferenceEngine {
  trees::Forest<T> forest;

  void predict_batch(const T* features, std::size_t n_samples,
                     std::int32_t* out) const {
    const std::size_t cols = forest.feature_count();
    for (std::size_t s = 0; s < n_samples; ++s) {
      out[s] = forest.predict({features + s * cols, cols});
    }
  }

  void predict_scores(const T* features, std::size_t n_samples,
                      std::span<const T> leaf_values, std::size_t k,
                      std::span<const T> base, T* out) const {
    const std::size_t cols = forest.feature_count();
    init_rows(base, k, n_samples, out);
    for (std::size_t s = 0; s < n_samples; ++s) {
      const std::span<const T> row{features + s * cols, cols};
      for (std::size_t t = 0; t < forest.size(); ++t) {
        add_row(leaf_values, k, forest.tree(t).predict(row), out + s * k);
      }
    }
  }
};

/// jit:layout: a generated tile-blocked body compiled from the compact
/// image (codegen/cgen_layout.hpp), shared through the process-wide
/// compile cache.  A vote module exports the batch body; a score module
/// exports the accumulate body, with the leaf-value table and base offsets
/// embedded as generated immediates (so the run-time table is not read).
/// Const-thread-safe: generated scratch is function-local (stack arrays).
template <typename T>
struct JitLayoutEngine {
  std::shared_ptr<const jit::JitModule> module;
  void (*batch)(const T*, long long, std::int32_t*) = nullptr;
  void (*accumulate)(const T*, long long, T*) = nullptr;

  void predict_batch(const T* features, std::size_t n_samples,
                     std::int32_t* out) const {
    batch(features, static_cast<long long>(n_samples), out);
  }

  void predict_scores(const T* features, std::size_t n_samples,
                      std::span<const T> /*leaf_values*/, std::size_t /*k*/,
                      std::span<const T> /*base*/, T* out) const {
    accumulate(features, static_cast<long long>(n_samples), out);
  }
};

/// The semantic half of an additive leaf-value ForestModel the score
/// epilogue needs at run time (the structural forest lives inside the
/// engine).
template <typename T>
struct ScoreSpec {
  std::vector<T> leaf_values;  ///< rows x n_outputs
  std::vector<T> base;         ///< per-output base margin (empty = zeros)
  int n_outputs = 1;
  model::Link link = model::Link::None;
  int num_classes = 0;  ///< 0 = regression (predict_batch unavailable)

  static ScoreSpec from(const model::ForestModel<T>& m) {
    return {m.leaf_values, m.aggregation.base_score, m.n_outputs,
            m.aggregation.link, m.num_classes()};
  }
};

/// The one engine-generic predictor.  Without a ScoreSpec it serves the
/// engine's vote tally.  With one, predict_scores is the engine's raw sums
/// through the model's link, and predict_batch reduces the raw sums to a
/// class (argmax first-max for k > 1; margin > 0 for k == 1, the boundary
/// falling to class 0 like a vote tie) — links never change an argmax, and
/// model::class_from_raw is the single home of that rule.
template <typename T, typename Engine>
class EnginePredictor final : public Predictor<T> {
 public:
  EnginePredictor(Engine engine, std::string name,
                  const trees::Forest<T>& forest,
                  std::optional<ScoreSpec<T>> spec)
      : engine_(std::move(engine)),
        name_(std::move(name)),
        num_classes_(spec ? spec->num_classes : forest.num_classes()),
        feature_count_(forest.feature_count()),
        spec_(std::move(spec)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int num_classes() const noexcept override {
    return num_classes_;
  }
  [[nodiscard]] std::size_t feature_count() const noexcept override {
    return feature_count_;
  }
  [[nodiscard]] int num_outputs() const noexcept override {
    return spec_ ? spec_->n_outputs : 0;
  }

 protected:
  void do_predict_batch(const T* features, std::size_t n_samples,
                        std::int32_t* out) const override {
    if (!spec_) {
      engine_.predict_batch(features, n_samples, out);
      return;
    }
    if (num_classes_ <= 0) {
      throw std::logic_error(
          "predict_batch: '" + name_ +
          "' serves a regression model with no classes; use predict_scores");
    }
    const auto k = static_cast<std::size_t>(spec_->n_outputs);
    std::vector<T> raw(n_samples * k);
    raw_scores(*spec_, features, n_samples, raw.data());
    for (std::size_t s = 0; s < n_samples; ++s) {
      out[s] = model::class_from_raw(spec_->n_outputs, raw.data() + s * k);
    }
  }

  void do_predict_scores(const T* features, std::size_t n_samples,
                         T* out) const override {
    if (!spec_) {
      Predictor<T>::do_predict_scores(features, n_samples, out);
      return;
    }
    raw_scores(*spec_, features, n_samples, out);
    model::apply_link(spec_->link, n_samples,
                      static_cast<std::size_t>(spec_->n_outputs), out);
  }

 private:
  void raw_scores(const ScoreSpec<T>& spec, const T* features,
                  std::size_t n_samples, T* out) const {
    engine_.predict_scores(features, n_samples, spec.leaf_values,
                           static_cast<std::size_t>(spec.n_outputs), spec.base,
                           out);
  }

  Engine engine_;
  std::string name_;
  int num_classes_;
  std::size_t feature_count_;
  std::optional<ScoreSpec<T>> spec_;
};

}  // namespace

// ---------------------------------------------------------------------------
// JitPredictor.
// ---------------------------------------------------------------------------

template <typename T>
JitPredictor<T>::JitPredictor(jit::JitModule module, const std::string& symbol,
                              std::string flavor, int num_classes,
                              std::size_t feature_count)
    : module_(std::make_shared<jit::JitModule>(std::move(module))),
      flavor_(std::move(flavor)),
      num_classes_(num_classes),
      feature_count_(feature_count) {
  classify_ = module_->function<jit::ClassifyFn<T>>(symbol);
}

template <typename T>
JitPredictor<T>::JitPredictor(const codegen::GeneratedCode& code,
                              const jit::JitOptions& jopt, int num_classes,
                              std::size_t feature_count)
    : JitPredictor(jit::compile(code, jopt), code.classify_symbol, code.flavor,
                   num_classes, feature_count) {}

template <typename T>
void JitPredictor<T>::do_predict_batch(const T* features, std::size_t n_samples,
                                       std::int32_t* out) const {
  const std::size_t cols = feature_count_;
  for (std::size_t s = 0; s < n_samples; ++s) {
    out[s] = classify_(features + s * cols);
  }
}

// ---------------------------------------------------------------------------
// ParallelPredictor: persistent jthread pool, atomic block cursor.
// ---------------------------------------------------------------------------

template <typename T>
struct ParallelPredictor<T>::Pool {
  struct Job {
    const T* features = nullptr;
    std::int32_t* out = nullptr;     ///< class path (exclusive with scores)
    T* out_scores = nullptr;         ///< score path
    std::size_t n_outputs = 0;       ///< row stride of out_scores
    std::size_t n = 0;
    std::size_t block = 1;
    std::atomic<std::size_t> next{0};
  };

  Pool(const Predictor<T>& inner, unsigned workers) : inner(inner) {
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      threads.emplace_back([this](std::stop_token st) { worker_loop(st); });
    }
  }

  ~Pool() {
    {
      core::MutexLock lk(m);
      for (auto& t : threads) t.request_stop();
    }
    cv.notify_all();
    // jthread destructors join.
  }

  // The interruptible wait's API demands the predicate-lambda form (the
  // stop callback races with plain wait loops), and the analysis cannot
  // see that such a predicate runs under the lock — so this one function
  // is exempted instead of weakening the member annotations everywhere.
  void worker_loop(std::stop_token st) FLINT_NO_THREAD_SAFETY_ANALYSIS {
    std::uint64_t seen = 0;
    while (true) {
      Job* job = nullptr;
      {
        core::UniqueLock lk(m);
        cv.wait(lk, st, [&] { return generation != seen; });
        if (generation == seen) return;  // woken by stop request
        seen = generation;
        job = current;
      }
      drain(*job);
      {
        core::MutexLock lk(m);
        ++finished;
      }
      done_cv.notify_all();
    }
  }

  /// Pulls blocks off the shared cursor until the job is exhausted.  Runs
  /// on every worker and on the calling thread.  Blocks are sub-ranges of a
  /// batch the outer predict_batch already shape- and NaN-validated, so
  /// they dispatch straight to the inner hook instead of re-running the
  /// gates per block.
  void drain(Job& job) {
    const std::size_t cols = inner.feature_count();
    while (true) {
      const std::size_t start =
          job.next.fetch_add(job.block, std::memory_order_relaxed);
      if (start >= job.n) return;
      const std::size_t count = std::min(job.block, job.n - start);
      try {
        if (job.out_scores) {
          inner.predict_scores_prevalidated(
              job.features + start * cols, count,
              job.out_scores + start * job.n_outputs);
        } else {
          inner.predict_batch_prevalidated(job.features + start * cols, count,
                                           job.out + start);
        }
      } catch (...) {
        core::MutexLock lk(m);
        if (!error) error = std::current_exception();
        return;
      }
    }
  }

  /// Publishes the job, participates in it, waits for all workers, and
  /// rethrows the first worker exception if any.
  void run(Job& job) {
    core::MutexLock serialize(job_mutex);  // one batch at a time per pool
    {
      core::MutexLock lk(m);
      current = &job;
      finished = 0;
      error = nullptr;
      ++generation;
    }
    cv.notify_all();
    drain(job);
    {
      core::UniqueLock lk(m);
      while (finished != threads.size()) done_cv.wait(lk);
      current = nullptr;
      if (error) {
        auto e = error;
        error = nullptr;
        std::rethrow_exception(e);
      }
    }
  }

  const Predictor<T>& inner;
  core::Mutex job_mutex;
  core::Mutex m;
  std::condition_variable_any cv;
  std::condition_variable_any done_cv;
  std::uint64_t generation FLINT_GUARDED_BY(m) = 0;
  std::size_t finished FLINT_GUARDED_BY(m) = 0;
  Job* current FLINT_GUARDED_BY(m) = nullptr;
  std::exception_ptr error FLINT_GUARDED_BY(m);
  std::vector<std::jthread> threads;
};

template <typename T>
ParallelPredictor<T>::ParallelPredictor(std::unique_ptr<Predictor<T>> inner,
                                        unsigned threads,
                                        std::size_t block_size)
    : inner_(std::move(inner)),
      block_size_(std::max<std::size_t>(block_size, 1)) {
  if (!inner_) {
    throw std::invalid_argument("ParallelPredictor: null inner predictor");
  }
  if (threads == 0) {
    // Not hardware_concurrency(): inside a cgroup CPU quota (containers),
    // that would spawn one worker per host core and thrash the quota.
    threads = available_parallelism();
  }
  // The calling thread participates in every batch, so the pool itself only
  // needs threads - 1 workers; one "thread" means plain inline execution.
  pool_ = std::make_unique<Pool>(*inner_, threads - 1);
}

template <typename T>
ParallelPredictor<T>::~ParallelPredictor() = default;

template <typename T>
std::string ParallelPredictor<T>::name() const {
  return "parallel(" + inner_->name() + ",x" +
         std::to_string(thread_count()) + ")";
}

template <typename T>
unsigned ParallelPredictor<T>::thread_count() const noexcept {
  return static_cast<unsigned>(pool_->threads.size()) + 1;
}

template <typename T>
void ParallelPredictor<T>::do_predict_batch(const T* features,
                                            std::size_t n_samples,
                                            std::int32_t* out) const {
  // Small batches are not worth the wakeup: run inline.  The base class
  // already validated this batch, so dispatch straight to the inner hook.
  if (pool_->threads.empty() || n_samples <= block_size_) {
    inner_->predict_batch_prevalidated(features, n_samples, out);
    return;
  }
  typename Pool::Job job;
  job.features = features;
  job.out = out;
  job.n = n_samples;
  job.block = block_size_;
  pool_->run(job);
}

template <typename T>
void ParallelPredictor<T>::do_predict_scores(const T* features,
                                             std::size_t n_samples,
                                             T* out) const {
  if (pool_->threads.empty() || n_samples <= block_size_) {
    inner_->predict_scores_prevalidated(features, n_samples, out);
    return;
  }
  typename Pool::Job job;
  job.features = features;
  job.out_scores = out;
  job.n_outputs = static_cast<std::size_t>(inner_->num_outputs());
  job.n = n_samples;
  job.block = block_size_;
  pool_->run(job);
}

// ---------------------------------------------------------------------------
// Factory.
// ---------------------------------------------------------------------------

std::vector<std::string> interpreter_backends() {
  return {"reference", "encoded"};
}

std::vector<std::string> layout_backends() {
  return {"layout:auto", "layout:c16", "layout:q4"};
}

std::vector<std::string> quant_backends() {
  return {"quant:affine"};
}

std::vector<std::string> jit_backends() {
  return {"jit:layout"};
}

bool is_known_backend(std::string_view backend) {
  if (backend == "flint") return true;  // factory alias for "encoded"
  for (const auto& list : {interpreter_backends(), layout_backends(),
                           quant_backends(), jit_backends()}) {
    for (const auto& name : list) {
      if (name == backend) return true;
    }
  }
  return false;
}

std::string backend_help() {
  std::string help;
  for (const auto& name : interpreter_backends()) {
    if (!help.empty()) help += "|";
    help += name;
  }
  help += "|flint";
  for (const auto& name : layout_backends()) {
    help += "|" + name;
  }
  for (const auto& name : quant_backends()) {
    help += "|" + name;
  }
  for (const auto& name : jit_backends()) {
    help += "|" + name;
  }
  return help;
}

namespace {

/// Plain Levenshtein distance; backend names are short (< 20 chars) so the
/// quadratic DP is fine.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string suggest_backend(std::string_view backend) {
  std::vector<std::string> names;
  for (auto& list : {interpreter_backends(), layout_backends(),
                     quant_backends(), jit_backends()}) {
    names.insert(names.end(), list.begin(), list.end());
  }
  names.emplace_back("flint");

  std::string best;
  std::size_t best_dist = std::numeric_limits<std::size_t>::max();
  for (const auto& name : names) {
    const std::size_t d = edit_distance(backend, name);
    if (d < best_dist) {
      best_dist = d;
      best = name;
    }
  }
  const std::size_t longest = std::max(backend.size(), best.size());
  if (best_dist <= std::max<std::size_t>(2, longest / 3 + 1)) return best;

  // No near-miss: fall back to the closest name in the same family, so any
  // unknown "jit:..." still points at "jit:layout" etc.
  const std::size_t colon = backend.find(':');
  if (colon != std::string_view::npos) {
    const std::string_view family = backend.substr(0, colon + 1);
    best.clear();
    best_dist = std::numeric_limits<std::size_t>::max();
    for (const auto& name : names) {
      if (name.rfind(family, 0) != 0) continue;
      const std::size_t d = edit_distance(backend, name);
      if (d < best_dist) {
        best_dist = d;
        best = name;
      }
    }
    return best;  // empty when the family itself is unknown
  }
  return {};
}

namespace {

/// All unknown-backend rejections flow through here so every error carries
/// the nearest valid name plus the full vocabulary.
[[noreturn]] void throw_unknown_backend(std::string_view backend) {
  std::string msg =
      "make_predictor: unknown backend '" + std::string(backend) + "'";
  if (const std::string near = suggest_backend(backend); !near.empty()) {
    msg += " (did you mean '" + near + "'?)";
  }
  msg += " (" + backend_help() + ")";
  throw std::invalid_argument(msg);
}

template <typename T>
using OptionalSpec = std::optional<ScoreSpec<T>>;

/// Pinned-width rejections name the backend and the packer's reason.
[[noreturn]] void throw_unpackable(std::string_view mode,
                                   const std::string& why) {
  throw std::invalid_argument("make_predictor: layout:" + std::string(mode) +
                              " cannot pack this model (" + why + ")");
}

/// Wraps `engine` in the one predictor class.
template <typename T, typename Engine>
std::unique_ptr<Predictor<T>> wrap(Engine engine, std::string name,
                                   const trees::Forest<T>& forest,
                                   OptionalSpec<T> spec) {
  return std::make_unique<EnginePredictor<T, Engine>>(
      std::move(engine), std::move(name), forest, std::move(spec));
}

/// The `encoded` backend: the wide encoded interpreter under the blocked
/// scan.  layout:auto also falls back to it when no compact width fits.
template <typename T>
std::unique_ptr<Predictor<T>> make_encoded_predictor(
    const trees::Forest<T>& forest, OptionalSpec<T> spec,
    const PredictorOptions& options) {
  return wrap(BlockedEngine<T>{exec::FlintForestEngine<T>(
                                   forest, exec::FlintVariant::Encoded),
                               forest.feature_count(),
                               std::max<std::size_t>(options.block_size, 1)},
              "encoded", forest, std::move(spec));
}

/// layout:auto|c16|q4 (`mode` is the part after "layout:") and, with
/// `affine`, quant:affine.  One ExecArtifacts build plans them all — the
/// planning `inspect` reports.  A pinned width gets placement and traversal
/// tuned for its own image size.  The engine binds the bundle's image of
/// the planned width; a 4-byte image for auto only stands when the
/// quantization contract holds (the bundle demotes otherwise), while
/// pinned layout:q4 accepts any packable image, lossy or not.
/// quant:affine packs the pinned 4-byte plan with every tested feature
/// forced through its calibrated affine map: the deterministic lossy
/// configuration, same format and kernels.  Auto falls back to the wide
/// encoded interpreter when no compact width fits.
template <typename T>
std::unique_ptr<Predictor<T>> make_layout_predictor(
    const trees::Forest<T>& forest, std::string_view mode, OptionalSpec<T> spec,
    const PredictorOptions& options, bool affine = false) {
  namespace layout = exec::layout;
  std::optional<layout::NodeWidth> width;
  if (mode == "c16") {
    width = layout::NodeWidth::C16;
  } else if (mode == "q4") {
    width = layout::NodeWidth::Q4;
  } else if (mode != "auto") {
    throw_unknown_backend("layout:" + std::string(mode));
  }
  exec::artifacts::ExecArtifacts<T> art(forest, options.block_size,
                                        layout::detect_cache_info(), width);
  if (width) {
    if (const std::string why = layout::width_unfit_reason(*width, art.fit());
        !why.empty()) {
      throw_unpackable(mode, why);
    }
  }
  const layout::LayoutPlan& plan = art.plan();
  if (plan.width == layout::NodeWidth::Wide) {
    return make_encoded_predictor(forest, std::move(spec), options);
  }
  if (plan.width == layout::NodeWidth::Q4) {
    std::string why;
    auto image = affine ? layout::try_pack_q4<T>(forest, plan, art.tables(),
                                                 /*force_affine=*/true, &why)
                        : art.take_q4(&why);
    if (!image) throw_unpackable(mode, why);
    layout::LayoutForestEngine engine(std::move(*image), plan);
    std::string name = affine ? "quant:affine(" + plan.describe() + ")"
                              : "layout:" + engine.plan().describe();
    return wrap(std::move(engine), std::move(name), forest, std::move(spec));
  }
  std::string why;
  auto image = art.take_c16(&why);
  if (!image) throw_unpackable(mode, why);
  layout::LayoutForestEngine engine(std::move(*image), plan);
  std::string name = "layout:" + engine.plan().describe();
  return wrap(std::move(engine), std::move(name), forest, std::move(spec));
}

/// Bumped whenever generate_layout's output changes shape, so stale cache
/// entries from an older generator can never be served.
constexpr std::uint64_t kLayoutGenVersion = 2;

/// jit:layout toolchain: the module is compiled on the machine that runs it,
/// so target the host ISA and let the optimizer unroll the short fixed-trip
/// lockstep loops — that is what turns the complete-table descent into
/// vectorized gathers.  Callers who set their own extra_flags keep them.
jit::JitOptions layout_jit_toolchain(const jit::JitOptions& base) {
  jit::JitOptions tuned = base;
  tuned.opt_level = std::max(tuned.opt_level, 3);
  if (tuned.extra_flags.empty()) {
    tuned.extra_flags = {"-march=native", "-funroll-loops"};
  }
  return tuned;
}

/// Content hash for the compile cache: everything that influences the
/// generated object — forest content, scalar width, model semantics
/// (vote vs. score, leaf table, base offsets), plan knobs the generator
/// reads, and the JIT toolchain options.
template <typename T>
std::uint64_t layout_jit_key(std::uint64_t content, const jit::JitOptions& jopt,
                             const codegen::LayoutCGenSpec<T>& spec,
                             const exec::layout::LayoutPlan& plan) {
  core::Fnv1a64 h;
  h.add(kLayoutGenVersion);
  h.add(content);
  h.add(static_cast<std::uint32_t>(sizeof(T)));
  h.add(static_cast<std::uint8_t>(spec.vote));
  h.add(static_cast<std::uint64_t>(spec.n_outputs));
  for (const T v : spec.leaf_values) h.add(core::si_bits(v));
  for (const T v : spec.base) h.add(core::si_bits(v));
  h.add_string(jopt.compiler);
  h.add(jopt.opt_level);
  for (const auto& flag : jopt.extra_flags) h.add_string(flag);
  h.add(static_cast<std::uint32_t>(plan.hot_depth));
  h.add(static_cast<std::uint64_t>(plan.block_size));
  return h.digest();
}

/// jit:layout: one artifact build, one generated module from the bundle's
/// c16 image, shared through the process-wide compile cache.  NaN default
/// directions and categorical masks are generated code, so special forests
/// are served natively, never via interpreter fallback.  A score spec makes
/// the module accumulate scores instead of tallying votes.
template <typename T>
std::unique_ptr<Predictor<T>> make_layout_jit_predictor(
    const trees::Forest<T>& forest, OptionalSpec<T> spec,
    const PredictorOptions& options) {
  exec::artifacts::ExecArtifacts<T> art(forest, options.block_size);
  const exec::layout::CompactForest<T, exec::layout::CompactNode16>* image =
      nullptr;
  try {
    image = &art.compact16();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(
        std::string("make_predictor: jit:layout cannot pack this model (") +
        e.what() + ")");
  }
  codegen::LayoutCGenSpec<T> gen_spec;
  gen_spec.vote = !spec;
  gen_spec.num_classes = spec ? spec->num_classes : forest.num_classes();
  if (spec) {
    gen_spec.n_outputs = static_cast<std::size_t>(spec->n_outputs);
    gen_spec.leaf_values = spec->leaf_values;
    gen_spec.base = spec->base;
  }
  const auto gen = [&] {
    return codegen::generate_layout(*image, art.plan(), gen_spec);
  };
  const jit::JitOptions tuned = layout_jit_toolchain(options.jit);
  JitLayoutEngine<T> engine;
  try {
    engine.module = jit::CompileCache::instance().get_or_compile(
        layout_jit_key(art.content_hash(), tuned, gen_spec, art.plan()), gen,
        tuned);
  } catch (const std::runtime_error&) {
    // Host-tuned flags can be rejected by exotic toolchains; the portable
    // flag set compiles the same module everywhere.
    engine.module = jit::CompileCache::instance().get_or_compile(
        layout_jit_key(art.content_hash(), options.jit, gen_spec, art.plan()),
        gen, options.jit);
  }
  if (spec) {
    engine.accumulate =
        engine.module->template function<void(const T*, long long, T*)>(
            "forest_accumulate_scores");
  } else {
    engine.batch = engine.module->template function<
        void(const T*, long long, std::int32_t*)>("forest_predict_batch");
  }
  return wrap(std::move(engine), "jit:layout", forest, std::move(spec));
}

/// The backend-name dispatch both make_predictor overloads share: `spec`
/// absent builds the vote epilogue, present the score epilogue.
template <typename T>
std::unique_ptr<Predictor<T>> build_predictor(const trees::Forest<T>& forest,
                                              std::string_view backend,
                                              OptionalSpec<T> spec,
                                              const PredictorOptions& options) {
  if (backend == "reference") {
    if (forest.empty()) {
      throw std::invalid_argument("ReferenceEngine: empty forest");
    }
    return wrap(ReferenceEngine<T>{forest}, "reference", forest,
                std::move(spec));
  }
  if (backend == "encoded" || backend == "flint") {
    return make_encoded_predictor(forest, std::move(spec), options);
  }
  if (backend.starts_with("layout:")) {
    return make_layout_predictor(forest, backend.substr(7), std::move(spec),
                                 options);
  }
  if (backend == "quant:affine") {
    return make_layout_predictor(forest, "q4", std::move(spec), options,
                                 /*affine=*/true);
  }
  if (backend == "jit:layout") {
    return make_layout_jit_predictor(forest, std::move(spec), options);
  }
  throw_unknown_backend(backend);
}

/// Guard for MissingPolicy::substitute_nan (flag-free missing-capable
/// forests): the +infinity rewrite routes right only against finite splits,
/// so the one forest shape it cannot serve exactly — a +inf split with no
/// default directions anywhere — is refused up front.
template <typename T>
void require_substitutable(const trees::Forest<T>& forest) {
  for (std::size_t t = 0; t < forest.size(); ++t) {
    for (const auto& n : forest.tree(t).nodes()) {
      if (!n.is_leaf() && n.split == std::numeric_limits<T>::infinity()) {
        throw std::invalid_argument(
            "make_predictor: model declares missing-value support but its "
            "forest has no default directions and a +inf split; NaN routing "
            "cannot be represented — retrain or add default directions");
      }
    }
  }
}

/// What both entry points do last: the ParallelPredictor wrapping, then
/// the missing policy on the OUTERMOST predictor, so the boundary rewrite
/// runs exactly once.
template <typename T>
std::unique_ptr<Predictor<T>> finish(std::unique_ptr<Predictor<T>> predictor,
                                     const PredictorOptions& options,
                                     const MissingPolicy& policy) {
  if (options.threads != 1) {
    // The parallel chunk must be at least the cache block, or the chunking
    // would silently cap the blocked backends' block_size.
    predictor = std::make_unique<ParallelPredictor<T>>(
        std::move(predictor), options.threads,
        std::max<std::size_t>(options.block_size, 256));
  }
  predictor->set_missing_policy(policy);
  return predictor;
}

}  // namespace

template <typename T>
std::unique_ptr<Predictor<T>> make_predictor(const model::ForestModel<T>& model,
                                             std::string_view backend,
                                             const PredictorOptions& options) {
  if (const std::string err = model.validate(); !err.empty()) {
    throw std::invalid_argument("make_predictor: invalid model: " + err);
  }
  OptionalSpec<T> spec;
  if (!model.is_vote()) spec = ScoreSpec<T>::from(model);
  auto predictor =
      build_predictor(model.forest, backend, std::move(spec), options);
  MissingPolicy policy;
  if (model.handles_missing) {
    policy.allow_nan = true;
    policy.zero_as_missing = model.zero_as_missing;
    policy.substitute_nan = !model.forest.has_special_splits();
    if (policy.substitute_nan) require_substitutable(model.forest);
  } else {
    // Majority-vote models ARE v1 forests: the forest rule applies.
    policy.allow_nan = model.is_vote() && model.forest.has_special_splits();
  }
  return finish(std::move(predictor), options, policy);
}

template <typename T>
std::unique_ptr<Predictor<T>> make_predictor(const trees::Forest<T>& forest,
                                             std::string_view backend,
                                             const PredictorOptions& options) {
  // A forest carrying default directions routes NaN itself; admit it.
  MissingPolicy policy;
  policy.allow_nan = forest.has_special_splits();
  return finish(build_predictor<T>(forest, backend, std::nullopt, options),
                options, policy);
}

template class Predictor<float>;
template class Predictor<double>;
template class JitPredictor<float>;
template class JitPredictor<double>;
template class ParallelPredictor<float>;
template class ParallelPredictor<double>;
template std::unique_ptr<Predictor<float>> make_predictor<float>(
    const trees::Forest<float>&, std::string_view, const PredictorOptions&);
template std::unique_ptr<Predictor<double>> make_predictor<double>(
    const trees::Forest<double>&, std::string_view, const PredictorOptions&);
template std::unique_ptr<Predictor<float>> make_predictor<float>(
    const model::ForestModel<float>&, std::string_view,
    const PredictorOptions&);
template std::unique_ptr<Predictor<double>> make_predictor<double>(
    const model::ForestModel<double>&, std::string_view,
    const PredictorOptions&);

}  // namespace flint::predict
