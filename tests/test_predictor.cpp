// Property tests for the predict/ subsystem: predict_batch over every
// backend must be bit-identical to per-sample Forest::predict on synthetic
// forests — including adversarial inputs (exact split hits, signed zeros,
// denormals, infinities) — and ParallelPredictor results must be invariant
// under thread count and block size.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "data/split.hpp"
#include "data/synth.hpp"
#include "predict/predictor.hpp"
#include "trees/forest.hpp"

namespace {

using flint::predict::make_predictor;
using flint::predict::ParallelPredictor;
using flint::predict::Predictor;
using flint::predict::PredictorOptions;

/// Builds an adversarial row-major feature matrix: a mix of the forest's
/// own split values (boundary hits), special float patterns, and uniform
/// randoms.  Deterministic in `seed`.
std::vector<float> adversarial_features(const flint::trees::Forest<float>& forest,
                                        std::size_t n_samples,
                                        std::uint64_t seed) {
  std::vector<float> splits;
  for (std::size_t t = 0; t < forest.size(); ++t) {
    for (const auto& n : forest.tree(t).nodes()) {
      if (!n.is_leaf()) splits.push_back(n.split);
    }
  }
  const float specials[] = {0.0f, -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest()};
  std::mt19937_64 rng(seed);
  // Leaf-only forests (degenerate-ensemble tests) have no splits to hit;
  // the distribution bound below must stay well-formed regardless.
  std::uniform_int_distribution<std::size_t> pick_split(
      0, splits.empty() ? 0 : splits.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_special(0, std::size(specials) - 1);
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_real_distribution<float> uniform(-100.0f, 100.0f);
  std::vector<float> features(n_samples * forest.feature_count());
  for (auto& v : features) {
    switch (kind(rng)) {
      case 0:
        v = splits.empty() ? uniform(rng) : splits[pick_split(rng)];
        break;
      case 1: v = specials[pick_special(rng)]; break;
      default: v = uniform(rng);
    }
  }
  return features;
}

class TrainedForest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto full =
        flint::data::generate<float>(flint::data::magic_spec(), 7, 1500);
    split_ = flint::data::train_test_split(full, 0.25, 7);
    flint::trees::ForestOptions opt;
    opt.n_trees = 7;
    opt.tree.max_depth = 9;
    opt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
    forest_ = flint::trees::train_forest(split_.train, opt);
  }

  /// Per-sample Forest::predict over a flat feature matrix — the reference.
  std::vector<std::int32_t> reference(const std::vector<float>& features) const {
    const std::size_t cols = forest_.feature_count();
    std::vector<std::int32_t> out(features.size() / cols);
    for (std::size_t s = 0; s < out.size(); ++s) {
      out[s] = forest_.predict({features.data() + s * cols, cols});
    }
    return out;
  }

  flint::data::TrainTestSplit<float> split_;
  flint::trees::Forest<float> forest_;
};

class BackendEquivalence
    : public TrainedForest,
      public ::testing::WithParamInterface<std::string> {};

TEST_P(BackendEquivalence, BatchMatchesForestPredictOnAdversarialInputs) {
  const auto predictor = make_predictor(forest_, GetParam());
  EXPECT_EQ(predictor->num_classes(), forest_.num_classes());
  EXPECT_EQ(predictor->feature_count(), forest_.feature_count());

  const std::size_t n = 700;  // not a multiple of the default block size
  const auto features = adversarial_features(forest_, n, 99);
  const auto expected = reference(features);
  std::vector<std::int32_t> out(n, -1);
  predictor->predict_batch(features, n, out);
  for (std::size_t s = 0; s < n; ++s) {
    ASSERT_EQ(out[s], expected[s])
        << GetParam() << " diverges from Forest::predict at sample " << s;
  }

  // predict_one agrees with the batch path.
  const std::size_t cols = forest_.feature_count();
  for (std::size_t s = 0; s < 20; ++s) {
    ASSERT_EQ(predictor->predict_one({features.data() + s * cols, cols}),
              expected[s]);
  }

  // Dataset overload agrees on the real test split.
  std::vector<std::int32_t> ds_out(split_.test.rows());
  predictor->predict_batch(split_.test, ds_out);
  for (std::size_t r = 0; r < split_.test.rows(); ++r) {
    ASSERT_EQ(ds_out[r], forest_.predict(split_.test.row(r))) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    InterpreterBackends, BackendEquivalence,
    ::testing::Values("reference", "flint", "encoded"),
    [](const auto& info) { return info.param; });

INSTANTIATE_TEST_SUITE_P(
    LayoutBackends, BackendEquivalence,
    ::testing::Values("layout:auto", "layout:c16", "layout:q4"),
    [](const auto& info) { return info.param.substr(7); });

INSTANTIATE_TEST_SUITE_P(
    JitBackends, BackendEquivalence,
    ::testing::Values("jit:layout"),
    [](const auto& info) {
      std::string name = info.param.substr(4);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_F(TrainedForest, BlockSizeDoesNotChangeResults) {
  const std::size_t n = 523;  // prime: exercises every partial-block path
  const auto features = adversarial_features(forest_, n, 5);
  const auto expected = reference(features);
  for (const std::size_t block : {std::size_t{1}, std::size_t{3},
                                  std::size_t{64}, std::size_t{1024}}) {
    PredictorOptions opt;
    opt.block_size = block;
    for (const char* backend :
         {"encoded", "layout:auto", "layout:c16", "layout:q4"}) {
      const auto predictor = make_predictor(forest_, backend, opt);
      std::vector<std::int32_t> out(n);
      predictor->predict_batch(features, n, out);
      ASSERT_EQ(out, expected) << backend << " block=" << block;
    }
  }
}

TEST_F(TrainedForest, ParallelPredictorInvariantUnderThreadCount) {
  const std::size_t n = 2311;
  const auto features = adversarial_features(forest_, n, 13);
  const auto expected = reference(features);
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const char* backend : {"encoded", "layout:c16"}) {
      // Small parallel block size so every worker count actually splits the
      // batch into many chunks.
      ParallelPredictor<float> parallel(make_predictor(forest_, backend),
                                        threads, /*block_size=*/128);
      EXPECT_EQ(parallel.thread_count(), threads);
      std::vector<std::int32_t> out(n);
      parallel.predict_batch(features, n, out);
      ASSERT_EQ(out, expected) << backend << " threads=" << threads;
    }
  }
}

TEST_F(TrainedForest, ParallelViaFactoryAndRepeatedBatches) {
  PredictorOptions opt;
  opt.threads = 4;
  const auto predictor = make_predictor(forest_, "encoded", opt);
  EXPECT_EQ(predictor->name(), "parallel(encoded,x4)");
  const auto features = adversarial_features(forest_, 900, 21);
  const auto expected = reference(features);
  // The pool is persistent: reuse across several batches must be stable.
  for (int round = 0; round < 3; ++round) {
    std::vector<std::int32_t> out(900);
    predictor->predict_batch(features, 900, out);
    ASSERT_EQ(out, expected) << "round " << round;
  }
  // Tiny batches take the inline path.
  EXPECT_EQ(predictor->predict_one({features.data(), forest_.feature_count()}),
            expected[0]);
}

// Regression (empty batches): n_samples == 0 must be a no-op for every
// backend shape — no division by zero in the blocked loops, no empty block
// dispatched to pool workers, and the output span untouched.
TEST_F(TrainedForest, EmptyBatchIsNoOp) {
  for (const char* backend : {"reference", "encoded", "layout:auto"}) {
    PredictorOptions opt;
    const auto predictor = make_predictor(forest_, backend, opt);
    std::vector<float> no_features;
    std::vector<std::int32_t> out(3, -7);
    EXPECT_NO_THROW(predictor->predict_batch(no_features, 0, out)) << backend;
    EXPECT_EQ(out, (std::vector<std::int32_t>{-7, -7, -7})) << backend;
  }
  // Through the pool decorator too (threads > 1).
  PredictorOptions popt;
  popt.threads = 4;
  const auto parallel = make_predictor(forest_, "encoded", popt);
  std::vector<std::int32_t> out;
  EXPECT_NO_THROW(parallel->predict_batch(std::vector<float>{}, 0, out));
  // And through the Dataset overload with zero rows.
  flint::data::Dataset<float> empty("empty", forest_.feature_count());
  std::vector<std::int32_t> ds_out;
  EXPECT_NO_THROW(parallel->predict_batch(empty, ds_out));
  EXPECT_EQ(parallel->accuracy(empty), 0.0);
}

// NaN contract: the batch boundary rejects NaN features up front, because
// the FLInt engines' bit-pattern order would otherwise silently diverge
// from IEEE comparison semantics (README "NaN/zero semantics").
TEST_F(TrainedForest, NanFeaturesAreRejected) {
  const std::size_t cols = forest_.feature_count();
  for (const char* backend :
       {"reference", "encoded", "layout:auto", "layout:q4"}) {
    const auto predictor = make_predictor(forest_, backend);
    std::vector<float> features(cols * 3, 1.0f);
    features[cols + 1] = std::numeric_limits<float>::quiet_NaN();
    std::vector<std::int32_t> out(3);
    try {
      predictor->predict_batch(features, 3, out);
      FAIL() << backend << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("NaN"), std::string::npos)
          << e.what();
    }
    // Signaling NaN and negative NaN payloads are NaN too.
    features[cols + 1] = -std::numeric_limits<float>::signaling_NaN();
    EXPECT_THROW(predictor->predict_batch(features, 3, out),
                 std::invalid_argument)
        << backend;
    // Infinities remain valid inputs.
    features[cols + 1] = std::numeric_limits<float>::infinity();
    EXPECT_NO_THROW(predictor->predict_batch(features, 3, out)) << backend;
  }
  // The pool decorator inherits the gate (checked before dispatch).
  PredictorOptions popt;
  popt.threads = 2;
  const auto parallel = make_predictor(forest_, "encoded", popt);
  std::vector<float> features(cols, 0.0f);
  features[0] = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::int32_t> out(1);
  EXPECT_THROW(parallel->predict_batch(features, 1, out),
               std::invalid_argument);
}

// Degenerate pool configurations: more threads than blocks, a block size
// larger than the batch, and a 64-worker pool on any host must neither
// deadlock, leave workers spinning, nor double-claim blocks (every sample
// classified exactly once => results bit-identical to the reference).
TEST_F(TrainedForest, ParallelDegenerateConfigsStress) {
  const std::size_t n = 700;
  const auto features = adversarial_features(forest_, n, 31);
  const auto expected = reference(features);
  struct Config {
    unsigned threads;
    std::size_t block;
  };
  const Config configs[] = {
      {1, 64},    // no pool workers at all: inline drain
      {2, 512},   // threads == block count
      {2, 4096},  // block_size > n_samples: inline path
      {64, 64},   // threads >> blocks on this batch
      {64, 1},    // maximal contention on the atomic cursor
  };
  for (const auto& cfg : configs) {
    ParallelPredictor<float> parallel(make_predictor(forest_, "encoded"),
                                      cfg.threads, cfg.block);
    EXPECT_EQ(parallel.thread_count(), cfg.threads);
    // Repeat to exercise pool reuse with left-over generation state.
    for (int round = 0; round < 2; ++round) {
      std::vector<std::int32_t> out(n, -1);
      parallel.predict_batch(features, n, out);
      ASSERT_EQ(out, expected)
          << "threads=" << cfg.threads << " block=" << cfg.block
          << " round=" << round;
    }
  }
}

TEST_F(TrainedForest, ShapeValidation) {
  const auto predictor = make_predictor(forest_, "encoded");
  std::vector<float> features(forest_.feature_count() * 4);
  std::vector<std::int32_t> out(4);
  EXPECT_NO_THROW(predictor->predict_batch(features, 4, out));
  // Wrong feature count for the sample count.
  EXPECT_THROW(predictor->predict_batch(features, 5, out),
               std::invalid_argument);
  // Output too small.
  std::vector<std::int32_t> small(3);
  EXPECT_THROW(predictor->predict_batch(features, 4, small),
               std::invalid_argument);
  // predict_one with a short sample throws instead of slicing out of
  // bounds (span::first on a too-short span is UB).
  std::vector<float> short_sample(forest_.feature_count() - 1);
  EXPECT_THROW((void)predictor->predict_one(short_sample),
               std::invalid_argument);
}

TEST_F(TrainedForest, UnknownBackendThrowsWithVocabulary) {
  try {
    (void)make_predictor(forest_, "warp");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("warp"), std::string::npos);
    EXPECT_NE(message.find("quant:affine"), std::string::npos) << message;
  }
  // Retired flavors are unknown names; the error steers to jit:layout.
  try {
    (void)make_predictor(forest_, "jit:cags-flint");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("jit:layout"), std::string::npos)
        << e.what();
  }
}

TEST_F(TrainedForest, UnknownBackendSuggestsNearestName) {
  // A near-miss typo suggests the intended name.
  try {
    (void)make_predictor(forest_, "layot:auto");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'layout:auto'"),
              std::string::npos)
        << e.what();
  }
  // An unknown name in a known family points at that family's member.
  try {
    (void)make_predictor(forest_, "jit:warp");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'jit:"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Degenerate ensembles: single-node (leaf-only root) trees, single-tree
// forests, and a forest whose every tree predicts the same class, checked
// bit-identical to Forest::predict across the interpreter and
// compact-layout backend families.
// ---------------------------------------------------------------------------

/// Backends every degenerate shape must survive (jit:* is out of scope for
/// this satellite; the codegen suites cover it on regular shapes).
const char* const kDegenerateBackends[] = {"encoded", "layout:auto",
                                           "layout:c16", "layout:q4"};

void expect_backends_match(const flint::trees::Forest<float>& forest,
                           std::size_t n_samples, std::uint64_t seed) {
  const std::size_t cols = forest.feature_count();
  const auto features = adversarial_features(forest, n_samples, seed);
  std::vector<std::int32_t> expected(n_samples);
  for (std::size_t s = 0; s < n_samples; ++s) {
    expected[s] = forest.predict({features.data() + s * cols, cols});
  }
  for (const char* backend : kDegenerateBackends) {
    const auto predictor = make_predictor(forest, backend);
    std::vector<std::int32_t> got(n_samples, -1);
    predictor->predict_batch(features, n_samples, got);
    for (std::size_t s = 0; s < n_samples; ++s) {
      EXPECT_EQ(got[s], expected[s]) << backend << " sample " << s;
    }
    // Single-sample path too (layout's interleaved latency route).
    const auto one = predictor->predict_one({features.data(), cols});
    EXPECT_EQ(one, expected[0]) << backend;
  }
}

TEST(DegenerateEnsembles, LeafOnlyRootTrees) {
  // Every tree is a lone leaf; class 2 has two votes and must win.
  std::vector<flint::trees::Tree<float>> trees;
  for (const int cls : {2, 0, 2, 1}) {
    flint::trees::Tree<float> t(3);
    t.add_leaf(cls);
    trees.push_back(std::move(t));
  }
  const flint::trees::Forest<float> forest(std::move(trees), 3);
  expect_backends_match(forest, 64, 41);
}

TEST(DegenerateEnsembles, MixedLeafOnlyAndRealTrees) {
  // A leaf-only tree inside an otherwise normal forest: the packers must
  // place a root that is also a leaf next to deep spines.
  std::vector<flint::trees::Tree<float>> trees;
  flint::trees::Tree<float> deep(2);
  {
    const auto root = deep.add_split(0, 0.25f);
    const auto inner = deep.add_split(1, -1.5f);
    const auto l0 = deep.add_leaf(0);
    const auto l2 = deep.add_leaf(2);
    const auto l1 = deep.add_leaf(1);
    deep.link(root, inner, l1);
    deep.link(inner, l0, l2);
  }
  trees.push_back(std::move(deep));
  {
    flint::trees::Tree<float> lone(2);
    lone.add_leaf(2);
    trees.push_back(std::move(lone));
  }
  const flint::trees::Forest<float> forest(std::move(trees), 3);
  expect_backends_match(forest, 64, 43);
}

TEST(DegenerateEnsembles, SingleTreeForest) {
  const auto ds = flint::data::generate<float>(flint::data::eye_spec(), 5, 300);
  flint::trees::ForestOptions opt;
  opt.n_trees = 1;
  opt.tree.max_depth = 6;
  const auto forest = flint::trees::train_forest(ds, opt);
  ASSERT_EQ(forest.size(), 1u);
  expect_backends_match(forest, 128, 47);
}

TEST(DegenerateEnsembles, EveryTreePredictsTheSameClass) {
  // Real splits, constant leaves: vote arrays get all counts in one bin.
  std::vector<flint::trees::Tree<float>> trees;
  for (int i = 0; i < 4; ++i) {
    flint::trees::Tree<float> t(3);
    const auto root = t.add_split(i % 3, 0.5f + static_cast<float>(i));
    const auto inner = t.add_split((i + 1) % 3, -0.25f);
    const auto l1 = t.add_leaf(1);
    const auto l2 = t.add_leaf(1);
    const auto l3 = t.add_leaf(1);
    t.link(root, inner, l3);
    t.link(inner, l1, l2);
    trees.push_back(std::move(t));
  }
  const flint::trees::Forest<float> forest(std::move(trees), 4);
  expect_backends_match(forest, 64, 53);
}

TEST(PredictorDouble, DoubleWidthBackendsMatchForestPredict) {
  const auto full =
      flint::data::generate<double>(flint::data::wine_spec(), 3, 800);
  flint::trees::ForestOptions opt;
  opt.n_trees = 4;
  opt.tree.max_depth = 8;
  const auto forest = flint::trees::train_forest(full, opt);
  for (const char* backend : {"reference", "encoded", "layout:auto",
                              "layout:c16", "layout:q4", "jit:layout"}) {
    const auto predictor = make_predictor(forest, backend);
    std::vector<std::int32_t> out(full.rows());
    predictor->predict_batch(full, out);
    for (std::size_t r = 0; r < full.rows(); ++r) {
      ASSERT_EQ(out[r], forest.predict(full.row(r)))
          << backend << " row " << r;
    }
  }
}

// Regression (cgroup quotas): pools sized from hardware_concurrency()
// ignore container CPU limits — in a 2-CPU-quota cgroup on a 64-core host
// they spawn 63 workers and thrash.  cgroup_cpu_quota is the injectable
// quota reader (fake cgroup roots below); available_parallelism() caps
// hardware_concurrency with it and is what `threads == 0` now means.
class FakeCgroup : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(::testing::TempDir()) / "flint_fake_cgroup";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void write_file(const std::string& relative, const std::string& content) {
    const auto path = root_ / relative;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream(path) << content;
  }

  std::filesystem::path root_;
};

TEST_F(FakeCgroup, V2QuotaRoundsUpToWholeCpus) {
  write_file("cpu.max", "200000 100000\n");
  EXPECT_EQ(flint::predict::cgroup_cpu_quota(root_.string()), 2u);
  write_file("cpu.max", "150000 100000\n");  // 1.5 CPUs -> 2 workers
  EXPECT_EQ(flint::predict::cgroup_cpu_quota(root_.string()), 2u);
  write_file("cpu.max", "50000 100000\n");  // half a CPU -> still 1 worker
  EXPECT_EQ(flint::predict::cgroup_cpu_quota(root_.string()), 1u);
}

TEST_F(FakeCgroup, V2UnlimitedAndMalformedMeanNoQuota) {
  write_file("cpu.max", "max 100000\n");
  EXPECT_EQ(flint::predict::cgroup_cpu_quota(root_.string()), 0u);
  write_file("cpu.max", "banana\n");
  EXPECT_EQ(flint::predict::cgroup_cpu_quota(root_.string()), 0u);
  write_file("cpu.max", "");
  EXPECT_EQ(flint::predict::cgroup_cpu_quota(root_.string()), 0u);
}

TEST_F(FakeCgroup, V1QuotaAndUnlimited) {
  write_file("cpu/cpu.cfs_quota_us", "250000\n");
  write_file("cpu/cpu.cfs_period_us", "100000\n");
  EXPECT_EQ(flint::predict::cgroup_cpu_quota(root_.string()), 3u);
  write_file("cpu/cpu.cfs_quota_us", "-1\n");  // v1 "no limit"
  EXPECT_EQ(flint::predict::cgroup_cpu_quota(root_.string()), 0u);
}

TEST_F(FakeCgroup, V2HierarchyTakesPrecedenceOverV1) {
  write_file("cpu.max", "100000 100000\n");
  write_file("cpu/cpu.cfs_quota_us", "800000\n");
  write_file("cpu/cpu.cfs_period_us", "100000\n");
  EXPECT_EQ(flint::predict::cgroup_cpu_quota(root_.string()), 1u);
}

TEST_F(FakeCgroup, MissingRootMeansNoQuota) {
  EXPECT_EQ(flint::predict::cgroup_cpu_quota(
                (root_ / "does_not_exist").string()),
            0u);
}

TEST(AvailableParallelism, PositiveAndCappedByHardware) {
  const unsigned n = flint::predict::available_parallelism();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, std::max(1u, std::thread::hardware_concurrency()));
}

TEST(PredictorNames, VocabularyIsSevenNamesPlusTheFlintAlias) {
  std::vector<std::string> names;
  for (const auto& list : {flint::predict::interpreter_backends(),
                           flint::predict::layout_backends(),
                           flint::predict::quant_backends(),
                           flint::predict::jit_backends()}) {
    names.insert(names.end(), list.begin(), list.end());
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "reference", "encoded", "layout:auto", "layout:c16",
                       "layout:q4", "quant:affine", "jit:layout"}));
  const auto help = flint::predict::backend_help();
  names.emplace_back("flint");
  for (const auto& name : names) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
    EXPECT_TRUE(flint::predict::is_known_backend(name)) << name;
  }
  // Retired names are unknown: the factory rejects them like any typo.
  const flint::trees::Forest<float> forest = [] {
    flint::trees::Tree<float> tree(1);
    const auto root = tree.add_split(0, 0.5f);
    tree.link(root, tree.add_leaf(0), tree.add_leaf(1));
    return flint::trees::Forest<float>({tree}, 2);
  }();
  for (const char* retired : {"simd:flint", "simd:float", "layout:c8",
                              "float", "theorem1", "theorem2", "radix"}) {
    EXPECT_FALSE(flint::predict::is_known_backend(retired)) << retired;
    try {
      (void)make_predictor(forest, retired);
      ADD_FAILURE() << retired << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown backend"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
