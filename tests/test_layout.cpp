// Property tests for the exec/layout subsystem: FLInt order-preserving
// threshold narrowing must be exact on adversarial bit patterns (signed
// zeros, denormals, infinities, adjacent patterns), the compact node
// engines must be bit-identical to Forest::predict at every width x
// placement x traversal configuration, and width fallback must engage when
// a feature's thresholds cannot be ranked at the narrow width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <cstdlib>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/flint.hpp"
#include "data/synth.hpp"
#include "exec/artifacts/artifacts.hpp"
#include "exec/layout/compact.hpp"
#include "exec/layout/engine.hpp"
#include "exec/layout/narrow.hpp"
#include "exec/layout/plan.hpp"
#include "exec/layout/quant4.hpp"
#include "exec/layout/vote.hpp"
#include "predict/predictor.hpp"
#include "trees/forest.hpp"
#include "trees/tree_stats.hpp"

namespace {

namespace layout = flint::exec::layout;
using flint::core::to_radix_key;
using flint::core::total_order;

/// Pack-then-bind helpers: the c16 and q4 images of `forest` under `plan`
/// (std::bad_optional_access when the forest does not pack).
layout::CompactForest<float, layout::CompactNode16> c16_image(
    const flint::trees::Forest<float>& forest, const layout::LayoutPlan& plan,
    const layout::KeyTableSet<float>& tables) {
  return layout::try_pack<float, layout::CompactNode16>(forest, plan, tables)
      .value();
}
layout::Q4Forest<float> q4_image(const flint::trees::Forest<float>& forest,
                                 const layout::LayoutPlan& plan,
                                 const layout::KeyTableSet<float>& tables) {
  return layout::try_pack_q4<float>(forest, plan, tables).value();
}

/// Adversarial float pool: special patterns, their bit neighbors, and the
/// neighbors of every value in `seed_values`.
std::vector<float> adversarial_pool(std::vector<float> seed_values) {
  std::vector<float> pool = {0.0f,
                             -0.0f,
                             std::numeric_limits<float>::denorm_min(),
                             -std::numeric_limits<float>::denorm_min(),
                             std::numeric_limits<float>::min(),
                             -std::numeric_limits<float>::min(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::max(),
                             std::numeric_limits<float>::lowest(),
                             1.0f,
                             -1.0f,
                             3.5f,
                             -3.5f};
  pool.insert(pool.end(), seed_values.begin(), seed_values.end());
  // Adjacent bit patterns of everything so far (one ulp in both directions
  // through the raw integer reading), skipping NaNs and the int32 edges
  // (si_bits(-0.0f) is INT32_MIN; stepping past it has no neighbor).
  const std::size_t base = pool.size();
  for (std::size_t i = 0; i < base; ++i) {
    const std::int64_t bits = flint::core::si_bits(pool[i]);
    for (const int delta : {-1, 1}) {
      const std::int64_t nb = bits + delta;
      if (nb < std::numeric_limits<std::int32_t>::min() ||
          nb > std::numeric_limits<std::int32_t>::max()) {
        continue;
      }
      const float v =
          flint::core::from_si_bits<float>(static_cast<std::int32_t>(nb));
      if (!std::isnan(v)) pool.push_back(v);
    }
  }
  return pool;
}

TEST(KeyTable, RankPreservesFlintOrderOnAdversarialThresholds) {
  const auto thresholds = adversarial_pool({});
  std::vector<std::int32_t> keys;
  for (const float t : thresholds) keys.push_back(to_radix_key(t));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const layout::KeyTable<float> table(std::move(keys));

  // Probe values: the thresholds themselves, their neighbors, randoms.
  auto probes = adversarial_pool(thresholds);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> uniform(-1e6f, 1e6f);
  for (int i = 0; i < 200; ++i) probes.push_back(uniform(rng));

  for (const float x : probes) {
    const std::int32_t rx = table.rank(x);
    for (const float t : thresholds) {
      const std::int32_t rt = table.rank(t);
      // x <= t in the FLInt total order iff rank(x) <= rank(t): the
      // narrowing contract every compact node relies on.
      const bool flint_le = total_order(x, t) <= 0;
      ASSERT_EQ(rx <= rt, flint_le)
          << "x=" << x << " t=" << t << " rank(x)=" << rx
          << " rank(t)=" << rt;
    }
  }
}

TEST(KeyTable, StrictOrderOnAdjacentBitPatterns) {
  // Adjacent representable floats must get strictly increasing ranks when
  // both are in the table — narrowing may never merge distinct thresholds.
  const float base = 1.5f;
  const auto bits = flint::core::si_bits(base);
  std::vector<std::int32_t> keys;
  for (int d = -3; d <= 3; ++d) {
    keys.push_back(to_radix_key(flint::core::from_si_bits<float>(bits + d)));
  }
  std::sort(keys.begin(), keys.end());
  const layout::KeyTable<float> table(std::move(keys));
  const auto sorted = table.keys();
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    ASSERT_LT(sorted[i], sorted[i + 1]);
    ASSERT_LT(table.rank_of_key(sorted[i]), table.rank_of_key(sorted[i + 1]));
  }
}

/// Radix keys of the special patterns a table and a probe can hold: signed
/// zeros, infinities, the denormal edges and NaN payloads of both signs.
template <typename T>
std::vector<typename layout::KeyTable<T>::Signed> special_radix_keys() {
  using Limits = std::numeric_limits<T>;
  using Signed = typename layout::KeyTable<T>::Signed;
  const Signed quiet = flint::core::si_bits(Limits::quiet_NaN());
  const T values[] = {T{0},
                      -T{0},
                      Limits::infinity(),
                      -Limits::infinity(),
                      Limits::denorm_min(),
                      -Limits::denorm_min(),
                      std::nextafter(Limits::min(), T{0}),
                      -std::nextafter(Limits::min(), T{0}),
                      Limits::quiet_NaN(),
                      -Limits::quiet_NaN(),
                      flint::core::from_si_bits<T>(quiet | 1),
                      flint::core::from_si_bits<T>(quiet + 12345),
                      Limits::signaling_NaN()};
  std::vector<Signed> keys;
  for (const T v : values) keys.push_back(to_radix_key(v));
  return keys;
}

/// `n` distinct random keys, sorted: every other size holds the Signed
/// extremes as real keys, and a size-dependent share of the specials joins.
template <typename T>
std::vector<typename layout::KeyTable<T>::Signed> random_table_keys(
    std::size_t n, std::mt19937_64& rng) {
  using Signed = typename layout::KeyTable<T>::Signed;
  auto specials = special_radix_keys<T>();
  std::shuffle(specials.begin(), specials.end(), rng);
  std::set<Signed> keys;
  if (n >= 2 && n % 2 == 0) {
    keys.insert(std::numeric_limits<Signed>::min());
    keys.insert(std::numeric_limits<Signed>::max());
  }
  for (std::size_t i = 0;
       i < n % (specials.size() + 1) && keys.size() < n; ++i) {
    keys.insert(specials[i]);
  }
  std::uniform_int_distribution<Signed> any(std::numeric_limits<Signed>::min(),
                                            std::numeric_limits<Signed>::max());
  while (keys.size() < n) keys.insert(any(rng));
  return {keys.begin(), keys.end()};
}

template <typename T>
class KeyTableIndex : public ::testing::Test {};
using KeyWidths = ::testing::Types<float, double>;
TYPED_TEST_SUITE(KeyTableIndex, KeyWidths);

TYPED_TEST(KeyTableIndex, RankEqualsLowerBoundAtEveryLevelAndTail) {
  // Sizes 0..600 cover every tail length of one to three levels; the large
  // ones cross the 4096 / 65536 level boundaries of both block widths.
  using Signed = typename layout::KeyTable<TypeParam>::Signed;
  constexpr Signed kMin = std::numeric_limits<Signed>::min();
  constexpr Signed kMax = std::numeric_limits<Signed>::max();
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 600; ++n) sizes.push_back(n);
  for (const std::size_t n : {4095, 4096, 4097, 65535, 65536, 65537, 70000}) {
    sizes.push_back(n);
  }
  std::mt19937_64 rng(19);
  std::uniform_int_distribution<Signed> any(kMin, kMax);
  std::size_t probes = 0;
  for (const std::size_t n : sizes) {
    const auto keys = random_table_keys<TypeParam>(n, rng);
    const layout::KeyTable<TypeParam> table(keys);
    ASSERT_EQ(table.size(), n);
    ASSERT_TRUE(std::equal(keys.begin(), keys.end(), table.keys().begin(),
                           table.keys().end()));
    const auto check = [&](Signed probe) {
      const auto expect =
          std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin();
      ASSERT_EQ(table.rank_of_key(probe), expect)
          << "n=" << n << " probe=" << probe;
      ++probes;
    };
    for (const Signed k : keys) {
      check(k);
      if (k != kMin) check(k - 1);
      if (k != kMax) check(k + 1);
    }
    for (const Signed probe : special_radix_keys<TypeParam>()) check(probe);
    check(kMin);
    check(kMax);
    for (int i = 0; i < 64; ++i) check(any(rng));
  }
  EXPECT_GT(probes, 1000000u);
}

TYPED_TEST(KeyTableIndex, ConstructorRejectsUnsortedAndDuplicateKeys) {
  using Signed = typename layout::KeyTable<TypeParam>::Signed;
  using Table = layout::KeyTable<TypeParam>;
  EXPECT_THROW(Table(std::vector<Signed>{1, 3, 2}), std::logic_error);
  EXPECT_THROW(Table(std::vector<Signed>{1, 2, 2}), std::logic_error);
  std::vector<Signed> keys(5000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<Signed>(i) * 3;
  }
  EXPECT_NO_THROW(Table{keys});
  auto swapped = keys;
  std::swap(swapped[4000], swapped[4001]);
  EXPECT_THROW(Table{swapped}, std::logic_error);
  auto duplicate = keys;
  duplicate[4999] = duplicate[4998];
  EXPECT_THROW(Table{duplicate}, std::logic_error);
  // An empty table ranks everything 0.
  const Table empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.rank_of_key(std::numeric_limits<Signed>::max()), 0);
}

TEST(KeyTable, BuildFromForestCoversEverySplitExactly) {
  const auto data =
      flint::data::generate<float>(flint::data::magic_spec(), 11, 900);
  flint::trees::ForestOptions opt;
  opt.n_trees = 5;
  opt.tree.max_depth = 8;
  const auto forest = flint::trees::train_forest(data, opt);
  const auto tables = layout::build_key_tables(forest);
  ASSERT_EQ(tables.features.size(), forest.feature_count());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    for (const auto& n : forest.tree(t).nodes()) {
      if (n.is_leaf()) continue;
      const float split = n.split == 0.0f ? 0.0f : n.split;
      const auto& table =
          tables.features[static_cast<std::size_t>(n.feature)];
      const auto rank =
          static_cast<std::size_t>(table.rank_of_key(to_radix_key(split)));
      ASSERT_LT(rank, table.size());
      EXPECT_EQ(table.keys()[rank], to_radix_key(split));
    }
  }
}

// ---------------------------------------------------------------------------
// Engine bit-identity across width x placement x traversal.
// ---------------------------------------------------------------------------

class LayoutEngine : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto data =
        flint::data::generate<float>(flint::data::magic_spec(), 5, 1200);
    flint::trees::ForestOptions opt;
    opt.n_trees = 9;
    opt.tree.max_depth = 10;
    opt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
    forest_ = flint::trees::train_forest(data, opt);
    tables_ = layout::build_key_tables(forest_);
  }

  std::vector<float> adversarial_features(std::size_t n, std::uint64_t seed) {
    std::vector<float> splits;
    for (std::size_t t = 0; t < forest_.size(); ++t) {
      for (const auto& nd : forest_.tree(t).nodes()) {
        if (!nd.is_leaf()) splits.push_back(nd.split);
      }
    }
    const auto pool = adversarial_pool(splits);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    std::uniform_int_distribution<int> kind(0, 2);
    std::uniform_real_distribution<float> uniform(-50.0f, 50.0f);
    std::vector<float> features(n * forest_.feature_count());
    for (auto& v : features) {
      v = kind(rng) == 0 ? pool[pick(rng)] : uniform(rng);
    }
    return features;
  }

  flint::trees::Forest<float> forest_;
  layout::KeyTableSet<float> tables_;
};

TEST_F(LayoutEngine, BitIdenticalAcrossWidthPlacementTraversal) {
  const std::size_t n = 523;  // prime: partial blocks everywhere
  const auto features = adversarial_features(n, 3);
  const std::size_t cols = forest_.feature_count();
  std::vector<std::int32_t> expected(n);
  for (std::size_t s = 0; s < n; ++s) {
    expected[s] = forest_.predict({features.data() + s * cols, cols});
  }
  for (const std::size_t hot_depth : {std::size_t{0}, std::size_t{3}}) {
    for (const std::size_t interleave : {std::size_t{1}, std::size_t{8}}) {
      layout::LayoutPlan plan;
      plan.width = layout::NodeWidth::C16;
      plan.hot_depth = hot_depth;
      plan.interleave = interleave;
      plan.block_size = 48;
      plan.prefetch_opposite = hot_depth != 0;
      const layout::LayoutForestEngine engine(c16_image(forest_, plan, tables_),
                                              plan);
      EXPECT_EQ(engine.node_bytes(), 16u);
      EXPECT_EQ(engine.hot_node_count() > 0, hot_depth > 0);
      std::vector<std::int32_t> out(n, -1);
      engine.predict_batch(features.data(), n, out.data());
      ASSERT_EQ(out, expected) << plan.describe();
      // Small batches route through the interleaved latency path; the
      // head of the batch must agree with the blocked result.
      std::vector<std::int32_t> small(3, -1);
      engine.predict_batch(features.data(), 3, small.data());
      for (std::size_t s = 0; s < 3; ++s) {
        ASSERT_EQ(small[s], expected[s]) << plan.describe();
      }
      ASSERT_EQ(engine.predict({features.data(), cols}), expected[0])
          << plan.describe();
    }
  }
}

TEST_F(LayoutEngine, ScalarLockstepPathMatchesVectorPath) {
  // FLINT_LAYOUT_FORCE_SCALAR pins the portable blocked loop, so this
  // covers it even on hosts where the AVX2 kernel would always dispatch.
  const std::size_t n = 211;
  const auto features = adversarial_features(n, 23);
  const std::size_t cols = forest_.feature_count();
  std::vector<std::int32_t> expected(n);
  for (std::size_t s = 0; s < n; ++s) {
    expected[s] = forest_.predict({features.data() + s * cols, cols});
  }
  setenv("FLINT_LAYOUT_FORCE_SCALAR", "1", 1);
  layout::LayoutPlan plan;
  plan.width = layout::NodeWidth::C16;
  plan.block_size = 32;
  plan.prefetch_opposite = true;
  const layout::LayoutForestEngine engine(c16_image(forest_, plan, tables_),
                                          plan);
  std::vector<std::int32_t> out(n, -1);
  engine.predict_batch(features.data(), n, out.data());
  EXPECT_EQ(out, expected) << plan.describe();
  unsetenv("FLINT_LAYOUT_FORCE_SCALAR");
}

TEST_F(LayoutEngine, PackedInvariants) {
  layout::LayoutPlan plan;
  plan.width = layout::NodeWidth::C16;
  plan.hot_depth = 2;
  std::string why;
  const auto packed = layout::try_pack<float, layout::CompactNode16>(
      forest_, plan, tables_, &why);
  ASSERT_TRUE(packed.has_value()) << why;
  EXPECT_EQ(packed->nodes.size(), forest_.total_nodes());
  EXPECT_EQ(packed->roots.size(), forest_.size());
  EXPECT_GT(packed->hot_nodes, 0u);
  EXPECT_LT(packed->hot_nodes, packed->nodes.size());
  std::size_t leaves = 0;
  for (std::size_t i = 0; i < packed->nodes.size(); ++i) {
    const auto& nd = packed->nodes[i];
    if (nd.right_off < 0) {
      ++leaves;
      EXPECT_GE(nd.key, 0);
      EXPECT_LT(nd.key, forest_.num_classes());
    } else {
      // Implicit left child and forward-only right offsets.
      ASSERT_LT(i + 1, packed->nodes.size());
      ASSERT_LT(i + static_cast<std::size_t>(nd.right_off),
                packed->nodes.size());
      EXPECT_GE(nd.feature, 0);
      EXPECT_LT(static_cast<std::size_t>(nd.feature),
                forest_.feature_count());
    }
  }
  std::size_t expected_leaves = 0;
  for (std::size_t t = 0; t < forest_.size(); ++t) {
    expected_leaves += forest_.tree(t).leaf_count();
  }
  EXPECT_EQ(leaves, expected_leaves);
}

// ---------------------------------------------------------------------------
// Width fallback when thresholds cannot be ranked narrow.
// ---------------------------------------------------------------------------

/// One tree with `splits` distinct thresholds on feature 0 (a right-leaning
/// chain).
flint::trees::Forest<float> wide_threshold_forest(std::int32_t splits) {
  flint::trees::Tree<float> tree(1);
  std::int32_t prev = -1;
  for (std::int32_t i = 0; i < splits; ++i) {
    const auto split = tree.add_split(0, static_cast<float>(i));
    const auto leaf = tree.add_leaf(i % 2);
    if (prev >= 0) {
      tree.link(prev, tree.node(prev).left, split);
    }
    tree.link(split, leaf, split);  // right patched next iteration / below
    prev = split;
  }
  const auto last = tree.add_leaf(0);
  tree.link(prev, tree.node(prev).left, last);
  return flint::trees::Forest<float>(
      std::vector<flint::trees::Tree<float>>{std::move(tree)}, 2);
}

// A cache-hostile model whose q4 image fails the quantization contract is
// demoted to the exact 16-byte width, and serves bit-identically there.
TEST(LayoutFallback, DemotedQ4FallsToExactC16) {
  const auto forest = wide_threshold_forest(70000);
  const std::vector<float> xs = {-1.0f,    0.5f,     123.5f,
                                 5000.25f, 69999.5f, 80000.0f};
  // A 32 KiB L2 makes the ~2 MiB c16 image spill 2x, so auto tries q4
  // first; 70000 ranks overflow its 16 key bits, the affine fallback
  // merges thresholds, and the bundle demotes the plan.
  flint::exec::artifacts::ExecArtifacts<float> art(
      forest, 64, layout::CacheInfo{32u << 10, 512u << 10});
  const auto* q4 = art.try_q4_at(art.plan().hot_depth);
  EXPECT_TRUE(q4 == nullptr ||
              !(q4->exact() || q4->qplan.accuracy_contract()));
  EXPECT_EQ(art.plan().width, layout::NodeWidth::C16);
  EXPECT_TRUE(art.plan().prefetch_opposite);
  const layout::LayoutForestEngine engine(art.take_c16().value(),
                                          art.plan());
  const auto predictor = flint::predict::make_predictor(forest, "layout:auto");
  for (const float x : xs) {
    EXPECT_EQ(engine.predict({&x, 1}), forest.predict({&x, 1})) << "x=" << x;
    EXPECT_EQ(predictor->predict_one({&x, 1}), forest.predict({&x, 1}))
        << "x=" << x;
  }
}

// ---------------------------------------------------------------------------
// Auto-tuner decisions.
// ---------------------------------------------------------------------------

TEST(AutoPlan, SmallModelStaysWideCachedAndUnslabbed) {
  flint::trees::ForestStats stats;
  stats.trees.resize(10);
  stats.total_nodes = 1000;  // 16 KiB at c16: fits any L2
  stats.max_depth = 8;
  layout::NarrowFit fit{10, 4};
  const layout::CacheInfo cache{256 * 1024, 8 * 1024 * 1024};
  const auto plan = layout::auto_plan(stats, fit, 64, cache);
  EXPECT_EQ(plan.width, layout::NodeWidth::C16);
  EXPECT_EQ(plan.hot_depth, 0u);
  EXPECT_FALSE(plan.prefetch_opposite);
}

TEST(AutoPlan, DeepModelNarrowsBlocksAndPrefetches) {
  flint::trees::ForestStats stats;
  stats.trees.resize(256);
  stats.total_nodes = 4 * 1000 * 1000;  // 64 MiB at c16: beyond LLC
  stats.max_depth = 16;
  stats.mean_leaf_depth = 14.0;
  // Ten features sharing ~2M splits: the rank remap (~10 binary searches)
  // is well amortized by 256 trees x 14 levels of traversal.
  stats.features.resize(10);
  for (auto& f : stats.features) f.splits = 200000;
  layout::NarrowFit fit{10, 4};
  const layout::CacheInfo cache{256 * 1024, 8 * 1024 * 1024};
  const auto plan = layout::auto_plan(stats, fit, 64, cache);
  EXPECT_EQ(plan.width, layout::NodeWidth::Q4);
  EXPECT_GT(plan.hot_depth, 0u);
  EXPECT_TRUE(plan.prefetch_opposite);
  EXPECT_GE(plan.interleave, 4u);
  EXPECT_LE(plan.interleave, layout::kMaxInterleave);
  // Demotion protocol: when the Q4 pack or its accuracy contract fails the
  // caller clears allow_q4 and re-plans; the plan must then land on c16,
  // still slabbed and prefetching.
  fit.allow_q4 = false;
  const auto demoted = layout::auto_plan(stats, fit, 64, cache);
  EXPECT_EQ(demoted.width, layout::NodeWidth::C16);
  EXPECT_GT(demoted.hot_depth, 0u);
  EXPECT_TRUE(demoted.prefetch_opposite);
}

// Regression: the smoke model (~360 KiB at c16) sits inside L2 x 2, where
// narrowing buys no bandwidth but still pays the rank remap — the auto plan
// once narrowed here and lost ~3.5x throughput.  Cache-resident models must
// stay c16.
TEST(AutoPlan, CacheResidentModelNeverNarrows) {
  flint::trees::ForestStats stats;
  stats.trees.resize(24);
  stats.total_nodes = 23000;  // ~360 KiB at c16: within 2x of a 256 KiB L2
  stats.max_depth = 10;
  stats.mean_leaf_depth = 8.0;
  stats.features.resize(10);
  for (auto& f : stats.features) f.splits = 1000;
  layout::NarrowFit fit{10, 2};
  const layout::CacheInfo cache{256 * 1024, 8 * 1024 * 1024};
  const auto plan = layout::auto_plan(stats, fit, 64, cache);
  EXPECT_EQ(plan.width, layout::NodeWidth::C16);
}

TEST(AutoPlan, UnnarrowableModelFallsBackToWide) {
  flint::trees::ForestStats stats;
  stats.trees.resize(4);
  stats.total_nodes = 4 * 1000 * 1000;
  stats.max_depth = 20;
  layout::NarrowFit fit;
  fit.feature_count = std::size_t{1} << 33;  // no int32 feature field either
  fit.num_classes = 2;
  const layout::CacheInfo cache{256 * 1024, 8 * 1024 * 1024};
  const auto plan = layout::auto_plan(stats, fit, 64, cache);
  EXPECT_EQ(plan.width, layout::NodeWidth::Wide);
}

// ---------------------------------------------------------------------------
// Cache probe fallback chain (regression: sysconf(_SC_LEVEL*_CACHE_SIZE)
// returns -1/0 on musl and in many containers, which used to leave the
// tuner with zero cache sizes; the chain now falls back to sysfs, then to
// documented clamped defaults).
// ---------------------------------------------------------------------------

TEST(CacheProbe, ParsesSysfsSizeStrings) {
  EXPECT_EQ(layout::parse_sysfs_cache_size("512K"), 512u << 10);
  EXPECT_EQ(layout::parse_sysfs_cache_size("512K\n"), 512u << 10);
  EXPECT_EQ(layout::parse_sysfs_cache_size("8M"), 8u << 20);
  EXPECT_EQ(layout::parse_sysfs_cache_size("1G"), std::size_t{1} << 30);
  EXPECT_EQ(layout::parse_sysfs_cache_size("4096"), 4096u);  // plain bytes
  EXPECT_EQ(layout::parse_sysfs_cache_size(" 64k "), 64u << 10);
  EXPECT_EQ(layout::parse_sysfs_cache_size(""), 0u);
  EXPECT_EQ(layout::parse_sysfs_cache_size("K"), 0u);
  EXPECT_EQ(layout::parse_sysfs_cache_size("12Q"), 0u);
  EXPECT_EQ(layout::parse_sysfs_cache_size("12K extra"), 0u);
}

class FakeSysfsCache : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) / "flint_fake_cache";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void add_index(const std::string& name, const std::string& level,
                 const std::string& type, const std::string& size) {
    const auto index = dir_ / name;
    std::filesystem::create_directories(index);
    std::ofstream(index / "level") << level << "\n";
    std::ofstream(index / "type") << type << "\n";
    std::ofstream(index / "size") << size << "\n";
  }

  std::filesystem::path dir_;
};

TEST_F(FakeSysfsCache, ReadsLevelsAndSkipsInstructionCaches) {
  add_index("index0", "1", "Data", "32K");
  add_index("index1", "1", "Instruction", "32K");
  add_index("index2", "2", "Unified", "512K");
  add_index("index3", "3", "Unified", "16384K");
  const auto info = layout::cache_info_from_sysfs(dir_.string());
  EXPECT_EQ(info.l2_bytes, 512u << 10);
  EXPECT_EQ(info.llc_bytes, 16384u << 10);
}

TEST_F(FakeSysfsCache, MissingOrPartialTopologyLeavesZeros) {
  // Empty dir and a non-existent dir both yield zeros (chain continues).
  EXPECT_EQ(layout::cache_info_from_sysfs(dir_.string()).l2_bytes, 0u);
  EXPECT_EQ(layout::cache_info_from_sysfs("/nonexistent/cache").l2_bytes, 0u);
  // An L2-only topology (no L3, common on small VMs) fills only l2.
  add_index("index0", "2", "Unified", "1024K");
  const auto info = layout::cache_info_from_sysfs(dir_.string());
  EXPECT_EQ(info.l2_bytes, 1024u << 10);
  EXPECT_EQ(info.llc_bytes, 0u);
  // Unparseable size files are skipped, not misread.
  add_index("index1", "3", "Unified", "garbage");
  EXPECT_EQ(layout::cache_info_from_sysfs(dir_.string()).llc_bytes, 0u);
}

TEST(CacheProbe, SanitizeFillsDefaultsAndClamps) {
  // The documented defaults when every probe fails: 1 MiB L2, 8 MiB LLC.
  const auto defaults = layout::sanitize_cache_info({});
  EXPECT_EQ(defaults.l2_bytes, std::size_t{1} << 20);
  EXPECT_EQ(defaults.llc_bytes, std::size_t{8} << 20);
  // Implausible probe results are clamped into sane bounds.
  const auto tiny = layout::sanitize_cache_info({1, 1});
  EXPECT_EQ(tiny.l2_bytes, std::size_t{32} << 10);
  EXPECT_EQ(tiny.llc_bytes, std::size_t{512} << 10);
  const auto huge = layout::sanitize_cache_info(
      {std::size_t{1} << 40, std::size_t{1} << 40});
  EXPECT_EQ(huge.l2_bytes, std::size_t{64} << 20);
  EXPECT_EQ(huge.llc_bytes, std::size_t{1} << 30);
  // The LLC is never reported smaller than L2.
  const auto inverted =
      layout::sanitize_cache_info({16u << 20, 1u << 20});
  EXPECT_GE(inverted.llc_bytes, inverted.l2_bytes);
}

TEST(CacheProbe, DetectNeverReturnsZeroSizes) {
  // The regression: in containers where sysconf reports -1/0 the old probe
  // returned zero fields and the tuner mis-sized the hot slab.  The chain
  // must now always end in plausible non-zero values.
  const auto info = layout::detect_cache_info();
  EXPECT_GE(info.l2_bytes, std::size_t{32} << 10);
  EXPECT_LE(info.l2_bytes, std::size_t{64} << 20);
  EXPECT_GE(info.llc_bytes, std::size_t{512} << 10);
  EXPECT_LE(info.llc_bytes, std::size_t{1} << 30);
  EXPECT_GE(info.llc_bytes, info.l2_bytes);
}

TEST(LayoutDouble, DoubleWidthEnginesMatchForestPredict) {
  const auto data =
      flint::data::generate<double>(flint::data::wine_spec(), 3, 700);
  flint::trees::ForestOptions opt;
  opt.n_trees = 5;
  opt.tree.max_depth = 8;
  const auto forest = flint::trees::train_forest(data, opt);
  for (const char* backend :
       {"layout:auto", "layout:c16", "layout:q4"}) {
    const auto predictor = flint::predict::make_predictor(forest, backend);
    std::vector<std::int32_t> out(data.rows());
    predictor->predict_batch(data, out);
    for (std::size_t r = 0; r < data.rows(); ++r) {
      ASSERT_EQ(out[r], forest.predict(data.row(r)))
          << backend << " row " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// The 4-byte quantized format: geometry, pack invariants, engine
// bit-identity on both key widths, and the contract bookkeeping.
// ---------------------------------------------------------------------------

TEST_F(LayoutEngine, Q4PackGeometryAndInvariants) {
  layout::LayoutPlan plan;
  plan.width = layout::NodeWidth::Q4;
  plan.hot_depth = 2;
  std::string why;
  const auto packed =
      layout::try_pack_q4<float>(forest_, plan, tables_, false, &why);
  ASSERT_TRUE(packed.has_value()) << why;
  const auto& g = packed->geom;
  EXPECT_EQ(g.key_bits + g.feature_bits + g.offset_bits, 31u);
  EXPECT_GE(g.key_bits, 8u);
  EXPECT_LE(g.key_bits, 16u);
  EXPECT_GE(g.feature_bits, 1u);
  EXPECT_GE(g.offset_bits, 1u);
  // magic's rank tables fit comfortably: the bit-exact contract must hold.
  EXPECT_TRUE(packed->exact());
  EXPECT_TRUE(packed->qplan.accuracy_contract());
  EXPECT_EQ(packed->nodes.size(), forest_.total_nodes());
  EXPECT_EQ(packed->roots.size(), forest_.size());
  EXPECT_GT(packed->hot_nodes, 0u);
  EXPECT_FALSE(packed->has_special);
  EXPECT_TRUE(packed->flags.empty());
  std::size_t leaves = 0;
  for (std::size_t i = 0; i < packed->nodes.size(); ++i) {
    const std::uint32_t w = packed->nodes[i].word;
    if (g.is_leaf(w)) {
      ++leaves;
      EXPECT_LT(g.key_of(w),
                static_cast<std::uint32_t>(forest_.num_classes()));
      EXPECT_EQ(g.feature_of(w), 0u);
      EXPECT_EQ(g.offset_of(w), 0u);
    } else {
      ASSERT_LT(i + 1, packed->nodes.size());  // implicit left child
      ASSERT_LT(i + g.offset_of(w), packed->nodes.size());
      EXPECT_GE(g.offset_of(w), 2u);  // right child is past the left subtree
      EXPECT_LT(g.feature_of(w),
                static_cast<std::uint32_t>(forest_.feature_count()));
    }
  }
  std::size_t expected_leaves = 0;
  for (std::size_t t = 0; t < forest_.size(); ++t) {
    expected_leaves += forest_.tree(t).leaf_count();
  }
  EXPECT_EQ(leaves, expected_leaves);
}

TEST_F(LayoutEngine, Q4EngineBitIdenticalOnVectorScalarAndLatencyPaths) {
  const std::size_t n = 523;
  const auto features = adversarial_features(n, 29);
  const std::size_t cols = forest_.feature_count();
  std::vector<std::int32_t> expected(n);
  for (std::size_t s = 0; s < n; ++s) {
    expected[s] = forest_.predict({features.data() + s * cols, cols});
  }
  for (const std::size_t hot_depth : {std::size_t{0}, std::size_t{3}}) {
    layout::LayoutPlan plan;
    plan.width = layout::NodeWidth::Q4;
    plan.hot_depth = hot_depth;
    plan.block_size = 48;
    const layout::LayoutForestEngine engine(q4_image(forest_, plan, tables_),
                                            plan);
    EXPECT_EQ(engine.node_bytes(), 4u);
    std::vector<std::int32_t> out(n, -1);
    engine.predict_batch(features.data(), n, out.data());
    ASSERT_EQ(out, expected) << "hot_depth=" << hot_depth;
    // Small batches route through the interleaved latency path.
    std::vector<std::int32_t> small(3, -1);
    engine.predict_batch(features.data(), 3, small.data());
    for (std::size_t s = 0; s < 3; ++s) ASSERT_EQ(small[s], expected[s]);
    ASSERT_EQ(engine.predict({features.data(), cols}), expected[0]);
  }
  // Scalar lockstep path pinned via the env override.
  setenv("FLINT_LAYOUT_FORCE_SCALAR", "1", 1);
  layout::LayoutPlan plan;
  plan.width = layout::NodeWidth::Q4;
  plan.block_size = 32;
  const layout::LayoutForestEngine engine(q4_image(forest_, plan, tables_),
                                          plan);
  std::vector<std::int32_t> out(n, -1);
  engine.predict_batch(features.data(), n, out.data());
  EXPECT_EQ(out, expected);
  unsetenv("FLINT_LAYOUT_FORCE_SCALAR");
}

/// One-feature forest over an explicit threshold list (right-leaning
/// chain), so the rank-table size — and with it the q4 key span / int8 vs
/// int16 column-block width — is chosen by the test.
flint::trees::Forest<float> chain_forest(const std::vector<float>& thresholds) {
  flint::trees::Tree<float> tree(1);
  std::int32_t prev = -1;
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const auto split = tree.add_split(0, thresholds[i]);
    const auto leaf = tree.add_leaf(static_cast<std::int32_t>(i % 2));
    if (prev >= 0) tree.link(prev, tree.node(prev).left, split);
    tree.link(split, leaf, split);  // right patched next iteration / below
    prev = split;
  }
  const auto last = tree.add_leaf(0);
  tree.link(prev, tree.node(prev).left, last);
  return flint::trees::Forest<float>(
      std::vector<flint::trees::Tree<float>>{std::move(tree)}, 2);
}

// Adversarial narrowing at both quantized key widths: thresholds drawn
// from the special-pattern pool (signed zeros, denormals, infinities,
// adjacent bit patterns) must route bit-identically through the 4-byte
// image, whether the key span fits a byte (small span) or needs 16 bits
// (table > 255 ranks).
TEST(Q4Narrow, AdversarialThresholdsExactAtInt8AndInt16KeySpans) {
  // int8 span: the adversarial pool dedupes to well under 255 thresholds.
  std::vector<float> small_thresholds;
  for (const float t : adversarial_pool({})) {
    if (!std::isnan(t)) small_thresholds.push_back(t);
  }
  // int16 span: > 255 distinct thresholds need 16-bit keys.
  std::vector<float> big_thresholds = small_thresholds;
  for (int i = 0; i < 300; ++i) {
    big_thresholds.push_back(static_cast<float>(i) * 0.5f + 100.0f);
  }
  for (const auto* thresholds : {&small_thresholds, &big_thresholds}) {
    const auto forest = chain_forest(*thresholds);
    const auto tables = layout::build_key_tables(forest);
    layout::LayoutPlan plan;
    plan.width = layout::NodeWidth::Q4;
    const layout::LayoutForestEngine engine(q4_image(forest, plan, tables),
                                            plan);
    ASSERT_TRUE(engine.packed().exact());
    const bool int8_block = engine.packed().max_key_span() <= 255;
    EXPECT_EQ(int8_block, thresholds == &small_thresholds);
    // Probes: thresholds, their bit neighbors, specials, uniforms.
    auto probes = adversarial_pool(*thresholds);
    std::mt19937_64 rng(31);
    std::uniform_real_distribution<float> uniform(-300.0f, 300.0f);
    for (int i = 0; i < 128; ++i) probes.push_back(uniform(rng));
    std::vector<std::int32_t> out(probes.size(), -1);
    engine.predict_batch(probes.data(), probes.size(), out.data());
    for (std::size_t s = 0; s < probes.size(); ++s) {
      ASSERT_EQ(out[s], forest.predict({&probes[s], 1}))
          << (int8_block ? "int8" : "int16") << " span, probe bits 0x"
          << std::hex << flint::core::si_bits(probes[s]);
      ASSERT_EQ(engine.predict({&probes[s], 1}), out[s]);
    }
  }
}

TEST(Q4Contract, OversizedTableGoesAffineAndReportsCollapse) {
  // 70k distinct thresholds cannot fit 16-bit keys: the feature must fall
  // back to affine, collapse thresholds, and fail the accuracy contract —
  // exactly the signal the auto ladder demotes on.
  std::vector<float> thresholds(70000);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    thresholds[i] = static_cast<float>(i);
  }
  const auto forest = chain_forest(thresholds);
  const auto tables = layout::build_key_tables(forest);
  layout::LayoutPlan plan;
  plan.width = layout::NodeWidth::Q4;
  std::string why;
  const auto packed =
      layout::try_pack_q4<float>(forest, plan, tables, false, &why);
  ASSERT_TRUE(packed.has_value()) << why;
  EXPECT_FALSE(packed->exact());
  EXPECT_FALSE(packed->qplan.accuracy_contract());
  EXPECT_LT(packed->qplan.min_fitness(), 1.0);
  const auto& fq = packed->qplan.features[0];
  EXPECT_EQ(fq.distinct, thresholds.size());
  EXPECT_LT(fq.quantized_distinct, fq.distinct);
  // A pinned lossy engine still constructs and serves monotone routing.
  const layout::LayoutForestEngine engine(*packed, plan);
  const float probe = 12345.0f;
  (void)engine.predict({&probe, 1});
}

TEST(Q4Contract, ForceAffineKeepsContractOnSmallTables) {
  // quant:affine's pack path: every tested feature affine.  On a forest
  // whose per-feature thresholds are far fewer than the key range, the
  // affine map keeps all of them distinct — lossy contract, but the
  // accuracy contract (and the fitness report) says no threshold merged.
  const auto data =
      flint::data::generate<float>(flint::data::wine_spec(), 19, 600);
  flint::trees::ForestOptions opt;
  opt.n_trees = 4;
  opt.tree.max_depth = 6;
  const auto forest = flint::trees::train_forest(data, opt);
  const auto tables = layout::build_key_tables(forest);
  layout::LayoutPlan plan;
  plan.width = layout::NodeWidth::Q4;
  std::string why;
  const auto packed = layout::try_pack_q4<float>(forest, plan, tables,
                                                 /*force_affine=*/true, &why);
  ASSERT_TRUE(packed.has_value()) << why;
  EXPECT_FALSE(packed->exact());
  for (std::size_t f = 0; f < packed->qplan.features.size(); ++f) {
    if (tables.features[f].size() == 0) continue;
    EXPECT_FALSE(packed->qplan.features[f].exact()) << "feature " << f;
  }
}

// ---------------------------------------------------------------------------
// Exact early exit of the vote paths (vote.hpp).
// ---------------------------------------------------------------------------

/// Every class argmax_first can end on when `left` more votes are spread
/// over classes [c, counts.size()) of `counts`.
void collect_winners(std::vector<int>& counts, std::size_t c, int left,
                     std::set<std::int32_t>& winners) {
  if (c + 1 == counts.size()) {
    counts[c] += left;
    winners.insert(layout::argmax_first(counts.data(), counts.size()));
    counts[c] -= left;
    return;
  }
  for (int k = 0; k <= left; ++k) {
    counts[c] += k;
    collect_winners(counts, c + 1, left - k, winners);
    counts[c] -= k;
  }
}

// Brute force over every vote sequence and every prefix: vote_decided is
// true exactly when every completion ends on the prefix leader, so the
// exit is exact (no completion changes the winner) and tight (no exit is
// missed); and nothing is decided before half the trees have voted.
TEST(VoteExit, RuleIsExactAndTightOnEveryPrefix) {
  for (std::size_t classes = 2; classes <= 4; ++classes) {
    for (std::size_t trees = 1; trees <= 8; ++trees) {
      std::map<std::pair<std::vector<int>, std::size_t>, bool> one_winner;
      std::vector<std::size_t> seq(trees, 0);  // odometer over the classes
      bool more = true;
      while (more) {
        std::vector<int> counts(classes, 0);
        for (std::size_t t = 0; t <= trees; ++t) {
          if (t > 0) ++counts[seq[t - 1]];
          const std::size_t remaining = trees - t;
          auto [it, fresh] = one_winner.try_emplace({counts, remaining}, false);
          if (fresh) {
            std::set<std::int32_t> winners;
            collect_winners(counts, 0, static_cast<int>(remaining), winners);
            it->second = winners.size() == 1;
          }
          const bool decided =
              layout::vote_decided(counts.data(), classes, remaining);
          ASSERT_EQ(decided, it->second)
              << "T=" << trees << " C=" << classes << " t=" << t;
          if (2 * t < trees) {
            ASSERT_FALSE(decided) << "decided before the midpoint: T="
                                  << trees << " C=" << classes << " t=" << t;
          }
        }
        std::size_t i = 0;
        while (i < trees && ++seq[i] == classes) seq[i++] = 0;
        more = i < trees;
      }
    }
  }
}

/// One split of a stump forest: tree t sends `feature <= threshold` left.
struct Stump {
  std::int32_t feature;
  float threshold;
  std::int32_t left;
  std::int32_t right;
};

flint::trees::Forest<float> stump_forest(const std::vector<Stump>& stumps,
                                         std::size_t features, int classes,
                                         bool default_left) {
  std::vector<flint::trees::Tree<float>> trees;
  for (const auto& st : stumps) {
    flint::trees::Tree<float> tree(features);
    const auto root = default_left
                          ? tree.add_split(st.feature, st.threshold, true)
                          : tree.add_split(st.feature, st.threshold);
    const auto l = tree.add_leaf(st.left);
    const auto r = tree.add_leaf(st.right);
    tree.link(root, l, r);
    trees.push_back(std::move(tree));
  }
  return flint::trees::Forest<float>(std::move(trees), classes);
}

/// One-feature stumps whose thresholds rise with the tree index, so a
/// sample goes right in a prefix of the trees and left in the rest: x
/// below every threshold votes the `left` sequence, x above every one the
/// `right` sequence, and values in between splice the two.
std::vector<Stump> spliced_stumps(const std::vector<std::int32_t>& left,
                                  const std::vector<std::int32_t>& right) {
  std::vector<Stump> stumps;
  for (std::size_t t = 0; t < left.size(); ++t) {
    stumps.push_back({0, static_cast<float>(t + 1) /
                             static_cast<float>(left.size() + 1),
                      left[t], right[t]});
  }
  return stumps;
}

/// Stumps over `features` features with per-tree class pairs drawn from a
/// skewed distribution, so that some samples decide early and others late.
std::vector<Stump> random_stumps(std::size_t trees, std::size_t features,
                                 int classes, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> weights;
  for (int c = 0; c < classes; ++c) weights.push_back(1.0 / (c + 1));
  std::discrete_distribution<std::int32_t> cls(weights.begin(), weights.end());
  std::uniform_int_distribution<std::int32_t> feat(
      0, static_cast<std::int32_t>(features) - 1);
  std::uniform_real_distribution<float> thr(0.0f, 1.0f);
  std::vector<Stump> stumps;
  for (std::size_t t = 0; t < trees; ++t) {
    stumps.push_back({feat(rng), thr(rng), cls(rng), cls(rng)});
  }
  return stumps;
}

/// Pins the portable scalar loops for its lifetime.
struct ForceScalar {
  explicit ForceScalar(bool pin) : on(pin) {
    if (on) setenv("FLINT_LAYOUT_FORCE_SCALAR", "1", 1);
  }
  ~ForceScalar() {
    if (on) unsetenv("FLINT_LAYOUT_FORCE_SCALAR");
  }
  bool on;
};

// End to end: stump forests whose samples decide at different trees, run
// through every layout backend at batch sizes on both sides of the latency
// path, the one-tile-group block and the block size, on the vector and the
// scalar loops.  Every prediction must equal Forest::predict.
TEST(VoteExit, StumpForestsMatchForestPredictOnEveryPath) {
  struct Case {
    std::string name;
    flint::trees::Forest<float> forest;
    bool nan = false;
  };
  std::vector<Case> cases;
  // Left: 1,1,0,0 ties 2:2 at the last tree and resolves to class 0.
  cases.push_back({"tie at the last tree",
                   stump_forest(spliced_stumps({1, 1, 0, 0}, {0, 1, 1, 0}),
                                1, 2, false)});
  // Left: class 2 leads 3:0 at the midpoint, then class 1 ties it 3:3 at
  // the last tree and wins on the lower id.  Right: class 0 leads 2:1 at
  // the midpoint and class 2 overtakes it at the fifth tree.
  cases.push_back(
      {"leader changes after the midpoint",
       stump_forest(spliced_stumps({2, 2, 2, 1, 1, 1}, {0, 0, 2, 2, 2, 2}),
                    1, 3, false)});
  cases.push_back({"one tree", stump_forest(spliced_stumps({1}, {0}), 1, 2,
                                            false)});
  cases.push_back({"two trees", stump_forest(spliced_stumps({1, 0}, {0, 1}),
                                             1, 2, false)});
  std::uint64_t seed = 11;
  for (const int classes : {2, 11}) {
    for (const std::size_t trees : {std::size_t{3}, std::size_t{8},
                                    std::size_t{17}, std::size_t{64}}) {
      cases.push_back({std::to_string(trees) + " trees, " +
                           std::to_string(classes) + " classes",
                       stump_forest(random_stumps(trees, 3, classes, ++seed),
                                    3, classes, false)});
    }
  }
  cases.push_back({"NaN default-left, 33 trees",
                   stump_forest(random_stumps(33, 3, 2, ++seed), 3, 2, true),
                   true});

  constexpr std::size_t kRows = 1024;
  for (const auto& c : cases) {
    const std::size_t cols = c.forest.feature_count();
    ASSERT_EQ(c.forest.has_special_splits(), c.nan) << c.name;
    std::mt19937_64 rng(seed + cols);
    std::uniform_real_distribution<float> unit(0.0f, 1.0f);
    std::uniform_int_distribution<int> kind(0, 9);
    std::vector<float> rows(kRows * cols);
    for (auto& v : rows) {
      switch (kind(rng)) {
        case 0: v = -1.0f; break;  // below every threshold
        case 1: v = 2.0f; break;   // above every threshold
        case 2:
          v = c.nan ? std::numeric_limits<float>::quiet_NaN() : unit(rng);
          break;
        default: v = unit(rng);
      }
    }
    std::vector<std::int32_t> expected(kRows);
    std::set<std::size_t> decided_at;
    for (std::size_t s = 0; s < kRows; ++s) {
      const std::span<const float> x(rows.data() + s * cols, cols);
      expected[s] = c.forest.predict(x);
      std::vector<int> votes(static_cast<std::size_t>(c.forest.num_classes()));
      for (std::size_t t = 0; t < c.forest.size(); ++t) {
        ++votes[static_cast<std::size_t>(c.forest.tree(t).predict(x))];
        if (layout::vote_decided(votes.data(), votes.size(),
                                 c.forest.size() - t - 1)) {
          decided_at.insert(t);
          break;
        }
      }
    }
    if (c.forest.size() >= 17) {
      EXPECT_GE(decided_at.size(), 3u)
          << c.name << ": samples should decide at different trees";
    }
    for (const char* backend : {"layout:auto", "layout:c16", "layout:q4"}) {
      const auto predictor = flint::predict::make_predictor(c.forest, backend);
      for (const bool scalar : {false, true}) {
        const ForceScalar pin(scalar);
        for (const std::size_t n :
             {std::size_t{1}, std::size_t{8}, std::size_t{9}, std::size_t{32},
              std::size_t{33}, std::size_t{256}, std::size_t{257},
              std::size_t{1024}}) {
          std::vector<std::int32_t> out(n, -1);
          predictor->predict_batch({rows.data(), n * cols}, n, out);
          for (std::size_t s = 0; s < n; ++s) {
            ASSERT_EQ(out[s], expected[s])
                << c.name << " " << predictor->name() << " n=" << n
                << " scalar=" << scalar << " sample " << s;
          }
        }
      }
    }
  }
}

/// Stumps over 3 features with leaf payloads in [0, rows): even trees
/// split feature (t / 2) % 2 numerically with a random NaN default
/// direction, odd trees test feature 2 for membership in a random
/// category set.
flint::trees::Forest<float> special_stump_forest(std::size_t trees, int rows,
                                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int32_t> row(0, rows - 1);
  std::uniform_real_distribution<float> thr(0.0f, 1.0f);
  std::vector<flint::trees::Tree<float>> out;
  for (std::size_t t = 0; t < trees; ++t) {
    flint::trees::Tree<float> tree(3);
    const bool default_left = (rng() & 1u) != 0;
    std::int32_t root;
    if (t % 2 == 0) {
      root = tree.add_split(static_cast<std::int32_t>((t / 2) % 2), thr(rng),
                            default_left);
    } else {
      const std::uint32_t words[] = {static_cast<std::uint32_t>(rng()) | 1u,
                                     static_cast<std::uint32_t>(rng())};
      root = tree.add_cat_split(2, tree.add_cat_set(words), default_left);
    }
    const auto l = tree.add_leaf(row(rng));
    const auto r = tree.add_leaf(row(rng));
    tree.link(root, l, r);
    out.push_back(std::move(tree));
  }
  return flint::trees::Forest<float>(std::move(out), rows);
}

// The engines at a block size below the batch: every block compacts on
// its own, including a short tail block, on the vector and scalar loops;
// and the score walk accumulates across blocks bit for bit, on a plain
// k = 3 model and on a NaN default-left plus categorical one.
TEST(VoteExit, SmallBlocksCompactIndependently) {
  const auto forest = stump_forest(random_stumps(40, 3, 5, 99), 3, 5, false);
  const auto tables = layout::build_key_tables(forest);
  const std::size_t n = 301;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> unit(-0.1f, 1.1f);
  std::vector<float> rows(n * 3);
  for (auto& v : rows) v = unit(rng);
  std::vector<std::int32_t> expected(n);
  for (std::size_t s = 0; s < n; ++s) {
    expected[s] = forest.predict({rows.data() + s * 3, 3});
  }
  for (const bool scalar : {false, true}) {
    const ForceScalar pin(scalar);
    for (const std::size_t block : {std::size_t{33}, std::size_t{72}}) {
      layout::LayoutPlan plan;
      plan.block_size = block;
      const layout::LayoutForestEngine c16(c16_image(forest, plan, tables),
                                           plan);
      plan.width = layout::NodeWidth::Q4;
      const layout::LayoutForestEngine q4(q4_image(forest, plan, tables),
                                          plan);
      std::vector<std::int32_t> out(n, -1);
      c16.predict_batch(rows.data(), n, out.data());
      EXPECT_EQ(out, expected) << "c16 block " << block << " scalar "
                               << scalar;
      std::fill(out.begin(), out.end(), -1);
      q4.predict_batch(rows.data(), n, out.data());
      EXPECT_EQ(out, expected) << "q4 block " << block << " scalar "
                               << scalar;
    }
  }

  // Score leg: predict_scores against per-tree accumulation in tree order.
  struct ScoreCase {
    std::string name;
    flint::trees::Forest<float> forest;
    bool special;
    std::vector<float> base;
    std::vector<float> features;
  };
  constexpr std::size_t k = 3;
  std::vector<ScoreCase> cases;
  cases.push_back({"plain", stump_forest(random_stumps(40, 3, 6, 5), 3, 6,
                                         false),
                   false, {0.5f, -0.25f, 1.0f}, rows});
  std::vector<float> special_rows(n * 3);
  std::uniform_int_distribution<int> kind(0, 9);
  for (std::size_t i = 0; i < special_rows.size(); ++i) {
    const int kd = kind(rng);
    if (kd == 0) {
      special_rows[i] = std::numeric_limits<float>::quiet_NaN();
    } else if (i % 3 == 2) {
      special_rows[i] = static_cast<float>(kd * 7 % 64);  // a category
    } else {
      special_rows[i] = unit(rng);
    }
  }
  cases.push_back({"NaN default-left + categorical",
                   special_stump_forest(40, 6, 17), true, {}, special_rows});
  for (const auto& c : cases) {
    ASSERT_EQ(c.forest.has_special_splits(), c.special) << c.name;
    const auto score_tables = layout::build_key_tables(c.forest);
    const auto n_rows = static_cast<std::size_t>(c.forest.num_classes());
    std::vector<float> leaf_values(n_rows * k);
    for (std::size_t i = 0; i < leaf_values.size(); ++i) {
      leaf_values[i] = static_cast<float>(i % 7) * 0.37f - 1.1f;
    }
    std::vector<float> expected_scores(n * k);
    for (std::size_t s = 0; s < n; ++s) {
      const std::span<const float> x(c.features.data() + s * 3, 3);
      float* acc = expected_scores.data() + s * k;
      for (std::size_t j = 0; j < k; ++j) {
        acc[j] = c.base.empty() ? 0.0f : c.base[j];
      }
      for (std::size_t t = 0; t < c.forest.size(); ++t) {
        const auto leaf = static_cast<std::size_t>(c.forest.tree(t).predict(x));
        for (std::size_t j = 0; j < k; ++j) acc[j] += leaf_values[leaf * k + j];
      }
    }
    for (const bool scalar : {false, true}) {
      const ForceScalar pin(scalar);
      for (const std::size_t block : {std::size_t{33}, std::size_t{72}}) {
        layout::LayoutPlan plan;
        plan.block_size = block;
        const layout::LayoutForestEngine c16(
            c16_image(c.forest, plan, score_tables), plan);
        const layout::LayoutForestEngine q4(
            q4_image(c.forest, plan, score_tables), plan);
        const auto check = [&](const auto& engine, const char* width) {
          std::vector<float> out(n * k,
                                 std::numeric_limits<float>::quiet_NaN());
          engine.predict_scores(c.features.data(), n, leaf_values, k, c.base,
                                out.data());
          for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(flint::core::si_bits(out[i]),
                      flint::core::si_bits(expected_scores[i]))
                << c.name << " " << width << " block " << block << " scalar "
                << scalar << " sample " << i / k << " output " << i % k;
          }
        };
        check(c16, "c16");
        check(q4, "q4");
      }
    }
  }
}

}  // namespace
