// Equivalence tests for the execution engines: every FLInt variant must be
// bit-exactly equivalent to hardware-float traversal on trained forests and
// on adversarial inputs (values equal to splits, signed zeros, denormals,
// infinities) — the paper's "model accuracy unchanged" claim.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <tuple>

#include "data/split.hpp"
#include "data/synth.hpp"
#include "exec/interpreter.hpp"
#include "predict/predictor.hpp"
#include "trees/forest.hpp"
#include "trees/serialize.hpp"

namespace {

using flint::exec::FlintForestEngine;
using flint::exec::FlintVariant;
using flint::exec::FloatForestEngine;

constexpr FlintVariant kAllVariants[] = {
    FlintVariant::Encoded, FlintVariant::Theorem1, FlintVariant::Theorem2,
    FlintVariant::RadixKey};

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, FlintVariant>> {};

TEST_P(EngineEquivalence, MatchesForestPredictOnTestSet) {
  const auto& [dataset_name, variant] = GetParam();
  const auto spec = flint::data::spec_by_name(dataset_name);
  const auto full = flint::data::generate<float>(spec, 31, 1200);
  const auto split = flint::data::train_test_split(full, 0.25, 31);

  flint::trees::ForestOptions opt;
  opt.n_trees = 5;
  opt.tree.max_depth = 10;
  opt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
  const auto forest = flint::trees::train_forest(split.train, opt);

  const FlintForestEngine<float> engine(forest, variant);
  const FloatForestEngine<float> reference(forest);
  EXPECT_EQ(engine.tree_count(), forest.size());
  for (std::size_t r = 0; r < split.test.rows(); ++r) {
    const auto x = split.test.row(r);
    ASSERT_EQ(engine.predict(x), forest.predict(x)) << "row " << r;
    ASSERT_EQ(reference.predict(x), forest.predict(x)) << "row " << r;
  }
  EXPECT_DOUBLE_EQ(engine.accuracy(split.test), reference.accuracy(split.test));
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasetsAndVariants, EngineEquivalence,
    ::testing::Combine(::testing::Values("eye", "gas", "magic", "sensorless",
                                         "wine"),
                       ::testing::ValuesIn(kAllVariants)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             flint::exec::to_string(std::get<1>(info.param));
    });

class AdversarialInputs : public ::testing::TestWithParam<FlintVariant> {};

TEST_P(AdversarialInputs, ExactSplitValuesAndSpecials) {
  // Build a forest, then probe it with feature vectors made of its own
  // split values (boundary hits) and special patterns.
  const auto full = flint::data::generate<float>(flint::data::magic_spec(), 77, 900);
  flint::trees::ForestOptions opt;
  opt.n_trees = 3;
  opt.tree.max_depth = 8;
  const auto forest = flint::trees::train_forest(full, opt);
  const FlintForestEngine<float> engine(forest, GetParam());

  std::vector<float> splits;
  for (std::size_t t = 0; t < forest.size(); ++t) {
    for (const auto& n : forest.tree(t).nodes()) {
      if (!n.is_leaf()) splits.push_back(n.split);
    }
  }
  ASSERT_FALSE(splits.empty());

  const float specials[] = {0.0f, -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest()};

  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::size_t> pick_split(0, splits.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_special(0, std::size(specials) - 1);
  std::uniform_int_distribution<int> kind(0, 2);
  std::vector<float> x(full.cols());
  for (int trial = 0; trial < 5000; ++trial) {
    for (auto& v : x) {
      switch (kind(rng)) {
        case 0: v = splits[pick_split(rng)]; break;
        case 1: v = specials[pick_special(rng)]; break;
        default: v = std::uniform_real_distribution<float>(-100.f, 100.f)(rng);
      }
    }
    ASSERT_EQ(engine.predict(x), forest.predict(x)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, AdversarialInputs,
                         ::testing::ValuesIn(kAllVariants),
                         [](const auto& info) {
                           return std::string(flint::exec::to_string(info.param));
                         });

TEST(Engines, DoubleWidthEquivalence) {
  const auto full = flint::data::generate<double>(flint::data::wine_spec(), 3, 800);
  flint::trees::ForestOptions opt;
  opt.n_trees = 4;
  opt.tree.max_depth = 8;
  const auto forest = flint::trees::train_forest(full, opt);
  for (const auto variant : kAllVariants) {
    const FlintForestEngine<double> engine(forest, variant);
    for (std::size_t r = 0; r < full.rows(); ++r) {
      ASSERT_EQ(engine.predict(full.row(r)), forest.predict(full.row(r)))
          << flint::exec::to_string(variant) << " row " << r;
    }
  }
}

TEST(Engines, PredictBatchMatchesPredict) {
  const auto full = flint::data::generate<float>(flint::data::eye_spec(), 3, 500);
  flint::trees::ForestOptions opt;
  opt.n_trees = 3;
  opt.tree.max_depth = 6;
  const auto forest = flint::trees::train_forest(full, opt);
  const FlintForestEngine<float> engine(forest, FlintVariant::Encoded);
  std::vector<std::int32_t> out(full.rows());
  engine.predict_batch(full, out);
  for (std::size_t r = 0; r < full.rows(); ++r) {
    EXPECT_EQ(out[r], engine.predict(full.row(r)));
  }
  std::vector<std::int32_t> too_small(full.rows() - 1);
  EXPECT_THROW(engine.predict_batch(full, too_small), std::invalid_argument);
}

TEST(Engines, EmptyForestThrows) {
  const flint::trees::Forest<float> empty;
  EXPECT_THROW((FlintForestEngine<float>(empty, FlintVariant::Encoded)),
               std::invalid_argument);
  EXPECT_THROW((FloatForestEngine<float>(empty)), std::invalid_argument);
}

// The engines index vote rows by leaf class with no hot-path bounds check,
// so a model whose header understates num_classes (constructible by hand
// and reachable through read_forest) must be rejected when it is packed —
// by the interpreters and by every layout packer the factory reaches —
// instead of writing past the vote buffers.
TEST(Engines, OutOfRangeLeafClassRejectedAtPackTime) {
  flint::trees::Tree<float> tree(1);
  const auto root = tree.add_split(0, 0.0f);
  tree.link(root, tree.add_leaf(0), tree.add_leaf(5));
  const flint::trees::Forest<float> lying({tree}, /*num_classes=*/2);
  EXPECT_THROW(FlintForestEngine<float>(lying, FlintVariant::Encoded),
               std::invalid_argument);
  EXPECT_THROW(FloatForestEngine<float>{lying}, std::invalid_argument);
  for (const char* backend : {"layout:c16", "layout:q4", "layout:auto"}) {
    try {
      (void)flint::predict::make_predictor(lying, backend);
      ADD_FAILURE() << backend << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("leaf class 5"), std::string::npos)
          << backend << ": " << e.what();
    }
  }
  // And read_forest refuses such a model file outright, which also covers
  // the jit backends (their generated code indexes the same vote array
  // with no engine-side pack step).
  std::stringstream buf;
  flint::trees::write_forest(buf, lying);
  EXPECT_THROW((void)flint::trees::read_forest<float>(buf),
               std::runtime_error);
}

TEST(Engines, VariantNames) {
  EXPECT_STREQ(flint::exec::to_string(FlintVariant::Encoded), "encoded");
  EXPECT_STREQ(flint::exec::to_string(FlintVariant::Theorem1), "theorem1");
  EXPECT_STREQ(flint::exec::to_string(FlintVariant::Theorem2), "theorem2");
  EXPECT_STREQ(flint::exec::to_string(FlintVariant::RadixKey), "radix");
}

}  // namespace
