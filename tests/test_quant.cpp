// Tests for the quantization plan layer: the shared fixed-point rounding
// rule, dataset- and table-driven calibration, the per-feature fitness
// contract, and the central property the paper motivates — affine
// quantization *loses* predictions while FLInt does not.
#include <gtest/gtest.h>

#include "core/flint.hpp"
#include "data/split.hpp"
#include "data/synth.hpp"
#include "exec/interpreter.hpp"
#include "exec/layout/narrow.hpp"
#include "quant/quant_plan.hpp"
#include "trees/forest.hpp"

namespace {

using flint::quant::FeatureMode;
using flint::quant::plan_from_dataset;
using flint::quant::plan_from_tables;
using flint::quant::QuantForestEngine;
using flint::quant::QuantPlan;
using flint::quant::quantize;
using flint::quant::report_json;

TEST(Quantize, RoundsAndClamps) {
  EXPECT_EQ(quantize(0.0, 100.0, 16), 0);
  EXPECT_EQ(quantize(1.0, 100.0, 16), 100);
  EXPECT_EQ(quantize(-1.004, 100.0, 16), -100);
  EXPECT_EQ(quantize(1.006, 100.0, 16), 101);
  // Clamp at the signed range edge.
  EXPECT_EQ(quantize(1e9, 100.0, 16), 32767);
  EXPECT_EQ(quantize(-1e9, 100.0, 16), -32767);
}

TEST(PlanFromDataset, ScalesMapMaxToRangeEdge) {
  flint::data::Dataset<float> ds("q", 2);
  ds.add_row(std::vector<float>{2.0f, -8.0f}, 0);
  ds.add_row(std::vector<float>{-4.0f, 1.0f}, 1);
  const auto plan = plan_from_dataset(ds, 8);
  ASSERT_EQ(plan.feature_count(), 2u);
  // 8 bits -> q_max = 127; feature 0 max |v| = 4, feature 1 max |v| = 8.
  EXPECT_DOUBLE_EQ(plan.features[0].scale, 127.0 / 4.0);
  EXPECT_DOUBLE_EQ(plan.features[1].scale, 127.0 / 8.0);
  EXPECT_EQ(plan.features[0].quantize(4.0), 127);
  EXPECT_EQ(plan.features[0].quantize(-1e9), -127);
  // FeatureQuant::quantize reduces to the shared rounding rule when
  // offset == 0 — one quantization implementation, not two.
  EXPECT_EQ(plan.features[1].quantize(0.37),
            quantize(0.37, plan.features[1].scale, 8));
}

TEST(PlanFromDataset, ConstantZeroFeatureGetsUnitScale) {
  flint::data::Dataset<float> ds("q", 1);
  ds.add_row(std::vector<float>{0.0f}, 0);
  ds.add_row(std::vector<float>{0.0f}, 1);
  EXPECT_DOUBLE_EQ(plan_from_dataset(ds, 16).features[0].scale, 1.0);
}

TEST(PlanFromDataset, RejectsBadArguments) {
  flint::data::Dataset<float> empty("e", 1);
  EXPECT_THROW((void)plan_from_dataset(empty, 16), std::invalid_argument);
  flint::data::Dataset<float> ds("q", 1);
  ds.add_row(std::vector<float>{1.0f}, 0);
  EXPECT_THROW((void)plan_from_dataset(ds, 1), std::invalid_argument);
  EXPECT_THROW((void)plan_from_dataset(ds, 32), std::invalid_argument);
}

TEST(PlanFromTables, ExactWhenTablesFitTheKeyBudget) {
  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 7, 600);
  flint::trees::ForestOptions opt;
  opt.n_trees = 4;
  opt.tree.max_depth = 8;
  const auto forest = flint::trees::train_forest(ds, opt);
  const auto tables = flint::exec::layout::build_key_tables(forest);

  const auto plan = plan_from_tables(tables, 16);
  ASSERT_EQ(plan.feature_count(), tables.features.size());
  EXPECT_TRUE(plan.all_exact());
  EXPECT_TRUE(plan.accuracy_contract());
  EXPECT_DOUBLE_EQ(plan.min_fitness(), 1.0);
  for (std::size_t f = 0; f < plan.features.size(); ++f) {
    const auto& fq = plan.features[f];
    EXPECT_TRUE(fq.exact());
    // Sample keys span [0, table size]: a value above every split ranks one
    // past the last split.
    EXPECT_EQ(fq.q_lo, 0);
    EXPECT_EQ(fq.q_hi,
              static_cast<std::int64_t>(tables.features[f].size()));
  }
  EXPECT_NE(plan.describe().find("exact="), std::string::npos);
}

TEST(PlanFromTables, ForceAffineIsMonotoneAndMeasured) {
  const auto ds = flint::data::generate<float>(flint::data::magic_spec(), 5, 800);
  flint::trees::ForestOptions opt;
  opt.n_trees = 4;
  opt.tree.max_depth = 10;
  const auto forest = flint::trees::train_forest(ds, opt);
  const auto tables = flint::exec::layout::build_key_tables(forest);

  const auto plan = plan_from_tables(tables, 16, /*force_affine=*/true);
  for (std::size_t f = 0; f < plan.features.size(); ++f) {
    const auto& fq = plan.features[f];
    if (tables.features[f].size() == 0) {
      // Never-tested features stay trivially exact even under force_affine:
      // rank on an empty table is 0, no rounding can occur.
      EXPECT_TRUE(fq.exact());
      continue;
    }
    EXPECT_EQ(fq.mode, FeatureMode::Affine);
    EXPECT_GE(fq.quantized_distinct, 1u);
    EXPECT_LE(fq.quantized_distinct, fq.distinct);
    EXPECT_GT(fq.fitness(), 0.0);
    EXPECT_LE(fq.fitness(), 1.0);
    // Monotone map: quantizing the sorted split set never decreases.
    std::int64_t prev = fq.q_lo - 1;
    for (const auto key : tables.features[f].keys()) {
      const auto q = fq.quantize(static_cast<double>(
          flint::core::from_radix_key<float>(key)));
      EXPECT_GE(q, prev);
      prev = q;
    }
  }
}

TEST(PlanFromTables, CoarseBudgetBreaksTheAccuracyContract) {
  const auto ds = flint::data::generate<float>(flint::data::magic_spec(), 5, 1000);
  flint::trees::ForestOptions opt;
  opt.n_trees = 6;
  opt.tree.max_depth = 10;
  const auto forest = flint::trees::train_forest(ds, opt);
  const auto tables = flint::exec::layout::build_key_tables(forest);

  // At 2 bits every tested feature gets at most 3 buckets; with hundreds of
  // distinct thresholds per feature the contract cannot hold.
  const auto coarse = plan_from_tables(tables, 2, /*force_affine=*/true);
  EXPECT_FALSE(coarse.all_exact());
  EXPECT_FALSE(coarse.accuracy_contract());
  EXPECT_LT(coarse.min_fitness(), 1.0);
}

TEST(PlanFromTables, RejectsBadBits) {
  const flint::exec::layout::KeyTableSet<float> tables;
  EXPECT_THROW((void)plan_from_tables(tables, 1), std::invalid_argument);
  EXPECT_THROW((void)plan_from_tables(tables, 17), std::invalid_argument);
}

TEST(ReportJson, CarriesThePerFeatureFitness) {
  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 9, 500);
  flint::trees::ForestOptions opt;
  opt.n_trees = 3;
  opt.tree.max_depth = 8;
  const auto forest = flint::trees::train_forest(ds, opt);
  const auto tables = flint::exec::layout::build_key_tables(forest);
  const auto plan = plan_from_tables(tables, 12, /*force_affine=*/true);
  const auto json = report_json(plan);
  EXPECT_NE(json.find("\"bits\":12"), std::string::npos);
  EXPECT_NE(json.find("\"per_feature\":["), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"affine\""), std::string::npos);
  EXPECT_NE(json.find("\"quantized_distinct\":"), std::string::npos);
  EXPECT_NE(json.find("\"accuracy_contract\":"), std::string::npos);
}

TEST(QuantEngine, RejectsBadConstruction) {
  const flint::trees::Forest<float> empty;
  EXPECT_THROW((QuantForestEngine<float>(empty, {})), std::invalid_argument);

  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 3, 300);
  flint::trees::ForestOptions opt;
  opt.n_trees = 1;
  opt.tree.max_depth = 3;
  const auto forest = flint::trees::train_forest(ds, opt);
  QuantPlan short_plan;  // zero features
  EXPECT_THROW((QuantForestEngine<float>(forest, short_plan)),
               std::invalid_argument);

  // Exact-mode features (with real tables behind them) belong to the packed
  // q4 engine, not the plan-level reference evaluator.
  const auto tables = flint::exec::layout::build_key_tables(forest);
  auto exact_plan = plan_from_tables(tables, 16);
  flint::quant::annotate_thresholds(exact_plan, forest);
  EXPECT_THROW((QuantForestEngine<float>(forest, exact_plan)),
               std::invalid_argument);
}

class QuantizationLoss : public ::testing::TestWithParam<std::string> {};

TEST_P(QuantizationLoss, CoarseQuantizationFlipsPredictionsFlintDoesNot) {
  const auto spec = flint::data::spec_by_name(GetParam());
  const auto full = flint::data::generate<float>(spec, 13, 2000);
  const auto split = flint::data::train_test_split(full, 0.25, 13);
  flint::trees::ForestOptions opt;
  opt.n_trees = 10;
  opt.tree.max_depth = 12;
  opt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
  const auto forest = flint::trees::train_forest(split.train, opt);

  // FLInt: exact by construction on every test row.
  const flint::exec::FlintForestEngine<float> flint_engine(
      forest, flint::exec::FlintVariant::Encoded);
  for (std::size_t r = 0; r < split.test.rows(); ++r) {
    ASSERT_EQ(flint_engine.predict(split.test.row(r)),
              forest.predict(split.test.row(r)));
  }

  // Quantization: mismatch rate must not increase with precision, and the
  // coarse end must actually lose predictions (the paper's motivation).
  double previous = 1.0;
  double coarse_rate = 0.0;
  for (const int bits : {6, 10, 16, 24}) {
    const auto plan = plan_from_dataset(split.train, bits);
    const QuantForestEngine<float> engine(forest, plan);
    const double rate = engine.mismatch_rate(forest, split.test);
    if (bits == 6) coarse_rate = rate;
    EXPECT_LE(rate, previous + 0.02)
        << "mismatch rate grew with precision at " << bits << " bits";
    previous = rate;
  }
  EXPECT_GT(coarse_rate, 0.0)
      << "6-bit quantization lost no predictions; dataset too easy to "
         "demonstrate the motivation";
}

INSTANTIATE_TEST_SUITE_P(Datasets, QuantizationLoss,
                         ::testing::Values("magic", "sensorless", "wine"));

TEST(QuantEngine, HighPrecisionApproachesExact) {
  const auto full = flint::data::generate<float>(flint::data::magic_spec(), 17, 1500);
  const auto split = flint::data::train_test_split(full, 0.25, 17);
  flint::trees::ForestOptions opt;
  opt.n_trees = 5;
  opt.tree.max_depth = 10;
  const auto forest = flint::trees::train_forest(split.train, opt);
  const auto plan = plan_from_dataset(split.train, 30);
  const QuantForestEngine<float> engine(forest, plan);
  EXPECT_LT(engine.mismatch_rate(forest, split.test), 0.02);
}

TEST(QuantEngine, AccuracyIsComputed) {
  const auto full = flint::data::generate<float>(flint::data::eye_spec(), 23, 800);
  flint::trees::ForestOptions opt;
  opt.n_trees = 3;
  opt.tree.max_depth = 8;
  const auto forest = flint::trees::train_forest(full, opt);
  const QuantForestEngine<float> engine(forest, plan_from_dataset(full, 16));
  const double acc = engine.accuracy(full);
  EXPECT_GT(acc, 0.4);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
