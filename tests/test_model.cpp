// Unit tests for src/model/: the ForestModel IR, the v2 container round
// trip, the external-model loaders (XGBoost JSON / LightGBM text / sklearn
// JSON) with their bit-exact threshold transforms, the vendored fixture
// gates (convert + reload + reproduce committed reference predictions
// through reference, encoded and layout:auto), predict_scores
// property tests against explicit per-tree accumulation across every
// score backend, and the make_predictor contract pinned for every backend
// name.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "data/synth.hpp"
#include "model/forest_model.hpp"
#include "model/json.hpp"
#include "model/loaders.hpp"
#include "model/model_io.hpp"
#include "predict/predictor.hpp"
#include "trees/forest.hpp"
#include "trees/serialize.hpp"
#include "trees/train.hpp"

namespace {

namespace model = flint::model;
namespace trees = flint::trees;
namespace predict = flint::predict;

#ifndef FLINT_SOURCE_DIR
#error "FLINT_SOURCE_DIR must point at the repo root (set by CMakeLists.txt)"
#endif
const std::string kFixtureDir =
    std::string(FLINT_SOURCE_DIR) + "/tests/fixtures/external/";

/// ULP distance between two floats (0 = bit-identical up to +-0).
std::int64_t ulp_diff(float a, float b) {
  const auto key = [](float v) {
    const auto bits = std::bit_cast<std::int32_t>(v);
    return static_cast<std::int64_t>(
        bits >= 0 ? bits : std::numeric_limits<std::int32_t>::min() - bits);
  };
  return std::abs(key(a) - key(b));
}

/// A small additive leaf-value model: every leaf of a trained forest gets
/// its own leaf-value row filled deterministically.
model::ForestModel<float> make_score_model(int n_outputs, model::Link link,
                                           int n_trees = 6, int depth = 6,
                                           std::uint64_t seed = 7) {
  const auto spec = flint::data::spec_by_name("wine");
  const auto dataset = flint::data::generate<float>(spec, seed, 400);
  trees::ForestOptions options;
  options.n_trees = n_trees;
  options.tree.max_depth = depth;
  options.tree.seed = seed;
  auto forest = trees::train_forest(dataset, options);

  model::ForestModel<float> m;
  m.leaf_kind = n_outputs == 1 ? model::LeafKind::Scalar
                               : model::LeafKind::ScoreVector;
  m.aggregation.mode = model::AggregationMode::SumScores;
  m.aggregation.link = link;
  m.n_outputs = n_outputs;
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::int32_t next_row = 0;
  std::vector<trees::Tree<float>> rebuilt;
  for (std::size_t t = 0; t < forest.size(); ++t) {
    trees::Tree<float> tree = forest.tree(t);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      auto& node = tree.node(static_cast<std::int32_t>(i));
      if (!node.is_leaf()) continue;
      node.prediction = next_row++;
      for (int j = 0; j < n_outputs; ++j) {
        m.leaf_values.push_back(dist(rng));
      }
    }
    rebuilt.push_back(std::move(tree));
  }
  for (int j = 0; j < n_outputs; ++j) {
    m.aggregation.base_score.push_back(dist(rng));
  }
  m.forest = trees::Forest<float>(std::move(rebuilt), next_row);
  EXPECT_EQ(m.validate(), "");
  return m;
}

std::vector<float> sample_rows(const model::ForestModel<float>& m,
                               std::size_t n, std::uint64_t seed = 99) {
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::uniform_real_distribution<float> dist(-3.0f, 3.0f);
  std::vector<float> rows(n * m.forest.feature_count());
  for (auto& v : rows) v = dist(rng);
  return rows;
}

/// Explicit per-tree accumulation + finalize: the property-test oracle.
std::vector<float> manual_scores(const model::ForestModel<float>& m,
                                 const std::vector<float>& rows,
                                 std::size_t n) {
  const std::size_t cols = m.forest.feature_count();
  const auto k = static_cast<std::size_t>(m.n_outputs);
  std::vector<float> scores(n * k, 0.0f);
  for (std::size_t s = 0; s < n; ++s) {
    float* out = scores.data() + s * k;
    for (std::size_t j = 0; j < k; ++j) {
      out[j] = m.aggregation.base_score.empty() ? 0.0f
                                                : m.aggregation.base_score[j];
    }
    for (std::size_t t = 0; t < m.forest.size(); ++t) {
      const auto row = static_cast<std::size_t>(
          m.forest.tree(t).predict({rows.data() + s * cols, cols}));
      for (std::size_t j = 0; j < k; ++j) {
        out[j] += m.leaf_values[row * k + j];
      }
    }
  }
  // Base was already the accumulator seed (the backends' order); only the
  // link remains.
  model::apply_link(m.aggregation.link, n, k, scores.data());
  return scores;
}

// ---------------------------------------------------------------------------
// JSON parser.
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  const auto v = model::parse_json(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\n"}, "d": true, "e": null})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_double(), 2.5);
  EXPECT_EQ(v.at("b").at("c").as_string(), "x\n");
  EXPECT_TRUE(v.at("d").as_bool());
  EXPECT_TRUE(v.at("e").is_null());
}

TEST(Json, KeepsRawNumberTokensAndHexFloats) {
  const auto v = model::parse_json(R"([0.1, 0x1.99999ap-4, -Infinity])");
  EXPECT_EQ(v.as_array()[0].raw_number(), "0.1");
  EXPECT_EQ(v.as_array()[1].raw_number(), "0x1.99999ap-4");
  // The hex token IS float 0.1's exact bit pattern.
  EXPECT_EQ(std::bit_cast<std::uint32_t>(
                std::strtof(v.as_array()[1].raw_number().c_str(), nullptr)),
            std::bit_cast<std::uint32_t>(0.1f));
  EXPECT_TRUE(std::isinf(v.as_array()[2].as_double()));
}

TEST(Json, ReportsLineAndColumn) {
  try {
    (void)model::parse_json("{\n  \"a\": [1,\n  }");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("3:"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// IR validation and v2 round trip.
// ---------------------------------------------------------------------------

TEST(ForestModel, ValidateCatchesInconsistencies) {
  auto m = make_score_model(3, model::Link::Softmax);
  EXPECT_EQ(m.validate(), "");
  EXPECT_EQ(m.num_classes(), 3);

  auto bad = m;
  bad.leaf_values.pop_back();
  EXPECT_NE(bad.validate(), "");

  bad = m;
  bad.aggregation.link = model::Link::Sigmoid;  // sigmoid needs k == 1
  EXPECT_NE(bad.validate(), "");

  bad = m;
  bad.forest.tree(0).node(0).prediction = 1 << 28;  // leaf row out of range
  // node 0 may be inner; force a leaf
  for (std::size_t i = 0; i < bad.forest.tree(0).size(); ++i) {
    auto& n = bad.forest.tree(0).node(static_cast<std::int32_t>(i));
    if (n.is_leaf()) {
      n.prediction = 1 << 28;
      break;
    }
  }
  EXPECT_NE(bad.validate(), "");
}

TEST(ForestModel, V2RoundTripIsBitExact) {
  const auto m = make_score_model(3, model::Link::Softmax);
  std::stringstream io;
  model::write_model(io, m);
  const auto back = model::read_model<float>(io);
  EXPECT_EQ(back.leaf_kind, m.leaf_kind);
  EXPECT_EQ(back.aggregation.link, m.aggregation.link);
  EXPECT_EQ(back.n_outputs, m.n_outputs);
  ASSERT_EQ(back.leaf_values.size(), m.leaf_values.size());
  for (std::size_t i = 0; i < m.leaf_values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back.leaf_values[i]),
              std::bit_cast<std::uint32_t>(m.leaf_values[i]));
  }
  ASSERT_EQ(back.forest.size(), m.forest.size());
  for (std::size_t t = 0; t < m.forest.size(); ++t) {
    ASSERT_EQ(back.forest.tree(t).size(), m.forest.tree(t).size());
    for (std::size_t i = 0; i < m.forest.tree(t).size(); ++i) {
      const auto& a = m.forest.tree(t).node(static_cast<std::int32_t>(i));
      const auto& b = back.forest.tree(t).node(static_cast<std::int32_t>(i));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(a.split),
                std::bit_cast<std::uint32_t>(b.split));
      EXPECT_EQ(a.prediction, b.prediction);
    }
  }
}

TEST(ForestModel, LoadForestRejectsV2WithPointer) {
  const auto m = make_score_model(1, model::Link::None);
  std::stringstream io;
  model::write_model(io, m);
  try {
    (void)trees::read_forest<float>(io);
    FAIL() << "expected v2 rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("v2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("load_any_model"), std::string::npos);
  }
}

TEST(ForestModel, LoadAnyModelBridgesV1) {
  const auto spec = flint::data::spec_by_name("eye");
  const auto dataset = flint::data::generate<float>(spec, 3, 200);
  trees::ForestOptions options;
  options.n_trees = 3;
  options.tree.max_depth = 5;
  const auto forest = trees::train_forest(dataset, options);
  const std::string path = ::testing::TempDir() + "/v1_bridge.forest";
  trees::save_forest(path, forest);
  const auto m = model::load_any_model<float>(path);
  EXPECT_TRUE(m.is_vote());
  EXPECT_EQ(m.num_classes(), forest.num_classes());
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_EQ(m.forest.predict(dataset.row(r)), forest.predict(dataset.row(r)));
  }
}

std::string model_text(const model::ForestModel<float>& m) {
  std::ostringstream out;
  model::write_model(out, m);
  return out.str();
}

model::ForestModel<float> parse_model_text(const std::string& text) {
  std::istringstream in(text);
  return model::read_model<float>(in);
}

TEST(ModelIo, ScoreModelsRoundTripByteForByte) {
  std::vector<model::ForestModel<float>> models;
  for (const auto& [outputs, link] :
       {std::pair{1, model::Link::None}, std::pair{1, model::Link::Sigmoid},
        std::pair{3, model::Link::Softmax}}) {
    auto m = make_score_model(outputs, link);
    models.push_back(m);
    m.handles_missing = true;  // adds the `missing` line
    models.push_back(m);
    m.zero_as_missing = true;
    models.push_back(m);
  }
  auto no_base = make_score_model(2, model::Link::None);
  no_base.aggregation.base_score.clear();  // omits the `base` line
  models.push_back(no_base);
  for (const auto& m : models) {
    const std::string once = model_text(m);
    SCOPED_TRACE(once.substr(0, once.find("leaf_values")));
    EXPECT_EQ(model_text(parse_model_text(once)), once);
  }
}

TEST(ModelIo, ExternalFixturesRoundTripByteForByte) {
  for (const char* file : {"xgb_binary.json", "xgb_missing.json",
                           "lgbm_regression.txt", "lgbm_categorical.txt",
                           "sklearn_multiclass.json"}) {
    SCOPED_TRACE(file);
    const std::string once =
        model_text(model::load_external_model<float>(kFixtureDir + file));
    EXPECT_EQ(model_text(parse_model_text(once)), once);
    EXPECT_EQ(model_text(model::parse_any_model<float>(once)), once);
  }
}

/// The loader's what() for a file, or "" when it loads.
std::string load_error(const std::string& path) {
  try {
    (void)model::load_any_model<float>(path);
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

TEST(ModelIo, CorruptFixturesKeepTheirErrorTexts) {
  const std::string dir = std::string(FLINT_SOURCE_DIR) + "/tests/fixtures/corrupt/";
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"v1_child_out_of_range.forest",
       "serialize: line 7: invalid tree: node 0 child index out of range"},
      {"v1_cycle.forest", "serialize: line 7: invalid tree: root node has a parent"},
      {"v1_feature_out_of_range.forest",
       "serialize: line 7: invalid tree: node 0 feature index out of range"},
      {"v1_huge_tree_count.forest", "serialize: line 9: unexpected end of input"},
      {"v1_leaf_class_out_of_range.forest",
       "serialize: line 7: tree 0: leaf class 7 out of range for 2 classes"},
      {"v1_leaf_with_flags.forest",
       "serialize: line 7: invalid tree: leaf node 2 carries split flags"},
      {"v1_nan_split.forest",
       "serialize: line 7: invalid tree: numeric node 0 has a NaN split"},
      {"v1_orphan_node.forest",
       "serialize: line 8: invalid tree: node 3 has 0 parents (expected 1)"},
      {"v1_truncated.forest", "serialize: line 8: unexpected end of input"},
      {"v1_zero_feature_count.forest",
       "model: invalid v1 forest: tree 0: feature 0 outside [0, 0)"},
      {"v2_bad_missing_line.v2",
       "serialize: line 8: bad missing line (expected 'missing 0|1 0|1'): "
       "\"missing 0 1\""},
      {"v2_base_score_arity.v2",
       "serialize: line 9: base line has 2 values, expected 1: \"base 0 0\""},
      {"v2_class_count_mismatch.v2",
       "model: v2 header declares 5 classes but the aggregation derives 0"},
      {"v2_huge_category_words.v2",
       "serialize: line 16: category-set word count 99999999999 exceeds line "
       "length: \"c 99999999999 1\""},
      {"v2_huge_feature_count.v2",
       "model: invalid v2 container: feature count 999999999 exceeds the "
       "engine limit of 32767"},
      {"v2_leaf_row_out_of_range.v2",
       "model: invalid v2 container: tree 1: leaf row 9 out of range for 3 "
       "leaf-value rows"},
      {"v2_leaf_with_cat_slot.v2",
       "serialize: line 19: invalid tree: leaf node 1 carries a cat_slot"},
      {"v2_nonfinite_leaf_value.v2",
       "model: invalid v2 container: non-finite leaf value at row 0 output 0"},
      {"v2_scalar_outputs_mismatch.v2",
       "serialize: line 9: base line has 1 values, expected 3: \"base 0\""},
      {"v2_truncated.v2", "serialize: line 11: unexpected end of input"},
  };
  std::size_t n_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    n_files += entry.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(n_files, expected.size()) << "a corrupt fixture has no pinned text";
  for (const auto& [file, error] : expected) {
    EXPECT_EQ(load_error(dir + file), error) << file;
  }
}

TEST(ModelIo, EmptyFileFailsBeforeAnyLine) {
  const std::string path = ::testing::TempDir() + "/flint_empty.model";
  std::ofstream(path).flush();
  EXPECT_EQ(load_error(path), "serialize: line 0: unexpected end of input");
}

TEST(ModelIo, LoadsThroughAFifo) {
  // A FIFO has no size and cannot seek, so the loader must read it once.
  // 20k comment lines push the text past the first read chunk.
  const auto m = make_score_model(3, model::Link::Softmax, 3, 5);
  std::string padded_text;
  for (std::size_t i = 0; i < 20000; ++i) padded_text += "# pad \n";
  padded_text += model_text(m);
  const std::string& padded = padded_text;
  const std::string v1_text = [] {
    const auto spec = flint::data::spec_by_name("eye");
    trees::ForestOptions options;
    options.n_trees = 3;
    options.tree.max_depth = 5;
    std::ostringstream out;
    trees::write_forest(out, trees::train_forest(
                                 flint::data::generate<float>(spec, 3, 200),
                                 options));
    return out.str();
  }();
  for (const std::string* payload : {&padded, &v1_text}) {
    const std::string fifo = ::testing::TempDir() + "/flint_model.fifo";
    std::filesystem::remove(fifo);
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    std::jthread writer([&] { std::ofstream(fifo, std::ios::binary) << *payload; });
    const auto loaded = model::load_any_model<float>(fifo);
    writer.join();
    std::filesystem::remove(fifo);
    EXPECT_EQ(model_text(loaded),
              model_text(model::parse_any_model<float>(*payload)));
  }
}

// ---------------------------------------------------------------------------
// Loader threshold transforms (bit-level).
// ---------------------------------------------------------------------------

TEST(Loaders, XgboostLessThanBecomesPredecessorLe) {
  // One split: f0 < 0.1 -> leaf 1.0 else leaf 2.0 (values float32-native).
  const std::string dump = R"([{
    "nodeid": 0, "split": "f0", "split_condition": 0.1, "yes": 1, "no": 2,
    "missing": 1, "children": [
      {"nodeid": 1, "leaf": 1.0}, {"nodeid": 2, "leaf": 2.0}]}])";
  const auto m = model::load_xgboost_json<float>(dump);
  ASSERT_EQ(m.forest.size(), 1u);
  const auto& root = m.forest.tree(0).node(0);
  const float t = std::strtof("0.1", nullptr);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(root.split),
            std::bit_cast<std::uint32_t>(
                std::nextafterf(t, -std::numeric_limits<float>::infinity())));
  // Boundary semantics: x == 0.1f goes RIGHT (x < t is false).
  EXPECT_EQ(m.forest.tree(0).predict(std::vector<float>{t}),
            m.forest.tree(0).node(m.forest.tree(0).node(0).right).prediction);
}

TEST(Loaders, Float64ThresholdNarrowsTowardMinusInfinity) {
  // 0.3000...04 is not float32-representable; the narrowed threshold must
  // be the largest float <= it, and x == (float)0.3 must still go left
  // exactly like the float64 comparison says.
  const double t64 = 0.30000000000000004;
  const std::string lgbm =
      "tree\nmax_feature_idx=0\nobjective=regression\n\n"
      "Tree=0\nnum_leaves=2\nsplit_feature=0\n"
      "threshold=0.30000000000000004\ndecision_type=2\n"
      "left_child=-1\nright_child=-2\nleaf_value=1 2\n\nend of trees\n";
  const auto m = model::load_lightgbm_text<float>(lgbm);
  const auto& root = m.forest.tree(0).node(0);
  EXPECT_LE(static_cast<double>(root.split), t64);
  EXPECT_GT(static_cast<double>(std::nextafterf(
                root.split, std::numeric_limits<float>::infinity())),
            t64);
  // (float)0.3 rounds UP to 0.30000001..., which exceeds t64: the float64
  // rule sends it right, and so must the narrowed comparison.
  EXPECT_EQ(m.forest.tree(0).predict(std::vector<float>{0.3f}),
            m.forest.tree(0).node(root.right).prediction);
  // The narrowed threshold itself is the largest float on the left side.
  EXPECT_EQ(m.forest.tree(0).predict(std::vector<float>{root.split}),
            m.forest.tree(0).node(root.left).prediction);
}

TEST(Loaders, RejectsCategoricalAndNaN) {
  const std::string categorical =
      "tree\nmax_feature_idx=0\nobjective=regression\n\n"
      "Tree=0\nnum_leaves=2\nsplit_feature=0\nthreshold=1\n"
      "decision_type=1\nleft_child=-1\nright_child=-2\nleaf_value=1 2\n\n"
      "end of trees\n";
  EXPECT_THROW((void)model::load_lightgbm_text<float>(categorical),
               std::runtime_error);
  const std::string nan_split = R"([{
    "nodeid": 0, "split": "f0", "split_condition": NaN, "yes": 1, "no": 2,
    "missing": 1, "children": [
      {"nodeid": 1, "leaf": 1.0}, {"nodeid": 2, "leaf": 2.0}]}])";
  EXPECT_THROW((void)model::load_xgboost_json<float>(nan_split),
               std::runtime_error);
}

TEST(Loaders, RejectsInexpressibleLightgbmModels) {
  const std::string tree_block =
      "Tree=0\nnum_leaves=2\nsplit_feature=0\nthreshold=1\n"
      "decision_type=2\nleft_child=-1\nright_child=-2\nleaf_value=1 2\n\n"
      "end of trees\n";
  // boosting=rf: prediction is a mean, not a sum.
  EXPECT_THROW((void)model::load_lightgbm_text<float>(
                   "tree\nmax_feature_idx=0\naverage_output\n"
                   "objective=regression\n\n" + tree_block),
               std::runtime_error);
  // linear_tree leaves carry linear functions.
  EXPECT_THROW((void)model::load_lightgbm_text<float>(
                   "tree\nmax_feature_idx=0\nlinear_tree=1\n"
                   "objective=regression\n\n" + tree_block),
               std::runtime_error);
  // Non-default sigmoid parameter scales the link.
  EXPECT_THROW((void)model::load_lightgbm_text<float>(
                   "tree\nmax_feature_idx=0\n"
                   "objective=binary sigmoid:0.5\n\n" + tree_block),
               std::runtime_error);
  // Mixed Zero- and NaN-type missing routing: one boundary rewrite cannot
  // serve both flavors at once.
  const std::string mixed_missing =
      "tree\nmax_feature_idx=0\nobjective=regression\n\n"
      "Tree=0\nnum_leaves=3\nsplit_feature=0 0\nthreshold=1 2\n"
      "decision_type=6 10\nleft_child=1 -2\nright_child=-1 -3\n"
      "leaf_value=1 2 3\n\n"
      "end of trees\n";
  EXPECT_THROW((void)model::load_lightgbm_text<float>(mixed_missing),
               std::runtime_error);
}

TEST(Loaders, LightgbmZeroAsMissingIngests) {
  // missing_type=Zero (decision_type 6 = default-left | Zero) now converts:
  // the model declares zero_as_missing and the split carries a default
  // direction instead of being rejected.
  const std::string zero_missing =
      "tree\nmax_feature_idx=0\nobjective=regression\n\n"
      "Tree=0\nnum_leaves=2\nsplit_feature=0\nthreshold=1\n"
      "decision_type=6\nleft_child=-1\nright_child=-2\nleaf_value=1 2\n\n"
      "end of trees\n";
  const auto m = model::load_lightgbm_text<float>(zero_missing);
  EXPECT_TRUE(m.handles_missing);
  EXPECT_TRUE(m.zero_as_missing);
  ASSERT_TRUE(m.forest.has_special_splits());
  const auto& root = m.forest.tree(0).node(0);
  EXPECT_TRUE(root.default_left());
}

TEST(Loaders, RejectsScrambledMulticlassTreeCounts) {
  // 2 trees cannot round-robin over num_class=3.
  const std::string dump = R"({"objective": "multi:softprob", "num_class": 3,
    "trees": [
      {"nodeid": 0, "leaf": 1.0},
      {"nodeid": 0, "leaf": 2.0}]})";
  EXPECT_THROW((void)model::load_xgboost_json<float>(dump),
               std::runtime_error);
}

TEST(ForestModel, ClassFromRawMatchesClassFromScores) {
  // class_from_raw (hot path, pre-link) and class_from_scores (post-link)
  // must encode the same decision rule.
  for (const auto& [k, link] :
       {std::pair<int, model::Link>{1, model::Link::Sigmoid},
        std::pair<int, model::Link>{3, model::Link::Softmax}}) {
    const auto m = make_score_model(k, link, 4, 4, 17);
    const std::size_t n = 64;
    const auto rows = sample_rows(m, n, 5);
    // Raw accumulation (base-seeded, no link) next to finalized scores.
    const std::size_t cols = m.forest.feature_count();
    const auto kk = static_cast<std::size_t>(k);
    std::vector<float> raw(n * kk);
    for (std::size_t s = 0; s < n; ++s) {
      float* out = raw.data() + s * kk;
      for (std::size_t j = 0; j < kk; ++j) {
        out[j] = m.aggregation.base_score.empty() ? 0.0f
                                                  : m.aggregation.base_score[j];
      }
      for (std::size_t t = 0; t < m.forest.size(); ++t) {
        const auto row = static_cast<std::size_t>(
            m.forest.tree(t).predict({rows.data() + s * cols, cols}));
        for (std::size_t j = 0; j < kk; ++j) {
          out[j] += m.leaf_values[row * kk + j];
        }
      }
    }
    auto linked = raw;
    model::apply_link(link, n, kk, linked.data());
    for (std::size_t s = 0; s < n; ++s) {
      EXPECT_EQ(model::class_from_raw(k, raw.data() + s * kk),
                model::class_from_scores(m, linked.data() + s * kk))
          << "k=" << k << " sample " << s;
    }
  }
}

TEST(Loaders, DetectsFormats) {
  EXPECT_EQ(model::detect_model_format("forest v1 3 2\n"),
            model::ModelFormat::Native);
  EXPECT_EQ(model::detect_model_format("forest v2 2\n"),
            model::ModelFormat::Native);
  EXPECT_EQ(model::detect_model_format("tree\nversion=v3\nTree=0\n"),
            model::ModelFormat::LightgbmText);
  EXPECT_EQ(model::detect_model_format(R"([{"nodeid": 0, "leaf": 1}])"),
            model::ModelFormat::XgboostJson);
  EXPECT_EQ(model::detect_model_format(R"({"format": "sklearn-forest"})"),
            model::ModelFormat::SklearnJson);
  EXPECT_THROW((void)model::detect_model_format("garbage"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Vendored fixture gates: load -> convert -> reload -> reproduce the
// committed reference predictions through the acceptance backends.
// ---------------------------------------------------------------------------

struct Fixture {
  std::string model_file;
  std::string stem;
  bool has_classes;
};

class FixtureGate : public ::testing::TestWithParam<Fixture> {};

TEST_P(FixtureGate, ConvertReloadAndMatchReference) {
  const Fixture& fx = GetParam();
  const auto m = model::load_external_model<float>(kFixtureDir + fx.model_file);
  ASSERT_EQ(m.validate(), "");

  // Convert round trip: save v2, reload, every threshold/leaf bit equal.
  const std::string v2_path = ::testing::TempDir() + "/" + fx.stem + ".v2";
  model::save_model(v2_path, m);
  const auto back = model::load_any_model<float>(v2_path);
  ASSERT_EQ(back.forest.size(), m.forest.size());
  for (std::size_t t = 0; t < m.forest.size(); ++t) {
    for (std::size_t i = 0; i < m.forest.tree(t).size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(
                    back.forest.tree(t).node(static_cast<std::int32_t>(i)).split),
                std::bit_cast<std::uint32_t>(
                    m.forest.tree(t).node(static_cast<std::int32_t>(i)).split));
    }
  }

  // Inputs and expectations.
  std::ifstream csv(kFixtureDir + fx.stem + "_input.csv");
  ASSERT_TRUE(csv);
  std::vector<float> features;
  std::vector<int> labels;
  std::string line;
  while (std::getline(csv, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tok;
    std::vector<float> row;
    while (std::getline(ls, tok, ',')) row.push_back(std::stof(tok));
    labels.push_back(static_cast<int>(row.back()));
    row.pop_back();
    features.insert(features.end(), row.begin(), row.end());
  }
  const std::size_t n = labels.size();
  ASSERT_GT(n, 0u);

  const auto k = static_cast<std::size_t>(m.n_outputs);
  std::vector<std::vector<float>> expected_scores;
  {
    std::ifstream sf(kFixtureDir + fx.stem + "_expected_scores.txt");
    ASSERT_TRUE(sf);
    while (std::getline(sf, line)) {
      if (line.empty()) continue;
      std::istringstream ls(line);
      std::string tok;
      std::vector<float> row;
      while (std::getline(ls, tok, ',')) row.push_back(std::stof(tok));
      ASSERT_EQ(row.size(), k);
      expected_scores.push_back(std::move(row));
    }
    ASSERT_EQ(expected_scores.size(), n);
  }
  std::vector<int> expected_classes;
  if (fx.has_classes) {
    std::ifstream cf(kFixtureDir + fx.stem + "_expected_classes.txt");
    ASSERT_TRUE(cf);
    int c;
    while (cf >> c) expected_classes.push_back(c);
    ASSERT_EQ(expected_classes.size(), n);
  }

  for (const char* backend : {"reference", "encoded", "layout:auto"}) {
    const auto predictor = predict::make_predictor(back, backend);
    std::vector<float> scores(n * k);
    predictor->predict_scores(features, n, scores);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_LE(ulp_diff(scores[s * k + j], expected_scores[s][j]), 2)
            << backend << " sample " << s << " output " << j << ": got "
            << scores[s * k + j] << " want " << expected_scores[s][j];
      }
    }
    if (fx.has_classes) {
      std::vector<std::int32_t> classes(n);
      predictor->predict_batch(features, n, classes);
      for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(classes[s], expected_classes[s])
            << backend << " sample " << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    External, FixtureGate,
    ::testing::Values(Fixture{"xgb_binary.json", "xgb_binary", true},
                      Fixture{"lgbm_regression.txt", "lgbm_regression", false},
                      Fixture{"sklearn_multiclass.json", "sklearn_multiclass",
                              true}),
    [](const auto& info) { return info.param.stem; });

// ---------------------------------------------------------------------------
// predict_scores property tests: every score backend == explicit per-tree
// accumulation, bit-identically (same summation order everywhere).
// ---------------------------------------------------------------------------

TEST(PredictScores, AllBackendsMatchPerTreeAccumulation) {
  for (const auto& [k, link] :
       {std::pair<int, model::Link>{1, model::Link::Sigmoid},
        std::pair<int, model::Link>{3, model::Link::Softmax},
        std::pair<int, model::Link>{1, model::Link::None}}) {
    const auto m = make_score_model(k, link);
    const std::size_t n = 64;
    const auto rows = sample_rows(m, n);
    const auto expected = manual_scores(m, rows, n);
    for (const char* backend : {"reference", "encoded", "layout:auto",
                                "layout:c16", "layout:q4", "jit:layout"}) {
      const auto predictor = predict::make_predictor(m, backend);
      ASSERT_TRUE(predictor->supports_scores()) << backend;
      EXPECT_EQ(predictor->num_outputs(), k) << backend;
      std::vector<float> scores(n * static_cast<std::size_t>(k));
      predictor->predict_scores(rows, n, scores);
      for (std::size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(scores[i]),
                  std::bit_cast<std::uint32_t>(expected[i]))
            << backend << " idx " << i << " got " << scores[i] << " want "
            << expected[i];
      }
    }
  }
}

TEST(PredictScores, JitLayoutServesScoresNatively) {
  // jit:layout generates its own accumulate-scores body — no interpreter
  // fallback, the predictor keeps the real backend name.
  const auto m = make_score_model(1, model::Link::Sigmoid);
  const auto predictor = predict::make_predictor(m, "jit:layout");
  EXPECT_EQ(predictor->name(), "jit:layout");
  EXPECT_THROW((void)predict::make_predictor(m, "jit:nonsense"),
               std::invalid_argument);
}

TEST(PredictScores, ClassesAgreeWithScoreReduction) {
  const auto m = make_score_model(3, model::Link::Softmax);
  const std::size_t n = 64;
  const auto rows = sample_rows(m, n);
  const auto scores = manual_scores(m, rows, n);
  for (const char* backend : {"reference", "encoded", "layout:auto"}) {
    const auto predictor = predict::make_predictor(m, backend);
    std::vector<std::int32_t> classes(n);
    predictor->predict_batch(rows, n, classes);
    for (std::size_t s = 0; s < n; ++s) {
      EXPECT_EQ(classes[s],
                model::class_from_scores(m, scores.data() + s * 3))
          << backend << " sample " << s;
    }
  }
}

TEST(PredictScores, ParallelPartitioningIsBitIdentical) {
  const auto m = make_score_model(3, model::Link::Softmax);
  const std::size_t n = 1000;
  const auto rows = sample_rows(m, n, 123);
  predict::PredictorOptions serial;
  predict::PredictorOptions parallel;
  parallel.threads = 4;
  parallel.block_size = 64;
  const auto p1 = predict::make_predictor(m, "encoded", serial);
  const auto p4 = predict::make_predictor(m, "encoded", parallel);
  EXPECT_EQ(p4->num_outputs(), 3);
  std::vector<float> s1(n * 3), s4(n * 3);
  p1->predict_scores(rows, n, s1);
  p4->predict_scores(rows, n, s4);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(s1[i]),
              std::bit_cast<std::uint32_t>(s4[i]))
        << i;
  }
}

TEST(PredictScores, VoteBackendsRejectScoreCalls) {
  const auto spec = flint::data::spec_by_name("eye");
  const auto dataset = flint::data::generate<float>(spec, 3, 200);
  trees::ForestOptions options;
  options.n_trees = 3;
  const auto m = model::from_vote_forest(trees::train_forest(dataset, options));
  const auto predictor = predict::make_predictor(m, "encoded");
  EXPECT_FALSE(predictor->supports_scores());
  std::vector<float> scores(dataset.rows());
  EXPECT_THROW(
      predictor->predict_scores(dataset.values(), dataset.rows(), scores),
      std::logic_error);
}

TEST(PredictScores, RegressionModelsRejectPredictBatch) {
  const auto m = make_score_model(1, model::Link::None);
  EXPECT_FALSE(m.is_classifier());
  const auto predictor = predict::make_predictor(m, "encoded");
  const auto rows = sample_rows(m, 4);
  std::vector<std::int32_t> classes(4);
  EXPECT_THROW(predictor->predict_batch(rows, 4, classes), std::logic_error);
  std::vector<float> scores(4);
  predictor->predict_scores(rows, 4, scores);  // the regression API works
}

TEST(PredictScores, NaNAndShapeGatesApply) {
  const auto m = make_score_model(1, model::Link::None);
  const auto predictor = predict::make_predictor(m, "encoded");
  auto rows = sample_rows(m, 2);
  std::vector<float> scores(2);
  EXPECT_THROW(predictor->predict_scores({rows.data(), 3}, 2, scores),
               std::invalid_argument);
  rows[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(predictor->predict_scores(rows, 2, scores),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The make_predictor contract: for every backend name, name(), the shape
// and the missing policy are pinned in a literal table (perfbench and the
// CLI read the plan from name()), and classes and scores equal `reference`
// bit for bit — at one thread and through a three-thread ParallelPredictor.
// ---------------------------------------------------------------------------

/// Expected name() of every backend at threads 1.  Every contract model
/// fits every layout width with a cache-resident image and at least four
/// trees, so the plans agree across models.
const std::pair<const char*, const char*> kContractNames[] = {
    {"reference", "reference"},
    {"encoded", "encoded"},
    {"flint", "encoded"},
    {"layout:auto", "layout:c16/dfs/il4"},
    {"layout:c16", "layout:c16/dfs/il4"},
    {"layout:q4", "layout:q4/dfs/il4"},
    {"quant:affine", "quant:affine(q4/dfs/il4)"},
    {"jit:layout", "jit:layout"},
};

struct ContractCase {
  std::string label;
  model::ForestModel<float> model;
  bool forest_overload;  ///< a vote model, also built from its bare forest
  int classes;
  int outputs;
  std::size_t features;
  predict::MissingPolicy policy;
};

/// Rows that hit the forest's own thresholds half of the time, plus NaN
/// when the policy admits it.
std::vector<float> contract_rows(const trees::Forest<float>& forest,
                                 std::size_t n, bool with_nan) {
  std::vector<float> splits;
  for (std::size_t t = 0; t < forest.size(); ++t) {
    for (const auto& node : forest.tree(t).nodes()) {
      if (!node.is_leaf()) splits.push_back(node.split);
    }
  }
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> dist(-3.0f, 3.0f);
  std::vector<float> rows(n * forest.feature_count());
  for (auto& v : rows) {
    const auto pick = rng() % 8;
    if (pick < 4) {
      v = splits[rng() % splits.size()];
    } else if (pick == 4 && with_nan) {
      v = std::numeric_limits<float>::quiet_NaN();
    } else {
      v = dist(rng);
    }
  }
  return rows;
}

std::vector<ContractCase> contract_cases() {
  const auto dataset = flint::data::generate<float>(
      flint::data::spec_by_name("magic"), 11, 600);
  trees::ForestOptions options;
  options.n_trees = 5;
  options.tree.max_depth = 7;
  const auto forest = trees::train_forest(dataset, options);
  // Default-left flags on every third inner node: the v1 rule admits NaN
  // for such a forest even though the model declares no missing support.
  std::vector<trees::Tree<float>> flagged;
  for (std::size_t t = 0; t < forest.size(); ++t) {
    trees::Tree<float> tree = forest.tree(t);
    for (std::size_t i = 0; i < tree.size(); i += 3) {
      auto& node = tree.node(static_cast<std::int32_t>(i));
      if (!node.is_leaf()) node.flags |= trees::kNodeDefaultLeft;
    }
    flagged.push_back(std::move(tree));
  }
  auto directions = model::from_vote_forest(
      trees::Forest<float>(std::move(flagged), forest.num_classes()));
  directions.handles_missing = false;

  predict::MissingPolicy strict;
  predict::MissingPolicy admit_nan;
  admit_nan.allow_nan = true;
  std::vector<ContractCase> cases;
  cases.push_back({"vote", model::from_vote_forest(forest), true, 2, 0, 10,
                   strict});
  cases.push_back({"vote+directions", std::move(directions), true, 2, 0, 10,
                   admit_nan});
  cases.push_back({"k1 sigmoid", make_score_model(1, model::Link::Sigmoid),
                   false, 2, 1, 11, strict});
  cases.push_back({"k3 softmax", make_score_model(3, model::Link::Softmax),
                   false, 3, 3, 11, strict});
  cases.push_back({"k1 no link", make_score_model(1, model::Link::None),
                   false, 0, 1, 11, strict});
  cases.push_back({"xgb_missing.json",
                   model::load_external_model<float>(kFixtureDir +
                                                     "xgb_missing.json"),
                   false, 2, 1, 4, admit_nan});
  return cases;
}

TEST(FactoryContract, EveryBackendNameShapePolicyAndOutput) {
  // The table covers the whole vocabulary.
  std::vector<std::string> vocabulary = predict::interpreter_backends();
  vocabulary.emplace_back("flint");
  for (const auto& list : {predict::layout_backends(),
                           predict::quant_backends(),
                           predict::jit_backends()}) {
    vocabulary.insert(vocabulary.end(), list.begin(), list.end());
  }
  ASSERT_EQ(vocabulary.size(), std::size(kContractNames));
  for (const auto& [backend, name] : kContractNames) {
    EXPECT_TRUE(predict::is_known_backend(backend)) << backend;
    EXPECT_NE(std::find(vocabulary.begin(), vocabulary.end(), backend),
              vocabulary.end())
        << backend;
  }

  const std::size_t n = 300;  // > the 256-sample parallel chunk
  for (const auto& c : contract_cases()) {
    const auto rows =
        contract_rows(c.model.forest, n, c.policy.allow_nan);
    const auto reference = predict::make_predictor(c.model, "reference");
    std::vector<std::int32_t> want_classes(n);
    if (c.classes > 0) reference->predict_batch(rows, n, want_classes);
    const auto k = static_cast<std::size_t>(c.outputs);
    std::vector<float> want_scores(n * k);
    if (k > 0) reference->predict_scores(rows, n, want_scores);

    for (const auto& [backend, name] : kContractNames) {
      for (const unsigned threads : {1u, 3u}) {
        predict::PredictorOptions options;
        options.threads = threads;
        std::vector<std::unique_ptr<predict::Predictor<float>>> built;
        built.push_back(predict::make_predictor(c.model, backend, options));
        if (c.forest_overload) {
          built.push_back(
              predict::make_predictor(c.model.forest, backend, options));
        }
        for (const auto& p : built) {
          SCOPED_TRACE(c.label + " / " + backend + " / threads " +
                       std::to_string(threads));
          EXPECT_EQ(p->name(), threads == 1 ? std::string(name)
                                            : "parallel(" +
                                                  std::string(name) + ",x3)");
          EXPECT_EQ(p->num_classes(), c.classes);
          EXPECT_EQ(p->num_outputs(), c.outputs);
          EXPECT_EQ(p->feature_count(), c.features);
          EXPECT_EQ(p->missing_policy().allow_nan, c.policy.allow_nan);
          EXPECT_EQ(p->missing_policy().zero_as_missing,
                    c.policy.zero_as_missing);
          EXPECT_EQ(p->missing_policy().substitute_nan,
                    c.policy.substitute_nan);
          // quant:affine is lossy by contract: its name is all it pins.
          if (std::string_view(backend) == "quant:affine") continue;
          std::vector<std::int32_t> classes(n, -1);
          if (c.classes > 0) {
            p->predict_batch(rows, n, classes);
            EXPECT_EQ(classes, want_classes);
          } else {
            EXPECT_THROW(p->predict_batch(rows, n, classes), std::logic_error);
          }
          if (k == 0) continue;
          std::vector<float> scores(n * k);
          p->predict_scores(rows, n, scores);
          for (std::size_t i = 0; i < scores.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(scores[i]),
                      std::bit_cast<std::uint32_t>(want_scores[i]))
                << "score " << i;
          }
        }
      }
    }
  }
}

}  // namespace
