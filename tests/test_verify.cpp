// Unit + property tests for src/verify/: the static forest verifier.
//
// Three layers, matching the verifier's contract:
//
//   1. Loader-accepted implies verify-clean: every vendored external
//      fixture, its v2 round trip, and freshly trained forests must pass
//      verify_model with zero diagnostics.  (The fuzz harnesses enforce
//      the same oracle on hostile inputs — fuzz/fuzz_container.cpp.)
//   2. Corrupt containers are rejected with located diagnostics: every
//      file in tests/fixtures/corrupt/ must fail verify_file with a
//      parse.load diagnostic whose message names the offending line or
//      node.  The fixtures are generated by tools/make_external_fixtures.py
//      and each documents its own corruption in `#` header comments.
//   3. Single-field mutations draw the catalogued check id: taking a valid
//      in-memory model and corrupting exactly one field must produce the
//      specific diagnostic docs/VERIFICATION.md promises for it.  Key
//      tables built from a different forest draw the tables.* checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/flint.hpp"
#include "data/synth.hpp"
#include "exec/layout/narrow.hpp"
#include "model/forest_model.hpp"
#include "model/loaders.hpp"
#include "model/model_io.hpp"
#include "trees/forest.hpp"
#include "trees/tree.hpp"
#include "verify/verify.hpp"

namespace {

namespace model = flint::model;
namespace trees = flint::trees;
namespace verify = flint::verify;

#ifndef FLINT_SOURCE_DIR
#error "FLINT_SOURCE_DIR must point at the repo root (set by CMakeLists.txt)"
#endif
const std::string kExternalDir =
    std::string(FLINT_SOURCE_DIR) + "/tests/fixtures/external/";
const std::string kCorruptDir =
    std::string(FLINT_SOURCE_DIR) + "/tests/fixtures/corrupt/";

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// True when the report carries at least one diagnostic with this check id.
bool has_check(const verify::Report& report, const std::string& check) {
  for (const auto& d : report.diagnostics) {
    if (d.check == check) return true;
  }
  return false;
}

std::string checks_of(const verify::Report& report) {
  std::string s;
  for (const auto& d : report.diagnostics) {
    s += d.check + " (" + d.message + "); ";
  }
  return s;
}

/// A small valid score model (scalar regression, 2 trees, categorical +
/// default-left routing) covering every node shape the verifier handles.
model::ForestModel<float> valid_score_model() {
  trees::Tree<float> t0(3);
  const std::uint32_t words[] = {0b1010};  // categories {1, 3}
  const auto slot = t0.add_cat_set(words);
  const auto root = t0.add_cat_split(2, slot, /*default_left=*/true);
  const auto mid = t0.add_split(0, 0.5f, /*default_left=*/false);
  const auto l0 = t0.add_leaf(0);
  const auto l1 = t0.add_leaf(1);
  const auto l2 = t0.add_leaf(2);
  t0.link(root, mid, l2);
  t0.link(mid, l0, l1);

  trees::Tree<float> t1(3);
  t1.add_leaf(3);

  std::vector<trees::Tree<float>> forest_trees;
  forest_trees.push_back(std::move(t0));
  forest_trees.push_back(std::move(t1));

  model::ForestModel<float> m;
  m.forest = trees::Forest<float>(std::move(forest_trees), 4);
  m.leaf_kind = model::LeafKind::Scalar;
  m.aggregation.mode = model::AggregationMode::SumScores;
  m.aggregation.link = model::Link::None;
  m.aggregation.base_score = {0.25f};
  m.n_outputs = 1;
  m.handles_missing = true;
  m.leaf_values = {1.0f, 2.0f, 3.0f, 4.0f};
  return m;
}

// ---------------------------------------------------------------------------
// 1. Loader-accepted implies verify-clean.
// ---------------------------------------------------------------------------

TEST(VerifyClean, HandBuiltModelPasses) {
  const auto m = valid_score_model();
  ASSERT_EQ(m.validate(), "");
  const auto report = verify::verify_model(m);
  EXPECT_TRUE(report.ok()) << checks_of(report);
  // A pass must be auditable: every artifact family was actually built.
  EXPECT_EQ(report.artifacts_checked,
            (std::vector<std::string>{"model", "tables", "packed", "c16",
                                      "q4"}));
  EXPECT_GT(report.nodes_checked, 0u);
}

TEST(VerifyClean, InfiniteSplitsAreOrderedAndAccepted) {
  // +-inf thresholds are legitimate (always-taken splits; the adversarial
  // round-trip in test_trees.cpp serializes them bit-exactly) — only NaN has
  // no integer rank.  The verifier must not reject what the engines handle.
  for (const float inf : {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    auto m = valid_score_model();
    m.forest.tree(0).node(1).split = inf;
    const auto report = verify::verify_model(m);
    EXPECT_TRUE(report.ok()) << checks_of(report);
  }
}

TEST(VerifyClean, EveryExternalFixturePassesAndRoundTrips) {
  const struct {
    const char* file;
    model::ForestModel<float> (*load)(const std::string&);
  } kFixtures[] = {
      {"xgb_binary.json",
       [](const std::string& s) { return model::load_xgboost_json<float>(s); }},
      {"xgb_missing.json",
       [](const std::string& s) { return model::load_xgboost_json<float>(s); }},
      {"lgbm_regression.txt",
       [](const std::string& s) {
         return model::load_lightgbm_text<float>(s);
       }},
      {"lgbm_categorical.txt",
       [](const std::string& s) {
         return model::load_lightgbm_text<float>(s);
       }},
      {"sklearn_multiclass.json",
       [](const std::string& s) { return model::load_sklearn_json<float>(s); }},
  };
  for (const auto& fixture : kFixtures) {
    SCOPED_TRACE(fixture.file);
    const auto m = fixture.load(slurp(kExternalDir + fixture.file));
    const auto report = verify::verify_model(m);
    EXPECT_TRUE(report.ok()) << checks_of(report);

    // The v2 round trip must stay verify-clean: write_model/read_model may
    // not manufacture a violation the loader-accepted model did not have.
    std::stringstream io;
    model::write_model(io, m);
    const auto reloaded = model::read_model<float>(io);
    const auto report2 = verify::verify_model(reloaded);
    EXPECT_TRUE(report2.ok()) << checks_of(report2);
  }
}

TEST(VerifyClean, VerifyFileAcceptsExternalFormatsDirectly) {
  for (const char* file :
       {"xgb_binary.json", "lgbm_categorical.txt", "sklearn_multiclass.json"}) {
    SCOPED_TRACE(file);
    const auto report = verify::verify_file(kExternalDir + file);
    EXPECT_TRUE(report.ok()) << checks_of(report);
  }
}

// ---------------------------------------------------------------------------
// 2. Corrupt containers: every fixture rejected, every diagnostic located.
// ---------------------------------------------------------------------------

TEST(VerifyCorrupt, EveryCorruptFixtureFailsWithALocatedDiagnostic) {
  std::size_t n_fixtures = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(kCorruptDir)) {
    if (!entry.is_regular_file()) continue;
    ++n_fixtures;
    const std::string path = entry.path().string();
    SCOPED_TRACE(path);
    const auto report = verify::verify_file(path);
    ASSERT_FALSE(report.ok()) << "corrupt fixture was accepted";
    // Corrupt *containers* die in the loader, which is itself the first
    // verified layer: the rejection surfaces as parse.load with the
    // loader's own line/node context in the message.
    EXPECT_TRUE(has_check(report, "parse.load")) << checks_of(report);
    ASSERT_FALSE(report.diagnostics.empty());
    const auto& d = report.diagnostics.front();
    EXPECT_FALSE(d.message.empty());
    // Located: the message names a line, tree, node, or count — never a
    // bare "failed".
    const bool located = d.message.find("line") != std::string::npos ||
                         d.message.find("node") != std::string::npos ||
                         d.message.find("tree") != std::string::npos ||
                         d.message.find("row") != std::string::npos ||
                         d.message.find("classes") != std::string::npos ||
                         d.message.find("count") != std::string::npos ||
                         d.message.find("values") != std::string::npos ||
                         d.message.find("end of input") != std::string::npos;
    EXPECT_TRUE(located) << d.message;

    // Both report renderers agree on the verdict.
    std::ostringstream human;
    verify::write_human(human, report);
    EXPECT_NE(human.str().find("FAIL"), std::string::npos);
    const std::string json = verify::to_json(report);
    EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(json.find("parse.load"), std::string::npos);
  }
  // The generator ships 20 fixtures; a shrinking directory means lost
  // coverage, not a passing test.
  EXPECT_GE(n_fixtures, 20u);
}

TEST(VerifyCorrupt, MissingFileIsADiagnosticNotAThrow) {
  const auto report = verify::verify_file(kCorruptDir + "does_not_exist.v2");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_check(report, "parse.load")) << checks_of(report);
}

// ---------------------------------------------------------------------------
// 3. Single-field mutations draw the catalogued check id.
// ---------------------------------------------------------------------------

using Mutation = void (*)(model::ForestModel<float>&);

struct MutationCase {
  const char* name;
  const char* expect_check;
  Mutation apply;
};

const MutationCase kMutations[] = {
    {"child index past the node array", "tree.child_range",
     [](model::ForestModel<float>& m) { m.forest.tree(0).node(0).left = 99; }},
    {"leaf with a child link", "tree.leaf_links",
     [](model::ForestModel<float>& m) { m.forest.tree(1).node(0).left = 0; }},
    {"leaf payload past the leaf-value rows", "tree.leaf_payload",
     [](model::ForestModel<float>& m) {
       m.forest.tree(1).node(0).prediction = 9;
     }},
    {"leaf carrying routing flags", "tree.leaf_flags",
     [](model::ForestModel<float>& m) {
       m.forest.tree(1).node(0).flags = trees::kNodeDefaultLeft;
     }},
    {"leaf carrying a category slot", "tree.cat_slot",
     [](model::ForestModel<float>& m) {
       m.forest.tree(1).node(0).cat_slot = 0;
     }},
    {"numeric node carrying a category slot", "tree.cat_slot",
     [](model::ForestModel<float>& m) {
       m.forest.tree(0).node(1).cat_slot = 0;
     }},
    {"categorical slot id past the slot table", "tree.cat_slot",
     [](model::ForestModel<float>& m) {
       m.forest.tree(0).node(0).cat_slot = 7;
     }},
    {"inner feature past the declared width", "tree.feature_range",
     [](model::ForestModel<float>& m) { m.forest.tree(0).node(1).feature = 3; }},
    {"NaN split threshold", "tree.split_nan",
     [](model::ForestModel<float>& m) {
       m.forest.tree(0).node(1).split = std::numeric_limits<float>::quiet_NaN();
     }},
    {"negative NaN split threshold", "tree.split_nan",
     [](model::ForestModel<float>& m) {
       m.forest.tree(0).node(1).split =
           -std::numeric_limits<float>::quiet_NaN();
     }},
    {"unknown flag bits", "tree.flags_known",
     [](model::ForestModel<float>& m) { m.forest.tree(0).node(1).flags = 8; }},
    {"non-finite leaf value", "model.leaf_values_finite",
     [](model::ForestModel<float>& m) {
       m.leaf_values[2] = std::numeric_limits<float>::infinity();
     }},
    {"base_score arity mismatch", "model.base_score",
     [](model::ForestModel<float>& m) {
       m.aggregation.base_score.push_back(0.0f);
     }},
    {"zero_as_missing without handles_missing", "model.missing",
     [](model::ForestModel<float>& m) {
       m.handles_missing = false;
       m.zero_as_missing = true;
     }},
    {"leaf-value table truncated", "forest.num_classes",
     [](model::ForestModel<float>& m) { m.leaf_values.pop_back(); }},
    {"scalar kind with vector outputs", "model.outputs",
     [](model::ForestModel<float>& m) { m.n_outputs = 3; }},
};

TEST(VerifyMutations, EachSingleFieldMutationDrawsItsCataloguedCheck) {
  for (const auto& mutation : kMutations) {
    SCOPED_TRACE(mutation.name);
    auto m = valid_score_model();
    mutation.apply(m);
    const auto report = verify::verify_model(m);
    ASSERT_FALSE(report.ok()) << "mutation was not detected";
    EXPECT_TRUE(has_check(report, mutation.expect_check))
        << "wanted " << mutation.expect_check << ", got " << checks_of(report);
  }
}

TEST(VerifyMutations, NothingVerifyRejectedSurvivesTheContainerRoundTrip) {
  // The loader and the verifier must agree on what a model *is*: writing a
  // mutated model and reading it back must either throw (the reader's
  // validate gate caught it) or produce a model that verifies clean (the
  // writer normalized away state the container cannot even express, e.g. a
  // stray cat_slot on a tree with no category table).  What must never
  // happen is a read_model result that fails verify_model — that is the
  // accepted-implies-verified oracle the fuzz harnesses enforce on hostile
  // bytes (fuzz/fuzz_container.cpp).
  for (const auto& mutation : kMutations) {
    SCOPED_TRACE(mutation.name);
    auto m = valid_score_model();
    mutation.apply(m);
    std::stringstream io;
    model::write_model(io, m);  // no validate gate (save_model has one)
    try {
      const auto reloaded = model::read_model<float>(io);
      const auto report = verify::verify_model(reloaded);
      EXPECT_TRUE(report.ok())
          << "read_model accepted a model verify rejects: "
          << checks_of(report);
    } catch (const std::exception&) {
      // Rejected at parse — the common (and preferred) outcome.
    }
  }
}

TEST(VerifyMutations, NodeLevelDiagnosticsCarryTreeAndNodeIndices) {
  auto m = valid_score_model();
  m.forest.tree(0).node(1).split = std::numeric_limits<float>::quiet_NaN();
  const auto report = verify::verify_model(m);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& d : report.diagnostics) {
    if (d.check != "tree.split_nan") continue;
    EXPECT_EQ(d.tree, 0);
    EXPECT_EQ(d.node, 1);
    found = true;
  }
  EXPECT_TRUE(found) << checks_of(report);
}

TEST(VerifyMutations, DiagnosticFloodIsCappedNotUnbounded) {
  // Every leaf payload wrong in a wide tree: the report caps diagnostics
  // and counts the overflow instead of allocating without bound.  The
  // leaves hang off a left spine of splits so the structure itself is valid.
  trees::Tree<float> spine(1);
  const int n_leaves = 512;
  std::vector<std::int32_t> splits;
  for (int i = 0; i < n_leaves - 1; ++i) {
    splits.push_back(spine.add_split(0, static_cast<float>(i)));
  }
  std::vector<std::int32_t> spine_leaves;
  for (int i = 0; i < n_leaves; ++i) {
    spine_leaves.push_back(spine.add_leaf(9));  // payload past 4 rows
  }
  for (int i = 0; i < n_leaves - 1; ++i) {
    const auto right =
        i + 1 < n_leaves - 1 ? splits[static_cast<std::size_t>(i + 1)]
                             : spine_leaves[static_cast<std::size_t>(i + 1)];
    spine.link(splits[static_cast<std::size_t>(i)],
               spine_leaves[static_cast<std::size_t>(i)], right);
  }
  auto m = valid_score_model();
  std::vector<trees::Tree<float>> forest_trees;
  forest_trees.push_back(std::move(spine));
  m.forest = trees::Forest<float>(std::move(forest_trees), 4);
  const auto report = verify::verify_model(m);
  ASSERT_FALSE(report.ok());
  EXPECT_LE(report.diagnostics.size(), verify::Report::kMaxDiagnostics);
  EXPECT_GT(report.suppressed, 0u);
}

// ---------------------------------------------------------------------------
// 4. Key tables that do not match the forest draw the tables.* checks.  The
//    KeyTable constructor rejects unsorted keys, so tables.monotone cannot
//    be reached from here; tests/test_layout.cpp covers that rejection.
// ---------------------------------------------------------------------------

trees::Forest<float> trained_forest() {
  const auto data =
      flint::data::generate<float>(flint::data::magic_spec(), 5, 600);
  trees::ForestOptions opt;
  opt.n_trees = 4;
  opt.tree.max_depth = 6;
  return trees::train_forest(data, opt);
}

TEST(VerifyTables, TablesFromANudgedForestFlagExactlyTheNudgedNode) {
  const auto forest = trained_forest();
  // Nudge a split value no other node of its feature uses, so exactly one
  // node of the original forest is missing from the nudged tables.
  std::map<std::pair<std::int32_t, std::int32_t>, int> uses;
  for (std::size_t t = 0; t < forest.size(); ++t) {
    for (const auto& n : forest.tree(t).nodes()) {
      if (n.is_leaf() || n.is_categorical()) continue;
      ++uses[{n.feature, flint::core::to_radix_key(n.split)}];
    }
  }
  std::int64_t tree = -1;
  std::int64_t node = -1;
  for (std::size_t t = 0; t < forest.size() && tree < 0; ++t) {
    const auto& nodes = forest.tree(t).nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& n = nodes[i];
      if (n.is_leaf() || n.is_categorical() || n.split == 0.0f) continue;
      if (uses[{n.feature, flint::core::to_radix_key(n.split)}] == 1) {
        tree = static_cast<std::int64_t>(t);
        node = static_cast<std::int64_t>(i);
        break;
      }
    }
  }
  ASSERT_GE(tree, 0) << "no split value is unique to one node";

  auto nudged = forest;
  auto& split = nudged.tree(static_cast<std::size_t>(tree))
                    .node(static_cast<std::int32_t>(node))
                    .split;
  split = std::nextafter(split, std::numeric_limits<float>::infinity());
  verify::Report report;
  verify::verify_tables(forest, flint::exec::layout::build_key_tables(nudged),
                        report);
  ASSERT_EQ(report.diagnostics.size(), 1u) << checks_of(report);
  EXPECT_EQ(report.diagnostics[0].check, "tables.exact");
  EXPECT_EQ(report.diagnostics[0].tree, tree);
  EXPECT_EQ(report.diagnostics[0].node, node);

  // Control: the forest's own tables verify clean.
  verify::Report clean;
  verify::verify_tables(forest, flint::exec::layout::build_key_tables(forest),
                        clean);
  EXPECT_TRUE(clean.ok()) << checks_of(clean);
}

TEST(VerifyTables, TableSetOneFeatureShortDrawsShape) {
  const auto forest = trained_forest();
  auto tables = flint::exec::layout::build_key_tables(forest);
  tables.features.pop_back();
  verify::Report report;
  verify::verify_tables(forest, tables, report);
  ASSERT_EQ(report.diagnostics.size(), 1u) << checks_of(report);
  EXPECT_EQ(report.diagnostics[0].check, "tables.shape");
}

}  // namespace
