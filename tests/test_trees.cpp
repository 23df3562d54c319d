// Unit tests for trees/: structure, validation, training, forests,
// serialization and branch statistics.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/flint.hpp"
#include "data/synth.hpp"
#include "trees/forest.hpp"
#include "trees/serialize.hpp"
#include "trees/train.hpp"
#include "trees/tree.hpp"
#include "trees/tree_stats.hpp"

namespace {

using flint::trees::Forest;
using flint::trees::Node;
using flint::trees::Tree;

/// Builds the 2-level example tree used across this file:
///   root: f0 <= 1.5 ? (f1 <= -2.0 ? class0 : class1) : class2
Tree<float> example_tree() {
  Tree<float> t(2);
  const auto root = t.add_split(0, 1.5f);
  const auto inner = t.add_split(1, -2.0f);
  const auto l0 = t.add_leaf(0);
  const auto l1 = t.add_leaf(1);
  const auto l2 = t.add_leaf(2);
  t.link(root, inner, l2);
  t.link(inner, l0, l1);
  return t;
}

TEST(Tree, PredictFollowsTraversalRule) {
  const auto t = example_tree();
  EXPECT_EQ(t.predict(std::vector<float>{1.0f, -3.0f}), 0);
  EXPECT_EQ(t.predict(std::vector<float>{1.0f, 0.0f}), 1);
  EXPECT_EQ(t.predict(std::vector<float>{2.0f, 0.0f}), 2);
  // Boundary: <= is inclusive.
  EXPECT_EQ(t.predict(std::vector<float>{1.5f, -2.0f}), 0);
}

TEST(Tree, ShapeAccessors) {
  const auto t = example_tree();
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.leaf_count(), 3u);
  EXPECT_EQ(t.inner_count(), 2u);
  EXPECT_EQ(t.depth(), 2u);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
}

TEST(Tree, SingleLeafIsValid) {
  Tree<float> t(1);
  t.add_leaf(4);
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.depth(), 0u);
  EXPECT_EQ(t.predict(std::vector<float>{0.0f}), 4);
}

TEST(Tree, ValidateCatchesBrokenStructure) {
  {
    Tree<float> t(1);
    EXPECT_FALSE(t.validate().empty());  // no nodes
  }
  {
    Tree<float> t(1);
    const auto root = t.add_split(0, 1.0f);
    t.link(root, 7, 8);  // out of range children
    EXPECT_NE(t.validate().find("out of range"), std::string::npos);
  }
  {
    Tree<float> t(1);
    const auto root = t.add_split(0, 1.0f);
    const auto leaf = t.add_leaf(0);
    t.link(root, leaf, leaf);  // identical children
    EXPECT_NE(t.validate().find("identical"), std::string::npos);
  }
  {
    Tree<float> t(1);
    t.add_leaf(-5);  // leaf without prediction
    EXPECT_NE(t.validate().find("prediction"), std::string::npos);
  }
  {
    Tree<float> t(1);
    const auto root = t.add_split(5, 1.0f);  // feature out of range
    const auto a = t.add_leaf(0);
    const auto b = t.add_leaf(1);
    t.link(root, a, b);
    EXPECT_NE(t.validate().find("feature"), std::string::npos);
  }
  {
    // Nodes 3 and 4 are each other's child: one parent apiece, but cut off
    // from the root.
    Tree<float> t(1);
    const auto root = t.add_split(0, 1.0f);
    const auto a = t.add_leaf(0);
    const auto b = t.add_leaf(1);
    const auto c = t.add_split(0, 2.0f);
    const auto d = t.add_split(0, 3.0f);
    const auto e = t.add_leaf(0);
    const auto f = t.add_leaf(1);
    t.link(root, a, b);
    t.link(c, d, e);
    t.link(d, c, f);
    EXPECT_EQ(t.validate(), "node 3 is not reachable from the root");
  }
}

TEST(Tree, AddSplitRejectsNegativeFeature) {
  Tree<float> t(2);
  EXPECT_THROW((void)t.add_split(-1, 0.0f), std::invalid_argument);
}

TEST(Train, PerfectFitOnSeparableData) {
  flint::data::Dataset<float> ds("sep", 1);
  for (int i = 0; i < 50; ++i) {
    ds.add_row(std::vector<float>{static_cast<float>(i)}, i < 25 ? 0 : 1);
  }
  flint::trees::TrainOptions opt;
  opt.max_depth = 4;
  const auto tree = flint::trees::train_tree(ds, opt);
  EXPECT_TRUE(tree.validate().empty());
  EXPECT_EQ(flint::trees::accuracy(tree, ds), 1.0);
  EXPECT_EQ(tree.depth(), 1u);  // one split suffices
}

TEST(Train, RespectsMaxDepth) {
  const auto ds = flint::data::generate<float>(flint::data::magic_spec(), 3, 1500);
  for (const int depth : {1, 3, 7}) {
    flint::trees::TrainOptions opt;
    opt.max_depth = depth;
    const auto tree = flint::trees::train_tree(ds, opt);
    EXPECT_LE(tree.depth(), static_cast<std::size_t>(depth));
    EXPECT_TRUE(tree.validate().empty());
  }
}

TEST(Train, DeterministicInSeed) {
  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 3, 800);
  flint::trees::TrainOptions opt;
  opt.max_depth = 8;
  opt.max_features = flint::trees::TrainOptions::kSqrtFeatures;
  opt.seed = 99;
  const auto a = flint::trees::train_tree(ds, opt);
  const auto b = flint::trees::train_tree(ds, opt);
  std::ostringstream sa, sb;
  flint::trees::write_tree(sa, a);
  flint::trees::write_tree(sb, b);
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(Train, DeeperTreesFitTrainingDataBetter) {
  const auto ds = flint::data::generate<float>(flint::data::eye_spec(), 3, 2000);
  flint::trees::TrainOptions opt;
  opt.max_depth = 2;
  const double shallow = flint::trees::accuracy(flint::trees::train_tree(ds, opt), ds);
  opt.max_depth = 12;
  const double deep = flint::trees::accuracy(flint::trees::train_tree(ds, opt), ds);
  EXPECT_GT(deep, shallow);
}

TEST(Train, ConstantFeaturesYieldSingleLeaf) {
  flint::data::Dataset<float> ds("const", 2);
  for (int i = 0; i < 10; ++i) {
    ds.add_row(std::vector<float>{1.0f, 2.0f}, i % 2);
  }
  flint::trees::TrainOptions opt;
  opt.max_depth = 5;
  const auto tree = flint::trees::train_tree(ds, opt);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.node(0).is_leaf());
}

TEST(Train, MinSamplesLeafRespected) {
  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 4, 600);
  flint::trees::TrainOptions opt;
  opt.max_depth = 20;
  opt.min_samples_leaf = 10;
  const auto tree = flint::trees::train_tree(ds, opt);
  // Every leaf must have been reachable by >= 10 training rows.
  const auto stats = flint::trees::collect_branch_stats(tree, ds);
  for (std::size_t i = 0; i < tree.size(); ++i) {
    if (tree.node(static_cast<std::int32_t>(i)).is_leaf()) {
      EXPECT_GE(stats.visits[i], 10u) << "leaf " << i;
    }
  }
}

TEST(Train, SplitsNeverNegativeZero) {
  // The trainer normalizes -0.0 thresholds; splits must never carry the
  // negative-zero bit pattern (FLInt engines rely on this).
  flint::data::Dataset<float> ds("zeros", 1);
  for (int i = 0; i < 20; ++i) {
    ds.add_row(std::vector<float>{i < 10 ? -0.0f : 1.0f}, i < 10 ? 0 : 1);
  }
  flint::trees::TrainOptions opt;
  opt.max_depth = 3;
  const auto tree = flint::trees::train_tree(ds, opt);
  for (const auto& n : tree.nodes()) {
    if (!n.is_leaf() && n.split == 0.0f) {
      EXPECT_EQ(flint::core::si_bits(n.split), 0) << "split is -0.0";
    }
  }
  EXPECT_EQ(flint::trees::accuracy(tree, ds), 1.0);
}

TEST(Train, EmptyDatasetThrows) {
  flint::data::Dataset<float> empty("e", 2);
  EXPECT_THROW((void)flint::trees::train_tree(empty, {}), std::invalid_argument);
}

TEST(Forest, MajorityVoteAndTieBreak) {
  // Two single-leaf trees voting class 1, one voting class 0 -> class 1;
  // one vote each -> lowest class id wins.
  Tree<float> t0(1), t1(1), t2(1);
  t0.add_leaf(1);
  t1.add_leaf(1);
  t2.add_leaf(0);
  {
    Forest<float> f({t0, t1, t2}, 2);
    EXPECT_EQ(f.predict(std::vector<float>{0.0f}), 1);
    const auto votes = f.vote(std::vector<float>{0.0f});
    EXPECT_EQ(votes[0], 1);
    EXPECT_EQ(votes[1], 2);
  }
  {
    Tree<float> t3(1);
    t3.add_leaf(2);
    Forest<float> f({t0, t2, t3}, 3);  // one vote for 1, 0, 2 each
    EXPECT_EQ(f.predict(std::vector<float>{0.0f}), 0);
  }
}

TEST(Forest, TrainIsDeterministicAndAccurate) {
  const auto ds = flint::data::generate<float>(flint::data::magic_spec(), 5, 1500);
  flint::trees::ForestOptions opt;
  opt.n_trees = 7;
  opt.tree.max_depth = 8;
  opt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
  opt.tree.seed = 17;
  const auto a = flint::trees::train_forest(ds, opt);
  const auto b = flint::trees::train_forest(ds, opt);
  EXPECT_EQ(a.size(), 7u);
  std::ostringstream sa, sb;
  flint::trees::write_forest(sa, a);
  flint::trees::write_forest(sb, b);
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_GT(flint::trees::accuracy(a, ds), 0.7);
  EXPECT_GT(a.max_depth(), 0u);
  EXPECT_GT(a.total_nodes(), 7u);
}

TEST(Forest, BootstrapTreesDiffer) {
  const auto ds = flint::data::generate<float>(flint::data::magic_spec(), 5, 800);
  flint::trees::ForestOptions opt;
  opt.n_trees = 2;
  opt.tree.max_depth = 6;
  const auto forest = flint::trees::train_forest(ds, opt);
  std::ostringstream s0, s1;
  flint::trees::write_tree(s0, forest.tree(0));
  flint::trees::write_tree(s1, forest.tree(1));
  EXPECT_NE(s0.str(), s1.str());
}

TEST(Forest, InvalidOptionsThrow) {
  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 5, 100);
  flint::trees::ForestOptions opt;
  opt.n_trees = 0;
  EXPECT_THROW((void)flint::trees::train_forest(ds, opt), std::invalid_argument);
  flint::data::Dataset<float> empty("e", 2);
  EXPECT_THROW((void)flint::trees::train_forest(empty, {}), std::invalid_argument);
}

TEST(Serialize, TreeRoundTripIsBitExact) {
  const auto t = example_tree();
  std::ostringstream out;
  flint::trees::write_tree(out, t);
  std::istringstream in(out.str());
  const auto back = flint::trees::read_tree<float>(in);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto& a = t.node(static_cast<std::int32_t>(i));
    const auto& b = back.node(static_cast<std::int32_t>(i));
    EXPECT_EQ(a.feature, b.feature);
    EXPECT_EQ(flint::core::si_bits(a.split), flint::core::si_bits(b.split));
    EXPECT_EQ(a.left, b.left);
    EXPECT_EQ(a.right, b.right);
    EXPECT_EQ(a.prediction, b.prediction);
  }
}

TEST(Serialize, ForestFileRoundTrip) {
  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 5, 400);
  flint::trees::ForestOptions opt;
  opt.n_trees = 3;
  opt.tree.max_depth = 5;
  const auto forest = flint::trees::train_forest(ds, opt);
  const std::string path = ::testing::TempDir() + "/flint_forest_roundtrip.txt";
  flint::trees::save_forest(path, forest);
  const auto back = flint::trees::load_forest<float>(path);
  EXPECT_EQ(back.size(), forest.size());
  EXPECT_EQ(back.num_classes(), forest.num_classes());
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    EXPECT_EQ(back.predict(ds.row(r)), forest.predict(ds.row(r)));
  }
}

TEST(Serialize, MalformedInputThrows) {
  {
    std::istringstream in("not a tree\n");
    EXPECT_THROW((void)flint::trees::read_tree<float>(in), std::runtime_error);
  }
  {
    std::istringstream in("tree 1 1\n");  // truncated: header promises 1 node
    EXPECT_THROW((void)flint::trees::read_tree<float>(in), std::runtime_error);
  }
  {
    // Structurally invalid content is rejected by validate().
    std::istringstream in("tree 1 1\nn 0 3f800000 5 6 -1\n");
    EXPECT_THROW((void)flint::trees::read_tree<float>(in), std::runtime_error);
  }
  EXPECT_THROW((void)flint::trees::load_forest<float>("/nonexistent/f.txt"),
               std::runtime_error);
}

/// Extracts what() from the parse failure of `content` via read_forest.
std::string forest_parse_error(const std::string& content) {
  std::istringstream in(content);
  try {
    (void)flint::trees::read_forest<float>(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(Serialize, ErrorsCarryLineNumbersAndTokens) {
  // Corrupt split bits on the second node line = physical line 4 (the
  // comment line counts; line numbers are positions in the FILE).
  const std::string corrupt =
      "# comment\n"
      "forest v1 2 1\n"
      "tree 1 3\n"
      "n 0 zzzz 1 2 -1\n"
      "n -1 0 -1 -1 0\n"
      "n -1 0 -1 -1 1\n";
  const std::string err = forest_parse_error(corrupt);
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;
  EXPECT_NE(err.find("zzzz"), std::string::npos) << err;

  // Truncated file: the header promises a node that never arrives; the
  // error points one past the last line read.
  const std::string truncated =
      "forest v1 2 1\n"
      "tree 1 3\n"
      "n 0 3f800000 1 2 -1\n"
      "n -1 0 -1 -1 0\n";
  const std::string trunc_err = forest_parse_error(truncated);
  EXPECT_NE(trunc_err.find("line 4"), std::string::npos) << trunc_err;
  EXPECT_NE(trunc_err.find("end of input"), std::string::npos) << trunc_err;

  // Non-numeric child index: the offending token is named.
  const std::string bad_child =
      "forest v1 2 1\n"
      "tree 1 1\n"
      "n -1 0 oops -1 0\n";
  const std::string child_err = forest_parse_error(bad_child);
  EXPECT_NE(child_err.find("line 3"), std::string::npos) << child_err;
  EXPECT_NE(child_err.find("oops"), std::string::npos) << child_err;

  // Wrong header tag: names the token it saw.
  const std::string bad_header = "woods v1 2 1\n";
  const std::string header_err = forest_parse_error(bad_header);
  EXPECT_NE(header_err.find("line 1"), std::string::npos) << header_err;
  EXPECT_NE(header_err.find("woods"), std::string::npos) << header_err;
}

std::string forest_text(const Forest<float>& forest) {
  std::ostringstream out;
  flint::trees::write_forest(out, forest);
  return out.str();
}

Forest<float> parse_forest_text(const std::string& text) {
  std::istringstream in(text);
  return flint::trees::read_forest<float>(in);
}

/// A tree with both special split kinds: a categorical root over two
/// category sets and a numeric child that sends NaN left.
Tree<float> categorical_tree(std::size_t features) {
  Tree<float> t(features);
  const std::vector<std::uint32_t> wide_set = {0x5u, 0xF0000001u};
  const std::vector<std::uint32_t> one_word = {0x1u};
  const auto slot = t.add_cat_set(wide_set);
  (void)t.add_cat_set(one_word);
  const auto root = t.add_cat_split(2, slot, true);
  const auto inner = t.add_split(0, 0.25f, true);
  const auto l0 = t.add_leaf(0);
  const auto l1 = t.add_leaf(1);
  const auto l2 = t.add_leaf(1);
  t.link(root, inner, l2);
  t.link(inner, l0, l1);
  return t;
}

TEST(Serialize, TrainedForestsRoundTripByteForByte) {
  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 11, 400);
  flint::trees::ForestOptions opt;
  opt.n_trees = 4;
  opt.tree.max_depth = 6;
  const auto plain = flint::trees::train_forest(ds, opt);

  // Default-left flags on every other inner node: the 7-field node form.
  std::vector<Tree<float>> flagged_trees(plain.trees().begin(),
                                         plain.trees().end());
  for (auto& tree : flagged_trees) {
    for (std::size_t i = 0; i < tree.size(); i += 2) {
      auto& node = tree.node(static_cast<std::int32_t>(i));
      if (!node.is_leaf()) node.flags |= flint::trees::kNodeDefaultLeft;
    }
  }
  const Forest<float> flagged(flagged_trees, plain.num_classes());

  // A categorical tree adds a `cats` block.
  std::vector<Tree<float>> cat_trees = {plain.tree(0),
                                        categorical_tree(plain.feature_count())};
  const Forest<float> with_cats(cat_trees, plain.num_classes());

  // One stump per adversarial threshold (x <= split -> class 1): signed
  // zeros, denormals, infinities and the finite extremes.
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min(),
                            -std::numeric_limits<float>::min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest(),
                            1.5f,
                            -1.5f};
  std::vector<Tree<float>> stumps;
  for (const float split : specials) {
    Tree<float> stump(1);
    const auto root = stump.add_split(0, split);
    stump.link(root, stump.add_leaf(1), stump.add_leaf(0));
    stumps.push_back(std::move(stump));
  }
  const Forest<float> adversarial(std::move(stumps), 2);

  for (const Forest<float>* forest :
       {&plain, &flagged, &with_cats, &adversarial}) {
    const std::string once = forest_text(*forest);
    EXPECT_EQ(forest_text(parse_forest_text(once)), once);
  }
  // The hex bit patterns reproduce every special split exactly, so the
  // reloaded forest decides every special input as the original does.
  const auto reloaded = parse_forest_text(forest_text(adversarial));
  for (std::size_t t = 0; t < adversarial.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(reloaded.tree(t).node(0).split),
              std::bit_cast<std::uint32_t>(adversarial.tree(t).node(0).split))
        << "split " << specials[t];
  }
  for (const float x : specials) {
    EXPECT_EQ(reloaded.predict({&x, 1}), adversarial.predict({&x, 1}))
        << "x=" << x;
  }
  EXPECT_NE(forest_text(flagged).find(" 1 -1\n"), std::string::npos);
  EXPECT_NE(forest_text(with_cats).find("cats 2\nc 2 5 f0000001\nc 1 1\n"),
            std::string::npos);
}

// The parser's token contract (docs/MODEL_FORMATS.md, "Token grammar"):
// every case below is an explicit accept or reject.
const std::string kCanonical =
    "forest v1 2 1\n"
    "tree 1 3\n"
    "n 0 3f800000 1 2 -1\n"
    "n -1 0 -1 -1 0\n"
    "n -1 0 -1 -1 1\n";

/// The canonical forest with its root node line replaced.
std::string with_root(const std::string& root_line) {
  return "forest v1 2 1\ntree 1 3\n" + root_line +
         "\nn -1 0 -1 -1 0\nn -1 0 -1 -1 1\n";
}

/// `n` lines of "# pad" (6 bytes each), enough to span read chunks.
std::string comment_lines(std::size_t n) {
  std::string text;
  for (std::size_t i = 0; i < n; ++i) text += "# pad\n";
  return text;
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
  return s;
}

TEST(SerializeTokens, AcceptedSpellingsParseToTheCanonicalForest) {
  const std::vector<std::pair<std::string, std::string>> accepted = {
      {"CRLF line endings", replace_all(kCanonical, "\n", "\r\n")},
      {"tab separators", replace_all(kCanonical, " ", "\t")},
      {"vertical tab, form feed and runs of blanks",
       replace_all(kCanonical, " ", " \v\f  ")},
      {"leading blanks", replace_all(kCanonical, "\n", "\n \t")},
      {"no final newline", kCanonical.substr(0, kCanonical.size() - 1)},
      {"comment and blank lines between nodes",
       replace_all(kCanonical, "\nn ", "\n# note\n\n \t\n  # x\nn ")},
      {"uppercase hex", replace_all(kCanonical, "3f800000", "3F800000")},
      {"tokens after the 7th node field",
       with_root("n 0 3f800000 1 2 -1 0 -1 extra # note")},
      {"tokens after a header's last field",
       replace_all(kCanonical, "tree 1 3", "tree 1 3 extra")},
      {"a comment line longer than a read chunk",
       "# " + std::string(100000, 'x') + "\n" + kCanonical},
  };
  for (const auto& [name, text] : accepted) {
    SCOPED_TRACE(name);
    EXPECT_EQ(forest_parse_error(text), "");
    EXPECT_EQ(forest_text(parse_forest_text(text)), kCanonical);
  }
}

TEST(SerializeTokens, RejectedSpellingsNameTheLineAndToken) {
  const std::vector<std::pair<std::string, std::string>> rejected = {
      {"", "serialize: line 0: unexpected end of input"},
      {"# only a comment\n\n", "serialize: line 2: unexpected end of input"},
      {with_root("n 0 0x3f800000 1 2 -1"),
       "serialize: line 3: bad split bits on node 0 (near '0x3f800000'): "
       "\"n 0 0x3f800000 1 2 -1\""},
      {with_root("n 0 +3f800000 1 2 -1"),
       "serialize: line 3: bad split bits on node 0 (near '+3f800000'): "
       "\"n 0 +3f800000 1 2 -1\""},
      {with_root("n 0 -1 1 2 -1"),
       "serialize: line 3: bad split bits on node 0 (near '-1'): "
       "\"n 0 -1 1 2 -1\""},
      {with_root("n 0 13f800000 1 2 -1"),
       "serialize: line 3: split bits on node 0 '13f800000' exceeds 32 bits: "
       "\"n 0 13f800000 1 2 -1\""},
      {with_root("n 0 03f800000 1 2 -1"),
       "serialize: line 3: split bits on node 0 '03f800000' exceeds 32 bits: "
       "\"n 0 03f800000 1 2 -1\""},
      {with_root("n 0 3f800000 1 2 -1 x"),
       "serialize: line 3: bad node flags on node 0: "
       "\"n 0 3f800000 1 2 -1 x\""},
      {with_root("n 0 3f800000 1 2 -1 1"),
       "serialize: line 3: bad node flags on node 0: "
       "\"n 0 3f800000 1 2 -1 1\""},
      {with_root("n +0 3f800000 1 2 -1"),
       "serialize: line 3: bad node line (near '+0'): "
       "\"n +0 3f800000 1 2 -1\""},
      {with_root("n 0 3f800000 1x 2 -1"),
       "serialize: line 3: bad node line (near '1x'): "
       "\"n 0 3f800000 1x 2 -1\""},
      {replace_all(kCanonical, "tree 1 3", "tree -1 3"),
       "serialize: line 2: bad tree header counts (near '-1 3'): "
       "\"tree -1 3\""},
      {replace_all(kCanonical, "forest v1 2 1", "forest v1 2 +1"),
       "serialize: line 1: bad forest header counts (near '2 +1'): "
       "\"forest v1 2 +1\""},
      // Line numbers stay physical across comment and blank lines.
      {replace_all(kCanonical, "n 0 3f800000", "# a\n\n\t\nn 0 zzzz"),
       "serialize: line 6: bad split bits on node 0 (near 'zzzz'): "
       "\"n 0 zzzz 1 2 -1\""},
      {"forest v1 2 1\r\ntree 1 3\r\nn 0 3f800000 1 2 -1\r\nn -1 0 -1 -1 0\r\n",
       "serialize: line 4: unexpected end of input"},
      // Counting continues across the reader's 64 KiB chunks.
      {comment_lines(20000) + with_root("n 0 3f800000 1 2 -1 9 -1"),
       "serialize: line 20003: bad node flags on node 0: "
       "\"n 0 3f800000 1 2 -1 9 -1\""},
  };
  for (const auto& [text, error] : rejected) {
    SCOPED_TRACE(text);
    EXPECT_EQ(forest_parse_error(text), error);
  }
}

TEST(SerializeTokens, HexWidthFollowsTheScalarType) {
  // A double payload takes up to 16 digits; a 17th is rejected even as a
  // leading zero.
  const std::string root = "n 0 3ff0000000000001 1 2 -1";
  std::istringstream in(with_root(root));
  const auto forest = flint::trees::read_forest<double>(in);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(forest.tree(0).node(0).split),
            0x3ff0000000000001ull);
  std::istringstream wide(with_root("n 0 03ff0000000000001 1 2 -1"));
  try {
    (void)flint::trees::read_forest<double>(wide);
    FAIL() << "expected a 17-digit rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "serialize: line 3: bad split bits on node 0 (near "
              "'03ff0000000000001'): \"n 0 03ff0000000000001 1 2 -1\"");
  }
}

TEST(TreeStats, BranchProbabilitiesSumCorrectly) {
  const auto t = example_tree();
  flint::data::Dataset<float> ds("probe", 2);
  // 3 rows to the far left leaf, 1 to the middle, 4 to the right.
  for (int i = 0; i < 3; ++i) ds.add_row(std::vector<float>{1.0f, -3.0f}, 0);
  ds.add_row(std::vector<float>{1.0f, 5.0f}, 1);
  for (int i = 0; i < 4; ++i) ds.add_row(std::vector<float>{9.0f, 0.0f}, 2);
  const auto stats = flint::trees::collect_branch_stats(t, ds);
  EXPECT_EQ(stats.visits[0], 8u);                     // root
  EXPECT_DOUBLE_EQ(stats.left_probability[0], 0.5);   // 4 of 8 left
  EXPECT_EQ(stats.visits[1], 4u);                     // inner
  EXPECT_DOUBLE_EQ(stats.left_probability[1], 0.75);  // 3 of 4 left
}

TEST(TreeStats, UnvisitedNodesGetPrior) {
  const auto t = example_tree();
  flint::data::Dataset<float> ds("empty-side", 2);
  ds.add_row(std::vector<float>{9.0f, 0.0f}, 2);  // right side only
  const auto stats = flint::trees::collect_branch_stats(t, ds);
  EXPECT_DOUBLE_EQ(stats.left_probability[1], 0.5);  // inner never visited
}

TEST(TreeStats, ShapeMetrics) {
  const auto t = example_tree();
  const auto shape = flint::trees::tree_shape(t);
  EXPECT_EQ(shape.nodes, 5u);
  EXPECT_EQ(shape.leaves, 3u);
  EXPECT_EQ(shape.depth, 2u);
  EXPECT_EQ(shape.negative_splits, 1u);     // the -2.0 split
  EXPECT_EQ(shape.nonnegative_splits, 1u);  // the 1.5 split
  EXPECT_NEAR(shape.mean_leaf_depth, (2 + 2 + 1) / 3.0, 1e-12);
}

}  // namespace
