// Differential fuzz gate for missing-value (NaN default-direction) and
// categorical splits: seeded random (forest, input) pairs — NaN bit
// patterns, signed zeros, denormals, infinities, exact split hits,
// categorical member/non-member/out-of-range values — must classify
// bit-identically on EVERY backend (reference, encoded, layout:*), on the
// paper's interpreter engines driven directly (FloatForestEngine and all
// four FlintForestEngine variants), through predict_one, and under a
// ParallelPredictor, where "identical"
// means equal to a naive double-precision IEEE oracle written here from
// the trees/tree.hpp missing contract alone (no FLInt integer form, no
// Tree::leaf_for).  Score-model backends face the same oracle with
// float32 tree-order accumulation, including the zero_as_missing
// boundary rewrite.
//
// The default budget is >= 10k (forest, input) pairs per fuzz test; set
// FLINT_FUZZ_ITERS to raise or lower it (CI smoke runs use a small value
// under the sanitizers, nightly runs a large one).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/flint.hpp"
#include "exec/interpreter.hpp"
#include "model/forest_model.hpp"
#include "predict/predictor.hpp"
#include "trees/forest.hpp"
#include "trees/tree.hpp"

namespace {

using flint::model::AggregationMode;
using flint::model::ForestModel;
using flint::model::LeafKind;
using flint::predict::make_predictor;
using flint::predict::MissingPolicy;
using flint::predict::PredictorOptions;
using flint::trees::Forest;
using flint::trees::Tree;

// ---------------------------------------------------------------------------
// NaN bit-pattern zoo: quiet and signaling, both signs, payloads at the
// edges and in the middle.  Bit 22 is the quiet bit; a zero-payload
// signaling pattern would be infinity, so signaling payloads start at 1.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kNanPatterns[] = {
    0x7FC00000u, 0xFFC00000u,  // canonical quiet +/-
    0x7FC00001u, 0xFFC00001u,  // quiet, minimal payload
    0x7FFFFFFFu, 0xFFFFFFFFu,  // quiet, all-ones payload
    0x7FD55AA5u, 0xFFEAA55Au,  // quiet, mixed payloads
    0x7F800001u, 0xFF800001u,  // signaling, minimal payload
    0x7FBFFFFFu, 0xFFBFFFFFu,  // signaling, maximal payload
    0x7FA00000u, 0xFF955555u,  // signaling, mixed payloads
};

float nan_from_bits(std::uint32_t bits) { return std::bit_cast<float>(bits); }

// ---------------------------------------------------------------------------
// The oracle: a double-precision IEEE walk over the Tree IR, written from
// the missing contract in trees/tree.hpp and nothing else.  NaN routes by
// the node's default-direction flag; categorical nodes test trunc(v)
// membership in the bitset (negative / out-of-extent / non-members go
// right); numeric nodes compare in double (exact for float operands).
// ---------------------------------------------------------------------------

std::int32_t oracle_leaf_payload(const Tree<float>& tree, const float* x,
                                 bool zero_as_missing) {
  std::int32_t i = 0;
  const auto* n = &tree.node(i);
  while (!n->is_leaf()) {
    const float v = x[static_cast<std::size_t>(n->feature)];
    const bool missing =
        std::isnan(v) ||
        (zero_as_missing &&
         std::fabs(v) <=
             static_cast<float>(flint::predict::kZeroAsMissingThreshold));
    bool left;
    if (missing) {
      left = n->default_left();
    } else if (n->is_categorical()) {
      const auto words = tree.cat_set(n->cat_slot);
      left = false;
      if (static_cast<double>(v) >= 0.0 &&
          static_cast<double>(v) < 32.0 * static_cast<double>(words.size())) {
        const auto idx = static_cast<std::uint32_t>(v);
        left = ((words[idx >> 5] >> (idx & 31u)) & 1u) != 0;
      }
    } else {
      left = static_cast<double>(v) <= static_cast<double>(n->split);
    }
    i = left ? n->left : n->right;
    n = &tree.node(i);
  }
  return n->prediction;
}

/// Majority vote with ties toward the lower class id.
std::int32_t oracle_vote(const Forest<float>& forest, const float* x) {
  std::vector<int> votes(static_cast<std::size_t>(forest.num_classes()), 0);
  for (std::size_t t = 0; t < forest.size(); ++t) {
    ++votes[static_cast<std::size_t>(
        oracle_leaf_payload(forest.tree(t), x, false))];
  }
  std::int32_t best = 0;
  for (std::size_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[static_cast<std::size_t>(best)]) {
      best = static_cast<std::int32_t>(c);
    }
  }
  return best;
}

/// base + leaf rows accumulated in float32 in tree order — the summation
/// order every score backend uses.
std::vector<float> oracle_scores(const ForestModel<float>& model,
                                 const float* x) {
  const auto k = static_cast<std::size_t>(model.n_outputs);
  std::vector<float> acc(k, 0.0f);
  for (std::size_t j = 0; j < model.aggregation.base_score.size(); ++j) {
    acc[j] = model.aggregation.base_score[j];
  }
  for (std::size_t t = 0; t < model.forest.size(); ++t) {
    const std::int32_t row =
        oracle_leaf_payload(model.forest.tree(t), x, model.zero_as_missing);
    for (std::size_t j = 0; j < k; ++j) {
      acc[j] += model.leaf_values[static_cast<std::size_t>(row) * k + j];
    }
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Random special forests: numeric nodes (flagged and legacy flagless) mixed
// with categorical bitset nodes, thresholds drawn from a pool that includes
// the adversarial float landmarks.
// ---------------------------------------------------------------------------

float random_threshold(std::mt19937_64& rng) {
  const float landmarks[] = {0.0f,
                             -0.0f,
                             std::numeric_limits<float>::denorm_min(),
                             -std::numeric_limits<float>::denorm_min(),
                             1.0f,
                             -1.0f,
                             42.0f,
                             std::numeric_limits<float>::max() / 4,
                             std::numeric_limits<float>::lowest() / 4};
  if (std::uniform_int_distribution<int>(0, 4)(rng) == 0) {
    return landmarks[std::uniform_int_distribution<std::size_t>(
        0, std::size(landmarks) - 1)(rng)];
  }
  return std::uniform_real_distribution<float>(-10.0f, 10.0f)(rng);
}

/// Appends a random subtree; `leaf_payload` hands out leaf payloads (class
/// ids for vote forests, fresh leaf-value row indices for score models).
template <typename LeafPayloadFn>
std::int32_t grow_node(Tree<float>& tree, std::mt19937_64& rng, int depth,
                       int n_features, LeafPayloadFn&& leaf_payload) {
  std::uniform_int_distribution<int> pct(0, 99);
  if (depth <= 0 || pct(rng) < 25) {
    return tree.add_leaf(leaf_payload());
  }
  const auto feature = std::uniform_int_distribution<std::int32_t>(
      0, n_features - 1)(rng);
  std::int32_t self;
  const int kind = pct(rng);
  if (kind < 30) {
    // Categorical bitset node, one or two words, never empty.
    const std::size_t n_words =
        1 + static_cast<std::size_t>(pct(rng) < 40);
    std::vector<std::uint32_t> words(n_words);
    std::uniform_int_distribution<std::uint32_t> word(0, 0xFFFFFFFFu);
    for (auto& w : words) w = word(rng);
    if (words[0] == 0 && (n_words == 1 || words[1] == 0)) words[0] = 0x10u;
    const std::int32_t slot = tree.add_cat_set(words);
    self = tree.add_cat_split(feature, slot, pct(rng) < 50);
  } else if (kind < 75) {
    // Numeric with an explicit NaN default direction.
    self = tree.add_split(feature, random_threshold(rng), pct(rng) < 50);
  } else {
    // Legacy flagless numeric: NaN routes right, like IEEE `v <= s`.
    self = tree.add_split(feature, random_threshold(rng));
  }
  const std::int32_t left =
      grow_node(tree, rng, depth - 1, n_features, leaf_payload);
  const std::int32_t right =
      grow_node(tree, rng, depth - 1, n_features, leaf_payload);
  tree.link(self, left, right);
  return self;
}

Forest<float> random_vote_forest(std::mt19937_64& rng) {
  const int n_features = std::uniform_int_distribution<int>(2, 6)(rng);
  const int n_classes = std::uniform_int_distribution<int>(2, 4)(rng);
  const int n_trees = std::uniform_int_distribution<int>(1, 6)(rng);
  for (;;) {
    std::vector<Tree<float>> trees;
    for (int t = 0; t < n_trees; ++t) {
      Tree<float> tree(static_cast<std::size_t>(n_features));
      grow_node(tree, rng, 4, n_features, [&] {
        return std::uniform_int_distribution<std::int32_t>(
            0, n_classes - 1)(rng);
      });
      EXPECT_EQ(tree.validate(), "");
      trees.push_back(std::move(tree));
    }
    Forest<float> forest(std::move(trees), n_classes);
    // The suite targets the missing-aware paths; flag-free forests are
    // vanishingly rare from this generator and covered by test_predictor.
    if (forest.has_special_splits()) return forest;
  }
}

/// Adversarial row-major inputs: split hits, NaN patterns, special floats,
/// small (categorical-range) integers, uniforms.
std::vector<float> adversarial_inputs(const Forest<float>& forest,
                                      std::size_t n_samples,
                                      std::mt19937_64& rng) {
  std::vector<float> splits;
  for (std::size_t t = 0; t < forest.size(); ++t) {
    for (const auto& n : forest.tree(t).nodes()) {
      if (!n.is_leaf() && !n.is_categorical()) splits.push_back(n.split);
    }
  }
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest()};
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<std::size_t> pick_split(
      0, splits.empty() ? 0 : splits.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_special(
      0, std::size(specials) - 1);
  std::uniform_int_distribution<std::size_t> pick_nan(
      0, std::size(kNanPatterns) - 1);
  std::uniform_int_distribution<int> pick_cat(-4, 80);
  std::uniform_real_distribution<float> uniform(-12.0f, 12.0f);
  std::vector<float> features(n_samples * forest.feature_count());
  for (auto& v : features) {
    switch (kind(rng)) {
      case 0:
      case 1:
        v = splits.empty() ? uniform(rng) : splits[pick_split(rng)];
        break;
      case 2: v = specials[pick_special(rng)]; break;
      case 3:
      case 4: v = nan_from_bits(kNanPatterns[pick_nan(rng)]); break;
      case 5:
      case 6: v = static_cast<float>(pick_cat(rng)); break;
      default: v = uniform(rng);
    }
  }
  return features;
}

std::vector<std::string> vote_backends() {
  std::vector<std::string> names = flint::predict::interpreter_backends();
  for (const auto& n : flint::predict::layout_backends()) names.push_back(n);
  return names;
}

/// (forest, input)-pair budget: >= 10k by default, FLINT_FUZZ_ITERS
/// overrides (CI sanitizer smoke uses a small value).
std::size_t fuzz_pairs() {
  if (const char* env = std::getenv("FLINT_FUZZ_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 10'000;
}

// ---------------------------------------------------------------------------
// Tentpole gate: every backend, predict_one, and the ParallelPredictor
// agree with the naive IEEE oracle on random missing/categorical forests.
// ---------------------------------------------------------------------------

TEST(MissingFuzz, EveryBackendMatchesNaiveIeeeOracle) {
  const std::size_t samples_per_forest = 48;
  const std::size_t n_forests =
      (fuzz_pairs() + samples_per_forest - 1) / samples_per_forest;
  const auto backends = vote_backends();
  std::mt19937_64 rng(0xF11A7C0DEull);

  for (std::size_t f = 0; f < n_forests; ++f) {
    const auto forest = random_vote_forest(rng);
    const std::size_t cols = forest.feature_count();
    const auto features =
        adversarial_inputs(forest, samples_per_forest, rng);

    std::vector<std::int32_t> expected(samples_per_forest);
    for (std::size_t s = 0; s < samples_per_forest; ++s) {
      expected[s] = oracle_vote(forest, features.data() + s * cols);
      // Forest::predict is the repo's float reference; it must implement
      // the same contract the oracle was written from.
      ASSERT_EQ(forest.predict({features.data() + s * cols, cols}),
                expected[s])
          << "Forest::predict diverges from the IEEE oracle, forest " << f
          << " sample " << s;
    }

    PredictorOptions opt;
    // Partial blocks on `encoded`; the layout backends floor the block at
    // 256 (auto_plan), so their partial blocks are covered by
    // VoteExit.SmallBlocksCompactIndependently (test_layout).
    opt.block_size = (f % 3 == 0) ? 7 : 64;
    auto round_backends = backends;
    // jit:layout invokes the C toolchain per forest, so it joins the
    // differential on a sampled subset rather than every iteration.
    if (f % 16 == 0) round_backends.emplace_back("jit:layout");
    for (const auto& backend : round_backends) {
      const auto predictor = make_predictor(forest, backend, opt);
      std::vector<std::int32_t> out(samples_per_forest, -1);
      predictor->predict_batch(features, samples_per_forest, out);
      for (std::size_t s = 0; s < samples_per_forest; ++s) {
        ASSERT_EQ(out[s], expected[s])
            << backend << " diverges from the IEEE oracle, forest " << f
            << " sample " << s;
      }
      for (std::size_t s = 0; s < 3; ++s) {
        ASSERT_EQ(predictor->predict_one({features.data() + s * cols, cols}),
                  expected[s])
            << backend << " predict_one, forest " << f << " sample " << s;
      }
    }

    // The paper's formulations are not factory backends; drive the engines
    // themselves against the same oracle.
    const flint::exec::FloatForestEngine<float> float_engine(forest);
    for (std::size_t s = 0; s < samples_per_forest; ++s) {
      ASSERT_EQ(float_engine.predict({features.data() + s * cols, cols}),
                expected[s])
          << "float engine, forest " << f << " sample " << s;
    }
    for (const auto variant :
         {flint::exec::FlintVariant::Encoded, flint::exec::FlintVariant::Theorem1,
          flint::exec::FlintVariant::Theorem2,
          flint::exec::FlintVariant::RadixKey}) {
      const flint::exec::FlintForestEngine<float> engine(forest, variant);
      for (std::size_t s = 0; s < samples_per_forest; ++s) {
        ASSERT_EQ(engine.predict({features.data() + s * cols, cols}),
                  expected[s])
            << flint::exec::to_string(variant) << " engine, forest " << f
            << " sample " << s;
      }
    }

    // ParallelPredictor (via the factory, so the MissingPolicy lands on the
    // outermost predictor): every 4th forest to bound the thread churn.
    if (f % 4 == 0) {
      PredictorOptions popt;
      popt.threads = 4;
      popt.block_size = 16;
      for (const char* backend : {"encoded", "layout:auto"}) {
        const auto parallel = make_predictor(forest, backend, popt);
        std::vector<std::int32_t> out(samples_per_forest, -1);
        parallel->predict_batch(features, samples_per_forest, out);
        for (std::size_t s = 0; s < samples_per_forest; ++s) {
          ASSERT_EQ(out[s], expected[s])
              << parallel->name() << " forest " << f << " sample " << s;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Score models: same oracle, float32 tree-order accumulation, plus the
// zero_as_missing boundary rewrite on half the models.
// ---------------------------------------------------------------------------

TEST(MissingFuzz, ScoreBackendsMatchNaiveAccumulation) {
  const std::size_t samples_per_model = 32;
  // The score matrix is wide; a quarter of the vote budget keeps the suite
  // fast while still crossing every backend thousands of times.
  const std::size_t n_models =
      (fuzz_pairs() / 4 + samples_per_model - 1) / samples_per_model;
  const auto backends = vote_backends();
  std::mt19937_64 rng(0x5C0FE5ull);

  for (std::size_t m = 0; m < n_models; ++m) {
    const int n_features = std::uniform_int_distribution<int>(2, 5)(rng);
    const int n_trees = std::uniform_int_distribution<int>(1, 4)(rng);
    const int k = (m % 3 == 0) ? 3 : 1;
    std::int32_t n_rows = 0;
    std::vector<Tree<float>> trees;
    for (int t = 0; t < n_trees; ++t) {
      Tree<float> tree(static_cast<std::size_t>(n_features));
      grow_node(tree, rng, 3, n_features, [&] { return n_rows++; });
      ASSERT_EQ(tree.validate(), "");
      trees.push_back(std::move(tree));
    }
    ForestModel<float> model;
    // Leaf payloads are leaf-value row indices; the structural forest's
    // num_classes() equals the row count (forest_model.hpp contract).
    model.forest = Forest<float>(std::move(trees), n_rows);
    model.leaf_kind = k == 1 ? LeafKind::Scalar : LeafKind::ScoreVector;
    model.aggregation.mode = AggregationMode::SumScores;
    model.n_outputs = k;
    model.handles_missing = true;
    model.zero_as_missing = (m % 2 == 0);
    if (m % 5 == 0) {
      model.aggregation.base_score.assign(static_cast<std::size_t>(k), 0.5f);
    }
    std::uniform_real_distribution<float> leaf(-4.0f, 4.0f);
    model.leaf_values.resize(static_cast<std::size_t>(n_rows) *
                             static_cast<std::size_t>(k));
    for (auto& v : model.leaf_values) v = leaf(rng);
    if (!model.forest.has_special_splits()) continue;  // vanishingly rare

    const std::size_t cols = model.forest.feature_count();
    const auto features =
        adversarial_inputs(model.forest, samples_per_model, rng);
    std::vector<float> expected(samples_per_model *
                                static_cast<std::size_t>(k));
    for (std::size_t s = 0; s < samples_per_model; ++s) {
      const auto scores = oracle_scores(model, features.data() + s * cols);
      std::copy(scores.begin(), scores.end(),
                expected.begin() + s * static_cast<std::size_t>(k));
    }

    auto round_backends = backends;
    if (m % 16 == 0) round_backends.emplace_back("jit:layout");
    for (const auto& backend : round_backends) {
      const auto predictor = make_predictor(model, backend);
      ASSERT_EQ(predictor->num_outputs(), k) << backend;
      std::vector<float> out(expected.size(),
                             std::numeric_limits<float>::quiet_NaN());
      predictor->predict_scores(features, samples_per_model, out);
      for (std::size_t j = 0; j < expected.size(); ++j) {
        // Bitwise equality: every backend accumulates float32 in tree
        // order, and NaN/zero routing may not perturb a single leaf.
        ASSERT_EQ(std::bit_cast<std::uint32_t>(out[j]),
                  std::bit_cast<std::uint32_t>(expected[j]))
            << backend << " model " << m << " flat index " << j << " got "
            << out[j] << " want " << expected[j];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NaN bit-pattern exhaustiveness.
// ---------------------------------------------------------------------------

TEST(MissingNanBits, IntegerNanTestMatchesIeeeExhaustively) {
  using Traits = flint::core::FloatTraits<float>;
  // Every all-ones-exponent pattern, both signs: 2^24 candidates, the
  // complete NaN + infinity population.
  for (std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t mant = 0; mant <= 0x007FFFFFu; ++mant) {
      const std::uint32_t bits = sign | 0x7F800000u | mant;
      const float v = std::bit_cast<float>(bits);
      const bool ieee = std::isnan(v);
      const bool integer = flint::core::is_nan_bits<float>(
          static_cast<Traits::Signed>(bits));
      if (ieee != integer) {
        FAIL() << "is_nan_bits disagrees with std::isnan at 0x" << std::hex
               << bits;
      }
    }
  }
  // A coarse sweep of the finite landscape (prime stride) as the negative
  // control.
  for (std::uint64_t bits = 0; bits <= 0xFFFFFFFFull; bits += 2654435761ull) {
    const auto b = static_cast<std::uint32_t>(bits);
    ASSERT_EQ(std::isnan(std::bit_cast<float>(b)),
              flint::core::is_nan_bits<float>(static_cast<Traits::Signed>(b)))
        << "bits 0x" << std::hex << b;
  }
}

TEST(MissingNanBits, EveryNanPatternRoutesIdenticallyOnEveryBackend) {
  // One feature, every node shape: flagged-left numeric, flagged-right
  // numeric over a negative threshold, legacy flagless numeric, and a
  // categorical node whose set spans two words.
  std::vector<Tree<float>> trees;
  {
    Tree<float> t(1);
    const auto root = t.add_split(0, 0.5f, /*default_left=*/true);
    const auto l = t.add_leaf(0);
    const auto r = t.add_split(0, -0.25f, /*default_left=*/false);
    t.link(root, l, r);
    const auto rl = t.add_leaf(1);
    const auto rr = t.add_leaf(2);
    t.link(r, rl, rr);
    trees.push_back(std::move(t));
  }
  {
    Tree<float> t(1);
    const auto root = t.add_split(0, -0.0f);  // flagless: NaN goes right
    const auto l = t.add_leaf(2);
    const auto r = t.add_leaf(1);
    t.link(root, l, r);
    trees.push_back(std::move(t));
  }
  {
    Tree<float> t(1);
    const std::uint32_t words[] = {(1u << 1) | (1u << 3), 1u << 2};  // {1,3,34}
    const auto slot = t.add_cat_set(words);
    const auto root = t.add_cat_split(0, slot, /*default_left=*/false);
    const auto l = t.add_leaf(0);
    const auto r = t.add_leaf(2);
    t.link(root, l, r);
    trees.push_back(std::move(t));
  }
  const Forest<float> forest(std::move(trees), 3);
  ASSERT_TRUE(forest.has_special_splits());

  // Probe values: the full NaN zoo plus the finite landmarks around every
  // node (category members, non-members, zeros, denormals, infinities).
  std::vector<float> probes;
  for (const std::uint32_t bits : kNanPatterns) {
    probes.push_back(nan_from_bits(bits));
  }
  for (const float v : {0.0f, -0.0f, 0.5f, -0.25f, 1.0f, 3.0f, 34.0f, 2.0f,
                        35.0f, 64.0f, -1.0f, 1.5f,
                        std::numeric_limits<float>::denorm_min(),
                        -std::numeric_limits<float>::denorm_min(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()}) {
    probes.push_back(v);
  }

  const std::int32_t nan_expected =
      oracle_vote(forest, &probes[0]);  // probes[0] is a NaN pattern
  auto probe_backends = vote_backends();
  probe_backends.emplace_back("jit:layout");  // one forest, one compile
  for (const auto& backend : probe_backends) {
    const auto predictor = make_predictor(forest, backend);
    for (const float v : probes) {
      const std::int32_t want = oracle_vote(forest, &v);
      ASSERT_EQ(predictor->predict_one({&v, 1}), want)
          << backend << " probe bits 0x" << std::hex
          << std::bit_cast<std::uint32_t>(v);
      // Payload/sign/quiet-bit invariance: every NaN is the same NaN.
      if (std::isnan(v)) {
        ASSERT_EQ(want, nan_expected)
            << "oracle not payload-invariant at 0x" << std::hex
            << std::bit_cast<std::uint32_t>(v);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// MissingPolicy boundary behavior.
// ---------------------------------------------------------------------------

Forest<float> flagless_stump() {
  Tree<float> t(2);
  const auto root = t.add_split(0, 1.0f);
  const auto l = t.add_leaf(0);
  const auto r = t.add_leaf(1);
  t.link(root, l, r);
  std::vector<Tree<float>> trees;
  trees.push_back(std::move(t));
  return Forest<float>(std::move(trees), 2);
}

TEST(MissingGate, ModelsWithoutMissingSupportStillRejectNaN) {
  const auto forest = flagless_stump();
  const auto predictor = make_predictor(forest, "encoded");
  EXPECT_FALSE(predictor->missing_policy().allow_nan);
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(), 1.0f};
  std::vector<std::int32_t> out(1);
  EXPECT_THROW(predictor->predict_batch(bad, 1, out), std::invalid_argument);
  const float fine[] = {0.5f, 2.0f};
  predictor->predict_batch(fine, 1, out);
  EXPECT_EQ(out[0], 0);
}

TEST(MissingGate, FlaglessMissingModelsSubstituteNaNAtTheBoundary) {
  // handles_missing over a forest with NO default directions: the factory
  // keeps the legacy backends and rewrites NaN to +inf at the boundary,
  // which routes right at every finite split — the flag-free contract.
  ForestModel<float> model;
  model.forest = flagless_stump();
  model.leaf_kind = LeafKind::ClassId;
  model.handles_missing = true;
  for (const char* backend : {"encoded", "layout:q4", "layout:auto"}) {
    const auto predictor = make_predictor(model, backend);
    EXPECT_TRUE(predictor->missing_policy().allow_nan) << backend;
    EXPECT_TRUE(predictor->missing_policy().substitute_nan) << backend;
    for (const std::uint32_t bits : kNanPatterns) {
      const float x[] = {nan_from_bits(bits), 0.0f};
      ASSERT_EQ(predictor->predict_one(x), 1)
          << backend << ": NaN must route right through a flagless split";
    }
  }
}

TEST(MissingGate, SubstituteRefusesInfiniteSplits) {
  // +inf split: `v <= +inf` sends finite values left, so the NaN -> +inf
  // substitution would be wrong — the factory must refuse, not mis-route.
  Tree<float> t(1);
  const auto root = t.add_split(0, std::numeric_limits<float>::infinity());
  const auto l = t.add_leaf(0);
  const auto r = t.add_leaf(1);
  t.link(root, l, r);
  std::vector<Tree<float>> trees;
  trees.push_back(std::move(t));
  ForestModel<float> model;
  model.forest = Forest<float>(std::move(trees), 2);
  model.leaf_kind = LeafKind::ClassId;
  model.handles_missing = true;
  EXPECT_THROW((void)make_predictor(model, "encoded"), std::invalid_argument);
}

TEST(MissingGate, ZeroAsMissingRewritesExactlyTheDocumentedBand) {
  // One flagged stump, default LEFT on NaN; threshold far right so every
  // non-missing probe routes right: the left leaf is reachable only via
  // the missing rewrite.
  Tree<float> t(1);
  const auto root = t.add_split(0, -100.0f, /*default_left=*/true);
  const auto l = t.add_leaf(1);
  const auto r = t.add_leaf(0);
  t.link(root, l, r);
  std::vector<Tree<float>> trees;
  trees.push_back(std::move(t));
  ForestModel<float> model;
  model.forest = Forest<float>(std::move(trees), 2);
  model.leaf_kind = LeafKind::ClassId;
  model.handles_missing = true;
  model.zero_as_missing = true;
  const auto predictor = make_predictor(model, "encoded");
  EXPECT_TRUE(predictor->missing_policy().zero_as_missing);
  // Missing: NaN, +/-0, and |x| <= 1e-35 (denormals included).
  for (const float missing : {std::numeric_limits<float>::quiet_NaN(), 0.0f,
                              -0.0f, 1e-36f, -1e-36f,
                              std::numeric_limits<float>::denorm_min()}) {
    ASSERT_EQ(predictor->predict_one({&missing, 1}), 1)
        << "value " << missing << " must rewrite to missing";
  }
  // Not missing: everything with |x| > 1e-35 keeps its comparison.
  for (const float present : {1e-34f, -1e-34f, 1.0f, -99.0f, -101.0f}) {
    const std::int32_t want = present <= -100.0f ? 1 : 0;
    ASSERT_EQ(predictor->predict_one({&present, 1}), want)
        << "value " << present << " must NOT rewrite to missing";
  }
}

TEST(MissingGate, JitLayoutServesSpecialForestsNatively) {
  // jit:layout generates NaN-mask consults and categorical membership tests
  // into the module itself — special forests get real generated code, not
  // an interpreter fallback, and the predictor keeps its own name.
  std::mt19937_64 rng(77);
  const auto forest = random_vote_forest(rng);
  const auto predictor = make_predictor(forest, "jit:layout");
  EXPECT_EQ(predictor->name(), "jit:layout");
  EXPECT_TRUE(predictor->missing_policy().allow_nan);
  const std::size_t cols = forest.feature_count();
  const auto features = adversarial_inputs(forest, 64, rng);
  std::vector<std::int32_t> out(64, -1);
  predictor->predict_batch(features, 64, out);
  for (std::size_t s = 0; s < 64; ++s) {
    ASSERT_EQ(out[s], oracle_vote(forest, features.data() + s * cols))
        << "sample " << s;
  }
  // Unknown jit names still fail fast instead of silently falling back.
  EXPECT_THROW((void)make_predictor(forest, "jit:warp"),
               std::invalid_argument);
}

}  // namespace
