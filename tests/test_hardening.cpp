// Adversarial-input regression tests for the untrusted parsers: the JSON
// scanner (nesting depth, integer-range gates, errno discipline), the
// loader number helpers (strtof/strtod overflow vs stale ERANGE), and the
// v1/v2 container readers (allocation bombs from lying header counts).
// These encode the fixes independently of the fuzz harnesses in fuzz/, so
// a plain `ctest` run keeps them pinned even where libFuzzer is absent.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "model/json.hpp"
#include "model/loader_util.hpp"
#include "model/model_io.hpp"
#include "trees/serialize.hpp"

namespace {

using flint::model::parse_json;
using flint::model::detail::parse_token_f32;
using flint::model::detail::parse_token_f64;

std::string nested_array(std::size_t depth) {
  std::string text;
  text.reserve(2 * depth + 1);
  text.append(depth, '[');
  text.push_back('1');
  text.append(depth, ']');
  return text;
}

TEST(JsonHardening, ModerateNestingAccepted) {
  const auto v = parse_json(nested_array(100));
  ASSERT_EQ(v.as_array().size(), 1u);
}

TEST(JsonHardening, DeepNestingRejectedNotStackOverflow) {
  try {
    (void)parse_json(nested_array(100000));
    FAIL() << "expected a depth-limit error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
}

TEST(JsonHardening, IntOutOfRangeRejectedBeforeCast) {
  // double -> long long is undefined outside [-2^63, 2^63); a hostile
  // "1e300" node id must throw, not invoke UB.
  EXPECT_THROW((void)parse_json("1e300").as_int(), std::runtime_error);
  EXPECT_THROW((void)parse_json("-1e300").as_int(), std::runtime_error);
  // 2^63 itself is outside the half-open range (LLONG_MAX is 2^63 - 1).
  EXPECT_THROW((void)parse_json("9223372036854775808").as_int(),
               std::runtime_error);
  EXPECT_THROW((void)parse_json("NaN").as_int(), std::runtime_error);
  // -2^63 is exactly LLONG_MIN and must round-trip.
  EXPECT_EQ(parse_json("-9223372036854775808").as_int(),
            -9223372036854775807LL - 1);
  EXPECT_EQ(parse_json("4611686018427387904").as_int(), 1LL << 62);
}

TEST(JsonHardening, OverflowTokenIsInfNotWraparound) {
  // strtod maps "1e9999" to +inf (ERANGE); downstream finiteness gates
  // police it.  The parse itself must neither throw nor mangle the value.
  EXPECT_TRUE(std::isinf(parse_json("1e9999").as_double()));
  EXPECT_TRUE(std::isinf(parse_json("-1e9999").as_double()));
}

TEST(LoaderUtilHardening, OverflowingTokenRejected) {
  // "1e39" > FLT_MAX: a float32 loader must refuse it rather than load the
  // threshold as +inf.
  EXPECT_THROW(parse_token_f32("1e39", "test"), std::runtime_error);
  EXPECT_THROW(parse_token_f32("-1e39", "test"), std::runtime_error);
  EXPECT_THROW(parse_token_f64("1e9999", "test"), std::runtime_error);
  // The same magnitude is representable at float64.
  EXPECT_DOUBLE_EQ(parse_token_f64("1e39", "test"), 1e39);
}

TEST(LoaderUtilHardening, StaleErrnoDoesNotRejectGoodTokens) {
  errno = ERANGE;  // a leftover from an unrelated library call
  EXPECT_FLOAT_EQ(parse_token_f32("1.5", "test"), 1.5f);
  errno = ERANGE;
  EXPECT_DOUBLE_EQ(parse_token_f64("2.25", "test"), 2.25);
}

TEST(LoaderUtilHardening, LiteralInfNanPassThroughToCallerGates) {
  // Literal spellings set no errno; the loader-level finiteness checks
  // (check_threshold_finite, ForestModel::validate) decide their fate.
  EXPECT_TRUE(std::isinf(parse_token_f32("inf", "test")));
  EXPECT_TRUE(std::isnan(parse_token_f32("nan", "test")));
}

TEST(LoaderUtilHardening, UnderflowIsAFaithfulParse) {
  EXPECT_EQ(parse_token_f32("1e-9999", "test"), 0.0f);
  // Denormal result: ERANGE underflow, still accepted.
  EXPECT_GT(parse_token_f32("1e-44", "test"), 0.0f);
}

TEST(SerializeHardening, HugeTreeCountFailsWithoutAllocating) {
  // The reserve hint is clamped, so a lying header dies on the missing
  // first tree block instead of pre-committing gigabytes.
  std::istringstream in("forest v1 2 99999999999\n");
  EXPECT_THROW(flint::trees::read_forest<float>(in), std::runtime_error);
}

TEST(SerializeHardening, HugeCategoryWordCountRejected) {
  // Every category word is a token on the same line, so a count beyond the
  // line length is provably a lie — reject before sizing the vector.
  std::istringstream in(
      "tree 2 3\n"
      "cats 1\n"
      "c 99999999999 1\n");
  try {
    (void)flint::trees::read_tree<float>(in);
    FAIL() << "expected a word-count error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds line length"),
              std::string::npos)
        << e.what();
  }
}

TEST(ModelIoHardening, HugeLeafTableFailsFast) {
  // rows passes the int32 gate and k is only gated >= 0; the reserve is
  // clamped so rows * k ~ 2^61 cannot allocate.  The read then dies on the
  // first missing value row.
  std::istringstream in(
      "forest v2 1\n"
      "kind scalar\n"
      "agg sum\n"
      "link none\n"
      "outputs 1073741823\n"
      "classes 0\n"
      "leaf_values 2147483647 1073741823\n");
  EXPECT_THROW(flint::model::read_model<float>(in), std::runtime_error);
}

}  // namespace
