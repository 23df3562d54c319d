// End-to-end tests of the flint-forest CLI (in-process via cli::run):
// the full gen -> train -> predict -> codegen -> inspect workflow plus the
// error paths (unknown commands/options/flavors, missing files).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"

namespace {

namespace fs = std::filesystem;

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run_cli(std::initializer_list<std::string> args) {
  const std::vector<std::string> v(args);
  std::ostringstream out, err;
  const int code = flint::cli::run(v, out, err);
  return {code, out.str(), err.str()};
}

CliResult run_cli_with_input(std::initializer_list<std::string> args,
                             const std::string& input) {
  const std::vector<std::string> v(args);
  std::istringstream in(input);
  std::ostringstream out, err;
  const int code = flint::cli::run(v, in, out, err);
  return {code, out.str(), err.str()};
}

class CliWorkflow : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "flint_cli_test";
    fs::create_directories(dir_);
    csv_ = (dir_ / "data.csv").string();
    model_ = (dir_ / "model.forest").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string csv_;
  std::string model_;
};

TEST_F(CliWorkflow, GenTrainPredictInspectCodegen) {
  auto gen = run_cli({"gen", "--dataset", "magic", "--rows", "800", "--seed",
                      "5", "--out", csv_});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("800 rows x 10 features"), std::string::npos) << gen.out;
  EXPECT_TRUE(fs::exists(csv_));

  auto train = run_cli({"train", "--data", csv_, "--trees", "4", "--depth",
                        "6", "--out", model_});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("trained 4 trees"), std::string::npos);
  EXPECT_TRUE(fs::exists(model_));

  for (const char* engine : {"reference", "flint", "layout:c16", "layout:q4"}) {
    auto predict = run_cli({"predict", "--model", model_, "--data", csv_,
                            "--engine", engine});
    ASSERT_EQ(predict.code, 0) << engine << ": " << predict.err;
    EXPECT_NE(predict.out.find("accuracy"), std::string::npos);
  }

  // All engines must report the same accuracy (bit-exact equivalence).
  auto accuracy_token = [](const std::string& text) {
    const auto pos = text.find("accuracy ");
    const auto end = text.find(" over", pos);
    return text.substr(pos, end - pos);
  };
  const auto acc_reference = run_cli(
      {"predict", "--model", model_, "--data", csv_, "--engine", "reference"});
  const auto acc_flint =
      run_cli({"predict", "--model", model_, "--data", csv_, "--engine", "flint"});
  EXPECT_EQ(accuracy_token(acc_reference.out), accuracy_token(acc_flint.out));

  auto inspect = run_cli({"inspect", "--model", model_});
  ASSERT_EQ(inspect.code, 0);
  EXPECT_NE(inspect.out.find("forest: 4 trees"), std::string::npos);

  const std::string gen_dir = (dir_ / "gen").string();
  for (const char* flavor : {"ifelse-float", "ifelse-flint", "native-flint",
                             "asm-x86", "asm-armv8"}) {
    auto codegen = run_cli({"codegen", "--model", model_, "--out", gen_dir,
                            "--flavor", flavor});
    ASSERT_EQ(codegen.code, 0) << flavor << ": " << codegen.err;
    EXPECT_NE(codegen.out.find("entry point"), std::string::npos);
  }
  EXPECT_TRUE(fs::exists(fs::path(gen_dir) / "forest.c"));
  EXPECT_TRUE(fs::exists(fs::path(gen_dir) / "forest.s"));

  // CAGS needs training data for branch statistics.
  auto cags_missing = run_cli({"codegen", "--model", model_, "--out", gen_dir,
                               "--flavor", "cags-flint"});
  EXPECT_EQ(cags_missing.code, 2);
  EXPECT_NE(cags_missing.err.find("train-data"), std::string::npos);
  auto cags = run_cli({"codegen", "--model", model_, "--out", gen_dir,
                       "--flavor", "cags-flint", "--train-data", csv_});
  EXPECT_EQ(cags.code, 0) << cags.err;
}

// Regression: predicting over an empty CSV (comment-only, so zero rows and
// no learned column count) must report "n/a", not divide by zero or trip
// the feature-width check; retired backend names exit 2 on both paths.
TEST_F(CliWorkflow, PredictEmptyDatasetAndRetiredEngines) {
  ASSERT_EQ(run_cli({"gen", "--dataset", "wine", "--rows", "80", "--out", csv_})
                .code, 0);
  ASSERT_EQ(run_cli({"train", "--data", csv_, "--trees", "2", "--depth", "3",
                     "--out", model_}).code, 0);
  const std::string empty_csv = (dir_ / "empty.csv").string();
  {
    std::ofstream f(empty_csv);
    f << "# header only, no rows\n";
  }
  auto empty = run_cli({"predict", "--model", model_, "--data", empty_csv});
  ASSERT_EQ(empty.code, 0) << empty.err;
  EXPECT_NE(empty.out.find("accuracy n/a over 0 rows"), std::string::npos)
      << empty.out;
  // An unknown engine is still rejected on the empty path.
  auto bad = run_cli({"predict", "--model", model_, "--data", empty_csv,
                      "--engine", "warp"});
  EXPECT_EQ(bad.code, 2);
  for (const char* engine : {"simd:flint", "simd:float", "layout:c8", "float",
                             "theorem1", "theorem2", "radix"}) {
    for (const std::string& data : {empty_csv, csv_}) {
      auto retired = run_cli({"predict", "--model", model_, "--data", data,
                              "--engine", engine, "--threads", "2"});
      EXPECT_EQ(retired.code, 2) << engine << " on " << data;
      EXPECT_NE(retired.err.find("unknown backend"), std::string::npos)
          << retired.err;
    }
  }
}

// The serve subcommand speaks a line protocol over the injected input
// stream: predictions, stats, a hot swap and a clean drain on EOF/quit.
TEST_F(CliWorkflow, ServeLineProtocol) {
  ASSERT_EQ(run_cli({"gen", "--dataset", "wine", "--rows", "120", "--out",
                     csv_}).code, 0);
  ASSERT_EQ(run_cli({"train", "--data", csv_, "--trees", "3", "--depth", "4",
                     "--out", model_}).code, 0);
  const std::string model_v2 = (dir_ / "model_v2.forest").string();
  ASSERT_EQ(run_cli({"train", "--data", csv_, "--trees", "3", "--depth", "4",
                     "--seed", "99", "--out", model_v2}).code, 0);

  // wine has 11 features; one 1-sample and one 2-sample request, a stats
  // probe, a hot swap, a post-swap request, and malformed lines.
  const std::string one = "1,2,3,4,5,6,7,8,9,10,11";
  // The second request and the quit use CRLF endings (regression: the
  // protocol must strip '\r' like the CSV reader does).
  const std::string protocol = one + "\n" + one + ";" + one + "\r\n" +
                               "stats\n" +
                               "swap " + model_v2 + "\n" +
                               "swap /nonexistent.forest\n" +
                               one + "\n" +
                               "1,2,bogus\n" +
                               "1,2;1,2,3\n" +
                               "quit\r\n";
  auto serve = run_cli_with_input(
      {"serve", "--model", model_, "--engine", "encoded", "--workers", "2",
       "--deadline-us", "30000000", "--priority", "high", "--shed-policy",
       "priority-evict"},
      protocol);
  ASSERT_EQ(serve.code, 0) << serve.err;
  EXPECT_NE(serve.out.find("serving 'default' v1"), std::string::npos)
      << serve.out;
  EXPECT_NE(serve.out.find("ok "), std::string::npos) << serve.out;
  // `stats` prints the ServeMetrics snapshot as a single JSON line,
  // including the health state, shed/deadline-miss counters and what the
  // idle worker's spin caught and cost.
  EXPECT_NE(serve.out.find("{\"health\":\"healthy\""), std::string::npos)
      << serve.out;
  EXPECT_NE(serve.out.find("\"requests\":"), std::string::npos);
  EXPECT_NE(serve.out.find("\"spin_hits\":"), std::string::npos);
  EXPECT_NE(serve.out.find("\"spin_us\":"), std::string::npos);
  EXPECT_NE(serve.out.find("\"shed\":0"), std::string::npos);
  EXPECT_NE(serve.out.find("\"deadline_missed\":0"), std::string::npos);
  EXPECT_NE(serve.out.find("ok swapped 'default' to v2"), std::string::npos);
  EXPECT_NE(serve.out.find("err "), std::string::npos);  // bad swap + floats
  EXPECT_NE(serve.out.find("malformed feature value 'bogus'"),
            std::string::npos);
  EXPECT_NE(serve.out.find("ragged request"), std::string::npos);
  EXPECT_NE(serve.out.find("served 3 requests"), std::string::npos)
      << serve.out;

  // Option validation.
  EXPECT_EQ(run_cli_with_input({"serve", "--model", model_, "--max-batch",
                                "0"}, "").code, 2);
  EXPECT_EQ(run_cli_with_input({"serve", "--model", model_, "--deadline-us",
                                "-1"}, "").code, 2);
  EXPECT_EQ(run_cli_with_input({"serve", "--model", model_, "--priority",
                                "urgent"}, "").code, 2);
  EXPECT_EQ(run_cli_with_input({"serve", "--model", model_, "--shed-policy",
                                "drop-all"}, "").code, 2);
  EXPECT_EQ(run_cli_with_input({"serve", "--model", "/nonexistent.forest"},
                               "").code, 2);
}

TEST_F(CliWorkflow, PredictLabelsOutput) {
  ASSERT_EQ(run_cli({"gen", "--dataset", "wine", "--rows", "60", "--out", csv_})
                .code, 0);
  ASSERT_EQ(run_cli({"train", "--data", csv_, "--trees", "2", "--depth", "3",
                     "--out", model_}).code, 0);
  auto labeled = run_cli({"predict", "--model", model_, "--data", csv_,
                          "--labels", "yes"});
  ASSERT_EQ(labeled.code, 0);
  // 60 label lines + 1 accuracy line.
  EXPECT_EQ(std::count(labeled.out.begin(), labeled.out.end(), '\n'), 61);
  // --train-data fed only the retired jit:cags-* backends; predict no
  // longer takes it.
  auto train_data = run_cli({"predict", "--model", model_, "--data", csv_,
                             "--train-data", csv_});
  EXPECT_EQ(train_data.code, 2);
  EXPECT_NE(train_data.err.find("unknown option --train-data"),
            std::string::npos)
      << train_data.err;
}

// `inspect` and the layout:auto predictor plan from the same ExecArtifacts
// build, so the plan `inspect --json` reports is the one `predict` names in
// its engine line — for a trained vote forest and for an imported XGBoost
// model.
TEST_F(CliWorkflow, InspectPlanIsThePredictorPlan) {
  ASSERT_EQ(run_cli({"gen", "--dataset", "magic", "--rows", "400", "--out",
                     csv_}).code, 0);
  ASSERT_EQ(run_cli({"train", "--data", csv_, "--trees", "6", "--depth", "8",
                     "--out", model_}).code, 0);
  const std::string fixtures =
      std::string(FLINT_SOURCE_DIR) + "/tests/fixtures/external/";
  const std::string xgb_model = (dir_ / "xgb_binary.model").string();
  ASSERT_EQ(run_cli({"convert", "--in", fixtures + "xgb_binary.json", "--out",
                     xgb_model}).code, 0);
  const auto between = [](const std::string& text, const std::string& open,
                          char close) {
    const auto pos = text.find(open);
    if (pos == std::string::npos) return std::string();
    const auto start = pos + open.size();
    return text.substr(start, text.find(close, start) - start);
  };
  for (const auto& [model, data] :
       {std::pair{model_, csv_},
        std::pair{xgb_model, fixtures + "xgb_binary_input.csv"}}) {
    const auto inspect = run_cli({"inspect", "--model", model, "--json", "yes"});
    ASSERT_EQ(inspect.code, 0) << inspect.err;
    const std::string plan = between(inspect.out, "\"plan\": \"", '"');
    ASSERT_FALSE(plan.empty()) << inspect.out;
    const auto predict = run_cli({"predict", "--model", model, "--data", data,
                                  "--engine", "layout:auto"});
    ASSERT_EQ(predict.code, 0) << predict.err;
    EXPECT_EQ(between(predict.out, "(engine: layout:", ')'), plan)
        << model << ": " << predict.out;
  }
}

TEST(CliErrors, HelpAndUnknowns) {
  auto empty = run_cli({});
  EXPECT_EQ(empty.code, 2);
  EXPECT_NE(empty.out.find("usage"), std::string::npos);

  auto help = run_cli({"--help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("codegen"), std::string::npos);

  auto unknown = run_cli({"frobnicate"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("unknown command"), std::string::npos);

  auto bad_option = run_cli({"gen", "--dataset", "eye", "--out", "/tmp/x.csv",
                             "--bogus", "1"});
  EXPECT_EQ(bad_option.code, 2);
  EXPECT_NE(bad_option.err.find("unknown option --bogus"), std::string::npos);

  auto missing_value = run_cli({"gen", "--dataset"});
  EXPECT_EQ(missing_value.code, 2);
  EXPECT_NE(missing_value.err.find("missing value"), std::string::npos);

  auto missing_required = run_cli({"gen", "--dataset", "eye"});
  EXPECT_EQ(missing_required.code, 2);
  EXPECT_NE(missing_required.err.find("--out"), std::string::npos);

  auto bad_dataset = run_cli({"gen", "--dataset", "mnist", "--out", "/tmp/x.csv"});
  EXPECT_EQ(bad_dataset.code, 2);

  auto bad_model = run_cli({"inspect", "--model", "/nonexistent.forest"});
  EXPECT_EQ(bad_model.code, 2);

  auto bad_engine = run_cli({"predict", "--model", "/nonexistent.forest",
                             "--data", "/nonexistent.csv", "--engine", "warp"});
  EXPECT_EQ(bad_engine.code, 2);

  auto bad_int = run_cli({"gen", "--dataset", "eye", "--rows", "12x",
                          "--out", "/tmp/x.csv"});
  EXPECT_EQ(bad_int.code, 2);
}

}  // namespace
