#include "cli/cli.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <vector>

#include "codegen/asm_arm.hpp"
#include "codegen/asm_x86.hpp"
#include "codegen/cgen_cags.hpp"
#include "codegen/cgen_ifelse.hpp"
#include "codegen/cgen_native.hpp"
#include "data/csv.hpp"
#include "data/split.hpp"
#include "data/synth.hpp"
#include "exec/artifacts/artifacts.hpp"
#include "model/forest_model.hpp"
#include "model/loaders.hpp"
#include "quant/quant_plan.hpp"
#include "model/model_io.hpp"
#include "predict/predictor.hpp"
#include "serve/server.hpp"
#include "trees/forest.hpp"
#include "trees/serialize.hpp"
#include "trees/tree_stats.hpp"
#include "verify/verify.hpp"

namespace flint::cli {

namespace {

/// Minimal --key value parser; positional[0] is the subcommand.
class Args {
 public:
  /// `flags` lists valueless boolean options (e.g. --json): present maps to
  /// "yes" without consuming the next token.
  explicit Args(std::span<const std::string> args,
                std::initializer_list<const char*> flags = {}) {
    const std::set<std::string> flag_names(flags.begin(), flags.end());
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a.rfind("--", 0) == 0) {
        const std::string key = a.substr(2);
        if (flag_names.count(key)) {
          options_[key] = "yes";
        } else if (i + 1 >= args.size()) {
          throw std::invalid_argument("missing value for --" + key);
        } else {
          options_[key] = args[++i];
        }
      } else {
        positional_.push_back(a);
      }
    }
  }

  [[nodiscard]] std::string require(const std::string& key) const {
    const auto it = options_.find(key);
    if (it == options_.end()) {
      throw std::invalid_argument("missing required option --" + key);
    }
    mark_used(key);
    return it->second;
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options_.find(key);
    mark_used(key);
    return it == options_.end() ? fallback : it->second;
  }

  [[nodiscard]] long get_long(const std::string& key, long fallback) const {
    const auto it = options_.find(key);
    mark_used(key);
    if (it == options_.end()) return fallback;
    std::size_t pos = 0;
    long v = 0;
    try {
      v = std::stol(it->second, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != it->second.size() || it->second.empty()) {
      throw std::invalid_argument("option --" + key + " expects an integer, got '" +
                                  it->second + "'");
    }
    return v;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Rejects typo'd options: every provided --key must have been consumed.
  void check_all_used() const {
    for (const auto& [key, value] : options_) {
      if (!used_.count(key)) {
        throw std::invalid_argument("unknown option --" + key);
      }
    }
  }

 private:
  void mark_used(const std::string& key) const { used_.insert(key); }

  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> used_;
};

int cmd_gen(const Args& args, std::ostream& out) {
  const auto spec = data::spec_by_name(args.require("dataset"));
  const auto rows = static_cast<std::size_t>(args.get_long("rows", 0));
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 42));
  const std::string path = args.require("out");
  args.check_all_used();
  const auto dataset = data::generate<float>(spec, seed, rows);
  data::save_csv(path, dataset);
  out << "wrote " << dataset.rows() << " rows x " << dataset.cols()
      << " features (" << spec.classes << " classes) to " << path << "\n";
  return 0;
}

int cmd_train(const Args& args, std::ostream& out) {
  const auto dataset = data::load_csv<float>(args.require("data"));
  trees::ForestOptions options;
  options.n_trees = static_cast<int>(args.get_long("trees", 10));
  options.tree.max_depth = static_cast<int>(args.get_long("depth", 10));
  options.tree.seed = static_cast<std::uint64_t>(args.get_long("seed", 42));
  options.tree.max_features =
      args.get("features", "sqrt") == "all" ? 0
                                            : trees::TrainOptions::kSqrtFeatures;
  const std::string model_path = args.require("out");
  args.check_all_used();
  const auto forest = trees::train_forest(dataset, options);
  trees::save_forest(model_path, forest);
  out << "trained " << forest.size() << " trees (" << forest.total_nodes()
      << " nodes, max depth " << forest.max_depth() << ") on "
      << dataset.rows() << " rows; training accuracy "
      << trees::accuracy(forest, dataset) << "\n"
      << "model saved to " << model_path << "\n";
  return 0;
}

int cmd_predict(const Args& args, std::ostream& out) {
  const auto model = model::load_any_model<float>(args.require("model"));
  const auto dataset = data::load_csv<float>(args.require("data"));
  const std::string engine_name = args.get("engine", "flint");
  const bool print_labels = args.get("labels", "no") == "yes";
  const std::string output_mode = args.get("output", "classes");
  const long threads = args.get_long("threads", 1);
  const long batch = args.get_long("batch", 64);
  if (threads < 0 || threads > 4096) {
    // Upper bound also guards the long -> unsigned narrowing below, which
    // would otherwise silently wrap (e.g. 2^32 -> 0 = "all cores").
    throw std::invalid_argument(
        "--threads must be in [0, 4096] (0 = all cores)");
  }
  if (batch < 1) {
    throw std::invalid_argument("--batch must be >= 1");
  }
  if (output_mode != "classes" && output_mode != "scores") {
    throw std::invalid_argument("--output must be classes or scores");
  }
  if (output_mode == "scores" && model.is_vote()) {
    throw std::invalid_argument(
        "--output scores needs an additive leaf-value model (GBDT, "
        "soft-vote, regression); this is a majority-vote forest — see "
        "docs/MODEL_FORMATS.md");
  }
  if (output_mode == "classes" && !model.is_classifier()) {
    throw std::invalid_argument(
        "model '" + model.describe() +
        "' is a regression model; use --output scores");
  }
  predict::PredictorOptions popt;
  popt.threads = static_cast<unsigned>(threads);
  popt.block_size = static_cast<std::size_t>(batch);
  args.check_all_used();
  if (dataset.rows() == 0) {
    // An empty CSV is a valid (if useless) input.  It never learns a column
    // count, so the width check below would misreport it, and the accuracy
    // quotient would divide by zero.  Still reject unknown backend names —
    // by vocabulary, not by constructing the predictor, which for jit:*
    // would run the whole codegen + compile + dlopen pipeline just to print
    // "n/a".
    if (!predict::is_known_backend(engine_name)) {
      std::string msg = "unknown backend '" + engine_name + "'";
      if (const auto near = predict::suggest_backend(engine_name);
          !near.empty()) {
        msg += " (did you mean '" + near + "'?)";
      }
      throw std::invalid_argument(msg + " (" + predict::backend_help() + ")");
    }
    if (output_mode == "scores") {
      out << "scored 0 rows x " << model.n_outputs << " outputs (engine: "
          << engine_name << ")\n";
    } else {
      out << "accuracy n/a over 0 rows (engine: " << engine_name << ")\n";
    }
    return 0;
  }
  if (dataset.cols() < model.forest.feature_count()) {
    throw std::invalid_argument("data has fewer features than the model");
  }

  const auto predictor = predict::make_predictor(model, engine_name, popt);
  if (output_mode == "scores") {
    const auto k = static_cast<std::size_t>(predictor->num_outputs());
    std::vector<float> scores(dataset.rows() * k);
    predictor->predict_scores(dataset, scores);
    out.precision(9);  // round-trip float precision for downstream diffing
    for (std::size_t r = 0; r < dataset.rows(); ++r) {
      for (std::size_t j = 0; j < k; ++j) {
        out << (j ? "," : "") << scores[r * k + j];
      }
      out << "\n";
    }
    out << "scored " << dataset.rows() << " rows x " << k
        << " outputs (engine: " << predictor->name() << ")\n";
    return 0;
  }
  std::vector<std::int32_t> predictions(dataset.rows());
  predictor->predict_batch(dataset, predictions);

  std::size_t hits = 0;
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    if (predictions[r] == dataset.label(r)) ++hits;
    if (print_labels) out << predictions[r] << "\n";
  }
  out << "accuracy " << (static_cast<double>(hits) /
                         static_cast<double>(dataset.rows()))
      << " over " << dataset.rows() << " rows (engine: " << predictor->name()
      << ")\n";
  return 0;
}

int cmd_convert(const Args& args, std::ostream& out) {
  const std::string in_path = args.require("in");
  const std::string out_path = args.require("out");
  const std::string format_name = args.get("format", "auto");
  args.check_all_used();
  model::ForestModel<float> model;
  if (format_name == "auto") {
    model = model::load_external_model<float>(in_path);
  } else if (format_name == "native") {
    model = model::load_external_model<float>(in_path,
                                              model::ModelFormat::Native);
  } else if (format_name == "xgboost-json") {
    model = model::load_external_model<float>(in_path,
                                              model::ModelFormat::XgboostJson);
  } else if (format_name == "lightgbm-text") {
    model = model::load_external_model<float>(
        in_path, model::ModelFormat::LightgbmText);
  } else if (format_name == "sklearn-json") {
    model = model::load_external_model<float>(in_path,
                                              model::ModelFormat::SklearnJson);
  } else {
    throw std::invalid_argument(
        "unknown --format '" + format_name +
        "' (auto|native|xgboost-json|lightgbm-text|sklearn-json)");
  }
  model::save_model(out_path, model);
  out << "converted " << model.describe() << ", "
      << model.forest.total_nodes() << " nodes, "
      << model.forest.feature_count() << " features\n"
      << "model saved to " << out_path << "\n";
  return 0;
}

int cmd_codegen(const Args& args, std::ostream& out) {
  const auto forest = trees::load_forest<float>(args.require("model"));
  const std::string flavor = args.get("flavor", "ifelse-flint");
  const std::string out_dir = args.require("out");
  const std::string stats_csv = args.get("train-data", "");
  codegen::CGenOptions options;
  options.prefix = args.get("prefix", "forest");
  options.kernel_budget_bytes =
      static_cast<int>(args.get_long("kernel-budget", 4096));
  args.check_all_used();

  codegen::GeneratedCode code;
  if (flavor == "ifelse-float" || flavor == "ifelse-flint") {
    options.flint = flavor == "ifelse-flint";
    code = codegen::generate_ifelse(forest, options);
  } else if (flavor == "cags-float" || flavor == "cags-flint") {
    if (stats_csv.empty()) {
      throw std::invalid_argument(
          "CAGS flavors need --train-data <csv> for branch statistics");
    }
    const auto train = data::load_csv<float>(stats_csv);
    const auto stats = trees::collect_branch_stats(forest, train);
    options.flint = flavor == "cags-flint";
    code = codegen::generate_cags(forest, stats, options);
  } else if (flavor == "native-float" || flavor == "native-flint") {
    options.flint = flavor == "native-flint";
    code = codegen::generate_native(forest, options);
  } else if (flavor == "asm-x86") {
    code = codegen::generate_asm_x86(forest, options);
  } else if (flavor == "asm-armv8") {
    code = codegen::generate_asm_armv8(forest, options);
  } else {
    throw std::invalid_argument(
        "unknown flavor '" + flavor +
        "' (ifelse-float|ifelse-flint|cags-float|cags-flint|native-float|"
        "native-flint|asm-x86|asm-armv8)");
  }

  std::filesystem::create_directories(out_dir);
  for (const auto& file : code.files) {
    const auto path = std::filesystem::path(out_dir) / file.name;
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot write " + path.string());
    f << file.content;
    out << "wrote " << path.string() << " (" << file.content.size()
        << " bytes)\n";
  }
  out << "entry point: int " << code.classify_symbol << "(const float* pX)\n";
  return 0;
}

/// Parses one serve-protocol request line: samples separated by ';',
/// features by ','.  Throws std::invalid_argument on malformed floats or
/// ragged sample widths (the server's own shape gate sees only the total).
std::vector<float> parse_request_line(const std::string& line,
                                      std::size_t& n_samples) {
  std::vector<float> features;
  n_samples = 0;
  std::size_t sample_width = 0;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t sample_end = std::min(line.find(';', pos), line.size());
    std::size_t width = 0;
    std::size_t cursor = pos;
    while (cursor < sample_end) {
      const std::size_t value_end =
          std::min(line.find(',', cursor), sample_end);
      const std::string token = line.substr(cursor, value_end - cursor);
      std::size_t parsed = 0;
      float value = 0.0f;
      try {
        value = std::stof(token, &parsed);
      } catch (const std::exception&) {
        parsed = 0;
      }
      if (parsed != token.size() || token.empty()) {
        throw std::invalid_argument("malformed feature value '" + token + "'");
      }
      features.push_back(value);
      ++width;
      cursor = value_end + 1;
    }
    if (width > 0) {
      if (sample_width == 0) {
        sample_width = width;
      } else if (width != sample_width) {
        throw std::invalid_argument(
            "ragged request: sample " + std::to_string(n_samples) + " has " +
            std::to_string(width) + " features, previous samples " +
            std::to_string(sample_width));
      }
      ++n_samples;
    }
    pos = sample_end + 1;
  }
  if (n_samples == 0) {
    throw std::invalid_argument("empty request line");
  }
  return features;
}

int cmd_serve(const Args& args, std::istream& in, std::ostream& out) {
  const std::string model_path = args.require("model");
  const std::string engine_name = args.get("engine", "layout:auto");
  const long max_batch = args.get_long("max-batch", 1024);
  const long workers = args.get_long("workers", 1);
  const long threads = args.get_long("threads", 1);
  const long batch = args.get_long("batch", 256);
  const long deadline_us = args.get_long("deadline-us", 0);
  const std::string priority_name = args.get("priority", "normal");
  const std::string shed_policy_name = args.get("shed-policy", "reject-new");
  if (max_batch < 1) throw std::invalid_argument("--max-batch must be >= 1");
  if (deadline_us < 0 || deadline_us > 3'600'000'000L) {
    throw std::invalid_argument(
        "--deadline-us must be in [0, 3600000000] (0 = no deadline)");
  }
  if (workers < 0 || workers > 4096) {
    throw std::invalid_argument("--workers must be in [0, 4096] (0 = all cores)");
  }
  if (threads < 0 || threads > 4096) {
    throw std::invalid_argument("--threads must be in [0, 4096] (0 = all cores)");
  }
  if (batch < 1) throw std::invalid_argument("--batch must be >= 1");
  serve::SubmitOptions subopt;
  subopt.deadline_us = static_cast<std::uint64_t>(deadline_us);
  if (priority_name == "high") {
    subopt.priority = serve::Priority::kHigh;
  } else if (priority_name == "normal") {
    subopt.priority = serve::Priority::kNormal;
  } else if (priority_name == "low") {
    subopt.priority = serve::Priority::kLow;
  } else {
    throw std::invalid_argument("--priority must be high, normal, or low");
  }
  serve::ShedPolicy shed_policy = serve::ShedPolicy::kRejectNew;
  if (shed_policy_name == "priority-evict") {
    shed_policy = serve::ShedPolicy::kPriorityEvict;
  } else if (shed_policy_name != "reject-new") {
    throw std::invalid_argument(
        "--shed-policy must be reject-new or priority-evict");
  }
  args.check_all_used();

  predict::PredictorOptions popt;
  popt.threads = static_cast<unsigned>(threads);
  popt.block_size = static_cast<std::size_t>(batch);
  const auto load = [&](const std::string& path) -> serve::PredictorPtr {
    const auto model = model::load_any_model<float>(path);
    // Static verification before the registry's shared_ptr flip: a corrupt
    // hot-swap is rejected here, with node-level diagnostics, while the
    // previous version keeps serving.
    const auto report = verify::verify_model(model);
    if (!report.ok()) {
      const auto& d = report.diagnostics.front();
      throw std::invalid_argument(
          "model failed verification (" + d.check +
          (d.node >= 0 ? " node " + std::to_string(d.node) : "") + ": " +
          d.message + "; " +
          std::to_string(report.diagnostics.size() + report.suppressed) +
          " total — run flint-forest verify " + path + ")");
    }
    if (!model.is_classifier()) {
      throw std::invalid_argument(
          "serve needs a classifier; '" + model.describe() +
          "' is a regression model (score serving: predict --output scores)");
    }
    return serve::PredictorPtr(
        predict::make_predictor(model, engine_name, popt));
  };

  serve::ServeOptions sopt;
  sopt.max_batch = static_cast<std::size_t>(max_batch);
  sopt.workers = static_cast<unsigned>(workers);
  sopt.shed_policy = shed_policy;
  serve::InferenceServer server(sopt);
  server.registry().install("default", load(model_path));
  out << "serving 'default' v1 (engine " << engine_name << ", max_batch "
      << max_batch << ", workers " << server.worker_count() << ")\n"
      << "protocol: 'f1,f2,...[;f1,f2,...]' predicts | 'swap <model>' | "
         "'stats' | 'quit'\n";

  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF input
    if (line.empty() || line[0] == '#') continue;
    if (line == "quit") break;
    if (line == "stats") {
      out << serve::serve_metrics_json(server.metrics()) << "\n";
      continue;
    }
    if (line.rfind("swap ", 0) == 0) {
      try {
        const auto version =
            server.registry().install("default", load(line.substr(5)));
        out << "ok swapped 'default' to v" << version << "\n";
      } catch (const std::exception& e) {
        out << "err " << e.what() << "\n";
      }
      continue;
    }
    try {
      std::size_t n_samples = 0;
      const auto features = parse_request_line(line, n_samples);
      auto future = server.submit(features, n_samples, "default", subopt);
      const auto predictions = future.get();
      out << "ok ";
      for (std::size_t i = 0; i < predictions.size(); ++i) {
        out << (i ? "," : "") << predictions[i];
      }
      out << "\n";
    } catch (const std::exception& e) {
      out << "err " << e.what() << "\n";
    }
  }
  server.stop();
  const auto m = server.metrics();
  out << "served " << m.requests << " requests (" << m.samples
      << " samples) in " << m.batches << " batches; p99 "
      << m.p99_latency_us << " us\n";
  return 0;
}

int cmd_verify(const Args& args, std::ostream& out) {
  // `verify <model>` and `verify --model <model>` both work; --json switches
  // to the machine-readable report (one JSON object, diagnostics included).
  std::string path = args.get("model", "");
  const bool json = args.get("json", "no") != "no";
  if (path.empty()) {
    if (args.positional().empty()) {
      throw std::invalid_argument("verify needs a model path");
    }
    path = args.positional().front();
  }
  args.check_all_used();
  const auto report = verify::verify_file(path);
  if (json) {
    out << verify::to_json(report) << "\n";
  } else {
    out << path << ":\n";
    verify::write_human(out, report);
  }
  return report.ok() ? 0 : 1;
}

int cmd_inspect(const Args& args, std::ostream& out) {
  const auto model = model::load_any_model<float>(args.require("model"));
  const bool json = args.get("json", "no") != "no";
  args.check_all_used();
  const auto& forest = model.forest;

  // The auto-tuner's verdict plus the 4-byte image's quantization plan:
  // which features keep the bit-exact rank contract, which fall back to
  // the calibrated affine map, and the measured per-feature fitness.
  exec::artifacts::ExecArtifacts<float> art(forest);
  std::string q4_why;
  const exec::layout::Q4Forest<float>* q4 =
      art.try_q4_at(art.plan().hot_depth, &q4_why);

  if (json) {
    const auto escape = [](const std::string& s) {
      std::string r;
      for (const char c : s) {
        if (c == '"' || c == '\\') r += '\\';
        r += c;
      }
      return r;
    };
    out << "{\"model\": \"" << escape(model.describe()) << "\", \"trees\": "
        << forest.size() << ", \"classes\": "
        << (model.is_vote() ? forest.num_classes() : model.num_classes())
        << ", \"features\": " << forest.feature_count()
        << ", \"nodes\": " << forest.total_nodes() << ", \"plan\": \""
        << escape(art.plan().describe()) << "\", \"quant\": ";
    if (q4 != nullptr) {
      out << quant::report_json(q4->qplan);
    } else {
      out << "null, \"quant_error\": \"" << escape(q4_why) << "\"";
    }
    out << "}\n";
    return 0;
  }

  out << "model: " << model.describe() << "\n"
      << "forest: " << forest.size() << " trees, "
      << (model.is_vote() ? forest.num_classes() : model.num_classes())
      << " classes, " << forest.feature_count() << " features, "
      << forest.total_nodes() << " nodes\n";
  if (!model.is_vote()) {
    out << "leaf values: " << model.leaf_rows() << " rows x "
        << model.n_outputs << " outputs, link "
        << model::to_string(model.aggregation.link) << "\n";
  }
  out << "plan: " << art.plan().describe() << "\n";
  if (q4 != nullptr) {
    const auto& plan = q4->qplan;
    out << "quant: " << plan.describe() << " ("
        << (plan.all_exact()
                ? "bit-exact"
                : plan.accuracy_contract() ? "threshold-preserving affine"
                                           : "lossy affine")
        << ")\n";
    for (std::size_t f = 0; f < plan.features.size(); ++f) {
      const auto& fq = plan.features[f];
      if (fq.exact()) continue;
      out << "  feature " << f << ": affine, " << fq.quantized_distinct << "/"
          << fq.distinct << " thresholds survive (fitness " << fq.fitness()
          << ")\n";
    }
  } else {
    out << "quant: not packable at 4 bytes (" << q4_why << ")\n";
  }
  for (std::size_t t = 0; t < forest.size(); ++t) {
    const auto shape = trees::tree_shape(forest.tree(t));
    out << "  tree " << t << ": " << shape.nodes << " nodes, " << shape.leaves
        << " leaves, depth " << shape.depth << ", " << shape.negative_splits
        << " negative splits\n";
  }
  return 0;
}

}  // namespace

std::string usage() {
  // The backend listing is composed from the predictor's own vocabulary so
  // the help text can never drift from make_predictor's dispatch (retired
  // names disappear here the moment the factory stops accepting them).
  std::string backends;
  {
    std::vector<std::string> names = predict::interpreter_backends();
    names.emplace_back("flint");
    for (const auto& list : {predict::layout_backends(),
                             predict::quant_backends(),
                             predict::jit_backends()}) {
      names.insert(names.end(), list.begin(), list.end());
    }
    std::string line = "           backends: ";
    const std::string cont = "                     ";
    bool first = true;
    for (const auto& n : names) {
      if (!first && line.size() + n.size() + 1 > 72) {
        backends += line + "\n";
        line = cont;
        first = true;
      }
      if (!first) line += " ";
      line += n;
      first = false;
    }
    backends += line + "\n";
  }
  return
      "flint-forest — random forest training, inference and FLInt code "
      "generation\n"
      "\n"
      "usage: flint-forest <command> [options]\n"
      "\n"
      "commands:\n"
      "  gen      --dataset <eye|gas|magic|sensorless|wine> --out <csv>\n"
      "           [--rows N] [--seed N]\n"
      "  train    --data <csv> --out <model> [--trees N] [--depth N]\n"
      "           [--seed N] [--features sqrt|all]\n"
      "  convert  --in <model-file> --out <model>\n"
      "           [--format auto|native|xgboost-json|lightgbm-text|\n"
      "                     sklearn-json]\n"
      "           imports an externally trained ensemble (XGBoost JSON\n"
      "           dump, LightGBM text model, sklearn-forest JSON) into the\n"
      "           native v2 format with bit-exact thresholds; 'auto'\n"
      "           sniffs the format from content (docs/MODEL_FORMATS.md)\n"
      "  predict  --model <model> --data <csv>\n"
      "           [--engine <backend>] [--threads N] [--batch N]\n"
      "           [--labels yes|no] [--output classes|scores]\n" +
      backends +
      "           (--threads 0 = all cores; --batch = samples per cache\n"
      "           block; jit:layout compiles a model-specialized module\n"
      "           from the compact layout image, reused via a content-hash\n"
      "           compile cache; --output scores prints per-sample score\n"
      "           vectors for additive leaf-value models — GBDT margins/\n"
      "           probabilities, soft-vote averages, regression values;\n"
      "           see docs/ARCHITECTURE.md and docs/MODEL_FORMATS.md)\n"
      "  serve    --model <model> [--engine <backend>] [--max-batch N]\n"
      "           [--workers N] [--threads N] [--batch N]\n"
      "           [--deadline-us N] [--priority high|normal|low]\n"
      "           [--shed-policy reject-new|priority-evict]\n"
      "           long-lived micro-batching server over a stdin line\n"
      "           protocol: 'f1,f2,...[;f1,f2,...]' predicts a request,\n"
      "           'swap <model>' hot-swaps, 'stats' prints one JSON metrics\n"
      "           line (health, shed/deadline-miss counters), 'quit' drains\n"
      "           and exits; a request dispatches at once while a worker is\n"
      "           idle, and requests that queue while every worker is busy\n"
      "           coalesce into batches of up to --max-batch samples;\n"
      "           --deadline-us bounds each request's end-to-end\n"
      "           latency (0 = none), --priority tags requests for the\n"
      "           admission ladder, --shed-policy picks overload behaviour\n"
      "           (see docs/ARCHITECTURE.md \"Serving\")\n"
      "  codegen  --model <model> --out <dir> [--flavor <flavor>]\n"
      "           [--prefix name] [--train-data <csv>] [--kernel-budget N]\n"
      "           flavors: ifelse-float ifelse-flint cags-float cags-flint\n"
      "                    native-float native-flint asm-x86 asm-armv8\n"
      "  verify   <model> [--json]\n"
      "           static forest verifier: checks the invariant catalog\n"
      "           (offsets/reachability, leaf tags, payload bounds, rank\n"
      "           monotonicity + exact threshold narrowing, NaN/categorical\n"
      "           flag coherence, aggregation descriptors) over the model\n"
      "           and every packed artifact without running a prediction;\n"
      "           exit 0 = verified, 1 = diagnostics printed (--json for\n"
      "           machine-readable output; see docs/VERIFICATION.md)\n"
      "  inspect  --model <model> [--json]\n"
      "           model/forest summary plus the layout auto-tuner's plan\n"
      "           and the 4-byte quantization report: per-feature exact vs\n"
      "           affine contract and threshold-survival fitness (--json\n"
      "           for the machine-readable per-feature report)\n";
}

int run(std::span<const std::string> args, std::istream& in,
        std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "--help" || args[0] == "help") {
    out << usage();
    return args.empty() ? 2 : 0;
  }
  const std::string command = args[0];
  const std::span<const std::string> rest = args.subspan(1);
  try {
    const Args parsed(rest, command == "verify" || command == "inspect"
                                ? std::initializer_list<const char*>{"json"}
                                : std::initializer_list<const char*>{});
    if (command == "gen") return cmd_gen(parsed, out);
    if (command == "train") return cmd_train(parsed, out);
    if (command == "convert") return cmd_convert(parsed, out);
    if (command == "predict") return cmd_predict(parsed, out);
    if (command == "serve") return cmd_serve(parsed, in, out);
    if (command == "verify") return cmd_verify(parsed, out);
    if (command == "codegen") return cmd_codegen(parsed, out);
    if (command == "inspect") return cmd_inspect(parsed, out);
    err << "unknown command '" << command << "'\n\n" << usage();
    return 2;
  } catch (const std::exception& e) {
    err << "flint-forest " << command << ": " << e.what() << "\n";
    return 2;
  }
}

int run(std::span<const std::string> args, std::ostream& out,
        std::ostream& err) {
  return run(args, std::cin, out, err);
}

}  // namespace flint::cli
