#include "model/loaders.hpp"

#include <fstream>
#include <sstream>

#include "model/loader_util.hpp"
#include "model/model_io.hpp"

namespace flint::model {

const char* to_string(ModelFormat format) {
  switch (format) {
    case ModelFormat::Native: return "native";
    case ModelFormat::XgboostJson: return "xgboost-json";
    case ModelFormat::LightgbmText: return "lightgbm-text";
    case ModelFormat::SklearnJson: return "sklearn-json";
  }
  return "?";
}

ModelFormat detect_model_format(const std::string& content) {
  // First non-space character decides JSON vs line-oriented text.
  std::size_t i = 0;
  while (i < content.size() &&
         (content[i] == ' ' || content[i] == '\t' || content[i] == '\n' ||
          content[i] == '\r')) {
    ++i;
  }
  if (i >= content.size()) {
    detail::load_fail("detect", "empty model file");
  }
  const char c = content[i];
  if (c == '{' || c == '[') {
    if (content.find("\"sklearn-forest\"") != std::string::npos) {
      return ModelFormat::SklearnJson;
    }
    if (content.find("\"nodeid\"") != std::string::npos ||
        content.find("\"learner\"") != std::string::npos ||
        content.find("\"split_condition\"") != std::string::npos ||
        content.find("\"leaf\"") != std::string::npos) {
      return ModelFormat::XgboostJson;
    }
    detail::load_fail("detect",
                      "JSON document matches neither the sklearn-forest "
                      "export nor an XGBoost dump");
  }
  if (content.compare(i, 6, "forest") == 0 ||
      content.compare(i, 5, "tree ") == 0 || content[i] == '#') {
    return ModelFormat::Native;
  }
  if (content.find("\nTree=") != std::string::npos ||
      content.compare(i, 5, "Tree=") == 0 ||
      content.compare(i, 4, "tree") == 0) {
    return ModelFormat::LightgbmText;
  }
  detail::load_fail("detect",
                    "unrecognized model format (native forest, XGBoost JSON "
                    "dump, LightGBM text, sklearn-forest JSON)");
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) detail::load_fail("load", "cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

}  // namespace

template <typename T>
ForestModel<T> load_external_model(const std::string& path,
                                   ModelFormat format) {
  switch (format) {
    case ModelFormat::Native: return load_any_model<T>(path);
    case ModelFormat::XgboostJson: return load_xgboost_json<T>(read_file(path));
    case ModelFormat::LightgbmText:
      return load_lightgbm_text<T>(read_file(path));
    case ModelFormat::SklearnJson: return load_sklearn_json<T>(read_file(path));
  }
  detail::load_fail("load", "bad format enum");
}

template <typename T>
ForestModel<T> load_external_model(const std::string& path) {
  const std::string content = read_file(path);
  const ModelFormat format = detect_model_format(content);
  if (format == ModelFormat::Native) return parse_any_model<T>(content);
  if (format == ModelFormat::XgboostJson) return load_xgboost_json<T>(content);
  if (format == ModelFormat::LightgbmText) {
    return load_lightgbm_text<T>(content);
  }
  return load_sklearn_json<T>(content);
}

template ForestModel<float> load_external_model<float>(const std::string&);
template ForestModel<double> load_external_model<double>(const std::string&);
template ForestModel<float> load_external_model<float>(const std::string&,
                                                       ModelFormat);
template ForestModel<double> load_external_model<double>(const std::string&,
                                                         ModelFormat);

}  // namespace flint::model
