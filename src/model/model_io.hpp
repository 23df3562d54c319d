// model/model_io — the v2 text container for ForestModel, and the one
// loader every consumer (CLI, serve, tests) goes through.
//
// v2 format (line-oriented, '#' comments allowed; all floating-point
// payloads are hexadecimal bit patterns of the model's scalar T, so the
// round trip is bit-exact exactly like v1):
//
//   forest v2 <n_trees>
//   kind class|vector|scalar
//   agg vote|sum
//   link none|sigmoid|softmax
//   outputs <k>                  # 0 for kind class
//   classes <num_classes>        # classification classes; 0 = regression
//   base <hex> ... <hex>         # k values; omitted when base_score is empty
//   leaf_values <rows> <k>       # score kinds only
//   v <hex> ... <hex>            # one row per line, k values
//   tree ...                     # n_trees v1 tree blocks; leaf payload =
//   n ...                        # class id (kind class) or row index
//
// A v1 file IS a valid model: load_any_model wraps it as a majority-vote
// ClassId model, so every pre-v2 artifact keeps working unchanged.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "model/forest_model.hpp"

namespace flint::model {

template <typename T>
void write_model(std::ostream& out, const ForestModel<T>& model);

template <typename T>
[[nodiscard]] ForestModel<T> read_model(std::istream& in);

/// File wrappers; throw std::runtime_error on I/O failure or content the
/// v2 parser (or ForestModel::validate) rejects.
template <typename T>
void save_model(const std::string& path, const ForestModel<T>& model);

template <typename T>
[[nodiscard]] ForestModel<T> load_model(const std::string& path);

/// Version-sniffing parser: reads "forest v1 ..." text as a majority-vote
/// model and "forest v2 ..." containers natively, deciding by the first
/// content line's version token.
template <typename T>
[[nodiscard]] ForestModel<T> parse_any_model(std::string_view text);

/// parse_any_model over a file, read once (so a pipe or FIFO works).  This
/// is what the CLI's predict/serve/inspect commands use, so both
/// generations of artifacts flow through one code path.
template <typename T>
[[nodiscard]] ForestModel<T> load_any_model(const std::string& path);

extern template void write_model<float>(std::ostream&, const ForestModel<float>&);
extern template void write_model<double>(std::ostream&, const ForestModel<double>&);
extern template ForestModel<float> read_model<float>(std::istream&);
extern template ForestModel<double> read_model<double>(std::istream&);
extern template void save_model<float>(const std::string&, const ForestModel<float>&);
extern template void save_model<double>(const std::string&, const ForestModel<double>&);
extern template ForestModel<float> load_model<float>(const std::string&);
extern template ForestModel<double> load_model<double>(const std::string&);
extern template ForestModel<float> parse_any_model<float>(std::string_view);
extern template ForestModel<double> parse_any_model<double>(std::string_view);
extern template ForestModel<float> load_any_model<float>(const std::string&);
extern template ForestModel<double> load_any_model<double>(const std::string&);

}  // namespace flint::model
