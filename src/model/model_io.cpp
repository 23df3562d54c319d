#include "model/model_io.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "trees/serialize.hpp"

namespace flint::model {

namespace {

template <typename T>
using BitsOf = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

template <typename T>
std::string hex_bits(T v) {
  std::ostringstream hex;
  hex << std::hex << static_cast<std::uint64_t>(std::bit_cast<BitsOf<T>>(v));
  return hex.str();
}

template <typename T>
T parse_bits(const trees::LineReader& reader, std::string_view token,
             std::string_view line) {
  return trees::parse_hex_bits<T>(reader, token, line,
                                  [] { return std::string("value bits"); });
}

/// Starts a "<keyword> ..." line, failing with the keyword it wanted and
/// the token it found; returns the tokens after the keyword.
trees::Tokens expect_keyword(const trees::LineReader& reader,
                             std::string_view line, std::string_view keyword) {
  trees::Tokens tokens(line);
  if (const std::string_view tag = tokens.next(); tag != keyword) {
    reader.fail("expected '" + std::string(keyword) + " ...' (near '" +
                    std::string(tag) + "')",
                line);
  }
  return tokens;
}

}  // namespace

template <typename T>
void write_model(std::ostream& out, const ForestModel<T>& model) {
  out << "forest v2 " << model.forest.size() << '\n';
  out << "kind " << to_string(model.leaf_kind) << '\n';
  out << "agg " << to_string(model.aggregation.mode) << '\n';
  out << "link " << to_string(model.aggregation.link) << '\n';
  out << "outputs " << model.n_outputs << '\n';
  // Optional missing-value semantics line; omitted for models without
  // missing support so their v2 files are byte-identical to before.
  if (model.handles_missing) {
    out << "missing 1 " << (model.zero_as_missing ? 1 : 0) << '\n';
  }
  out << "classes "
      << (model.is_vote() ? model.forest.num_classes() : model.num_classes())
      << '\n';
  if (!model.is_vote()) {
    if (!model.aggregation.base_score.empty()) {
      out << "base";
      for (const T v : model.aggregation.base_score) {
        out << ' ' << hex_bits(v);
      }
      out << '\n';
    }
    const auto k = static_cast<std::size_t>(model.n_outputs);
    out << "leaf_values " << model.leaf_rows() << ' ' << k << '\n';
    for (std::size_t r = 0; r < model.leaf_rows(); ++r) {
      out << 'v';
      for (std::size_t j = 0; j < k; ++j) {
        out << ' ' << hex_bits(model.leaf_values[r * k + j]);
      }
      out << '\n';
    }
  }
  for (std::size_t t = 0; t < model.forest.size(); ++t) {
    trees::write_tree(out, model.forest.tree(t));
  }
}

namespace {

/// Parses a v2 container from the reader's next content line on.
template <typename T>
ForestModel<T> read_v2(trees::LineReader& reader) {
  const std::string_view header_line = reader.next();
  trees::Tokens header(header_line);
  std::size_t n_trees = 0;
  if (header.next() != "forest" || header.next() != "v2" ||
      !trees::parse_int(header.next(), n_trees)) {
    reader.fail("expected 'forest v2 <trees>' header", header_line);
  }

  ForestModel<T> model;
  {
    const std::string_view line = reader.next();
    const std::string_view kind = expect_keyword(reader, line, "kind").next();
    if (kind.empty()) reader.fail("missing leaf kind", line);
    try {
      model.leaf_kind = leaf_kind_from_string(kind);
    } catch (const std::invalid_argument& e) {
      reader.fail(e.what(), line);
    }
  }
  {
    const std::string_view line = reader.next();
    const std::string_view mode = expect_keyword(reader, line, "agg").next();
    if (mode.empty()) reader.fail("missing aggregation mode", line);
    try {
      model.aggregation.mode = aggregation_mode_from_string(mode);
    } catch (const std::invalid_argument& e) {
      reader.fail(e.what(), line);
    }
  }
  {
    const std::string_view line = reader.next();
    const std::string_view link = expect_keyword(reader, line, "link").next();
    if (link.empty()) reader.fail("missing link", line);
    try {
      model.aggregation.link = link_from_string(link);
    } catch (const std::invalid_argument& e) {
      reader.fail(e.what(), line);
    }
  }
  int outputs = 0;
  {
    const std::string_view line = reader.next();
    if (!trees::parse_int(expect_keyword(reader, line, "outputs").next(),
                          outputs) ||
        outputs < 0) {
      reader.fail("bad outputs count", line);
    }
    model.n_outputs = outputs;
  }
  int classes = 0;
  {
    std::string_view line = reader.next();
    // Optional `missing <handles> <zero_as_missing>` line (probe-style,
    // like `base` below): absent means the pre-missing default (hard NaN
    // gate at the predictor boundary).
    if (trees::Tokens probe(line); probe.next() == "missing") {
      int handles = 0, zero = 0;
      if (!trees::parse_int(probe.next(), handles) ||
          !trees::parse_int(probe.next(), zero) || handles < 0 ||
          handles > 1 || zero < 0 || zero > 1 || (zero && !handles)) {
        reader.fail("bad missing line (expected 'missing 0|1 0|1')", line);
      }
      model.handles_missing = handles != 0;
      model.zero_as_missing = zero != 0;
      line = reader.next();
    }
    if (!trees::parse_int(expect_keyword(reader, line, "classes").next(),
                          classes) ||
        classes < 0) {
      reader.fail("bad classes count", line);
    }
  }

  std::size_t rows = 0;
  if (model.leaf_kind != LeafKind::ClassId) {
    std::string_view line = reader.next();
    if (trees::Tokens probe(line); probe.next() == "base") {
      for (std::string_view tok = probe.next(); !tok.empty();
           tok = probe.next()) {
        model.aggregation.base_score.push_back(
            parse_bits<T>(reader, tok, line));
      }
      if (model.aggregation.base_score.size() !=
          static_cast<std::size_t>(outputs)) {
        reader.fail("base line has " +
                        std::to_string(model.aggregation.base_score.size()) +
                        " values, expected " + std::to_string(outputs),
                    line);
      }
      line = reader.next();
    }
    trees::Tokens ls = expect_keyword(reader, line, "leaf_values");
    std::size_t k = 0;
    if (!trees::parse_int(ls.next(), rows) || !trees::parse_int(ls.next(), k) ||
        k != static_cast<std::size_t>(outputs) || rows == 0) {
      reader.fail("bad leaf_values header (expected 'leaf_values <rows> " +
                      std::to_string(outputs) + "')",
                  line);
    }
    if (rows > static_cast<std::size_t>(0x7FFF'FFFF)) {
      reader.fail("leaf-value table too large (rows must fit int32)", line);
    }
    // Untrusted counts: rows fits int32 (checked above) but k is only
    // gated >= 0, so rows * k can approach 2^62 — reserve a clamped hint
    // (push_back grows geometrically) instead of pre-committing it.
    model.leaf_values.reserve(std::min(rows * k, std::size_t{1} << 20));
    for (std::size_t r = 0; r < rows; ++r) {
      const std::string_view vline = reader.next();
      trees::Tokens vs(vline);
      if (const std::string_view vtag = vs.next(); vtag != "v") {
        reader.fail("expected leaf-value row " + std::to_string(r) +
                        " (near '" + std::string(vtag) + "')",
                    vline);
      }
      for (std::size_t j = 0; j < k; ++j) {
        const std::string_view tok = vs.next();
        if (tok.empty()) {
          reader.fail("leaf-value row " + std::to_string(r) + " has fewer "
                          "than " + std::to_string(k) + " values",
                      vline);
        }
        model.leaf_values.push_back(parse_bits<T>(reader, tok, vline));
      }
    }
  }

  std::vector<trees::Tree<T>> forest_trees;
  forest_trees.reserve(std::min(n_trees, std::size_t{4096}));
  for (std::size_t t = 0; t < n_trees; ++t) {
    forest_trees.push_back(trees::read_tree<T>(reader));
  }
  const int structural_classes =
      model.leaf_kind == LeafKind::ClassId ? classes : static_cast<int>(rows);
  model.forest =
      trees::Forest<T>(std::move(forest_trees), structural_classes);

  if (const std::string err = model.validate(); !err.empty()) {
    throw std::runtime_error("model: invalid v2 container: " + err);
  }
  if (classes != model.num_classes()) {
    throw std::runtime_error(
        "model: v2 header declares " + std::to_string(classes) +
        " classes but the aggregation derives " +
        std::to_string(model.num_classes()));
  }
  return model;
}

}  // namespace

template <typename T>
ForestModel<T> read_model(std::istream& in) {
  trees::LineReader reader(in);
  return read_v2<T>(reader);
}

template <typename T>
void save_model(const std::string& path, const ForestModel<T>& model) {
  if (const std::string err = model.validate(); !err.empty()) {
    throw std::runtime_error("model: refusing to save invalid model: " + err);
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("model: cannot open '" + path + "' for writing");
  }
  write_model(out, model);
  if (!out) throw std::runtime_error("model: write failure on '" + path + "'");
}

template <typename T>
ForestModel<T> load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("model: cannot open '" + path + "'");
  return read_model<T>(in);
}

namespace {

/// The version sniff and parse behind parse_any_model and load_any_model.
template <typename T>
ForestModel<T> read_any(trees::LineReader& reader) {
  // The first content line's second token decides v1 (bare forest) vs v2;
  // peek leaves that line for the parser, so numbering stays physical.
  std::string_view version;
  if (std::string_view line; reader.peek(line)) {
    trees::Tokens tokens(line);
    (void)tokens.next();
    version = tokens.next();
  }
  if (version == "v2") return read_v2<T>(reader);
  ForestModel<T> model = from_vote_forest(trees::read_forest<T>(reader));
  if (const std::string err = model.validate(); !err.empty()) {
    throw std::runtime_error("model: invalid v1 forest: " + err);
  }
  return model;
}

}  // namespace

template <typename T>
ForestModel<T> parse_any_model(std::string_view text) {
  trees::LineReader reader(text);
  return read_any<T>(reader);
}

template <typename T>
ForestModel<T> load_any_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("model: cannot open '" + path + "'");
  trees::LineReader reader(in);
  return read_any<T>(reader);
}

template void write_model<float>(std::ostream&, const ForestModel<float>&);
template void write_model<double>(std::ostream&, const ForestModel<double>&);
template ForestModel<float> read_model<float>(std::istream&);
template ForestModel<double> read_model<double>(std::istream&);
template void save_model<float>(const std::string&, const ForestModel<float>&);
template void save_model<double>(const std::string&, const ForestModel<double>&);
template ForestModel<float> load_model<float>(const std::string&);
template ForestModel<double> load_model<double>(const std::string&);
template ForestModel<float> parse_any_model<float>(std::string_view);
template ForestModel<double> parse_any_model<double>(std::string_view);
template ForestModel<float> load_any_model<float>(const std::string&);
template ForestModel<double> load_any_model<double>(const std::string&);

}  // namespace flint::model
