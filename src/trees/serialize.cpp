#include "trees/serialize.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

namespace flint::trees {

namespace {

template <typename T>
using BitsOf = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

/// The shortest node line, "n 0 0 0 0 0\n": bounds how many nodes the bytes
/// left can still hold, so an untrusted node count reserves no more.
constexpr std::size_t kMinNodeLineBytes = 12;

}  // namespace

std::string_view LineReader::next() {
  std::string_view line;
  if (!try_next(line)) {
    fail("unexpected end of input");
  }
  return line;
}

bool LineReader::try_next(std::string_view& line) {
  for (;;) {
    std::size_t nl = rest_.find('\n');
    while (nl == std::string_view::npos && in_ != nullptr) {
      const std::size_t scanned = rest_.size();
      refill();
      nl = rest_.find('\n', scanned);
    }
    if (rest_.empty()) return false;
    std::string_view l = rest_.substr(0, nl);
    rest_.remove_prefix(nl == std::string_view::npos ? rest_.size() : nl + 1);
    ++line_no_;
    if (!l.empty() && l.back() == '\r') l.remove_suffix(1);
    std::size_t i = 0;
    while (i < l.size() && (l[i] == ' ' || l[i] == '\t')) ++i;
    if (i < l.size() && l[i] != '#') {
      line = l;
      return true;
    }
  }
}

bool LineReader::peek(std::string_view& line) {
  if (!try_next(line)) return false;
  // try_next refills only before it cuts a line, so the line still starts
  // inside the unread span it was cut from.
  rest_ = {line.data(),
           static_cast<std::size_t>(rest_.data() + rest_.size() - line.data())};
  --line_no_;
  return true;
}

void LineReader::refill() {
  // 64 KiB stays below malloc's mmap threshold; a longer line grows it.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  const std::size_t carry = rest_.size();
  if (carry > 0) std::memmove(buffer_.data(), rest_.data(), carry);
  buffer_.resize(std::max(buffer_.size(), carry + kChunk));
  in_->read(buffer_.data() + carry,
            static_cast<std::streamsize>(buffer_.size() - carry));
  const auto got = static_cast<std::size_t>(in_->gcount());
  if (in_->bad()) fail("read error");
  if (carry + got < buffer_.size()) in_ = nullptr;
  rest_ = {buffer_.data(), carry + got};
}

std::size_t LineReader::bytes_left() const {
  const std::streamsize unread = in_ ? in_->rdbuf()->in_avail() : 0;
  return rest_.size() +
         static_cast<std::size_t>(std::max<std::streamsize>(unread, 0));
}

void LineReader::fail(const std::string& what, std::string_view line) const {
  std::string msg = "serialize: line " + std::to_string(line_no_) + ": " + what;
  if (!line.empty()) {
    constexpr std::size_t kMaxContext = 60;
    msg += ": \"";
    msg += line.substr(0, kMaxContext);
    if (line.size() > kMaxContext) msg += "...";
    msg += "\"";
  }
  throw std::runtime_error(msg);
}

template <typename T>
void write_tree(std::ostream& out, const Tree<T>& tree) {
  out << "tree " << tree.feature_count() << ' ' << tree.size() << '\n';
  // Trees with missing/categorical semantics write the extended node form
  // (trailing <flags> <cat_slot>) plus a `cats` block; plain trees keep the
  // legacy 5-field lines so old files and new files of old models are
  // byte-identical.
  const bool special = tree.has_special_splits() || tree.cat_slot_count() > 0;
  if (special && tree.cat_slot_count() > 0) {
    out << "cats " << tree.cat_slot_count() << '\n';
    for (std::int32_t s = 0; s < tree.cat_slot_count(); ++s) {
      const auto words = tree.cat_set(s);
      out << "c " << words.size();
      for (const std::uint32_t w : words) {
        std::ostringstream hex;
        hex << std::hex << w;
        out << ' ' << hex.str();
      }
      out << '\n';
    }
  }
  for (const auto& n : tree.nodes()) {
    std::ostringstream hex;
    hex << std::hex << static_cast<std::uint64_t>(std::bit_cast<BitsOf<T>>(n.split));
    out << "n " << n.feature << ' ' << hex.str() << ' ' << n.left << ' '
        << n.right << ' ' << n.prediction;
    if (special) {
      out << ' ' << static_cast<int>(n.flags) << ' ' << n.cat_slot;
    }
    out << '\n';
  }
}

template <typename T>
Tree<T> read_tree(LineReader& reader) {
  const std::string_view header_line = reader.next();
  Tokens header(header_line);
  const std::string_view tag = header.next();
  if (tag != "tree") {
    reader.fail("expected 'tree <features> <nodes>' header (near '" +
                    std::string(tag) + "')",
                header_line);
  }
  const std::string_view features_token = header.next();
  const std::string_view nodes_token = header.next();
  std::size_t feature_count = 0;
  std::size_t n_nodes = 0;
  if (!parse_int(features_token, feature_count) ||
      !parse_int(nodes_token, n_nodes)) {
    reader.fail("bad tree header counts (near '" + std::string(features_token) +
                    " " + std::string(nodes_token) + "')",
                header_line);
  }
  Tree<T> tree(feature_count);
  // The header count is untrusted: reserve no more nodes than the bytes
  // left could hold.
  tree.reserve(std::min(n_nodes, reader.bytes_left() / kMinNodeLineBytes));
  const auto parse_node_line = [&](std::string_view line, std::size_t i) {
    Tokens fields(line);
    const std::string_view ntag = fields.next();
    if (ntag != "n") {
      reader.fail("expected node " + std::to_string(i) + " (near '" +
                      std::string(ntag) + "')",
                  line);
    }
    // Typed fields in order: int, hex token, int, int, int; the first one
    // that does not parse is named.
    const auto bad_field = [&](std::string_view token) {
      reader.fail("bad node line (near '" + std::string(token) + "')", line);
    };
    Node<T> node;
    std::string_view token = fields.next();
    if (!parse_int(token, node.feature)) bad_field(token);
    const std::string_view hex = fields.next();
    if (hex.empty()) bad_field(hex);
    for (std::int32_t* field : {&node.left, &node.right, &node.prediction}) {
      token = fields.next();
      if (!parse_int(token, *field)) bad_field(token);
    }
    // Optional extended fields (missing/categorical semantics): a trailing
    // `<flags> <cat_slot>` pair.  Legacy 5-field lines default to 0 / -1.
    if (const std::string_view flags_token = fields.next();
        !flags_token.empty()) {
      int flags = 0;
      if (!parse_int(flags_token, flags) ||
          !parse_int(fields.next(), node.cat_slot) || flags < 0 ||
          flags > (kNodeDefaultLeft | kNodeCategorical)) {
        reader.fail("bad node flags on node " + std::to_string(i), line);
      }
      node.flags = static_cast<std::uint8_t>(flags);
    }
    node.split = parse_hex_bits<T>(reader, hex, line, [i] {
      return "split bits on node " + std::to_string(i);
    });
    tree.add_node(node);
  };
  std::size_t first_node = 0;
  if (n_nodes > 0) {
    // The optional `cats` block sits between the tree header and node 0;
    // probe the first content line and fall through when it is node 0.
    const std::string_view line = reader.next();
    Tokens cats(line);
    if (cats.next() == "cats") {
      const std::string_view slots_token = cats.next();
      std::size_t n_slots = 0;
      if (!parse_int(slots_token, n_slots) || n_slots == 0) {
        reader.fail("bad cats header (near '" + std::string(slots_token) + "')",
                    line);
      }
      std::vector<std::uint32_t> words;
      for (std::size_t s = 0; s < n_slots; ++s) {
        const std::string_view cline = reader.next();
        Tokens cs(cline);
        const std::string_view ctag = cs.next();
        std::size_t n_words = 0;
        if (!parse_int(cs.next(), n_words) || ctag != "c" || n_words == 0) {
          reader.fail("bad category-set line for slot " + std::to_string(s),
                      cline);
        }
        // Allocation bound: every word is a whitespace-separated token on
        // THIS line, so a count exceeding the line length is a lie — reject
        // it before sizing the vector (a hostile "c 99999999999" must not
        // allocate gigabytes just to fail token-by-token later).
        if (n_words > cline.size()) {
          reader.fail("category-set word count " + std::to_string(n_words) +
                          " exceeds line length",
                      cline);
        }
        words.resize(n_words);
        for (std::size_t w = 0; w < n_words; ++w) {
          const std::string_view token = cs.next();
          if (token.empty()) {
            reader.fail("category set slot " + std::to_string(s) + " has " +
                            std::to_string(w) + " words, expected " +
                            std::to_string(n_words),
                        cline);
          }
          words[w] = std::bit_cast<std::uint32_t>(
              parse_hex_bits<float>(reader, token, cline, [s] {
                return "category word on slot " + std::to_string(s);
              }));
        }
        tree.add_cat_set(words);
      }
    } else {
      parse_node_line(line, 0);
      first_node = 1;
    }
  }
  for (std::size_t i = first_node; i < n_nodes; ++i) {
    parse_node_line(reader.next(), i);
  }
  if (const std::string err = tree.validate(); !err.empty()) {
    reader.fail("invalid tree: " + err);
  }
  return tree;
}

template <typename T>
Tree<T> read_tree(std::istream& in) {
  LineReader reader(in);
  return read_tree<T>(reader);
}

template <typename T>
void write_forest(std::ostream& out, const Forest<T>& forest) {
  out << "forest v1 " << forest.num_classes() << ' ' << forest.size() << '\n';
  for (std::size_t t = 0; t < forest.size(); ++t) {
    write_tree(out, forest.tree(t));
  }
}

template <typename T>
Forest<T> read_forest(LineReader& reader) {
  const std::string_view header_line = reader.next();
  Tokens header(header_line);
  const std::string_view tag = header.next();
  const std::string_view version = header.next();
  if (tag != "forest" || version.empty()) {
    reader.fail("expected 'forest v1 <classes> <trees>' header (near '" +
                    std::string(tag) + "')",
                header_line);
  }
  if (version == "v2") {
    reader.fail(
        "this is a v2 model container (typed leaves); load it with "
        "model::load_model / load_any_model, not trees::load_forest");
  }
  if (version != "v1") {
    reader.fail("unsupported forest version '" + std::string(version) + "'",
                header_line);
  }
  const std::string_view classes_token = header.next();
  const std::string_view trees_token = header.next();
  int num_classes = 0;
  std::size_t n_trees = 0;
  if (!parse_int(classes_token, num_classes) ||
      !parse_int(trees_token, n_trees)) {
    reader.fail("bad forest header counts (near '" +
                    std::string(classes_token) + " " +
                    std::string(trees_token) + "')",
                header_line);
  }
  std::vector<Tree<T>> trees;
  // The header count is untrusted: reserve only a clamped hint (push_back
  // grows geometrically past it) so "forest v1 2 99999999999" cannot
  // pre-commit memory it never backs with tree blocks.
  trees.reserve(std::min(n_trees, std::size_t{4096}));
  for (std::size_t t = 0; t < n_trees; ++t) {
    trees.push_back(read_tree<T>(reader));
    // Tree::validate cannot see the forest-level class count, but every
    // engine family — interpreters, compact layouts, and generated jit code —
    // indexes a num_classes-wide vote array by leaf class ids without a
    // hot-path bounds check, so a header that understates num_classes must
    // be rejected here.
    for (const auto& n : trees.back().nodes()) {
      if (n.is_leaf() && n.prediction >= num_classes) {
        reader.fail("tree " + std::to_string(t) + ": leaf class " +
                    std::to_string(n.prediction) + " out of range for " +
                    std::to_string(num_classes) + " classes");
      }
    }
  }
  return Forest<T>(std::move(trees), num_classes);
}

template <typename T>
Forest<T> read_forest(std::istream& in) {
  LineReader reader(in);
  return read_forest<T>(reader);
}

template <typename T>
void save_forest(const std::string& path, const Forest<T>& forest) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("serialize: cannot open '" + path +
                             "' for writing");
  }
  write_forest(out, forest);
  if (!out) throw std::runtime_error("serialize: write failure on '" + path + "'");
}

template <typename T>
Forest<T> load_forest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("serialize: cannot open '" + path + "'");
  return read_forest<T>(in);
}

template void write_tree<float>(std::ostream&, const Tree<float>&);
template void write_tree<double>(std::ostream&, const Tree<double>&);
template Tree<float> read_tree<float>(std::istream&);
template Tree<double> read_tree<double>(std::istream&);
template Tree<float> read_tree<float>(LineReader&);
template Tree<double> read_tree<double>(LineReader&);
template void write_forest<float>(std::ostream&, const Forest<float>&);
template void write_forest<double>(std::ostream&, const Forest<double>&);
template Forest<float> read_forest<float>(std::istream&);
template Forest<double> read_forest<double>(std::istream&);
template Forest<float> read_forest<float>(LineReader&);
template Forest<double> read_forest<double>(LineReader&);
template void save_forest<float>(const std::string&, const Forest<float>&);
template void save_forest<double>(const std::string&, const Forest<double>&);
template Forest<float> load_forest<float>(const std::string&);
template Forest<double> load_forest<double>(const std::string&);

}  // namespace flint::trees
