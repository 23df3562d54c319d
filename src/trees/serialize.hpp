// trees/serialize — exact text serialization of trees and forests.
//
// Split values are stored as hexadecimal bit patterns, not decimal, so the
// round trip is bit-exact; this matters because FLInt's threshold encoding
// and the generated immediates are functions of the exact bits.
//
// v1 format (line-oriented, '#' comments allowed):
//   forest v1 <num_classes> <n_trees>
//   tree <feature_count> <n_nodes>
//   cats <n_slots>                       (optional; categorical trees only)
//   c <n_words> <word_hex> ...           (one line per category-set slot)
//   n <feature> <split_bits_hex> <left> <right> <prediction> [<flags> <cat_slot>]
//
// The trailing <flags> <cat_slot> pair (missing-value default direction,
// categorical membership) is written only for trees that carry such
// semantics, so files of plain trees are byte-identical to the original
// 5-field format.
//
// The v2 container (typed leaves + aggregation + leaf-value table) wraps
// the same tree blocks; it lives in model/model_io.hpp because it carries a
// model::ForestModel.  load_forest on a v2 file fails with a message
// pointing there.
//
// Both containers parse through one LineReader, which hands out lines as
// views into its buffer; Tokens splits a line, integers go through
// std::from_chars and bit patterns through parse_hex_bits.  The exact token
// grammar is in docs/MODEL_FORMATS.md.  Parse errors throw
// std::runtime_error carrying the 1-based line number and the offending
// token, e.g.
//   serialize: line 7: bad node line (near 'xyz'): "n 3 xyz 1 2 -1"
#pragma once

#include <bit>
#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

#include "trees/forest.hpp"
#include "trees/tree.hpp"

namespace flint::trees {

/// Line cursor over a container's text, shared by the v1 forest parser and
/// the v2 model parser (model/model_io.cpp): skips blank lines and lines
/// whose first non-blank character is '#', strips one trailing '\r',
/// tracks the 1-based physical number of the last line handed out, and
/// formats every parse failure with that position.  It reads either a
/// whole text in memory or a stream, once, in fixed chunks that carry a
/// partial line over.  A returned line stays valid until the next call.
class LineReader {
 public:
  explicit LineReader(std::string_view text) noexcept : rest_(text) {}
  explicit LineReader(std::istream& in) noexcept : in_(&in) {}
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  /// Next content line; throws via fail() at end of input.
  [[nodiscard]] std::string_view next();

  /// True and sets `line` when another content line exists; false at EOF.
  [[nodiscard]] bool try_next(std::string_view& line);

  /// try_next without consuming the content line it returns.
  [[nodiscard]] bool peek(std::string_view& line);

  /// Bytes not yet read as far as the input can tell (a pipe may hold
  /// more); bounds what an untrusted count may reserve.
  [[nodiscard]] std::size_t bytes_left() const;

  /// Throws std::runtime_error as "serialize: line <n>: <what>"; pass the
  /// offending line text to append it (truncated) for context.
  [[noreturn]] void fail(const std::string& what,
                         std::string_view line = {}) const;

 private:
  /// Moves the partial line to the front of the buffer and appends the
  /// next chunk; clears in_ at end of input.
  void refill();

  std::istream* in_ = nullptr;
  std::string buffer_;
  std::string_view rest_;
  std::size_t line_no_ = 0;
};

/// The whitespace-separated tokens of one line, in order.  Whitespace is the
/// C locale's set (space, \t, \v, \f, \r).
class Tokens {
 public:
  explicit Tokens(std::string_view line) noexcept
      : pos_(line.data()), end_(line.data() + line.size()) {}

  /// The next token; empty when the line has no more.
  [[nodiscard]] std::string_view next() noexcept {
    while (pos_ != end_ && is_space(*pos_)) ++pos_;
    const char* const start = pos_;
    while (pos_ != end_ && !is_space(*pos_)) ++pos_;
    return {start, static_cast<std::size_t>(pos_ - start)};
  }

 private:
  static bool is_space(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }
  const char* pos_;
  const char* end_;
};

/// Parses a whole token as a decimal integer (optional '-' for signed
/// types, no '+', no trailing characters, in range).
template <typename I>
[[nodiscard]] bool parse_int(std::string_view token, I& value) noexcept {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc{} && ptr == end;
}

/// Parses one hexadecimal bit-pattern token (the storage form of every
/// floating-point payload in v1 and v2 files) into T's exact bits: 1–8
/// digits for float, 1–16 for double, either case, no prefix or sign.
/// Fails through `reader`, so the message carries the line number, what()
/// (a callable, so the success path builds no string) and the token.
template <typename T, typename What>
[[nodiscard]] T parse_hex_bits(const LineReader& reader, std::string_view token,
                               std::string_view line, const What& what) {
  using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  std::uint64_t bits = 0;
  bool ok = !token.empty() && token.size() <= 16;
  for (std::size_t i = 0; ok && i < token.size(); ++i) {
    const char c = token[i];
    const char lower = static_cast<char>(c | 0x20);
    if (c >= '0' && c <= '9') {
      bits = bits << 4 | static_cast<std::uint64_t>(c - '0');
    } else if (lower >= 'a' && lower <= 'f') {
      bits = bits << 4 | static_cast<std::uint64_t>(lower - 'a' + 10);
    } else {
      ok = false;
    }
  }
  if (!ok) {
    reader.fail("bad " + what() + " (near '" + std::string(token) + "')", line);
  }
  if (token.size() > 2 * sizeof(T)) {
    reader.fail(what() + " '" + std::string(token) + "' exceeds 32 bits", line);
  }
  return std::bit_cast<T>(static_cast<Bits>(bits));
}

template <typename T>
void write_tree(std::ostream& out, const Tree<T>& tree);

/// The std::istream forms read `in` through a LineReader, to the end of
/// the block they parse or a little past it.
template <typename T>
[[nodiscard]] Tree<T> read_tree(std::istream& in);

/// Reader-based form used by multi-section parsers (read_forest, the v2
/// model container) so line numbers stay correct across blocks.
template <typename T>
[[nodiscard]] Tree<T> read_tree(LineReader& reader);

template <typename T>
void write_forest(std::ostream& out, const Forest<T>& forest);

template <typename T>
[[nodiscard]] Forest<T> read_forest(std::istream& in);

/// Parses a v1 forest from the reader's next content line on.
template <typename T>
[[nodiscard]] Forest<T> read_forest(LineReader& reader);

/// Convenience file wrappers; throw std::runtime_error on I/O failure or
/// malformed content (including structurally invalid trees, which are
/// rejected via Tree::validate()).  load_forest reads the file once, so a
/// pipe works.
template <typename T>
void save_forest(const std::string& path, const Forest<T>& forest);

template <typename T>
[[nodiscard]] Forest<T> load_forest(const std::string& path);

}  // namespace flint::trees
