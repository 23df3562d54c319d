// Fuzz target: the native v1/v2 text containers (trees/serialize +
// model/model_io) — the formats `flint-forest convert` writes and `serve`
// hot-swaps, i.e. the bytes most likely to cross a trust boundary.
//
// Ships a structure-aware custom mutator: the containers are line/token
// oriented ("forest v2 3", "n 1 3f800000 1 2 -1 0 -1", "c 2 ff 1"), so
// byte-level mutation mostly yields instant header rejects.  The mutator
// instead swaps whole tokens for boundary values (INT32 extremes, NaN/inf
// bit patterns, lying counts) and duplicates/drops/swaps whole lines,
// which reaches the per-field validation and cross-node link checks.
// libFuzzer picks the LLVMFuzzerCustomMutator symbol up automatically; the
// standalone driver never mutates, but the function still compiles under
// GCC so it cannot rot.
#include "fuzz_common.hpp"

#include <array>
#include <sstream>
#include <string_view>
#include <vector>

#include "model/model_io.hpp"
#include "trees/serialize.hpp"
#include "verify/verify.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text = flint::fuzz::as_string(data, size);
  // v2 path (typed leaves).  Accepted models must verify clean.
  flint::fuzz::guard([&] {
    std::istringstream in(text);
    const auto model = flint::model::read_model<float>(in);
    if (!flint::verify::verify_model(model).ok()) __builtin_trap();
  });
  // The version-sniffing entry every file load takes (load_any_model),
  // over the same bytes.
  flint::fuzz::guard([&] {
    const auto model = flint::model::parse_any_model<float>(text);
    if (!flint::verify::verify_model(model).ok()) __builtin_trap();
  });
  // v1 path (vote forests) plus a bare tree block.
  flint::fuzz::guard([&] {
    std::istringstream in(text);
    (void)flint::trees::read_forest<float>(in);
  });
  flint::fuzz::guard([&] {
    std::istringstream in(text);
    (void)flint::trees::read_tree<float>(in);
  });
  return 0;
}

namespace {

/// Boundary tokens that exercise the count/range/bit-pattern validation:
/// int32 extremes, counts bigger than any line, NaN / +-inf / -0.0 bit
/// patterns, version tags, and a non-token.
constexpr std::array<std::string_view, 14> kInterestingTokens = {
    "0",          "1",        "-1",       "2147483647", "-2147483648",
    "99999999999", "7fc00000", "7f800000", "ff800000",  "80000000",
    "3f800000",   "v1",       "v2",       "x",
};

std::string mutate_lines(const std::string& input, flint::fuzz::Rng& rng) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= input.size()) {
    const std::size_t nl = input.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(input.substr(start));
      break;
    }
    lines.push_back(input.substr(start, nl - start));
    start = nl + 1;
  }
  if (lines.empty()) lines.emplace_back();

  switch (rng.below(4)) {
    case 0: {  // replace one whitespace token with a boundary value
      std::string& line = lines[rng.below(lines.size())];
      std::vector<std::string> tokens;
      std::istringstream ls(line);
      for (std::string t; ls >> t;) tokens.push_back(t);
      if (!tokens.empty()) {
        tokens[rng.below(tokens.size())] =
            kInterestingTokens[rng.below(kInterestingTokens.size())];
        std::string rebuilt;
        for (std::size_t i = 0; i < tokens.size(); ++i) {
          if (i) rebuilt += ' ';
          rebuilt += tokens[i];
        }
        line = rebuilt;
      }
      break;
    }
    case 1:  // duplicate a line (extra node / extra tree block)
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(lines.size())),
                   lines[rng.below(lines.size())]);
      break;
    case 2:  // drop a line (truncated block, count mismatch)
      if (lines.size() > 1) {
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(rng.below(lines.size())));
      }
      break;
    default: {  // swap two lines (out-of-order nodes / headers)
      const std::size_t a = rng.below(lines.size());
      const std::size_t b = rng.below(lines.size());
      std::swap(lines[a], lines[b]);
      break;
    }
  }

  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i) out += '\n';
    out += lines[i];
  }
  return out;
}

}  // namespace

extern "C" std::size_t LLVMFuzzerCustomMutator(std::uint8_t* data,
                                               std::size_t size,
                                               std::size_t max_size,
                                               unsigned int seed) {
  flint::fuzz::Rng rng(seed);
  const std::string mutated =
      mutate_lines(flint::fuzz::as_string(data, size), rng);
  const std::size_t n = mutated.size() < max_size ? mutated.size() : max_size;
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(mutated[i]);
  }
  return n;
}
