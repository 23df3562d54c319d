#include "codegen/cgen_layout.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/flint.hpp"

namespace flint::codegen {
namespace {

using exec::layout::CompactForest;
using exec::layout::CompactNode16;

template <typename T>
class LayoutGen {
 public:
  using S = typename core::FloatTraits<T>::Signed;
  using U = std::make_unsigned_t<S>;

  LayoutGen(const CompactForest<T, CompactNode16>& image,
            const exec::layout::LayoutPlan& plan, const LayoutCGenSpec<T>& spec,
            const LayoutCGenOptions& opt)
      : image_(image), plan_(plan), spec_(spec), opt_(opt), prefix_(opt.prefix) {}

  GeneratedCode run() {
    validate();
    classify_trees();
    size_tile();
    CodeWriter w;
    CGenOptions copt;
    copt.prefix = prefix_;
    copt.flint = true;
    emit_c_prologue<T>(w, copt);
    if (walker_needed_ || step_needed_) emit_noinline_macro(w);
    emit_node_array(w);
    if (walker_needed_) emit_walker(w);
    if (step_needed_) emit_bf_step(w);
    emit_complete_tables(w);
    if (!spec_.vote) emit_score_tables(w);
    if (cats_) emit_cat_words(w);
    if (step_needed_) emit_step_tree_fn(w);  // writes back via _leaf
    emit_tree_functions(w);
    emit_batch_driver(w);
    if (spec_.vote) emit_classify_wrapper(w);
    GeneratedCode code;
    code.files.push_back({prefix_ + "_layout.c", w.take()});
    code.classify_symbol =
        spec_.vote ? prefix_ + "_classify" : prefix_ + "_accumulate_scores";
    code.flavor = "layout";
    return code;
  }

 private:
  static constexpr int kBits = static_cast<int>(core::FloatTraits<T>::bits);

  void validate() const {
    if (image_.nodes.empty() || image_.roots.empty()) {
      throw std::invalid_argument("generate_layout: empty compact image");
    }
    if (spec_.vote) {
      if (spec_.num_classes <= 0) {
        throw std::invalid_argument("generate_layout: vote spec needs classes");
      }
    } else {
      if (spec_.n_outputs == 0 || spec_.leaf_values.empty() ||
          spec_.leaf_values.size() % spec_.n_outputs != 0) {
        throw std::invalid_argument(
            "generate_layout: score spec needs a rows x n_outputs leaf table");
      }
    }
  }

  // ---- image queries ------------------------------------------------------

  static bool is_leaf(const CompactNode16& n) { return n.right_off < 0; }

  /// Radix key of a numeric inner node, at full scalar width (rank-narrowed
  /// images widen through their key tables; identity images carry it raw).
  S radix_of(const CompactNode16& n) const {
    if (image_.identity_keys) return static_cast<S>(n.key);
    const auto& table =
        image_.tables.features[static_cast<std::size_t>(n.feature)];
    return table.keys()[static_cast<std::size_t>(n.key)];
  }

  /// The radix map is an involution on signed-int encodings: applying it to
  /// a radix key recovers the split's si bits.
  static S si_of_radix(S k) {
    const U flip = static_cast<U>(static_cast<U>(k >> (kBits - 1)) >> 1);
    return static_cast<S>(static_cast<U>(k) ^ flip);
  }

  /// Edge-count depth of the deepest leaf under `root` — the padded trip
  /// count of the branch-free descent (leaves self-loop, so overshooting a
  /// shallow leaf is harmless).
  std::size_t subtree_depth(std::int32_t root) const {
    std::size_t best = 0;
    std::vector<std::pair<std::int32_t, std::size_t>> stack{{root, 0}};
    while (!stack.empty()) {
      const auto [i, d] = stack.back();
      stack.pop_back();
      const auto& n = image_.nodes[static_cast<std::size_t>(i)];
      if (is_leaf(n)) {
        best = std::max(best, d);
        continue;
      }
      stack.push_back({i + 1, d + 1});
      stack.push_back({i + n.right_off, d + 1});
    }
    return best;
  }

  std::size_t subtree_size(std::int32_t root) const {
    std::size_t count = 0;
    std::vector<std::int32_t> stack{root};
    while (!stack.empty()) {
      const std::int32_t i = stack.back();
      stack.pop_back();
      ++count;
      const auto& n = image_.nodes[static_cast<std::size_t>(i)];
      if (!is_leaf(n)) {
        stack.push_back(i + 1);
        stack.push_back(i + n.right_off);
      }
    }
    return count;
  }

  // ---- text helpers -------------------------------------------------------

  static std::string int_lit(S v) {
    if (v == std::numeric_limits<S>::min()) {
      return "(" + std::to_string(std::numeric_limits<S>::min() + 1) + " - 1)";
    }
    return std::to_string(v);
  }

  static std::string hex_u(U v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf) + (sizeof(S) == 4 ? "u" : "ull");
  }

  std::string score_lit(T v) const {
    if (std::isnan(static_cast<double>(v))) {
      return sizeof(T) == 4 ? "__builtin_nanf(\"\")" : "__builtin_nan(\"\")";
    }
    if (std::isinf(static_cast<double>(v))) {
      const char* inf = sizeof(T) == 4 ? "__builtin_inff()" : "__builtin_inf()";
      return v < T{0} ? std::string("-") + inf : std::string(inf);
    }
    return c_float_literal(v);
  }

  const char* scalar() const { return c_scalar_name<T>(); }
  const char* int_type() const { return core::FloatTraits<T>::c_int_type; }
  const char* uint_type() const {
    return sizeof(S) == 4 ? "uint32_t" : "uint64_t";
  }

  /// Condition text routing a sample LEFT at inner node `i`.  Special
  /// forests consult the per-sample NaN mask before EVERY numeric compare —
  /// a bare si-compare would route negative-NaN bit patterns left.
  std::string node_cond(const CompactNode16& n) const {
    const std::string f = std::to_string(n.feature);
    const char* dl = node_default_left(n) ? "1" : "0";
    if (node_categorical(n)) {
      return std::string("nan[") + f + "] ? " + dl + " : mem[" +
             std::to_string(n.key) + "]";
    }
    const T split = core::from_si_bits<T>(si_of_radix(radix_of(n)));
    const auto enc = core::encode_threshold_le(split);
    const std::string cmp = core::to_c_expression(
        enc, prefix_ + "_ld(px + " + f + ")");
    if (!special_) return cmp;
    return std::string("nan[") + f + "] ? " + dl + " : " + cmp;
  }

  // ---- planning -----------------------------------------------------------

  void classify_trees() {
    special_ = image_.has_special;
    cats_ = image_.cat_slot_count() > 0;
    cols_ = image_.feature_count;
    slots_ = image_.cat_slot_count();
    // Two-class vote models tally one byte per sample (count of class-1
    // votes) instead of a per-class row; argmax folds to one compare whose
    // tie falls to class 0, matching lowest-id-wins.
    binary_vote_ =
        spec_.vote && spec_.num_classes == 2 && image_.roots.size() <= 255;
    const std::size_t trees = image_.roots.size();
    unrolled_.assign(trees, 0);
    complete_.assign(trees, 0);
    depths_.assign(trees, 0);
    std::size_t total = 0;
    std::size_t slots_total = 0;
    for (std::size_t t = 0; t < trees; ++t) {
      depths_[t] = subtree_depth(image_.roots[t]);
      const std::size_t sz = subtree_size(image_.roots[t]);
      if (sz <= opt_.per_tree_unroll_nodes &&
          total + sz <= opt_.total_unroll_nodes) {
        unrolled_[t] = 1;
        total += sz;
      } else {
        walker_needed_ = true;
      }
      const std::size_t slots = std::size_t{1} << depths_[t];
      if (!special_ && !cats_ && depths_[t] >= 1 &&
          depths_[t] <= opt_.complete_depth_max &&
          slots_total + slots <= opt_.complete_total_slots) {
        complete_[t] = 1;
        slots_total += slots;
      } else {
        step_needed_ = true;
      }
    }
  }

  void size_tile() {
    tile_ = opt_.tile != 0 ? opt_.tile : plan_.block_size;
    if (tile_ == 0) tile_ = 64;
    std::size_t per_sample = 0;
    if (binary_vote_) {
      per_sample += 1;
    } else if (spec_.vote) {
      per_sample += static_cast<std::size_t>(spec_.num_classes) * 4;
    }
    per_sample += cols_ * sizeof(S);  // radix keys (branch-free body)
    if (special_) per_sample += cols_;
    if (cats_) per_sample += slots_;
    per_sample = std::max<std::size_t>(per_sample, 1);
    while (tile_ > 4 && tile_ * per_sample > opt_.stack_budget_bytes) {
      tile_ /= 2;
    }
  }

  // ---- module pieces ------------------------------------------------------

  /// Compact image with keys widened to radix width.  Leaves carry their
  /// payload in `key` and step offsets of zero in both directions so the
  /// padded branch-free descent self-loops once it lands on one; aux packs
  /// default-left (bit 0), categorical (bit 1), and inner-node (bit 2) —
  /// bit 2 doubles as the LEFT step amount.
  void emit_node_array(CodeWriter& w) {
    w.line("/* compact image, keys widened to radix width */");
    w.line("typedef struct { " + std::string(int_type()) +
           " key; int32_t right_off; int32_t feature; int32_t aux; } " +
           prefix_ + "_node_t;");
    w.open("static const " + prefix_ + "_node_t " + prefix_ + "_nodes[" +
           std::to_string(image_.nodes.size()) + "] = {");
    std::string row;
    for (std::size_t i = 0; i < image_.nodes.size(); ++i) {
      const auto& n = image_.nodes[i];
      std::string key;
      std::int32_t right = 0;
      std::int32_t feature = 0;
      std::int32_t aux = 0;
      if (is_leaf(n)) {
        key = std::to_string(n.key);
      } else if (node_categorical(n)) {
        key = std::to_string(n.key);
        right = n.right_off;
        feature = n.feature;
        aux = 4 | 2 | (node_default_left(n) ? 1 : 0);
      } else {
        key = int_lit(radix_of(n));
        right = n.right_off;
        feature = n.feature;
        aux = 4 | (node_default_left(n) ? 1 : 0);
      }
      row += "{" + key + "," + std::to_string(right) + "," +
             std::to_string(feature) + "," + std::to_string(aux) + "},";
      if (row.size() > 72 || i + 1 == image_.nodes.size()) {
        w.line(row);
        row.clear();
      }
    }
    w.close("};");
    w.blank();
  }

  /// Out-of-line markers for the two helpers every over-budget tree funnels
  /// through.  Left inlinable, the optimizer clones the walker's loop into
  /// thousands of spine hand-off sites and its alias analysis goes
  /// superlinear in the resulting function size — a 226k-node forest took
  /// minutes at -O3 and seconds with these.  Both helpers are multi-step
  /// loops, so the call itself costs nothing.
  void emit_noinline_macro(CodeWriter& w) {
    w.line("#if defined(__GNUC__)");
    w.line("#define FLINT_JIT_NOINLINE __attribute__((noinline))");
    w.line("#elif defined(_MSC_VER)");
    w.line("#define FLINT_JIT_NOINLINE __declspec(noinline)");
    w.line("#else");
    w.line("#define FLINT_JIT_NOINLINE");
    w.line("#endif");
    w.blank();
  }

  std::string walker_params() const {
    std::string s = std::string("int32_t i, const ") + int_type() + "* k";
    if (special_) s += ", const uint8_t* nan";
    if (cats_) s += ", const uint8_t* mem";
    return s;
  }

  void emit_walker(CodeWriter& w) {
    w.open("static FLINT_JIT_NOINLINE int32_t " + prefix_ + "_walk(" +
           walker_params() + ") {");
    w.open("for (;;) {");
    w.line("const " + prefix_ + "_node_t n = " + prefix_ + "_nodes[i];");
    w.line("if (!(n.aux & 4)) return (int32_t)n.key;");
    if (special_) {
      w.line("int go_left;");
      if (cats_) {
        w.line("if (n.aux & 2) go_left = nan[n.feature] ? (n.aux & 1) : "
               "mem[(int32_t)n.key];");
        w.line("else go_left = nan[n.feature] ? (n.aux & 1) : "
               "(k[n.feature] <= n.key);");
      } else {
        w.line("go_left = nan[n.feature] ? (n.aux & 1) : "
               "(k[n.feature] <= n.key);");
      }
      w.line("i += go_left ? 1 : n.right_off;");
    } else {
      w.line("i += (k[n.feature] <= n.key) ? 1 : n.right_off;");
    }
    w.close("}");
    w.close("}");
    w.blank();
  }

  /// Branch-free node step for the throughput body: one FLInt integer
  /// compare against the packed key, then an arithmetic (mask) select of the
  /// child offset.  No data-dependent control flow, so per-sample cost stays
  /// flat in batch size instead of collapsing once the branch history tables
  /// overflow — the failure mode of the unrolled if/else spines on batches
  /// past a few hundred samples.
  void emit_bf_step(CodeWriter& w) {
    w.open("static inline int32_t " + prefix_ + "_step(int32_t i, const " +
           std::string(int_type()) + "* k" +
           (special_ ? ", const uint8_t* nan" : "") +
           (cats_ ? ", const uint8_t* mem" : "") + ") {");
    w.line("const " + prefix_ + "_node_t n = " + prefix_ + "_nodes[i];");
    if (special_) {
      if (cats_) {
        w.line("const int32_t go = nan[n.feature] ? (n.aux & 1) : ((n.aux & "
               "2) ? (int32_t)mem[(int32_t)n.key] : (int32_t)(k[n.feature] <= "
               "n.key));");
      } else {
        w.line("const int32_t go = nan[n.feature] ? (n.aux & 1) : "
               "(int32_t)(k[n.feature] <= n.key);");
      }
    } else {
      w.line("const int32_t go = (int32_t)(k[n.feature] <= n.key);");
    }
    w.line("const int32_t msk = -go;");
    w.line("return i + ((((n.aux >> 2) & 1) & msk) | (n.right_off & ~msk));");
    w.close("}");
    w.blank();
  }

  const char* ct_feature_type() const {
    return cols_ <= 256 ? "uint8_t" : "int32_t";
  }

  const char* ct_leaf_type() const {
    if (spec_.vote) return spec_.num_classes <= 256 ? "uint8_t" : "int32_t";
    const std::size_t rows = spec_.leaf_values.size() / spec_.n_outputs;
    return rows <= 65536 ? "uint16_t" : "int32_t";
  }

  void emit_array(CodeWriter& w, const std::string& type,
                  const std::string& name,
                  const std::vector<std::string>& vals) {
    w.open("static const " + type + " " + name + "[" +
           std::to_string(vals.size()) + "] = {");
    std::string row;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      row += vals[i] + ",";
      if (row.size() > 72 || i + 1 == vals.size()) {
        w.line(row);
        row.clear();
      }
    }
    w.close("};");
  }

  /// Complete-binary-tree tables for the throughput body: tree `t` padded to
  /// a full binary tree of its own max depth D, laid out in BFS order.  Slot
  /// j's children are 2j+1 / 2j+2, so the descent needs no offset loads —
  /// key and feature tables are indexed by j, and after D steps the leaf
  /// payload table is indexed by j - (2^D - 1).  Padding under a shallow
  /// leaf replicates its payload across every leaf slot it covers and fills
  /// the spare inner slots with a key of radix +MAX, which routes every
  /// sample left onto a replica.  The uniform index arithmetic is what lets
  /// the compiler vectorize the lockstep descent (gathered loads), which the
  /// data-dependent offset-stepping walk never permits.
  void emit_complete_tables(CodeWriter& w) {
    for (std::size_t t = 0; t < image_.roots.size(); ++t) {
      if (!complete_[t]) continue;
      const std::size_t depth = depths_[t];
      const std::size_t inner = (std::size_t{1} << depth) - 1;
      const std::size_t leaves = std::size_t{1} << depth;
      std::vector<std::string> keys(inner,
                                    int_lit(std::numeric_limits<S>::max()));
      std::vector<std::string> feats(inner, "0");
      std::vector<std::string> payloads(leaves, "0");
      std::vector<std::pair<std::int32_t, std::size_t>> stack{
          {image_.roots[t], 0}};
      std::vector<std::size_t> dstack{0};
      while (!stack.empty()) {
        const auto [i, j] = stack.back();
        const std::size_t d = dstack.back();
        stack.pop_back();
        dstack.pop_back();
        const auto& n = image_.nodes[static_cast<std::size_t>(i)];
        if (is_leaf(n)) {
          std::size_t lo = j;
          for (std::size_t lvl = d; lvl < depth; ++lvl) lo = 2 * lo + 1;
          const std::size_t base = lo - inner;
          const std::size_t span = std::size_t{1} << (depth - d);
          for (std::size_t p = 0; p < span; ++p) {
            payloads[base + p] = std::to_string(n.key);
          }
          continue;
        }
        keys[j] = int_lit(radix_of(n));
        feats[j] = std::to_string(n.feature);
        stack.push_back({i + 1, 2 * j + 1});
        dstack.push_back(d + 1);
        stack.push_back({i + n.right_off, 2 * j + 2});
        dstack.push_back(d + 1);
      }
      const std::string ct = prefix_ + "_ct" + std::to_string(t);
      emit_array(w, int_type(), ct + "_k", keys);
      emit_array(w, ct_feature_type(), ct + "_f", feats);
      emit_array(w, ct_leaf_type(), ct + "_l", payloads);
      w.blank();
    }
  }

  void emit_score_tables(CodeWriter& w) {
    const std::size_t k = spec_.n_outputs;
    w.open("static const " + std::string(scalar()) + " " + prefix_ +
           "_leaf[" + std::to_string(spec_.leaf_values.size()) + "] = {");
    std::string row;
    for (std::size_t i = 0; i < spec_.leaf_values.size(); ++i) {
      row += score_lit(spec_.leaf_values[i]) + ",";
      if (row.size() > 72 || i + 1 == spec_.leaf_values.size()) {
        w.line(row);
        row.clear();
      }
    }
    w.close("};");
    w.open("static const " + std::string(scalar()) + " " + prefix_ +
           "_base[" + std::to_string(k) + "] = {");
    row.clear();
    for (std::size_t j = 0; j < k; ++j) {
      row += (j < spec_.base.size() ? score_lit(spec_.base[j])
                                    : std::string("0")) +
             ",";
      if (row.size() > 72 || j + 1 == k) {
        w.line(row);
        row.clear();
      }
    }
    w.close("};");
    w.blank();
  }

  void emit_cat_words(CodeWriter& w) {
    w.open("static const uint32_t " + prefix_ + "_cat[" +
           std::to_string(std::max<std::size_t>(image_.cat_words.size(), 1)) +
           "] = {");
    std::string row;
    if (image_.cat_words.empty()) row = "0,";
    for (std::size_t i = 0; i < image_.cat_words.size(); ++i) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "0x%xu", image_.cat_words[i]);
      row += std::string(buf) + ",";
      if (row.size() > 72 || i + 1 == image_.cat_words.size()) {
        w.line(row);
        row.clear();
      }
    }
    if (!row.empty()) w.line(row);
    w.close("};");
    w.blank();
  }

  std::string tree_params() const {
    std::string s = std::string("const ") + scalar() + "* px";
    if (walker_needed_) s += std::string(", const ") + int_type() + "* k";
    if (special_) s += ", const uint8_t* nan";
    if (cats_) s += ", const uint8_t* mem";
    return s;
  }

  /// Call arguments for tree `t` inside the batch driver; sample-local
  /// names px/kk/nn/mm are bound by the driver loops.
  std::string tree_call(std::size_t t) const {
    if (unrolled_[t] || plan_.hot_depth > 0) {
      std::string args = "px";
      if (walker_needed_) args += ", kk";
      if (special_) args += ", nn";
      if (cats_) args += ", mm";
      return prefix_ + "_tree_" + std::to_string(t) + "(" + args + ")";
    }
    std::string args = std::to_string(image_.roots[t]) + ", kk";
    if (special_) args += ", nn";
    if (cats_) args += ", mm";
    return prefix_ + "_walk(" + args + ")";
  }

  void emit_subtree(CodeWriter& w, std::int32_t i) {
    const auto& n = image_.nodes[static_cast<std::size_t>(i)];
    if (is_leaf(n)) {
      w.line("return " + std::to_string(n.key) + ";");
      return;
    }
    w.open("if (" + node_cond(n) + ") {");
    emit_subtree(w, i + 1);
    w.reopen("} else {");
    emit_subtree(w, i + n.right_off);
    w.close("}");
  }

  void emit_spine(CodeWriter& w, std::int32_t i, std::size_t depth) {
    const auto& n = image_.nodes[static_cast<std::size_t>(i)];
    if (is_leaf(n)) {
      w.line("return " + std::to_string(n.key) + ";");
      return;
    }
    if (depth == 0) {
      std::string args = std::to_string(i) + ", k";
      if (special_) args += ", nan";
      if (cats_) args += ", mem";
      w.line("return " + prefix_ + "_walk(" + args + ");");
      return;
    }
    w.open("if (" + node_cond(n) + ") {");
    emit_spine(w, i + 1, depth - 1);
    w.reopen("} else {");
    emit_spine(w, i + n.right_off, depth - 1);
    w.close("}");
  }

  void emit_tree_functions(CodeWriter& w) {
    for (std::size_t t = 0; t < image_.roots.size(); ++t) {
      if (!unrolled_[t] && plan_.hot_depth == 0) continue;  // driver walks
      w.open("static int32_t " + prefix_ + "_tree_" + std::to_string(t) +
             "(" + tree_params() + ") {");
      if (unrolled_[t]) {
        emit_subtree(w, image_.roots[t]);
      } else {
        emit_spine(w, image_.roots[t], plan_.hot_depth);
      }
      w.close("}");
      w.blank();
    }
  }

  /// Per-sample setup shared by both drivers: pointers into the tile's
  /// scratch rows plus the radix remap and NaN/membership masks.
  void emit_sample_setup(CodeWriter& w, bool need_keys) {
    const std::string cols = std::to_string(cols_);
    if (!need_keys && !special_ && !cats_) return;
    w.open("for (s = 0; s < m; ++s) {");
    w.line("const " + std::string(scalar()) + "* px = x + (size_t)(start + s) * " +
           cols + ";");
    if (need_keys) {
      w.line(std::string(int_type()) + "* kk = keys + (size_t)s * " + cols + ";");
      w.open("for (int f = 0; f < " + cols + "; ++f) {");
      w.line("const " + std::string(uint_type()) + " u = (" + uint_type() +
             ")" + prefix_ + "_ld(px + f);");
      w.line("const " + std::string(uint_type()) + " flip = ((" + uint_type() +
             ")0 - (u >> " + std::to_string(kBits - 1) + ")) >> 1;");
      w.line("kk[f] = (" + std::string(int_type()) + ")(u ^ flip);");
      w.close("}");
    }
    if (special_) {
      w.line("uint8_t* nn = nan + (size_t)s * " + cols + ";");
      w.open("for (int f = 0; f < " + cols + "; ++f) {");
      w.line("const " + std::string(uint_type()) + " b = (" + uint_type() +
             ")" + prefix_ + "_ld(px + f);");
      w.line("nn[f] = (b & " +
             hex_u(static_cast<U>(core::FloatTraits<T>::abs_mask)) + ") > " +
             hex_u(static_cast<U>(core::FloatTraits<T>::exp_mask)) +
             " ? 1 : 0;");
      w.close("}");
    }
    if (cats_) {
      w.line("uint8_t* mm = mem + (size_t)s * " + std::to_string(slots_) + ";");
      for (std::size_t slot = 0; slot < slots_; ++slot) {
        const auto words = image_.cat_set_of_slot(slot);
        const T limit = static_cast<T>(words.size() * 32);
        w.open("{");
        w.line("const " + std::string(scalar()) + " v = px[" +
               std::to_string(image_.cat_feature[slot]) + "];");
        w.line("uint8_t m8 = 0;");
        w.open("if (v >= 0 && v < " + c_float_literal(limit) + ") {");
        w.line("const uint32_t ci = (uint32_t)v;");
        w.line("m8 = (uint8_t)((" + prefix_ + "_cat[" +
               std::to_string(image_.cat_offsets[slot]) +
               " + (ci >> 5)] >> (ci & 31u)) & 1u);");
        w.close("}");
        w.line("mm[" + std::to_string(slot) + "] = m8;");
        w.close("}");
      }
    }
    w.close("}");
  }

  void emit_scratch_decls(CodeWriter& w, bool need_keys) {
    const std::string tile = std::to_string(tile_);
    const std::string cols = std::to_string(std::max<std::size_t>(cols_, 1));
    if (binary_vote_) {
      w.line("uint8_t c1[" + tile + "];");
    } else if (spec_.vote) {
      w.line("int32_t votes[" + tile + " * " +
             std::to_string(spec_.num_classes) + "];");
    }
    if (need_keys) {
      w.line(std::string(int_type()) + " keys[" + tile + " * " + cols + "];");
    }
    if (special_) w.line("uint8_t nan[" + tile + " * " + cols + "];");
    if (cats_) {
      w.line("uint8_t mem[" + tile + " * " + std::to_string(slots_) + "];");
    }
  }

  void emit_per_sample_ptrs(CodeWriter& w, bool needs_px) {
    const std::string cols = std::to_string(cols_);
    if (needs_px) {
      w.line("const " + std::string(scalar()) +
             "* px = x + (size_t)(start + s) * " + cols + ";");
    }
    if (walker_needed_) {
      w.line("const " + std::string(int_type()) + "* kk = keys + (size_t)s * " +
             cols + ";");
    }
    if (special_) w.line("const uint8_t* nn = nan + (size_t)s * " + cols + ";");
    if (cats_) {
      w.line("const uint8_t* mm = mem + (size_t)s * " +
             std::to_string(slots_) + ";");
    }
  }

  /// Per-tree inner loops of the SMALL body: unrolled if/else spines (or the
  /// branchy walker for budget-degraded trees).  Fastest when the batch is
  /// small enough for the branch predictor to hold the whole traversal.
  void emit_small_tree_loops(CodeWriter& w) {
    const bool vote = spec_.vote;
    const std::string nc = std::to_string(spec_.num_classes);
    const std::string k = std::to_string(spec_.n_outputs);
    for (std::size_t t = 0; t < image_.roots.size(); ++t) {
      const bool needs_px = unrolled_[t] || plan_.hot_depth > 0;
      w.line("/* tree " + std::to_string(t) + " */");
      w.open("for (s = 0; s < m; ++s) {");
      emit_per_sample_ptrs(w, needs_px);
      if (binary_vote_) {
        w.line("c1[s] += (uint8_t)" + tree_call(t) + ";");
      } else if (vote) {
        w.line("++votes[(size_t)s * " + nc + " + (size_t)" + tree_call(t) +
               "];");
      } else {
        w.line("const int32_t row = " + tree_call(t) + ";");
        w.line("const " + std::string(scalar()) + "* lv = " + prefix_ +
               "_leaf + (size_t)row * " + k + ";");
        w.line(std::string(scalar()) + "* o = out + (size_t)(start + s) * " +
               k + ";");
        w.line("for (int j = 0; j < " + k + "; ++j) o[j] += lv[j];");
      }
      w.close("}");
    }
  }

  std::string step_call(const std::string& iv, const std::string& kv,
                        const std::string& nv, const std::string& mv) const {
    std::string args = iv + ", " + kv;
    if (special_) args += ", " + nv;
    if (cats_) args += ", " + mv;
    return prefix_ + "_step(" + args + ")";
  }

  /// Tally one tree's result for one sample: `payload` is an expression for
  /// the leaf payload (class id or leaf-row index).
  void emit_payload_writeback(CodeWriter& w, const std::string& payload,
                              const std::string& sample) {
    const std::string nc = std::to_string(spec_.num_classes);
    const std::string k = std::to_string(spec_.n_outputs);
    if (binary_vote_) {
      w.line("c1[" + sample + "] += (uint8_t)" + payload + ";");
      return;
    }
    if (spec_.vote) {
      w.line("++votes[(size_t)(" + sample + ") * " + nc + " + (size_t)" +
             payload + "];");
      return;
    }
    w.open("{");
    w.line("const " + std::string(scalar()) + "* lv = " + prefix_ +
           "_leaf + (size_t)" + payload + " * " + k + ";");
    w.line(std::string(scalar()) + "* o = out + (size_t)(start + (" + sample +
           ")) * " + k + ";");
    w.line("for (int j = 0; j < " + k + "; ++j) o[j] += lv[j];");
    w.close("}");
  }

  void emit_bf_leaf_writeback(CodeWriter& w, const std::string& iv,
                              const std::string& sample) {
    emit_payload_writeback(w, prefix_ + "_nodes[" + iv + "].key", sample);
  }

  /// Per-tree inner loops of the WIDE body: kLockstep samples descend in
  /// lockstep through the padded branch-free descent, hiding the node-load
  /// latency behind independent chases (the generated twin of the
  /// interpreter's blocked lockstep walker, minus its leaf checks and
  /// convergence tests — the padded trip count makes both unnecessary).
  /// The lane state lives in a small indexed array rather than named
  /// scalars: the short r-loop body keeps register pressure low while the
  /// out-of-order window still overlaps the independent per-lane loads.
  /// Complete-table trees descend by index arithmetic (2j+1+carry); the
  /// rest step through the embedded node array's child offsets.
  static constexpr int kLockstep = 32;

  /// One complete-table descent step: go right exactly when the node's
  /// padded radix key is strictly below the sample's key (left keeps the
  /// FLInt `sample <= split` convention).
  std::string ct_step(std::size_t t, const std::string& jv,
                      const std::string& key_expr) const {
    const std::string ct = prefix_ + "_ct" + std::to_string(t);
    return "2 * " + jv + " + 1 + (int32_t)(" + ct + "_k[" + jv + "] < " +
           key_expr + ")";
  }

  void emit_complete_tree_loops(CodeWriter& w, std::size_t t) {
    const std::string cols = std::to_string(cols_);
    const std::string W = std::to_string(kLockstep);
    const std::string depth = std::to_string(depths_[t]);
    const std::string ct = prefix_ + "_ct" + std::to_string(t);
    const std::string off =
        std::to_string((std::size_t{1} << depths_[t]) - 1);
    w.line("/* tree " + std::to_string(t) + " (complete, depth " + depth +
           ") */");
    w.open("for (s = 0; s + " + W + " <= m; s += " + W + ") {");
    w.line("int32_t cur[" + W + "];");
    w.line("int r, d;");
    w.line("for (r = 0; r < " + W + "; ++r) cur[r] = 0;");
    w.open("for (d = 0; d < " + depth + "; ++d) {");
    w.open("for (r = 0; r < " + W + "; ++r) {");
    w.line("const int32_t j = cur[r];");
    w.line("cur[r] = " +
           ct_step(t, "j", "keys[(size_t)(s + r) * " + cols + " + " + ct +
                              "_f[j]]") +
           ";");
    w.close("}");
    w.close("}");
    w.open("for (r = 0; r < " + W + "; ++r) {");
    emit_payload_writeback(w, ct + "_l[cur[r] - " + off + "]", "s + r");
    w.close("}");
    w.close("}");
    w.open("for (; s < m; ++s) {");
    w.line("const " + std::string(int_type()) + "* kk = keys + (size_t)s * " +
           cols + ";");
    w.line("int32_t j = 0;");
    w.line("int32_t d;");
    w.open("for (d = 0; d < " + depth + "; ++d) {");
    w.line("j = " + ct_step(t, "j", "kk[" + ct + "_f[j]]") + ";");
    w.close("}");
    emit_payload_writeback(w, ct + "_l[j - " + off + "]", "s");
    w.close("}");
  }

  /// Shared driver for every offset-stepping tree of the wide body,
  /// parameterized by root and padded depth.  One copy instead of a loop
  /// nest per tree matters twice over: the module shrinks by ~20 lines per
  /// tree, and — decisive for compile time — the optimizer sees one
  /// moderate function instead of a batch body with hundreds of inlined
  /// loop nests, whose alias analysis scales superlinearly.  Kept out of
  /// line for the same reason.
  void emit_step_tree_fn(CodeWriter& w) {
    const std::string cols = std::to_string(cols_);
    const std::string slots = std::to_string(slots_);
    const std::string W = std::to_string(kLockstep);
    std::string params = std::string("int32_t root, int32_t depth, const ") +
                         int_type() + "* keys";
    if (special_) params += ", const uint8_t* nan";
    if (cats_) params += ", const uint8_t* mem";
    params += ", long long m";
    if (binary_vote_) {
      params += ", uint8_t* c1";
    } else if (spec_.vote) {
      params += ", int32_t* votes";
    } else {
      params += std::string(", ") + scalar() + "* out, long long start";
    }
    const std::string karg =
        "keys + (size_t)(s + r) * " + cols +
        (special_ ? ", nan + (size_t)(s + r) * " + cols : "") +
        (cats_ ? ", mem + (size_t)(s + r) * " + slots : "");
    w.open("static FLINT_JIT_NOINLINE void " + prefix_ + "_step_tree(" +
           params + ") {");
    w.line("long long s;");
    w.open("for (s = 0; s + " + W + " <= m; s += " + W + ") {");
    w.line("int32_t cur[" + W + "];");
    w.line("int r, d;");
    w.line("for (r = 0; r < " + W + "; ++r) cur[r] = root;");
    w.open("for (d = 0; d < depth; ++d) {");
    w.line("for (r = 0; r < " + W + "; ++r) cur[r] = " + prefix_ +
           "_step(cur[r], " + karg + ");");
    w.close("}");
    w.open("for (r = 0; r < " + W + "; ++r) {");
    emit_bf_leaf_writeback(w, "cur[r]", "s + r");
    w.close("}");
    w.close("}");
    w.open("for (; s < m; ++s) {");
    w.line("const " + std::string(int_type()) + "* kk = keys + (size_t)s * " +
           cols + ";");
    if (special_) {
      w.line("const uint8_t* nn = nan + (size_t)s * " + cols + ";");
    }
    if (cats_) {
      w.line("const uint8_t* mm = mem + (size_t)s * " + slots + ";");
    }
    w.line("int32_t i = root;");
    w.line("int32_t d;");
    w.open("for (d = 0; d < depth; ++d) {");
    w.line("i = " + step_call("i", "kk", "nn", "mm") + ";");
    w.close("}");
    emit_bf_leaf_writeback(w, "i", "s");
    w.close("}");
    w.close("}");
    w.blank();
  }

  void emit_step_tree_loops(CodeWriter& w, std::size_t t) {
    std::string args = std::to_string(image_.roots[t]) + ", " +
                       std::to_string(depths_[t]) + ", keys";
    if (special_) args += ", nan";
    if (cats_) args += ", mem";
    args += ", m";
    if (binary_vote_) {
      args += ", c1";
    } else if (spec_.vote) {
      args += ", votes";
    } else {
      args += ", out, start";
    }
    w.line("/* tree " + std::to_string(t) + " (depth " +
           std::to_string(depths_[t]) + ") */");
    w.line(prefix_ + "_step_tree(" + args + ");");
  }

  void emit_bf_tree_loops(CodeWriter& w) {
    for (std::size_t t = 0; t < image_.roots.size(); ++t) {
      if (complete_[t]) {
        emit_complete_tree_loops(w, t);
      } else {
        emit_step_tree_loops(w, t);
      }
    }
  }

  void emit_batch_body(CodeWriter& w, const std::string& name,
                       bool branch_free) {
    const bool vote = spec_.vote;
    const std::string tile = std::to_string(tile_);
    const std::string nc = std::to_string(spec_.num_classes);
    const std::string k = std::to_string(spec_.n_outputs);
    const bool need_keys = branch_free || walker_needed_;
    w.open("static void " + name + "(const " + std::string(scalar()) +
           "* x, long long n, " +
           (vote ? std::string("int32_t") : std::string(scalar())) + "* out) {");
    w.line("long long start;");
    w.open("for (start = 0; start < n; start += " + tile + ") {");
    w.line("const long long m = (n - start) < " + tile + " ? (n - start) : " +
           tile + ";");
    w.line("long long s;");
    emit_scratch_decls(w, need_keys);
    if (binary_vote_) {
      w.line("memset(c1, 0, (size_t)m);");
    } else if (vote) {
      w.line("memset(votes, 0, (size_t)m * " + nc + " * sizeof(int32_t));");
    } else {
      w.open("for (s = 0; s < m; ++s) {");
      w.line(std::string(scalar()) + "* o = out + (size_t)(start + s) * " + k +
             ";");
      w.line("for (int j = 0; j < " + k + "; ++j) o[j] = " + prefix_ +
             "_base[j];");
      w.close("}");
    }
    emit_sample_setup(w, need_keys);
    if (branch_free) {
      emit_bf_tree_loops(w);
    } else {
      emit_small_tree_loops(w);
    }
    if (binary_vote_) {
      w.open("for (s = 0; s < m; ++s) {");
      w.line("out[start + s] = (int32_t)(2 * (int32_t)c1[s] > " +
             std::to_string(image_.roots.size()) + ");");
      w.close("}");
    } else if (vote) {
      w.open("for (s = 0; s < m; ++s) {");
      w.line("const int32_t* v = votes + (size_t)s * " + nc + ";");
      w.line("int32_t best = 0;");
      w.line("for (int c = 1; c < " + nc + "; ++c) if (v[c] > v[best]) "
             "best = c;");
      w.line("out[start + s] = best;");
      w.close("}");
    }
    w.close("}");
    w.close("}");
    w.blank();
  }

  /// Entry point: tiny batches take the unrolled if/else spines (lowest
  /// latency while traversal history fits the branch predictor); anything
  /// larger takes the padded branch-free lockstep body, whose throughput is
  /// flat in batch size.  Both bodies are bit-identical by construction.
  void emit_batch_driver(CodeWriter& w) {
    const bool vote = spec_.vote;
    emit_batch_body(w, prefix_ + "_batch_small", false);
    emit_batch_body(w, prefix_ + "_batch_wide", true);
    w.open("void " + prefix_ +
           (vote ? "_predict_batch(const " : "_accumulate_scores(const ") +
           scalar() + "* x, long long n, " +
           (vote ? std::string("int32_t") : std::string(scalar())) + "* out) {");
    w.open("if (n <= 64) {");
    w.line(prefix_ + "_batch_small(x, n, out);");
    w.line("return;");
    w.close("}");
    w.line(prefix_ + "_batch_wide(x, n, out);");
    w.close("}");
    w.blank();
  }

  void emit_classify_wrapper(CodeWriter& w) {
    w.open("int " + prefix_ + "_classify(const " + std::string(scalar()) +
           "* pX) {");
    w.line("int32_t r;");
    w.line(prefix_ + "_predict_batch(pX, 1, &r);");
    w.line("return (int)r;");
    w.close("}");
  }

  const CompactForest<T, CompactNode16>& image_;
  const exec::layout::LayoutPlan& plan_;
  const LayoutCGenSpec<T>& spec_;
  const LayoutCGenOptions& opt_;
  std::string prefix_;
  bool special_ = false;
  bool cats_ = false;
  bool binary_vote_ = false;
  std::size_t cols_ = 0;
  std::size_t slots_ = 0;
  std::size_t tile_ = 64;
  bool walker_needed_ = false;
  bool step_needed_ = false;
  std::vector<char> unrolled_;
  std::vector<char> complete_;
  std::vector<std::size_t> depths_;
};

}  // namespace

template <typename T>
GeneratedCode generate_layout(
    const CompactForest<T, CompactNode16>& image,
    const exec::layout::LayoutPlan& plan, const LayoutCGenSpec<T>& spec,
    const LayoutCGenOptions& options) {
  return LayoutGen<T>(image, plan, spec, options).run();
}

template GeneratedCode generate_layout<float>(
    const CompactForest<float, CompactNode16>&, const exec::layout::LayoutPlan&,
    const LayoutCGenSpec<float>&, const LayoutCGenOptions&);
template GeneratedCode generate_layout<double>(
    const CompactForest<double, CompactNode16>&,
    const exec::layout::LayoutPlan&, const LayoutCGenSpec<double>&,
    const LayoutCGenOptions&);

}  // namespace flint::codegen
