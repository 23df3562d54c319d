#include "quant/quant_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/flint.hpp"

namespace flint::quant {

namespace {

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out += buf;
}

}  // namespace

std::int64_t FeatureQuant::quantize(double v) const noexcept {
  const double t = v * scale + offset;
  if (std::isnan(t)) return q_lo;
  if (t <= static_cast<double>(q_lo)) return q_lo;
  if (t >= static_cast<double>(q_hi)) return q_hi;
  return std::llround(t);
}

std::size_t QuantPlan::exact_features() const noexcept {
  std::size_t n = 0;
  for (const auto& f : features) n += f.exact() ? 1 : 0;
  return n;
}

std::size_t QuantPlan::affine_features() const noexcept {
  return features.size() - exact_features();
}

bool QuantPlan::all_exact() const noexcept {
  for (const auto& f : features) {
    if (!f.exact()) return false;
  }
  return true;
}

bool QuantPlan::accuracy_contract() const noexcept {
  for (const auto& f : features) {
    if (!f.preserves_thresholds()) return false;
  }
  return true;
}

double QuantPlan::min_fitness() const noexcept {
  double m = 1.0;
  for (const auto& f : features) m = std::min(m, f.fitness());
  return m;
}

std::string QuantPlan::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "bits=%d exact=%zu/%zu fitness=%.3f", bits,
                exact_features(), features.size(), min_fitness());
  return buf;
}

std::string report_json(const QuantPlan& plan) {
  std::string out = "{";
  out += "\"bits\":" + std::to_string(plan.bits);
  out += ",\"features\":" + std::to_string(plan.feature_count());
  out += ",\"exact_features\":" + std::to_string(plan.exact_features());
  out += ",\"affine_features\":" + std::to_string(plan.affine_features());
  out += std::string(",\"all_exact\":") + (plan.all_exact() ? "true" : "false");
  out += std::string(",\"accuracy_contract\":") +
         (plan.accuracy_contract() ? "true" : "false");
  out += ",\"min_fitness\":";
  append_double(out, plan.min_fitness());
  out += ",\"per_feature\":[";
  for (std::size_t f = 0; f < plan.features.size(); ++f) {
    const auto& fq = plan.features[f];
    if (f != 0) out += ',';
    out += "{\"feature\":" + std::to_string(f);
    out += std::string(",\"mode\":\"") + (fq.exact() ? "exact" : "affine") +
           "\"";
    out += ",\"distinct\":" + std::to_string(fq.distinct);
    out += ",\"quantized_distinct\":" + std::to_string(fq.quantized_distinct);
    out += ",\"fitness\":";
    append_double(out, fq.fitness());
    if (!fq.exact()) {
      out += ",\"scale\":";
      append_double(out, fq.scale);
      out += ",\"offset\":";
      append_double(out, fq.offset);
      out += ",\"q_lo\":" + std::to_string(fq.q_lo);
      out += ",\"q_hi\":" + std::to_string(fq.q_hi);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

template <typename T>
QuantPlan plan_from_tables(const exec::layout::KeyTableSet<T>& tables, int bits,
                           bool force_affine) {
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument("quant::plan_from_tables: bits must be in [2, 16]");
  }
  const auto key_max = static_cast<std::int64_t>((std::int64_t{1} << bits) - 1);
  QuantPlan plan;
  plan.bits = bits;
  plan.features.reserve(tables.features.size());
  for (const auto& table : tables.features) {
    FeatureQuant fq;
    const auto size = static_cast<std::int64_t>(table.size());
    fq.distinct = table.size();
    if (table.size() == 0) {
      // Feature never tested: trivially exact, every sample keys to 0.
      fq.mode = FeatureMode::Exact;
      fq.q_lo = 0;
      fq.q_hi = 0;
      fq.quantized_distinct = 0;
    } else if (!force_affine && size <= key_max) {
      // Ranks fit the key budget: sample keys span [0, size] (a value above
      // every split ranks to size), node keys span [0, size - 1].
      fq.mode = FeatureMode::Exact;
      fq.q_lo = 0;
      fq.q_hi = size;
      fq.quantized_distinct = fq.distinct;
    } else {
      fq.mode = FeatureMode::Affine;
      fq.q_lo = 0;
      fq.q_hi = key_max;
      const double lo =
          static_cast<double>(core::from_radix_key<T>(table.keys().front()));
      const double hi =
          static_cast<double>(core::from_radix_key<T>(table.keys().back()));
      // Map [lo, hi] onto [1, key_max]: key 0 is reserved for "below every
      // split", so a sample under the range still routes left of everything.
      if (hi > lo) {
        fq.scale = static_cast<double>(key_max - 1) / (hi - lo);
        fq.offset = 1.0 - lo * fq.scale;
      } else {
        fq.scale = 1.0;
        fq.offset = 1.0 - lo;
      }
      if (!std::isfinite(fq.scale) || !std::isfinite(fq.offset) ||
          fq.scale <= 0.0) {
        // Degenerate range (inf splits or catastrophic spread): collapse to
        // one bucket and let the fitness report say so.
        fq.scale = 0.0;
        fq.offset = static_cast<double>((key_max + 1) / 2);
      }
      std::int64_t prev = 0;
      bool have_prev = false;
      std::size_t survived = 0;
      for (const auto key : table.keys()) {
        const auto q = fq.quantize(
            static_cast<double>(core::from_radix_key<T>(key)));
        if (!have_prev || q != prev) ++survived;
        prev = q;
        have_prev = true;
      }
      fq.quantized_distinct = survived;
    }
    plan.features.push_back(fq);
  }
  return plan;
}

template <typename T>
QuantPlan plan_from_dataset(const data::Dataset<T>& dataset, int bits) {
  if (dataset.empty()) {
    throw std::invalid_argument("quant::plan_from_dataset: empty dataset");
  }
  if (bits < 2 || bits > 31) {
    throw std::invalid_argument(
        "quant::plan_from_dataset: bits must be in [2, 31]");
  }
  QuantPlan plan;
  plan.bits = bits;
  std::vector<double> max_abs(dataset.cols(), 0.0);
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    const auto row = dataset.row(r);
    for (std::size_t f = 0; f < dataset.cols(); ++f) {
      max_abs[f] = std::max(max_abs[f], std::abs(static_cast<double>(row[f])));
    }
  }
  const auto q_max = static_cast<std::int64_t>((std::int64_t{1} << (bits - 1)) - 1);
  plan.features.resize(dataset.cols());
  for (std::size_t f = 0; f < dataset.cols(); ++f) {
    auto& fq = plan.features[f];
    fq.mode = FeatureMode::Affine;
    fq.scale = max_abs[f] > 0.0 ? static_cast<double>(q_max) / max_abs[f] : 1.0;
    fq.offset = 0.0;
    fq.q_lo = -q_max;
    fq.q_hi = q_max;
  }
  return plan;
}

template <typename T>
void annotate_thresholds(QuantPlan& plan, const trees::Forest<T>& forest) {
  using Signed = typename core::FloatTraits<T>::Signed;
  std::vector<std::vector<Signed>> keys(plan.features.size());
  for (const auto& tree : forest.trees()) {
    for (const auto& n : tree.nodes()) {
      if (n.is_leaf() || n.is_categorical()) continue;
      const auto f = static_cast<std::size_t>(n.feature);
      if (f >= keys.size()) continue;
      keys[f].push_back(core::to_radix_key(core::normalize_zero(n.split)));
    }
  }
  for (std::size_t f = 0; f < plan.features.size(); ++f) {
    auto& fq = plan.features[f];
    auto& ks = keys[f];
    std::sort(ks.begin(), ks.end());
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
    fq.distinct = ks.size();
    if (fq.exact()) {
      fq.quantized_distinct = fq.distinct;
      continue;
    }
    std::int64_t prev = 0;
    bool have_prev = false;
    std::size_t survived = 0;
    for (const auto key : ks) {
      const auto q =
          fq.quantize(static_cast<double>(core::from_radix_key<T>(key)));
      if (!have_prev || q != prev) ++survived;
      prev = q;
      have_prev = true;
    }
    fq.quantized_distinct = survived;
  }
}

std::int32_t quantize(double value, double scale, int bits) noexcept {
  const double q_max = static_cast<double>((std::int64_t{1} << (bits - 1)) - 1);
  const double scaled = std::round(value * scale);
  return static_cast<std::int32_t>(std::clamp(scaled, -q_max, q_max));
}

template <typename T>
QuantForestEngine<T>::QuantForestEngine(const trees::Forest<T>& forest,
                                        QuantPlan plan)
    : plan_(std::move(plan)), num_classes_(forest.num_classes()) {
  if (forest.empty()) {
    throw std::invalid_argument("QuantForestEngine: empty forest");
  }
  if (plan_.feature_count() < forest.feature_count()) {
    throw std::invalid_argument(
        "QuantForestEngine: plan covers fewer features than the forest");
  }
  if (forest.has_special_splits()) {
    throw std::invalid_argument(
        "QuantForestEngine: missing/categorical forests need the packed q4 "
        "engine");
  }
  for (const auto& f : plan_.features) {
    if (f.exact() && f.distinct != 0) {
      throw std::invalid_argument(
          "QuantForestEngine: exact-mode features need the packed q4 engine; "
          "use an all-affine plan");
    }
  }
  annotate_thresholds(plan_, forest);
  nodes_.reserve(forest.total_nodes());
  roots_.reserve(forest.size());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    const auto& tree = forest.tree(t);
    const std::size_t base = nodes_.size();
    roots_.push_back(base);
    for (const auto& n : tree.nodes()) {
      QNode q;
      q.feature = n.feature;
      if (n.is_leaf()) {
        q.split_q = n.prediction;
      } else {
        const auto f = static_cast<std::size_t>(n.feature);
        q.split_q = plan_.features[f].quantize(
            static_cast<double>(core::normalize_zero(n.split)));
        q.left = n.left + static_cast<std::int32_t>(base);
        q.right = n.right + static_cast<std::int32_t>(base);
      }
      nodes_.push_back(q);
    }
  }
  q_scratch_.resize(plan_.feature_count());
  vote_scratch_.assign(static_cast<std::size_t>(std::max(num_classes_, 1)), 0);
}

template <typename T>
std::int32_t QuantForestEngine<T>::predict(std::span<const T> x) const {
  for (std::size_t f = 0; f < q_scratch_.size() && f < x.size(); ++f) {
    q_scratch_[f] = plan_.features[f].quantize(static_cast<double>(x[f]));
  }
  std::int32_t best_class = 0;
  int best_votes = 0;
  std::fill(vote_scratch_.begin(), vote_scratch_.end(), 0);
  for (const std::size_t root : roots_) {
    std::size_t i = root;
    while (true) {
      const QNode& n = nodes_[i];
      if (n.feature < 0) {
        const auto c = static_cast<std::int32_t>(n.split_q);
        const int v = ++vote_scratch_[static_cast<std::size_t>(c)];
        if (v > best_votes || (v == best_votes && c < best_class)) {
          best_votes = v;
          best_class = c;
        }
        break;
      }
      i = static_cast<std::size_t>(
          q_scratch_[static_cast<std::size_t>(n.feature)] <= n.split_q
              ? n.left
              : n.right);
    }
  }
  return best_class;
}

template <typename T>
double QuantForestEngine<T>::mismatch_rate(const trees::Forest<T>& exact,
                                           const data::Dataset<T>& dataset) const {
  if (dataset.empty()) return 0.0;
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    if (predict(dataset.row(r)) != exact.predict(dataset.row(r))) ++mismatches;
  }
  return static_cast<double>(mismatches) / static_cast<double>(dataset.rows());
}

template <typename T>
double QuantForestEngine<T>::accuracy(const data::Dataset<T>& dataset) const {
  if (dataset.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    if (predict(dataset.row(r)) == dataset.label(r)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(dataset.rows());
}

template QuantPlan plan_from_tables<float>(
    const exec::layout::KeyTableSet<float>&, int, bool);
template QuantPlan plan_from_tables<double>(
    const exec::layout::KeyTableSet<double>&, int, bool);
template QuantPlan plan_from_dataset<float>(const data::Dataset<float>&, int);
template QuantPlan plan_from_dataset<double>(const data::Dataset<double>&, int);
template void annotate_thresholds<float>(QuantPlan&,
                                         const trees::Forest<float>&);
template void annotate_thresholds<double>(QuantPlan&,
                                          const trees::Forest<double>&);
template class QuantForestEngine<float>;
template class QuantForestEngine<double>;

}  // namespace flint::quant
