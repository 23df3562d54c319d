#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

Percentile percentile(std::vector<double> values, double q) {
  if (!(q > 0.0 && q <= 100.0)) {
    throw std::invalid_argument("percentile: q must be in (0, 100]");
  }
  Percentile p;
  p.count = values.size();
  if (values.empty()) return p;
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  return p;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0).value;
}

double Outcomes::error_rate() const noexcept {
  const auto n = attempted();
  return n == 0 ? 0.0 : static_cast<double>(errors()) / static_cast<double>(n);
}

Outcomes& Outcomes::operator+=(const Outcomes& other) noexcept {
  ok += other.ok;
  mismatched += other.mismatched;
  rejected += other.rejected;
  shed += other.shed;
  deadline_missed += other.deadline_missed;
  failed += other.failed;
  return *this;
}

}  // namespace perfbench
