// perfbench/stats — the benchmark's own arithmetic: percentiles with their
// sample counts, and request-outcome accounting.
// Everything here is pure so tests/test_perfbench.cpp can pin it exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile together with the evidence behind it.
struct Percentile {
  double value = 0.0;
  std::size_t count = 0;   ///< samples the percentile was taken over
  std::size_t beyond = 0;  ///< samples strictly after the chosen rank
};

/// Nearest-rank percentile: the sample at rank ceil(q/100 * n) (1-based) of
/// the sorted values.  q in (0, 100].  An empty input gives all zeros.
[[nodiscard]] Percentile percentile(std::vector<double> values, double q);

/// Shorthand for percentile(values, 50).value.
[[nodiscard]] double median(std::vector<double> values);

/// How every attempted request ended.  The categories are disjoint: each
/// attempted request lands in exactly one of them.
struct Outcomes {
  std::uint64_t ok = 0;               ///< answered, every prediction correct
  std::uint64_t mismatched = 0;       ///< answered, some prediction wrong
  std::uint64_t rejected = 0;         ///< refused at submit (validation, stop)
  std::uint64_t shed = 0;             ///< refused for load (queue/sample bound)
  std::uint64_t deadline_missed = 0;  ///< accepted, then expired in the queue
  std::uint64_t failed = 0;           ///< any other error

  [[nodiscard]] std::uint64_t attempted() const noexcept {
    return ok + errors();
  }
  [[nodiscard]] std::uint64_t errors() const noexcept {
    return mismatched + rejected + shed + deadline_missed + failed;
  }
  /// errors / attempted; 0 when nothing was attempted.
  [[nodiscard]] double error_rate() const noexcept;

  Outcomes& operator+=(const Outcomes& other) noexcept;
};

}  // namespace perfbench
