// perfbench/workloads — the four benchmark workloads, run through the
// library's public API, every response checked against Forest::predict.
//
//   batch-deep    closed loop: predict_batch on 1024-row batches, 1 thread,
//                 deep model (layout:auto)
//   serve-sparse  open loop: Poisson 2,000 single-sample requests/s into an
//                 InferenceServer with default ServeOptions, deep model
//   serve-mixed   open loop: Poisson 20,000 requests/s of 1 + geometric
//                 (mean 8, cap 64) samples, cache-resident wide model, a
//                 hot-swap (load + verify + make + install) every 2 s
//   file-predict  `flint-forest predict --engine layout:auto` over the
//                 200k-row held-out CSV of the deep model, as a process
//
// An untraced run measures the end-to-end metrics.  A traced run repeats
// the same phase with spans on, adds the per-layer probes, and reports the
// per-layer metrics, including the traced-minus-untraced overhead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs_dir;  ///< where prepare() wrote this seed's inputs
  std::string cli_path;    ///< the flint-forest binary (file-predict)
  std::string out_dir;     ///< scratch output: CLI stdout, span files
  std::string git_sha = "unknown";
  /// Test hook: adds this to one reference prediction before the run, so
  /// a correct program must fail the check.
  int corrupt_reference = 0;
};

struct RunResult {
  Outcomes outcomes;
  std::map<std::string, double> metrics;  ///< end-to-end or per-layer
  std::vector<std::string> info;          ///< JSON lines printed before the result
  [[nodiscard]] bool correct() const noexcept { return outcomes.mismatched == 0; }
};

/// Names accepted by run_workload.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Which inputs a workload needs: the model recipe key and whether the CSV
/// is used.
struct WorkloadInputs {
  bool wide_model = false;
  bool csv = false;
};
[[nodiscard]] WorkloadInputs workload_inputs(const std::string& workload);

/// Runs one workload.  Throws std::invalid_argument for an unknown name.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

/// One request of an open-loop schedule.
struct Request {
  std::int64_t due_ns = 0;   ///< send time, relative to the schedule start
  std::uint32_t offset = 0;  ///< first pool row
  std::uint32_t size = 1;    ///< samples
};

/// Poisson arrivals at `rate` per second over `seconds`; sizes are 1 when
/// `mean_size` <= 1, else 1 + geometric with mean `mean_size` - 1, capped
/// at `max_size`.  Rows are taken consecutively from a pool of `pool_rows`,
/// wrapping to row 0 when a request would run past the end.  Fixed by
/// `seed`.
[[nodiscard]] std::vector<Request> make_schedule(std::uint64_t seed, double rate,
                                                 double seconds, double mean_size,
                                                 std::uint32_t max_size,
                                                 std::size_t pool_rows);

}  // namespace perfbench
