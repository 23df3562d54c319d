// perfbench/inputs — the seeded inputs of every workload: synthetic data,
// the trained model file, a held-out pool of rows with their
// Forest::predict references, and (for file-predict) the pool as CSV.
//
// One seed drives everything: which rows of a fixed synthetic population
// are trained on and held out, the forest trainer, and (in workloads.cpp)
// the request sizes and the arrival schedule.  Inputs are written once per
// (seed, model) under a directory the caller picks; training is never
// timed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// How one benchmark model is made.
struct ModelRecipe {
  const char* key;      ///< sub-directory name
  const char* dataset;  ///< data::spec_by_name
  int trees;
  int depth;
  std::size_t train_rows;
  std::size_t pool_rows;  ///< held-out rows, never seen by the trainer
  std::uint64_t salt;     ///< separates this recipe's streams from the others
};

/// 128 trees of depth 14 on 20k MAGIC rows: a c16 image of several MiB,
/// larger than a 2 MiB L2.
inline constexpr ModelRecipe kDeepModel{"deep", "magic", 128, 14, 20000, 200000, 1};
/// 64 trees of depth 10 on 20k Sensorless rows: cache-resident, 48 features,
/// 11 classes.
inline constexpr ModelRecipe kWideModel{"wide", "sensorless", 64, 10, 20000, 65536, 2};

struct ModelFiles {
  std::string model;  ///< native model file, as `flint-forest train` writes it
  std::string pool;   ///< binary pool: rows, features, labels, references
  std::string csv;    ///< the pool as CSV (file-predict only)
};

[[nodiscard]] ModelFiles model_files(const std::string& dir, const ModelRecipe& recipe);

/// Writes the recipe's files under `dir` for `seed` unless they are already
/// there.  `with_csv` also writes the CSV.  Training uses `threads` threads;
/// the forest is the same for every thread count.
void prepare(const std::string& dir, const ModelRecipe& recipe, std::uint64_t seed,
             bool with_csv, unsigned threads);

/// Held-out rows with their reference predictions.
struct Pool {
  std::size_t cols = 0;
  std::vector<float> x;              ///< rows x cols, row-major
  std::vector<std::int32_t> labels;  ///< generator labels
  std::vector<std::int32_t> ref;     ///< Forest::predict of each row

  [[nodiscard]] std::size_t rows() const noexcept { return ref.size(); }
  [[nodiscard]] const float* row(std::size_t r) const noexcept {
    return x.data() + r * cols;
  }
};

/// Reads at most `max_rows` rows of a pool file (0 = all).
[[nodiscard]] Pool load_pool(const std::string& path, std::size_t max_rows = 0);

/// Independent sub-seed of `seed` for one use (splitmix64 of both).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) noexcept;

}  // namespace perfbench
