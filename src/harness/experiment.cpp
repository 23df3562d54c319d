#include "harness/experiment.hpp"

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <tuple>
#include <future>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "codegen/asm_x86.hpp"
#include "codegen/cgen_cags.hpp"
#include "codegen/cgen_ifelse.hpp"
#include "codegen/cgen_native.hpp"
#include "data/split.hpp"
#include "data/synth.hpp"
#include "harness/timer.hpp"
#include "jit/jit.hpp"
#include "predict/jit_predictor.hpp"
#include "predict/predictor.hpp"
#include "trees/tree_stats.hpp"

namespace flint::harness {

const char* to_string(Impl impl) {
  switch (impl) {
    case Impl::Naive: return "Naive";
    case Impl::Cags: return "CAGS";
    case Impl::Flint: return "FLInt";
    case Impl::CagsFlint: return "CAGS(FLInt)";
    case Impl::FlintAsm: return "FLIntASM";
    case Impl::NativeFloat: return "NativeFloat";
    case Impl::NativeFlint: return "NativeFLInt";
  }
  return "?";
}

Impl impl_from_string(const std::string& name) {
  for (const Impl i : {Impl::Naive, Impl::Cags, Impl::Flint, Impl::CagsFlint,
                       Impl::FlintAsm, Impl::NativeFloat, Impl::NativeFlint}) {
    if (name == to_string(i)) return i;
  }
  throw std::invalid_argument("impl_from_string: unknown impl '" + name + "'");
}

namespace {

/// One grid cell: a trained forest plus everything needed to time it.
struct Cell {
  std::string dataset;
  int n_trees = 0;
  int depth = 0;
  trees::Forest<float> forest;
  std::vector<trees::BranchStats> stats;
  const data::Dataset<float>* test = nullptr;
};

codegen::GeneratedCode generate_for(const Cell& cell, Impl impl,
                                    const GridConfig& config) {
  codegen::CGenOptions options;
  options.prefix = "forest";
  options.kernel_budget_bytes = config.cags_kernel_budget;
  switch (impl) {
    case Impl::Naive:
      options.flint = false;
      return codegen::generate_ifelse(cell.forest, options);
    case Impl::Flint:
      options.flint = true;
      return codegen::generate_ifelse(cell.forest, options);
    case Impl::Cags:
      options.flint = false;
      return codegen::generate_cags(cell.forest, cell.stats, options);
    case Impl::CagsFlint:
      options.flint = true;
      return codegen::generate_cags(cell.forest, cell.stats, options);
    case Impl::FlintAsm:
      return codegen::generate_asm_x86(cell.forest, options);
    case Impl::NativeFloat:
      options.flint = false;
      return codegen::generate_native(cell.forest, options);
    case Impl::NativeFlint:
      options.flint = true;
      return codegen::generate_native(cell.forest, options);
  }
  throw std::logic_error("generate_for: unhandled impl");
}

/// Simple bounded parallel-for over [0, n) using std::thread workers.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& body) {
  // Not hardware_concurrency(): respect cgroup CPU quotas in containers
  // (same reasoning as ParallelPredictor's pool sizing).
  if (threads == 0) threads = predict::available_parallelism();
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::string> errors(n);
  std::vector<std::thread> pool;
  const unsigned count = std::min<unsigned>(threads, static_cast<unsigned>(n));
  pool.reserve(count);
  for (unsigned t = 0; t < count; ++t) {
    pool.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          body(i);
        } catch (const std::exception& e) {
          errors[i] = e.what();
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  if (failed.load()) {
    for (const auto& e : errors) {
      if (!e.empty()) throw std::runtime_error("parallel task failed: " + e);
    }
  }
}

}  // namespace

std::vector<RunRecord> run_grid(const GridConfig& config, std::ostream* progress) {
  if (config.datasets.empty() || config.ensemble_sizes.empty() ||
      config.depths.empty() || config.impls.empty()) {
    throw std::invalid_argument("run_grid: empty grid dimension");
  }

  // --- Phase 1: data generation + splits (one per dataset). -----------------
  std::vector<data::TrainTestSplit<float>> splits;
  splits.reserve(config.datasets.size());
  for (const auto& name : config.datasets) {
    const auto spec = data::spec_by_name(name);
    auto full = data::generate<float>(spec, config.seed, config.dataset_rows);
    splits.push_back(
        data::train_test_split(full, config.test_fraction, config.seed));
  }

  // --- Phase 2: training (parallel across cells). ---------------------------
  std::vector<Cell> cells(config.datasets.size() * config.ensemble_sizes.size() *
                          config.depths.size());
  {
    std::vector<std::tuple<std::size_t, int, int>> keys;
    keys.reserve(cells.size());
    for (std::size_t d = 0; d < config.datasets.size(); ++d) {
      for (const int nt : config.ensemble_sizes) {
        for (const int depth : config.depths) {
          keys.emplace_back(d, nt, depth);
        }
      }
    }
    parallel_for(cells.size(), config.compile_threads, [&](std::size_t i) {
      const auto [d, nt, depth] = keys[i];
      trees::ForestOptions fo;
      fo.n_trees = nt;
      fo.tree.max_depth = depth;
      fo.tree.max_features = trees::TrainOptions::kSqrtFeatures;
      fo.tree.seed = config.seed + 1000 * i;
      Cell cell;
      cell.dataset = config.datasets[d];
      cell.n_trees = nt;
      cell.depth = depth;
      cell.forest = trees::train_forest(splits[d].train, fo);
      cell.stats = trees::collect_branch_stats(cell.forest, splits[d].train);
      cell.test = &splits[d].test;
      cells[i] = std::move(cell);
    });
  }

  // --- Phase 3: codegen + JIT compilation (parallel across cell x impl). ----
  // Each compiled module is wrapped in a predict::JitPredictor so Phase 4
  // verifies and times every flavor through the same batched API the CLI
  // and benches use.
  const std::size_t n_jobs = cells.size() * config.impls.size();
  std::vector<std::unique_ptr<predict::JitPredictor<float>>> predictors(n_jobs);
  jit::JitOptions jopt;
  jopt.opt_level = config.jit_opt_level;
  parallel_for(n_jobs, config.compile_threads, [&](std::size_t j) {
    const std::size_t cell_idx = j / config.impls.size();
    const Impl impl = config.impls[j % config.impls.size()];
    const Cell& cell = cells[cell_idx];
    const auto code = generate_for(cell, impl, config);
    predictors[j] = std::make_unique<predict::JitPredictor<float>>(
        code, jopt, cell.forest.num_classes(), cell.forest.feature_count());
  });

  // --- Phase 4: verification + timing (serial for stable numbers). ----------
  std::vector<RunRecord> records;
  records.reserve(n_jobs);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const data::Dataset<float>& test = *cell.test;
    // Reference predictions from per-sample Forest::predict.
    const auto reference_predictor =
        predict::make_predictor(cell.forest, "reference");
    std::vector<std::int32_t> reference(test.rows());
    reference_predictor->predict_batch(test, reference);

    std::vector<std::int32_t> predictions(test.rows());
    double naive_ns = 0.0;
    for (std::size_t k = 0; k < config.impls.size(); ++k) {
      const Impl impl = config.impls[k];
      const std::size_t j = c * config.impls.size() + k;
      const predict::JitPredictor<float>& predictor = *predictors[j];

      RunRecord rec;
      rec.dataset = cell.dataset;
      rec.n_trees = cell.n_trees;
      rec.depth = cell.depth;
      rec.impl = impl;
      rec.test_rows = test.rows();
      rec.total_nodes = cell.forest.total_nodes();
      rec.object_bytes = predictor.object_size();

      if (config.verify_predictions) {
        predictor.predict_batch(test, predictions);
        for (std::size_t r = 0; r < test.rows(); ++r) {
          if (predictions[r] != reference[r]) {
            throw std::runtime_error(
                std::string("run_grid: prediction mismatch: ") + to_string(impl) +
                " on " + cell.dataset + " trees=" + std::to_string(cell.n_trees) +
                " depth=" + std::to_string(cell.depth) + " row=" +
                std::to_string(r));
          }
        }
        rec.verified = true;
      }

      // Timed loop: one full batch over the test rows per iteration (the
      // generated-code backends classify sample by sample under the batch
      // API, so this is the paper's single-sample cost x rows).  The batch
      // boundary's shape + NaN gate runs once here, outside the timer, so
      // the measured ns/sample is traversal cost, not the O(rows x cols)
      // validation scan — keeping the normalized ratios comparable to the
      // paper's.
      predictor.predict_batch(test, predictions);
      const bool exact_width = test.cols() == predictor.feature_count();
      const auto timing = measure(
          [&] {
            if (exact_width) {
              predictor.predict_batch_prevalidated(
                  test.values().data(), test.rows(), predictions.data());
            } else {
              predictor.predict_batch(test, predictions);
            }
          },
          config.min_measure_seconds, config.repetitions);
      rec.ns_per_sample = timing.seconds_per_iteration /
                          static_cast<double>(test.rows()) * 1e9;
      if (impl == Impl::Naive) naive_ns = rec.ns_per_sample;
      records.push_back(rec);
    }
    // Normalize the cell against its Naive measurement (if present).
    if (naive_ns > 0.0) {
      for (std::size_t k = 0; k < config.impls.size(); ++k) {
        auto& rec = records[records.size() - config.impls.size() + k];
        rec.normalized = rec.ns_per_sample / naive_ns;
      }
    }
    // Free the cell's modules before timing the next cell.
    for (std::size_t k = 0; k < config.impls.size(); ++k) {
      predictors[c * config.impls.size() + k].reset();
    }
    if (progress != nullptr) {
      *progress << "[cell " << (c + 1) << "/" << cells.size() << "] "
                << cell.dataset << " trees=" << cell.n_trees
                << " depth=" << cell.depth << " nodes=" << cell.forest.total_nodes()
                << " done\n";
      progress->flush();
    }
  }
  return records;
}

GridConfig default_config() {
  GridConfig config;
  config.datasets = {"eye", "magic", "wine"};
  config.ensemble_sizes = {1, 5};
  config.depths = {1, 5, 10, 15, 20, 30};
  config.impls = {Impl::Naive, Impl::Cags, Impl::Flint, Impl::CagsFlint};
  config.dataset_rows = 3000;
  return config;
}

GridConfig paper_config() {
  GridConfig config;
  config.datasets = {"eye", "gas", "magic", "sensorless", "wine"};
  config.ensemble_sizes = {1, 5, 10, 15, 20, 30, 50, 80, 100};
  config.depths = {1, 5, 10, 15, 20, 30, 50};
  config.impls = {Impl::Naive, Impl::Cags, Impl::Flint, Impl::CagsFlint};
  config.dataset_rows = 8000;
  return config;
}

GridConfig config_from_env() {
  const char* full = std::getenv("FLINT_BENCH_FULL");
  if (full != nullptr && full[0] == '1') return paper_config();
  return default_config();
}

}  // namespace flint::harness
