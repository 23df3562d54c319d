// Batched inference throughput: sweeps cache-block size and worker-thread
// count over the unified predict::Predictor API and reports samples/sec.
//
// This is the tentpole bench for the production serving path: unlike the
// paper-reproduction benches (which time single-sample latency of compiled
// trees), it measures the blocked interpreter backends feeding many samples
// per call, and how that scales when a ParallelPredictor spreads the batch
// over a jthread worker pool.  Every configuration is verified bit-identical
// to the `reference` backend (per-sample Forest::predict) before it is
// timed.
//
// FLINT_BENCH_FULL=1 enlarges the dataset and the sweep.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "data/split.hpp"
#include "data/synth.hpp"
#include "harness/bench_json.hpp"
#include "harness/machine_info.hpp"
#include "harness/timer.hpp"
#include "jit/cache.hpp"
#include "predict/predictor.hpp"
#include "trees/forest.hpp"

namespace {

double samples_per_sec(const flint::predict::Predictor<float>& p,
                       const flint::data::Dataset<float>& data,
                       std::vector<std::int32_t>& out) {
  const auto t = flint::harness::measure(
      [&] { p.predict_batch(data, out); }, 0.05, 3);
  return static_cast<double>(data.rows()) / t.seconds_per_iteration;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--help") {
    std::printf(
        "bench_batch_throughput: blocked-batch and multi-threaded inference\n"
        "throughput (samples/sec) over the predict::Predictor API.\n"
        "FLINT_BENCH_FULL=1 enlarges dataset and sweep.\n");
    return 0;
  }
  const char* full_env = std::getenv("FLINT_BENCH_FULL");
  const bool full = full_env != nullptr && full_env[0] == '1';

  std::printf("=== Batched inference throughput (predict::Predictor) ===\n");
  std::printf("host: %s (hardware_concurrency=%u)\n\n",
              flint::harness::to_string(flint::harness::query_machine_info()).c_str(),
              std::thread::hardware_concurrency());

  const auto spec = flint::data::spec_by_name("magic");
  const auto data =
      flint::data::generate<float>(spec, 42, full ? 40000 : 8000);
  const auto split = flint::data::train_test_split(data, 0.75, 42);
  flint::trees::ForestOptions fopt;
  fopt.n_trees = full ? 100 : 50;
  fopt.tree.max_depth = 15;
  fopt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
  const auto forest = flint::trees::train_forest(split.train, fopt);
  const auto& batch = split.test;  // the large side of the 25/75 split
  std::printf("model: %d trees, depth<=15, %zu nodes; batch: %zu samples\n\n",
              fopt.n_trees, forest.total_nodes(), batch.rows());

  flint::harness::BenchJson json("batch_throughput");
  json.set("trees", fopt.n_trees);
  json.set("total_nodes", forest.total_nodes());
  json.set("batch_rows", batch.rows());

  std::vector<std::int32_t> reference(batch.rows());
  flint::predict::make_predictor(forest, "reference")
      ->predict_batch(batch, reference);
  std::vector<std::int32_t> out(batch.rows());
  auto verify = [&](const flint::predict::Predictor<float>& p) {
    p.predict_batch(batch, out);
    for (std::size_t r = 0; r < batch.rows(); ++r) {
      if (out[r] != reference[r]) {
        std::fprintf(stderr, "FATAL: %s diverges from reference at row %zu\n",
                     p.name().c_str(), r);
        std::exit(1);
      }
    }
  };

  // --- Sweep 1: cache-block size, single thread. ---------------------------
  std::printf("--- block-size sweep (backend: encoded, 1 thread) ---\n");
  std::printf("%-12s %-14s %-10s\n", "block", "samples/sec", "vs block=1");
  double base_rate = 0.0;
  for (const std::size_t block : {std::size_t{1}, std::size_t{16},
                                  std::size_t{64}, std::size_t{256},
                                  std::size_t{1024}}) {
    flint::predict::PredictorOptions opt;
    opt.block_size = block;
    const auto p = flint::predict::make_predictor(forest, "encoded", opt);
    verify(*p);
    const double rate = samples_per_sec(*p, batch, out);
    if (block == 1) base_rate = rate;
    std::printf("%-12zu %-14.0f %.2fx\n", block, rate, rate / base_rate);
    json.add_row({{"backend", flint::harness::BenchValue::of("encoded")},
                  {"block", flint::harness::BenchValue::of(block)},
                  {"threads", flint::harness::BenchValue::of(1)},
                  {"samples_per_sec", flint::harness::BenchValue::of(rate)}});
  }

  // --- Sweep 2: thread count at a fixed block size. ------------------------
  std::printf("\n--- thread sweep (backend: encoded, block=256) ---\n");
  std::printf("%-12s %-14s %-10s\n", "threads", "samples/sec", "speedup");
  double serial_rate = 0.0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    flint::predict::PredictorOptions opt;
    opt.block_size = 256;
    opt.threads = threads;
    const auto p = flint::predict::make_predictor(forest, "encoded", opt);
    verify(*p);
    const double rate = samples_per_sec(*p, batch, out);
    if (threads == 1) serial_rate = rate;
    std::printf("%-12u %-14.0f %.2fx\n", threads, rate, rate / serial_rate);
    json.add_rate("encoded", batch.rows(), threads, rate);
  }

  // --- Sweep 3: backends at the best single-thread configuration. ----------
  std::printf("\n--- backend sweep (block=256, 1 thread) ---\n");
  std::printf("%-12s %-14s\n", "backend", "samples/sec");
  for (const char* backend :
       {"reference", "encoded", "layout:auto", "layout:c16", "jit:layout"}) {
    flint::predict::PredictorOptions opt;
    opt.block_size = 256;
    std::unique_ptr<flint::predict::Predictor<float>> p;
    const auto cache_before = flint::jit::CompileCache::instance().stats();
    const auto c0 = std::chrono::steady_clock::now();
    try {
      p = flint::predict::make_predictor(forest, backend, opt);
    } catch (const std::exception& e) {
      // jit:layout can miss a C toolchain.
      std::printf("%-12s skipped (%s)\n", backend, e.what());
      continue;
    }
    const auto c1 = std::chrono::steady_clock::now();
    if (std::string_view(backend).rfind("jit:", 0) == 0) {
      const auto cache_after = flint::jit::CompileCache::instance().stats();
      const double compile_ms =
          std::chrono::duration<double, std::milli>(c1 - c0).count();
      const bool cache_hit = cache_after.hits > cache_before.hits;
      json.set("jit_layout_compile_ms", compile_ms);
      json.set("jit_layout_cache_hit", cache_hit);
      std::printf("%-12s compile %.1f ms (cache %s)\n", backend, compile_ms,
                  cache_hit ? "hit" : "miss");
    }
    verify(*p);
    const double rate = samples_per_sec(*p, batch, out);
    std::printf("%-12s %-14.0f\n", backend, rate);
    json.add_rate(backend, batch.rows(), 1, rate);
  }

  std::printf(
      "\n(speedup saturates at the machine's core count; on a single-core\n"
      "host the thread sweep stays near 1.0x by design -- the win is that\n"
      "results remain bit-identical at every thread count.)\n");
  return 0;
}
