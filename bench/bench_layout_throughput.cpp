// Deep-forest memory-bound throughput: the acceptance bench for the
// exec/layout compact node formats (ISSUE 3).
//
// Trains a deep synthetic forest whose packed node image exceeds L2 — the
// regime where node fetches, not compares, dominate — and measures
// samples/sec for the wide encoded interpreter and the layout:* compact
// backends at the same thread count.  Acceptance: layout:auto >= 1.3x
// encoded on the deep model.
//
// Every configuration is verified bit-identical to per-sample
// Forest::predict before it is timed; any divergence exits non-zero (CI
// runs this as a correctness gate with FLINT_BENCH_SMOKE=1).
//
// Emits BENCH_layout_throughput.json next to the text output.
//
//   FLINT_BENCH_SMOKE=1  tiny model, correctness-gate sized (CI)
//   FLINT_BENCH_FULL=1   256 trees x depth 16 + larger pool
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synth.hpp"
#include "exec/layout/plan.hpp"
#include "exec/layout/quant4.hpp"
#include "harness/bench_json.hpp"
#include "harness/machine_info.hpp"
#include "harness/timer.hpp"
#include "jit/cache.hpp"
#include "predict/predictor.hpp"
#include "trees/forest.hpp"
#include "trees/tree_stats.hpp"

namespace {

double samples_per_sec(const flint::predict::Predictor<float>& p,
                       const std::vector<float>& features, std::size_t batch,
                       std::vector<std::int32_t>& out) {
  const std::size_t cols = p.feature_count();
  const std::span<const float> span(features.data(), batch * cols);
  const auto t = flint::harness::measure(
      [&] { p.predict_batch(span, batch, {out.data(), batch}); }, 0.05, 3);
  return static_cast<double>(batch) / t.seconds_per_iteration;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--help") {
    std::printf(
        "bench_layout_throughput: deep-forest (memory-bound) inference\n"
        "throughput of the layout:* compact-node backends vs the encoded\n"
        "interpreter.  Verifies bit-identity to Forest::predict first;\n"
        "divergence exits non-zero.  Writes\n"
        "BENCH_layout_throughput.json.  FLINT_BENCH_SMOKE=1 shrinks to a\n"
        "CI correctness gate; FLINT_BENCH_FULL=1 enlarges the model.\n");
    return 0;
  }
  const char* full_env = std::getenv("FLINT_BENCH_FULL");
  const bool full = full_env != nullptr && full_env[0] == '1';
  const char* smoke_env = std::getenv("FLINT_BENCH_SMOKE");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';

  std::printf("=== Deep-forest layout throughput (exec/layout) ===\n");
  std::printf("host: %s (hardware_concurrency=%u)\n",
              flint::harness::to_string(flint::harness::query_machine_info())
                  .c_str(),
              std::thread::hardware_concurrency());

  const auto spec = flint::data::spec_by_name("magic");
  const std::size_t rows = smoke ? 1500 : (full ? 20000 : 10000);
  const int n_trees = smoke ? 16 : (full ? 256 : 128);
  const int depth = smoke ? 8 : (full ? 16 : 14);
  const auto data = flint::data::generate<float>(spec, 42, rows);
  flint::trees::ForestOptions fopt;
  fopt.n_trees = n_trees;
  fopt.tree.max_depth = depth;
  fopt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
  const auto forest = flint::trees::train_forest(data, fopt);
  const auto stats = flint::trees::forest_stats(forest);
  const auto cache = flint::exec::layout::detect_cache_info();

  const std::size_t wide_bytes = stats.total_nodes * 16;  // PackedNode<float>
  std::printf(
      "model: %d trees, depth<=%d (max %zu), %zu nodes\n"
      "packed: wide %.1f KiB | c16 %.1f KiB | q4 %.1f KiB  (L2 %zu KiB, "
      "LLC %zu KiB)\npool: %zu samples\n\n",
      n_trees, depth, stats.max_depth, stats.total_nodes,
      wide_bytes / 1024.0, stats.total_nodes * 16 / 1024.0,
      stats.total_nodes * 4 / 1024.0, cache.l2_bytes / 1024,
      cache.llc_bytes / 1024, data.rows());

  flint::harness::BenchJson json("layout_throughput");
  json.set("trees", n_trees);
  json.set("max_depth", stats.max_depth);
  json.set("total_nodes", stats.total_nodes);
  json.set("pool_rows", data.rows());
  json.set("l2_bytes", cache.l2_bytes);
  json.set("llc_bytes", cache.llc_bytes);
  json.set("mode", smoke ? "smoke" : (full ? "full" : "default"));

  // Bit-identity gate vs per-sample Forest::predict.
  std::vector<std::int32_t> reference(data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    reference[r] = forest.predict(data.row(r));
  }
  std::vector<std::int32_t> out(data.rows());
  const std::vector<float> features(data.values().begin(),
                                    data.values().end());
  auto verify = [&](const flint::predict::Predictor<float>& p) {
    p.predict_batch(features, data.rows(), out);
    for (std::size_t r = 0; r < data.rows(); ++r) {
      if (out[r] != reference[r]) {
        std::fprintf(stderr,
                     "FATAL: %s diverges from Forest::predict at row %zu\n",
                     p.name().c_str(), r);
        std::exit(1);
      }
    }
  };

  std::vector<std::string> backends = {"encoded", "layout:c16", "layout:q4",
                                       "layout:auto", "jit:layout"};
  // Quantization contract report for the 4-byte image: packed once here so
  // the JSON artifact carries the per-model fitness/mismatch facts the
  // acceptance criteria ask for.  layout:q4 only joins the bit-identity
  // gate when the exact contract holds (synthetic training draws splits
  // from the sample pool, so it always does here — the check keeps the
  // bench honest on arbitrary models).
  const auto tables = flint::exec::layout::build_key_tables(forest);
  {
    flint::exec::layout::LayoutPlan qplan_probe;
    qplan_probe.width = flint::exec::layout::NodeWidth::Q4;
    std::string q4_why;
    const auto q4_img = flint::exec::layout::try_pack_q4<float>(
        forest, qplan_probe, tables, false, &q4_why);
    if (q4_img.has_value()) {
      const auto& qp = q4_img->qplan;
      json.set("q4_bits", qp.bits);
      json.set("q4_exact_features", qp.exact_features());
      json.set("q4_affine_features", qp.affine_features());
      json.set("q4_all_exact", qp.all_exact());
      json.set("q4_accuracy_contract", qp.accuracy_contract());
      json.set("q4_min_fitness", qp.min_fitness());
      json.set("q4_plan_report", flint::quant::report_json(qp));
      std::printf("q4 contract: %s (%s)\n", qp.describe().c_str(),
                  qp.all_exact() ? "bit-exact" : "affine fallback");
      if (!q4_img->exact()) {
        std::erase(backends, std::string("layout:q4"));
        std::printf("  layout:q4 excluded from the bit-identity gate\n");
      }
    } else {
      json.set("q4_pack_error", q4_why);
      std::erase(backends, std::string("layout:q4"));
      std::printf("q4 contract: not packable (%s)\n", q4_why.c_str());
    }
  }

  std::vector<std::unique_ptr<flint::predict::Predictor<float>>> predictors;
  std::printf("--- backends (verified bit-identical) ---\n");
  for (std::size_t i = 0; i < backends.size();) {
    flint::predict::PredictorOptions opt;
    opt.block_size = 256;
    const auto cache_before = flint::jit::CompileCache::instance().stats();
    const auto c0 = std::chrono::steady_clock::now();
    try {
      predictors.push_back(
          flint::predict::make_predictor(forest, backends[i], opt));
    } catch (const std::exception& e) {
      // A pinned width can be unpackable; jit:layout can miss a C
      // toolchain.  layout:auto still serves.
      std::printf("  %-12s skipped (%s)\n", backends[i].c_str(), e.what());
      backends.erase(backends.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    const auto c1 = std::chrono::steady_clock::now();
    if (backends[i].rfind("jit:", 0) == 0) {
      const auto cache_after = flint::jit::CompileCache::instance().stats();
      const double compile_ms =
          std::chrono::duration<double, std::milli>(c1 - c0).count();
      const bool cache_hit = cache_after.hits > cache_before.hits;
      json.set("jit_layout_compile_ms", compile_ms);
      json.set("jit_layout_cache_hit", cache_hit);
      std::printf("  %-12s compile %.1f ms (cache %s)\n", backends[i].c_str(),
                  compile_ms, cache_hit ? "hit" : "miss");
    }
    verify(*predictors.back());
    std::printf("  %-12s -> %s\n", backends[i].c_str(),
                predictors.back()->name().c_str());
    ++i;
  }

  // --- Sweep 1: batch-size x backend, single thread. -----------------------
  std::printf("\n--- batch-size sweep (1 thread, samples/sec) ---\n");
  std::printf("%-8s", "batch");
  for (const auto& b : backends) std::printf(" %-13s", b.c_str());
  std::printf("\n");
  double encoded_rate = 0.0;  // the baseline, at the largest batch
  double layout_auto_rate = 0.0;
  double jit_layout_rate = 0.0;
  double layout_q4_rate = 0.0;
  // 16 and 64 are coalesced serve batches: above the latency path, within
  // one AVX2 tile group (16) and just past it (64).
  for (const std::size_t batch : {std::size_t{16}, std::size_t{64},
                                  std::size_t{256}, std::size_t{4096},
                                  data.rows()}) {
    if (batch > data.rows()) continue;
    std::printf("%-8zu", batch);
    for (std::size_t i = 0; i < backends.size(); ++i) {
      const double rate = samples_per_sec(*predictors[i], features, batch, out);
      std::printf(" %-13.0f", rate);
      json.add_rate(backends[i], batch, 1, rate);
      if (batch == data.rows()) {
        if (backends[i] == "encoded") encoded_rate = rate;
        if (backends[i] == "layout:auto") layout_auto_rate = rate;
        if (backends[i] == "jit:layout") jit_layout_rate = rate;
        if (backends[i] == "layout:q4") layout_q4_rate = rate;
      }
    }
    std::printf("\n");
  }

  // --- Sweep 2: threads x layout:auto. -------------------------------------
  std::printf("\n--- thread sweep (batch=%zu, samples/sec) ---\n",
              data.rows());
  std::printf("%-8s %-14s\n", "threads", "layout:auto");
  for (const unsigned threads : {1u, 2u, 4u}) {
    flint::predict::PredictorOptions opt;
    opt.block_size = 256;
    opt.threads = threads;
    const auto p = flint::predict::make_predictor(forest, "layout:auto", opt);
    verify(*p);
    const double rate = samples_per_sec(*p, features, data.rows(), out);
    json.add_rate("layout:auto", data.rows(), threads, rate);
    std::printf("%-8u %-14.0f\n", threads, rate);
  }

  // --- Sweep 3: single-sample latency (interleaved lockstep path). ---------
  std::printf("\n--- single-sample latency (us/sample) ---\n");
  const std::size_t cols = forest.feature_count();
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const auto& p = *predictors[i];
    std::size_t r = 0;
    std::int32_t sink = 0;
    const auto t = flint::harness::measure(
        [&] {
          sink ^= p.predict_one({features.data() + r * cols, cols});
          r = (r + 1) % data.rows();
        },
        0.02, 3);
    (void)sink;
    const double us = t.seconds_per_iteration * 1e6;
    std::printf("  %-12s %8.2f\n", backends[i].c_str(), us);
    json.add_row({{"backend", flint::harness::BenchValue::of(backends[i])},
                  {"batch", flint::harness::BenchValue::of(std::size_t{1})},
                  {"threads", flint::harness::BenchValue::of(1)},
                  {"us_per_sample", flint::harness::BenchValue::of(us)}});
  }

  // --- quant:affine: deliberately lossy, so it is measured (throughput +
  // prediction-mismatch rate vs the exact forest) instead of verified. ------
  try {
    flint::predict::PredictorOptions opt;
    opt.block_size = 256;
    const auto affine = flint::predict::make_predictor(forest, "quant:affine",
                                                       opt);
    affine->predict_batch(features, data.rows(), out);
    std::size_t mismatches = 0;
    for (std::size_t r = 0; r < data.rows(); ++r) {
      if (out[r] != reference[r]) ++mismatches;
    }
    const double mismatch_rate = static_cast<double>(mismatches) /
                                 static_cast<double>(data.rows());
    const double rate = samples_per_sec(*affine, features, data.rows(), out);
    std::printf(
        "\n--- quant:affine (lossy by contract) ---\n"
        "  %-28s %12.0f samples/sec, mismatch %.4f\n",
        affine->name().c_str(), rate, mismatch_rate);
    json.add_row({{"backend", flint::harness::BenchValue::of("quant:affine")},
                  {"batch", flint::harness::BenchValue::of(data.rows())},
                  {"threads", flint::harness::BenchValue::of(1)},
                  {"samples_per_sec", flint::harness::BenchValue::of(rate)},
                  {"mismatch_rate",
                   flint::harness::BenchValue::of(mismatch_rate)}});
    json.set("quant_affine_mismatch_rate", mismatch_rate);
  } catch (const std::exception& e) {
    std::printf("\nquant:affine skipped (%s)\n", e.what());
  }

  const double speedup =
      encoded_rate > 0 ? layout_auto_rate / encoded_rate : 0.0;
  json.set("layout_auto_vs_encoded", speedup);
  std::printf(
      "\n(acceptance: layout:auto >= 1.3x encoded on the deep model -- "
      "%.2fx, %s%s)\n",
      speedup, speedup >= 1.3 ? "MET" : "NOT MET on this host",
      smoke ? "; smoke model is cache-resident, timing not meaningful" : "");
  if (jit_layout_rate > 0 && layout_auto_rate > 0) {
    // ISSUE 9 gate: the generated module must not lose to the engine it was
    // generated from, on batch throughput or single-sample latency.  The
    // one-shot sweep cells above are minutes apart, so on a shared host the
    // load can drift by more than the margin under test; the gate instead
    // measures the two backends back-to-back in alternating rounds and takes
    // the median per-round ratio, which cancels the drift pairwise.
    const flint::predict::Predictor<float>* auto_p = nullptr;
    const flint::predict::Predictor<float>* jit_p = nullptr;
    for (std::size_t i = 0; i < backends.size(); ++i) {
      if (backends[i] == "layout:auto") auto_p = predictors[i].get();
      if (backends[i] == "jit:layout") jit_p = predictors[i].get();
    }
    auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    auto latency_us = [&](const flint::predict::Predictor<float>& p) {
      std::size_t r = 0;
      std::int32_t sink = 0;
      const auto t = flint::harness::measure(
          [&] {
            sink ^= p.predict_one({features.data() + r * cols, cols});
            r = (r + 1) % data.rows();
          },
          0.02, 3);
      (void)sink;
      return t.seconds_per_iteration * 1e6;
    };
    std::vector<double> batch_ratios;
    std::vector<double> latency_ratios;
    for (int round = 0; round < 9; ++round) {
      const double ra =
          samples_per_sec(*auto_p, features, data.rows(), out);
      const double rj = samples_per_sec(*jit_p, features, data.rows(), out);
      batch_ratios.push_back(rj / ra);
      const double ua = latency_us(*auto_p);
      const double uj = latency_us(*jit_p);
      latency_ratios.push_back(ua / uj);
    }
    const double batch_ratio = median(batch_ratios);
    const double latency_ratio = median(latency_ratios);
    json.set("jit_layout_vs_layout_auto_batch", batch_ratio);
    json.set("jit_layout_vs_layout_auto_latency", latency_ratio);
    std::printf(
        "(acceptance: jit:layout >= 1.0x layout:auto, paired median of 9 "
        "rounds -- batch %.2fx, latency %.2fx, %s)\n",
        batch_ratio, latency_ratio,
        batch_ratio >= 1.0 && latency_ratio >= 1.0 ? "MET"
                                                   : "NOT MET on this host");
  }
  if (layout_q4_rate > 0) {
    // Quantized-layout gate: the 4-byte image must beat what the auto tuner
    // would pick WITHOUT the q4 rung (auto itself now selects q4 on this
    // model, so the honest baseline is auto re-planned with
    // fit.allow_q4 = false — which resolves to c16, the only other compact
    // width, already constructed above).  Paired rounds + median ratio for
    // the same drift-cancelling reasons as the jit gate.
    const char* baseline_backend = "layout:c16";
    const flint::predict::Predictor<float>* q4_p = nullptr;
    const flint::predict::Predictor<float>* base_p = nullptr;
    for (std::size_t i = 0; i < backends.size(); ++i) {
      if (backends[i] == "layout:q4") q4_p = predictors[i].get();
      if (backends[i] == baseline_backend) base_p = predictors[i].get();
    }
    if (q4_p != nullptr && base_p != nullptr) {
      auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
      };
      std::vector<double> ratios;
      for (int round = 0; round < 9; ++round) {
        const double rq = samples_per_sec(*q4_p, features, data.rows(), out);
        const double rb = samples_per_sec(*base_p, features, data.rows(), out);
        ratios.push_back(rq / rb);
      }
      const double q4_ratio = median(ratios);
      json.set("layout_q4_baseline", std::string("layout:auto[no-q4]=") +
                                         baseline_backend);
      json.set("layout_q4_vs_auto_no_q4", q4_ratio);
      std::printf(
          "(acceptance: layout:q4 >= 1.25x layout:auto[no-q4] (%s), paired "
          "median of 9 rounds -- %.2fx, %s%s)\n",
          baseline_backend, q4_ratio,
          q4_ratio >= 1.25 ? "MET" : "NOT MET on this host",
          smoke ? "; smoke model is cache-resident, timing not meaningful"
                : "");
    }
  }
  const std::string path = json.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  return 0;
}
