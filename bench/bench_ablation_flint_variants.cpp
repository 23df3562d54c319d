// Ablation: the three runtime FLInt formulations inside the native-tree
// interpreter, against the hardware-float interpreter, on trained forests.
//
// This separates the paper's two contributions: the comparison operator
// (Theorem 1 vs Theorem 2 vs the offline-encoded Theorem 2 vs radix keys)
// from the if-else compilation strategy benchmarked in Figures 3/4.
//
// The engines are driven directly (they are not predict::make_predictor
// backends): every column runs the same per-sample traversal over the same
// packed node array, so only the comparison operator differs.
#include <cstdio>
#include <string>
#include <vector>

#include "data/split.hpp"
#include "data/synth.hpp"
#include "exec/interpreter.hpp"
#include "harness/bench_json.hpp"
#include "harness/machine_info.hpp"
#include "harness/stats.hpp"
#include "harness/timer.hpp"
#include "trees/forest.hpp"

int main() {
  flint::harness::BenchJson json("ablation_flint_variants");
  std::printf("=== Ablation: FLInt runtime formulations (interpreter) ===\n");
  std::printf("host: %s\n\n",
              flint::harness::to_string(flint::harness::query_machine_info()).c_str());
  std::printf("%-12s %-6s %-10s %-10s %-10s %-10s %-10s\n", "dataset", "depth",
              "float", "encoded", "theorem1", "theorem2", "radix");

  for (const char* name : {"eye", "magic", "sensorless"}) {
    const auto spec = flint::data::spec_by_name(name);
    const auto full = flint::data::generate<float>(spec, 42, 4000);
    const auto split = flint::data::train_test_split(full, 0.25, 42);
    for (const int depth : {5, 15, 30}) {
      flint::trees::ForestOptions fopt;
      fopt.n_trees = 10;
      fopt.tree.max_depth = depth;
      fopt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
      const auto forest = flint::trees::train_forest(split.train, fopt);

      const flint::exec::FloatForestEngine<float> float_engine(forest);
      std::vector<std::int32_t> reference(split.test.rows());
      float_engine.predict_batch(split.test, reference);

      std::vector<std::int32_t> out(split.test.rows());
      auto time_engine = [&](const auto& engine) {
        const auto t = flint::harness::measure(
            [&] { engine.predict_batch(split.test, out); }, 0.02, 3);
        return t.seconds_per_iteration /
               static_cast<double>(split.test.rows()) * 1e9;
      };

      const double t_float = time_engine(float_engine);
      std::printf("%-12s %-6d %-10.1f", name, depth, t_float);
      json.add_row({{"dataset", flint::harness::BenchValue::of(name)},
                    {"depth", flint::harness::BenchValue::of(depth)},
                    {"backend", flint::harness::BenchValue::of("float")},
                    {"ns_per_sample",
                     flint::harness::BenchValue::of(t_float)}});
      for (const auto variant :
           {flint::exec::FlintVariant::Encoded,
            flint::exec::FlintVariant::Theorem1,
            flint::exec::FlintVariant::Theorem2,
            flint::exec::FlintVariant::RadixKey}) {
        const flint::exec::FlintForestEngine<float> engine(forest, variant);
        const char* backend = flint::exec::to_string(variant);
        // Equivalence guard: ablation numbers are only meaningful if the
        // engines agree everywhere.
        engine.predict_batch(split.test, out);
        for (std::size_t r = 0; r < split.test.rows(); ++r) {
          if (out[r] != reference[r]) {
            std::fprintf(stderr, "prediction mismatch: %s\n", backend);
            return 1;
          }
        }
        const double t = time_engine(engine);
        std::printf(" %-10s", (std::to_string(t / t_float).substr(0, 4) + "x").c_str());
        json.add_row({{"dataset", flint::harness::BenchValue::of(name)},
                      {"depth", flint::harness::BenchValue::of(depth)},
                      {"backend", flint::harness::BenchValue::of(backend)},
                      {"ns_per_sample", flint::harness::BenchValue::of(t)},
                      {"vs_float",
                       flint::harness::BenchValue::of(t / t_float)}});
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\n(float column: ns/sample; variant columns: ratio vs float engine)\n"
      "shape: in *interpreted* traversal the node loads dominate, so every\n"
      "formulation sits near 1.0x of hardware float -- the FLInt win the\n"
      "paper reports comes from *compiled* trees, where the split constant\n"
      "becomes an integer immediate instead of a memory-loaded float\n"
      "(see bench_fig3_depth_sweep).  This ablation pins that attribution.\n");
  return 0;
}
