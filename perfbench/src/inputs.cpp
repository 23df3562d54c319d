#include "inputs.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>

#include "data/csv.hpp"
#include "data/synth.hpp"
#include "trees/forest.hpp"
#include "trees/serialize.hpp"

namespace perfbench {
namespace {

constexpr char kPoolMagic[8] = {'P', 'B', 'P', 'O', 'O', 'L', '1', '\n'};
/// Generator seed of the fixed synthetic populations (plus the recipe salt).
constexpr std::uint64_t kPopulationSeed = 20240301;
/// Population rows per row drawn, so seeds draw overlapping but distinct
/// samples.
constexpr std::size_t kPopulationFactor = 2;

template <typename V>
void write_array(std::ofstream& out, const std::vector<V>& v) {
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(V)));
}

template <typename V>
void read_array(std::ifstream& in, std::vector<V>& v, std::size_t n) {
  v.resize(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(V)));
}

void save_pool(const std::string& path, const Pool& pool) {
  std::ofstream out(path, std::ios::binary);
  const std::uint64_t shape[2] = {pool.rows(), pool.cols};
  out.write(kPoolMagic, sizeof kPoolMagic);
  out.write(reinterpret_cast<const char*>(shape), sizeof shape);
  write_array(out, pool.x);
  write_array(out, pool.labels);
  write_array(out, pool.ref);
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Trains the recipe's forest in `threads` shards.  train_forest seeds tree
/// t with seed + t, so shard k trains trees [lo_k, hi_k) with seed + lo_k
/// and the concatenation equals the single-threaded forest.
flint::trees::Forest<float> train(const flint::data::Dataset<float>& train_set,
                                  const ModelRecipe& recipe,
                                  std::uint64_t forest_seed, unsigned threads) {
  const auto n_trees = static_cast<unsigned>(recipe.trees);
  threads = std::clamp(threads, 1u, n_trees);
  std::vector<flint::trees::Forest<float>> shards(threads);
  std::vector<std::jthread> workers;
  std::vector<std::exception_ptr> errors(threads);
  for (unsigned k = 0; k < threads; ++k) {
    workers.emplace_back([&, k] {
      try {
        const unsigned lo = n_trees * k / threads;
        const unsigned hi = n_trees * (k + 1) / threads;
        flint::trees::ForestOptions options;
        options.n_trees = static_cast<int>(hi - lo);
        options.tree.max_depth = recipe.depth;
        options.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
        options.tree.seed = forest_seed + lo;
        shards[k] = flint::trees::train_forest(train_set, options);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  workers.clear();  // joins
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<flint::trees::Tree<float>> trees;
  for (auto& shard : shards) {
    for (std::size_t t = 0; t < shard.size(); ++t) trees.push_back(shard.tree(t));
  }
  return flint::trees::Forest<float>(std::move(trees), train_set.num_classes());
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

ModelFiles model_files(const std::string& dir, const ModelRecipe& recipe) {
  const auto base = std::filesystem::path(dir) / recipe.key;
  return {(base / "model.txt").string(), (base / "pool.bin").string(),
          (base / "pool.csv").string()};
}

void prepare(const std::string& dir, const ModelRecipe& recipe, std::uint64_t seed,
             bool with_csv, unsigned threads) {
  const auto files = model_files(dir, recipe);
  const auto base = std::filesystem::path(files.model).parent_path();
  const auto stamp = base / "complete";
  if (!std::filesystem::exists(stamp)) {
    std::filesystem::create_directories(base);
    // The population is fixed, like a real dataset: its class structure
    // decides how large the trees grow.  The seed draws the training rows
    // and the held-out pool from it (a partial Fisher-Yates shuffle), so
    // seeds change the inputs without changing the model's scale.
    const auto spec = flint::data::spec_by_name(recipe.dataset);
    const std::size_t needed = recipe.train_rows + recipe.pool_rows;
    const auto population = flint::data::generate<float>(
        spec, kPopulationSeed + recipe.salt, kPopulationFactor * needed);
    std::vector<std::size_t> order(population.rows());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::mt19937_64 rng(derive_seed(seed, recipe.salt * 16 + 0));
    for (std::size_t i = 0; i < needed; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng() % (order.size() - i));
      std::swap(order[i], order[j]);
    }
    const std::span<const std::size_t> picked(order.data(), needed);
    const auto forest =
        train(population.subset(picked.first(recipe.train_rows)), recipe,
              derive_seed(seed, recipe.salt * 16 + 1), threads);
    flint::trees::save_forest(files.model, forest);

    const auto held_out = population.subset(picked.subspan(recipe.train_rows));
    Pool pool;
    pool.cols = held_out.cols();
    pool.x.assign(held_out.values().begin(), held_out.values().end());
    pool.labels.assign(held_out.labels().begin(), held_out.labels().end());
    pool.ref.resize(recipe.pool_rows);
    std::vector<std::jthread> workers;
    const unsigned n_threads = std::max(threads, 1u);
    for (unsigned k = 0; k < n_threads; ++k) {
      workers.emplace_back([&, k] {
        for (std::size_t r = k; r < pool.ref.size(); r += n_threads) {
          pool.ref[r] = forest.predict({pool.row(r), pool.cols});
        }
      });
    }
    workers.clear();
    save_pool(files.pool, pool);
    std::ofstream(stamp) << "ok\n";
  }
  if (with_csv && !std::filesystem::exists(files.csv)) {
    const Pool pool = load_pool(files.pool);
    flint::data::Dataset<float> csv(recipe.dataset, pool.cols);
    for (std::size_t r = 0; r < pool.rows(); ++r) {
      csv.add_row({pool.row(r), pool.cols}, pool.labels[r]);
    }
    const auto tmp = files.csv + ".tmp";
    flint::data::save_csv(tmp, csv);
    std::filesystem::rename(tmp, files.csv);
  }
}

Pool load_pool(const std::string& path, std::size_t max_rows) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof kPoolMagic] = {};
  std::uint64_t shape[2] = {0, 0};
  in.read(magic, sizeof magic);
  in.read(reinterpret_cast<char*>(shape), sizeof shape);
  if (!in || !std::equal(magic, magic + sizeof magic, kPoolMagic)) {
    throw std::runtime_error("not a perfbench pool file: " + path);
  }
  const std::size_t rows = shape[0];
  const std::size_t keep = max_rows == 0 ? rows : std::min(rows, max_rows);
  Pool pool;
  pool.cols = shape[1];
  // Each array holds `rows` entries; read the first `keep` and skip the rest.
  const auto skip = [&](std::size_t bytes) {
    in.seekg(static_cast<std::streamoff>(bytes), std::ios::cur);
  };
  read_array(in, pool.x, keep * pool.cols);
  skip((rows - keep) * pool.cols * sizeof(float));
  read_array(in, pool.labels, keep);
  skip((rows - keep) * sizeof(std::int32_t));
  read_array(in, pool.ref, keep);
  if (!in) throw std::runtime_error("truncated pool file: " + path);
  return pool;
}

}  // namespace perfbench
