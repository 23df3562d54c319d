// Serving-runtime latency/throughput bench: drives serve::InferenceServer
// with concurrent clients and measures what dynamic micro-batching converts
// kernel throughput into at the request level.
//
// Three measurement modes in one binary:
//
//   * acceptance comparison — closed-loop pipelined clients submitting
//     single-sample requests against (a) batch-size-1 dispatch
//     (max_batch=1) and (b) micro-batching (max_batch=1024) at EQUAL
//     thread count, in alternating paired rounds; reports the median
//     per-round QPS ratio (the repo's acceptance target is >= 5x on the
//     128-tree default forest);
//   * open-loop sweep — paced submission at a fixed offered load, sweeping
//     offered QPS x backend and reporting achieved QPS and p50/p99 request
//     latency (the batching/latency tradeoff curve in docs/BENCHMARKS.md);
//   * hot-swap gate — 8 client threads push 10k mixed-size requests while
//     the main thread hot-swaps the model mid-run; every response must be
//     bit-identical to Forest::predict of exactly one of the two model
//     versions (never a mix), and p99 latency must stay under a measured
//     kernel budget.
//
// The first two modes also report process CPU (user + system, from
// getrusage) per request beside p50: the price of the idle worker's spin.
//
// Every response in every mode is verified bit-identical to per-sample
// Forest::predict before it counts.  FLINT_BENCH_SMOKE=1 (the CI gate)
// runs the hot-swap gate plus a reduced acceptance comparison;
// FLINT_BENCH_FULL=1 enlarges the sweeps.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "data/split.hpp"
#include "data/synth.hpp"
#include "harness/bench_json.hpp"
#include "harness/machine_info.hpp"
#include "predict/predictor.hpp"
#include "serve/server.hpp"
#include "trees/forest.hpp"

namespace {

namespace serve = flint::serve;

using Clock = std::chrono::steady_clock;

struct Pool {
  std::vector<float> features;  // row-major sample pool
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int32_t> ref_a;  // Forest::predict of model A per row
  std::vector<std::int32_t> ref_b;  // ... of model B
};

/// Builds the feature buffer for a request of `n` pool rows starting at
/// `first` (wrapping).
std::vector<float> request_rows(const Pool& pool, std::size_t first,
                                std::size_t n) {
  std::vector<float> out(n * pool.cols);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t row = (first + s) % pool.rows;
    std::copy_n(pool.features.data() + row * pool.cols, pool.cols,
                out.data() + s * pool.cols);
  }
  return out;
}

/// True iff `got` equals `ref` over rows first..first+n-1 (wrapping).
bool matches(const Pool& pool, const std::vector<std::int32_t>& ref,
             std::size_t first, const std::vector<std::int32_t>& got) {
  for (std::size_t s = 0; s < got.size(); ++s) {
    if (got[s] != ref[(first + s) % pool.rows]) return false;
  }
  return true;
}

serve::PredictorPtr make_backend(const flint::trees::Forest<float>& forest,
                                 const std::string& backend) {
  return serve::PredictorPtr(flint::predict::make_predictor(forest, backend));
}

struct LoadResult {
  double qps = 0.0;          // requests per second, verified responses only
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
  double cpu_us_per_request = 0.0;  // process user + system CPU
};

/// User + system CPU time this process has used so far, in µs.
double process_cpu_us() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 +
           static_cast<double>(t.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

/// Closed-loop pipelined load: `clients` threads each submit
/// `requests_per_client` single-sample requests keeping `window` futures in
/// flight, verifying every response against ref_a.  Exits the process on
/// any divergence.
LoadResult closed_loop(serve::InferenceServer& server, const Pool& pool,
                       unsigned clients, std::size_t requests_per_client,
                       std::size_t window) {
  std::atomic<bool> ok{true};
  const double cpu_start = process_cpu_us();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t issued = 0;
      std::vector<std::pair<std::size_t, std::future<std::vector<std::int32_t>>>>
          inflight;
      inflight.reserve(window);
      while (issued < requests_per_client && ok.load()) {
        inflight.clear();
        const std::size_t chunk =
            std::min(window, requests_per_client - issued);
        for (std::size_t i = 0; i < chunk; ++i) {
          const std::size_t row = (c * 7919 + issued + i) % pool.rows;
          inflight.emplace_back(
              row, server.submit(request_rows(pool, row, 1), 1));
        }
        issued += chunk;
        for (auto& [row, future] : inflight) {
          const auto got = future.get();
          if (!matches(pool, pool.ref_a, row, got)) ok.store(false);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double cpu_us = process_cpu_us() - cpu_start;
  if (!ok.load()) {
    std::fprintf(stderr,
                 "FATAL: served result diverges from Forest::predict\n");
    std::exit(1);
  }
  const auto m = server.metrics();
  LoadResult r;
  r.qps = static_cast<double>(clients * requests_per_client) / seconds;
  r.p50_us = m.p50_latency_us;
  r.p99_us = m.p99_latency_us;
  r.mean_batch = m.mean_batch_samples;
  r.cpu_us_per_request =
      cpu_us / static_cast<double>(clients * requests_per_client);
  return r;
}

/// Open-loop load: one pacer thread submits single-sample requests at
/// `offered_qps` for `seconds`, then all futures are drained and verified.
LoadResult open_loop(serve::InferenceServer& server, const Pool& pool,
                     double offered_qps, double seconds) {
  const auto interval =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / offered_qps));
  const std::size_t total =
      static_cast<std::size_t>(offered_qps * seconds);
  std::vector<std::pair<std::size_t, std::future<std::vector<std::int32_t>>>>
      inflight;
  inflight.reserve(total);
  const double cpu_start = process_cpu_us();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < total; ++i) {
    std::this_thread::sleep_until(start + interval * i);
    const std::size_t row = (i * 13) % pool.rows;
    inflight.emplace_back(row, server.submit(request_rows(pool, row, 1), 1));
  }
  for (auto& [row, future] : inflight) {
    std::vector<std::int32_t> got;
    try {
      got = future.get();
    } catch (const std::exception& e) {
      // e.g. queue-full backpressure at an offered load the host cannot
      // absorb — a bench configuration error, not a crash.
      std::fprintf(stderr, "FATAL: open-loop request rejected: %s\n",
                   e.what());
      std::exit(1);
    }
    if (!matches(pool, pool.ref_a, row, got)) {
      std::fprintf(stderr,
                   "FATAL: open-loop result diverges from Forest::predict\n");
      std::exit(1);
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double cpu_us = process_cpu_us() - cpu_start;
  const auto m = server.metrics();
  LoadResult r;
  r.qps = static_cast<double>(total) / elapsed;
  r.p50_us = m.p50_latency_us;
  r.p99_us = m.p99_latency_us;
  r.mean_batch = m.mean_batch_samples;
  r.cpu_us_per_request = cpu_us / static_cast<double>(total);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--help") {
    std::printf(
        "bench_serve_latency: micro-batching serving runtime bench.\n"
        "Closed-loop acceptance comparison (micro-batch vs batch-1 dispatch),\n"
        "open-loop offered-load x backend sweep, and the\n"
        "hot-swap correctness + p99 gate.  FLINT_BENCH_SMOKE=1 = CI gate\n"
        "subset; FLINT_BENCH_FULL=1 enlarges sweeps.\n");
    return 0;
  }
  const char* smoke_env = std::getenv("FLINT_BENCH_SMOKE");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';
  const char* full_env = std::getenv("FLINT_BENCH_FULL");
  const bool full = full_env != nullptr && full_env[0] == '1';

  std::printf("=== Serving runtime latency/throughput (serve::InferenceServer) ===\n");
  std::printf("host: %s (available_parallelism=%u)\n\n",
              flint::harness::to_string(flint::harness::query_machine_info()).c_str(),
              flint::predict::available_parallelism());

  // The 128-tree default forest (the layout/serving benches' standard
  // model) plus a second version for the hot-swap gate.
  const auto spec = flint::data::spec_by_name("magic");
  const auto data =
      flint::data::generate<float>(spec, 42, full ? 8000 : 5000);
  const auto split = flint::data::train_test_split(data, 0.7, 42);
  flint::trees::ForestOptions fopt;
  fopt.n_trees = 128;
  fopt.tree.max_depth = full ? 16 : 14;
  fopt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
  const auto forest_a = flint::trees::train_forest(split.train, fopt);
  fopt.tree.seed = 1042;
  const auto forest_b = flint::trees::train_forest(split.train, fopt);

  Pool pool;
  pool.rows = split.test.rows();
  pool.cols = forest_a.feature_count();
  pool.features.resize(pool.rows * pool.cols);
  for (std::size_t r = 0; r < pool.rows; ++r) {
    const auto row = split.test.row(r);
    std::copy(row.begin(), row.begin() + pool.cols,
              pool.features.begin() + r * pool.cols);
  }
  pool.ref_a.resize(pool.rows);
  pool.ref_b.resize(pool.rows);
  for (std::size_t r = 0; r < pool.rows; ++r) {
    pool.ref_a[r] = forest_a.predict(split.test.row(r));
    pool.ref_b[r] = forest_b.predict(split.test.row(r));
  }
  std::printf("model: %d trees, depth<=%d, %zu nodes; pool: %zu samples\n\n",
              fopt.n_trees, fopt.tree.max_depth, forest_a.total_nodes(),
              pool.rows);

  flint::harness::BenchJson json("serve_latency");
  json.set("trees", fopt.n_trees);
  json.set("depth", fopt.tree.max_depth);
  json.set("total_nodes", forest_a.total_nodes());

  const unsigned workers =
      std::min(4u, flint::predict::available_parallelism());

  // --- Acceptance comparison: micro-batching vs batch-size-1 dispatch. ----
  const unsigned clients = 8;
  const std::size_t per_client = smoke ? 1250 : (full ? 20000 : 5000);
  const std::size_t window = 64;
  std::printf(
      "--- closed-loop comparison (%u clients x %zu single-sample requests,\n"
      "    window %zu, %u workers, backend layout:auto) ---\n",
      clients, per_client, window, workers);
  std::printf("%-6s %-28s %-12s %-10s %-12s %-10s %-12s\n", "round",
              "config", "QPS", "p50_us", "cpu_us/req", "p99_us",
              "mean_batch");
  // One run per side spreads too widely on a shared host to carry a fixed
  // floor, so the two sides alternate in paired rounds and the acceptance
  // ratio is the median of the per-round ratios, which cancels load drift
  // pairwise (as the paired gates of bench_layout_throughput do).
  constexpr int kRounds = 9;
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    double qps_single = 0.0;
    double qps_micro = 0.0;
    for (const bool micro : {false, true}) {
      flint::serve::ServeOptions sopt;
      sopt.max_batch = micro ? 1024 : 1;
      sopt.workers = workers;
      flint::serve::InferenceServer server(sopt);
      server.registry().install("default",
                                make_backend(forest_a, "layout:auto"));
      const auto r = closed_loop(server, pool, clients, per_client, window);
      server.stop();
      (micro ? qps_micro : qps_single) = r.qps;
      const std::string label =
          micro ? "micro-batch(1024)" : "batch-1 dispatch";
      std::printf("%-6d %-28s %-12.0f %-10.0f %-12.1f %-10.0f %-12.1f\n",
                  round, label.c_str(), r.qps, r.p50_us, r.cpu_us_per_request,
                  r.p99_us, r.mean_batch);
      json.add_row(
          {{"mode", flint::harness::BenchValue::of(label)},
           {"round", flint::harness::BenchValue::of(round)},
           {"backend", flint::harness::BenchValue::of("layout:auto")},
           {"clients", flint::harness::BenchValue::of(clients)},
           {"workers", flint::harness::BenchValue::of(workers)},
           {"qps", flint::harness::BenchValue::of(r.qps)},
           {"p50_us", flint::harness::BenchValue::of(r.p50_us)},
           {"cpu_us_per_request",
            flint::harness::BenchValue::of(r.cpu_us_per_request)},
           {"p99_us", flint::harness::BenchValue::of(r.p99_us)},
           {"mean_batch", flint::harness::BenchValue::of(r.mean_batch)}});
    }
    ratios.push_back(qps_micro / qps_single);
  }
  std::sort(ratios.begin(), ratios.end());
  const double speedup = ratios[ratios.size() / 2];
  std::printf(
      "micro-batching speedup: %.2fx, paired median of %d rounds (range\n"
      "%.2f-%.2fx; target >= 5x on multi-core hosts; on a single-core host\n"
      "every client and worker timeshares one CPU, which caps the\n"
      "ratio near 2x — see docs/BENCHMARKS.md)\n\n",
      speedup, kRounds, ratios.front(), ratios.back());
  json.set("microbatch_speedup", speedup);
  json.set("microbatch_speedup_min", ratios.front());
  json.set("microbatch_speedup_max", ratios.back());
  if (smoke && speedup < 1.5) {
    // CI regression floor on the paired median, deliberately conservative:
    // shared runners vary in core count and cache size, and a single-core
    // host caps the ratio near 2x (the 5x target needs clients overlapping
    // workers).  Dropping under 1.5x means batching stopped paying for
    // itself at all.
    std::fprintf(stderr,
                 "FATAL: micro-batching speedup %.2fx (paired median) under "
                 "CI floor 1.5x\n",
                 speedup);
    return 1;
  }

  // --- Open-loop sweep: offered load x backend. ---------------------------
  if (!smoke) {
    std::printf(
        "--- open-loop sweep (paced single-sample requests, %u workers) ---\n",
        workers);
    std::printf("%-12s %-12s %-12s %-10s %-12s %-10s %-12s\n", "backend",
                "offered", "achieved", "p50_us", "cpu_us/req", "p99_us",
                "mean_batch");
    const std::vector<std::string> backends = {"encoded", "layout:auto"};
    const std::vector<double> loads =
        full ? std::vector<double>{2000, 20000, 80000}
             : std::vector<double>{2000, 20000};
    for (const auto& backend : backends) {
      const auto predictor = make_backend(forest_a, backend);
      for (const double offered : loads) {
        flint::serve::ServeOptions sopt;
        sopt.max_batch = 1024;
        sopt.workers = workers;
        flint::serve::InferenceServer server(sopt);
        server.registry().install("default", predictor);
        const auto r = open_loop(server, pool, offered, full ? 1.0 : 0.4);
        server.stop();
        std::printf("%-12s %-12.0f %-12.0f %-10.0f %-12.1f %-10.0f %-12.1f\n",
                    backend.c_str(), offered, r.qps, r.p50_us,
                    r.cpu_us_per_request, r.p99_us, r.mean_batch);
        json.add_row(
            {{"mode", flint::harness::BenchValue::of("open-loop")},
             {"backend", flint::harness::BenchValue::of(backend)},
             {"offered_qps", flint::harness::BenchValue::of(offered)},
             {"qps", flint::harness::BenchValue::of(r.qps)},
             {"p50_us", flint::harness::BenchValue::of(r.p50_us)},
             {"cpu_us_per_request",
              flint::harness::BenchValue::of(r.cpu_us_per_request)},
             {"p99_us", flint::harness::BenchValue::of(r.p99_us)},
             {"mean_batch", flint::harness::BenchValue::of(r.mean_batch)}});
      }
    }
    std::printf("\n");
  }

  // Kernel budget shared by the overload and hot-swap gates: the worst case
  // ahead of a request is one full block; measure it once directly and
  // allow 10x for scheduler noise plus 5 ms slack (shared CI runners).
  double block_us = 0.0;
  {
    const auto predictor = make_backend(forest_a, "layout:auto");
    const std::size_t probe = 256;
    const auto block = request_rows(pool, 0, probe);
    std::vector<std::int32_t> out(probe);
    const auto t0 = Clock::now();
    predictor->predict_batch_prevalidated(block.data(), probe, out.data());
    block_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  }

  // --- Overload gate: open-loop burst vs admission control + deadlines. ---
  // An unpaced burst far beyond the sample bound, every request carrying a
  // deadline.  Each request carries kBurstSamples samples: the
  // work-conserving workers drain a single-sample burst from four clients
  // as fast as they submit it, which would leave nothing to shed.
  // Admission control must shed the excess with typed errors
  // (kOverloaded/kQueueFull, counted as shed; kDeadlineExceeded as a miss)
  // while the p99 of the requests it *did* admit and complete stays within
  // 2x the unloaded p99 plus a measured kernel/scheduler budget.
  constexpr std::size_t kBurstSamples = 8;
  std::printf("--- overload gate (burst admission control, %u workers) ---\n",
              workers);
  double p99_unloaded = 0.0;
  {
    flint::serve::ServeOptions uopt;
    uopt.max_batch = 256;
    uopt.workers = workers;
    flint::serve::InferenceServer unloaded(uopt);
    unloaded.registry().install("default",
                                make_backend(forest_a, "layout:auto"));
    const std::size_t probes = smoke ? 200 : 500;
    for (std::size_t i = 0; i < probes; ++i) {
      const std::size_t row = (i * 31) % pool.rows;
      const auto got = unloaded.submit(request_rows(pool, row, 1), 1).get();
      if (!matches(pool, pool.ref_a, row, got)) {
        std::fprintf(stderr,
                     "FATAL: unloaded result diverges from Forest::predict\n");
        return 1;
      }
    }
    unloaded.stop();
    p99_unloaded = unloaded.metrics().p99_latency_us;
  }
  // The deadline keeps admitted-but-stale requests from polluting the tail;
  // the floor keeps the first batches executable on slow shared runners.
  const double overload_deadline_us =
      std::max(2.0 * p99_unloaded, 4.0 * block_us + 1000.0);
  const double p99_bound_us = 2.0 * p99_unloaded + 10.0 * block_us + 5000.0;
  {
    flint::serve::ServeOptions oopt;
    oopt.max_batch = 256;
    oopt.workers = workers;
    oopt.queue_capacity = 1024;
    oopt.sample_capacity = 1024;
    flint::serve::InferenceServer overload(oopt);
    overload.registry().install("default",
                                make_backend(forest_a, "layout:auto"));
    serve::SubmitOptions subopt;
    subopt.deadline_us = static_cast<std::uint64_t>(overload_deadline_us);
    const unsigned oclients = 4;
    const std::size_t per = smoke ? 2000 : (full ? 8000 : 4000);
    std::atomic<std::uint64_t> n_ok{0};
    std::atomic<std::uint64_t> n_shed{0};
    std::atomic<std::uint64_t> n_missed{0};
    std::atomic<bool> fatal{false};
    std::vector<std::thread> othreads;
    othreads.reserve(oclients);
    for (unsigned c = 0; c < oclients; ++c) {
      othreads.emplace_back([&, c] {
        std::vector<
            std::pair<std::size_t, std::future<std::vector<std::int32_t>>>>
            inflight;
        inflight.reserve(per);
        for (std::size_t i = 0; i < per; ++i) {
          const std::size_t row = (c * 7919 + i) % pool.rows;
          inflight.emplace_back(
              row, overload.submit(request_rows(pool, row, kBurstSamples),
                                   kBurstSamples, "default", subopt));
        }
        for (auto& [row, future] : inflight) {
          try {
            const auto got = future.get();
            if (matches(pool, pool.ref_a, row, got)) {
              n_ok.fetch_add(1);
            } else {
              fatal.store(true);  // wrong result
            }
          } catch (const serve::ServeError& e) {
            switch (e.code()) {
              case serve::ErrorCode::kQueueFull:
              case serve::ErrorCode::kOverloaded:
                n_shed.fetch_add(1);
                break;
              case serve::ErrorCode::kDeadlineExceeded:
                n_missed.fetch_add(1);
                break;
              default:
                fatal.store(true);  // no stall/stop/execution faults here
            }
          } catch (const std::exception&) {
            fatal.store(true);  // untyped error escaping the serve runtime
          }
        }
      });
    }
    for (auto& t : othreads) t.join();
    overload.stop();
    const auto om = overload.metrics();
    const double total = static_cast<double>(oclients) * per;
    const double shed_rate = n_shed.load() / total;
    const double miss_rate = n_missed.load() / total;
    std::printf("%-10s %-10s %-8s %-14s %-10s %-14s\n", "offered", "served",
                "shed", "deadline_miss", "p99_us", "p99_bound_us");
    std::printf("%-10.0f %-10llu %-8llu %-14llu %-10.0f %-14.0f\n", total,
                static_cast<unsigned long long>(n_ok.load()),
                static_cast<unsigned long long>(n_shed.load()),
                static_cast<unsigned long long>(n_missed.load()),
                om.p99_latency_us, p99_bound_us);
    std::printf(
        "shed_rate %.3f, deadline_miss_rate %.3f (deadline %.0f us, "
        "unloaded p99 %.0f us)\n\n",
        shed_rate, miss_rate, overload_deadline_us, p99_unloaded);
    json.set("p99_unloaded_us", p99_unloaded);
    json.set("p99_overload_us", om.p99_latency_us);
    json.set("p99_overload_bound_us", p99_bound_us);
    json.set("overload_deadline_us", overload_deadline_us);
    json.set("overload_shed_rate", shed_rate);
    json.set("overload_deadline_miss_rate", miss_rate);
    flint::serve::add_serve_metrics(json, om, "overload_");
    if (fatal.load()) {
      std::fprintf(stderr,
                   "FATAL: overload gate saw a wrong result or an untyped/"
                   "unexpected error\n");
      return 1;
    }
    if (n_ok.load() + n_shed.load() + n_missed.load() !=
        static_cast<std::uint64_t>(total)) {
      std::fprintf(stderr, "FATAL: overload gate lost a request (%llu of "
                           "%.0f resolved)\n",
                   static_cast<unsigned long long>(
                       n_ok.load() + n_shed.load() + n_missed.load()),
                   total);
      return 1;
    }
    if (n_shed.load() == 0 || n_ok.load() == 0) {
      std::fprintf(stderr,
                   "FATAL: overload gate tested nothing (served=%llu "
                   "shed=%llu — burst must both admit and shed)\n",
                   static_cast<unsigned long long>(n_ok.load()),
                   static_cast<unsigned long long>(n_shed.load()));
      return 1;
    }
    if (om.p99_latency_us > p99_bound_us) {
      std::fprintf(stderr,
                   "FATAL: overload p99 %.0f us exceeds bound %.0f us "
                   "(2x unloaded p99 %.0f us + kernel budget)\n",
                   om.p99_latency_us, p99_bound_us, p99_unloaded);
      return 1;
    }
  }

  // --- Hot-swap gate: 10k mixed-size requests, mid-run swap, p99 bound. ---
  std::printf("--- hot-swap gate (8 threads x 1250 mixed-size requests) ---\n");
  flint::serve::ServeOptions sopt;
  sopt.max_batch = 256;
  sopt.workers = workers;
  const double p99_budget_us = 10.0 * block_us + 5000.0;

  flint::serve::InferenceServer server(sopt);
  server.registry().install("default", make_backend(forest_a, "layout:auto"));
  std::atomic<bool> ok{true};
  std::atomic<std::uint64_t> served_a{0};
  std::atomic<std::uint64_t> served_b{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < 8; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = 0; i < 1250 && ok.load(); ++i) {
        const std::size_t n = 1 + (i % 13);
        const std::size_t row = (c * 4201 + i * 17) % pool.rows;
        auto future = server.submit(request_rows(pool, row, n), n);
        const auto got = future.get();
        // Hot-swap invariant: the whole response comes from exactly one
        // model version, never a half-swapped mix.
        if (matches(pool, pool.ref_a, row, got)) {
          served_a.fetch_add(1);
        } else if (matches(pool, pool.ref_b, row, got)) {
          served_b.fetch_add(1);
        } else {
          ok.store(false);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto version =
      server.registry().install("default", make_backend(forest_b, "layout:auto"));
  for (auto& t : threads) t.join();
  server.stop();
  const auto metrics = server.metrics();
  flint::serve::add_serve_metrics(json, metrics);
  json.set("hot_swap_version", static_cast<std::int64_t>(version));
  json.set("hot_swap_served_v1", static_cast<std::int64_t>(served_a.load()));
  json.set("hot_swap_served_v2", static_cast<std::int64_t>(served_b.load()));
  json.set("p99_budget_us", p99_budget_us);
  std::printf("served v1=%llu v2=%llu; p99 %.0f us (budget %.0f us)\n",
              static_cast<unsigned long long>(served_a.load()),
              static_cast<unsigned long long>(served_b.load()),
              metrics.p99_latency_us, p99_budget_us);
  if (!ok.load()) {
    std::fprintf(stderr,
                 "FATAL: a response matches neither model version "
                 "(half-swapped or corrupted batch)\n");
    return 1;
  }
  if (served_a.load() + served_b.load() != 10000) {
    std::fprintf(stderr, "FATAL: served %llu responses, expected 10000\n",
                 static_cast<unsigned long long>(served_a.load() +
                                                 served_b.load()));
    return 1;
  }
  if (served_a.load() == 0 || served_b.load() == 0) {
    // The swap lands ~30 ms into a run that takes hundreds of ms, so both
    // versions must have served traffic — otherwise the gate tested nothing.
    std::fprintf(stderr,
                 "FATAL: hot swap not exercised under load (v1=%llu v2=%llu)\n",
                 static_cast<unsigned long long>(served_a.load()),
                 static_cast<unsigned long long>(served_b.load()));
    return 1;
  }
  if (metrics.p99_latency_us > p99_budget_us) {
    std::fprintf(stderr, "FATAL: p99 %.0f us exceeds budget %.0f us\n",
                 metrics.p99_latency_us, p99_budget_us);
    return 1;
  }
  std::printf(
      "\n(all responses verified bit-identical to Forest::predict of one\n"
      "model version; see docs/BENCHMARKS.md for the batching/latency\n"
      "tradeoff discussion.)\n");
  return 0;
}
