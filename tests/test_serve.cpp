// Concurrency and correctness tests for the serve/ runtime: micro-batched
// results must be bit-identical to per-sample Forest::predict under any
// producer mix; a poisoned request fails alone while coalesced neighbors
// succeed; hot-swap under load never yields a half-swapped result; and
// shutdown with a non-empty queue drains instead of dropping.  Server-side
// rejections are asserted by ServeError code, not message text.  This suite
// also runs under TSan in CI (FLINT_SANITIZE_THREAD); the stop-vs-submit
// race test below exists specifically for that configuration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/split.hpp"
#include "data/synth.hpp"
#include "predict/predictor.hpp"
#include "serve/server.hpp"
#include "serve_test_support.hpp"
#include "trees/forest.hpp"

namespace {

using flint::serve::ErrorCode;
using flint::serve::InferenceServer;
using flint::serve::ModelRegistry;
using flint::serve::PredictorPtr;
using flint::serve::ServeError;
using flint::serve::ServeOptions;
using flint::serve::testing::GateGuard;
using flint::serve::testing::GatePredictor;
using PredictionFuture = std::future<std::vector<std::int32_t>>;

/// Resolves `future`, expecting a ServeError; returns its code.
template <typename Future>
ErrorCode serve_error_code(Future& future) {
  try {
    (void)future.get();
  } catch (const ServeError& e) {
    return e.code();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected ServeError, got: " << e.what();
    return ErrorCode::kExecutionFailed;
  }
  ADD_FAILURE() << "expected ServeError, future resolved with a value";
  return ErrorCode::kExecutionFailed;
}

PredictorPtr wrap(const flint::trees::Forest<float>& forest,
                  const std::string& backend = "encoded") {
  return PredictorPtr(flint::predict::make_predictor(forest, backend));
}

class ServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto full =
        flint::data::generate<float>(flint::data::magic_spec(), 7, 1200);
    split_ = flint::data::train_test_split(full, 0.3, 7);
    flint::trees::ForestOptions opt;
    opt.n_trees = 7;
    opt.tree.max_depth = 8;
    opt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
    forest_a_ = flint::trees::train_forest(split_.train, opt);
    opt.tree.seed = 4242;
    forest_b_ = flint::trees::train_forest(split_.train, opt);
    cols_ = forest_a_.feature_count();
    rows_ = split_.test.rows();
    pool_.resize(rows_ * cols_);
    ref_a_.resize(rows_);
    ref_b_.resize(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      const auto row = split_.test.row(r);
      std::copy(row.begin(), row.begin() + cols_, pool_.begin() + r * cols_);
      ref_a_[r] = forest_a_.predict(row);
      ref_b_[r] = forest_b_.predict(row);
    }
  }

  std::vector<float> rows_from(std::size_t first, std::size_t n) const {
    std::vector<float> out(n * cols_);
    for (std::size_t s = 0; s < n; ++s) {
      std::copy_n(pool_.data() + ((first + s) % rows_) * cols_, cols_,
                  out.data() + s * cols_);
    }
    return out;
  }

  /// True iff `got` matches `ref` on rows first.. (wrapping) in full.
  bool matches(const std::vector<std::int32_t>& ref, std::size_t first,
               const std::vector<std::int32_t>& got) const {
    for (std::size_t s = 0; s < got.size(); ++s) {
      if (got[s] != ref[(first + s) % rows_]) return false;
    }
    return true;
  }

  /// Parks one of the server's workers in `gate` on a one-sample bait
  /// request (row 0); returns the bait's future.
  PredictionFuture park_worker(InferenceServer& server,
                               const GatePredictor& gate) {
    auto bait = server.submit(rows_from(0, 1), 1);
    EXPECT_TRUE(gate.wait_entered());
    return bait;
  }

  flint::data::TrainTestSplit<float> split_;
  flint::trees::Forest<float> forest_a_;
  flint::trees::Forest<float> forest_b_;
  std::size_t cols_ = 0;
  std::size_t rows_ = 0;
  std::vector<float> pool_;
  std::vector<std::int32_t> ref_a_;
  std::vector<std::int32_t> ref_b_;
};

TEST_F(ServeFixture, RegistryInstallResolveVersioning) {
  ModelRegistry registry;
  EXPECT_THROW((void)registry.resolve(), std::invalid_argument);
  EXPECT_EQ(registry.install("magic", wrap(forest_a_)), 1u);
  EXPECT_EQ(registry.install("wine", wrap(forest_b_)), 1u);
  EXPECT_EQ(registry.install("magic", wrap(forest_b_)), 2u);  // hot swap
  EXPECT_EQ(registry.resolve().name, "magic");  // first install = default
  EXPECT_EQ(registry.resolve("wine").version, 1u);
  EXPECT_EQ(registry.resolve("magic").version, 2u);
  EXPECT_EQ(registry.list().size(), 2u);
  EXPECT_THROW((void)registry.resolve("nope"), std::invalid_argument);
  EXPECT_THROW(registry.install("", wrap(forest_a_)), std::invalid_argument);
  EXPECT_THROW(registry.install("x", nullptr), std::invalid_argument);
}

TEST_F(ServeFixture, MixedBatchSizesBitIdenticalSequential) {
  ServeOptions opt;
  opt.max_batch = 32;
  opt.workers = 2;
  InferenceServer server(opt);
  server.registry().install("default", wrap(forest_a_));
  for (std::size_t i = 0; i < 60; ++i) {
    const std::size_t n = 1 + (i % 9);
    const std::size_t first = (i * 31) % rows_;
    auto got = server.submit(rows_from(first, n), n).get();
    ASSERT_EQ(got.size(), n);
    EXPECT_TRUE(matches(ref_a_, first, got)) << "request " << i;
  }
  const auto m = server.metrics();
  EXPECT_EQ(m.requests, 60u);
  EXPECT_GT(m.batches, 0u);
  EXPECT_EQ(m.rejected, 0u);
}

// The tentpole property: N producer threads x mixed batch sizes must be
// bit-identical to sequential Forest::predict — coalescing, slicing and
// result routing lose nothing.
TEST_F(ServeFixture, ConcurrentProducersBitIdentical) {
  for (const char* backend : {"encoded", "layout:auto"}) {
    ServeOptions opt;
    opt.max_batch = 64;
    opt.workers = 4;
    InferenceServer server(opt);
    server.registry().install("default", wrap(forest_a_, backend));
    std::atomic<int> failures{0};
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < 8; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = 0; i < 120; ++i) {
          const std::size_t n = 1 + ((p + i) % 17);
          const std::size_t first = (p * 997 + i * 13) % rows_;
          auto got = server.submit(rows_from(first, n), n).get();
          if (got.size() != n || !matches(ref_a_, first, got)) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : producers) t.join();
    EXPECT_EQ(failures.load(), 0) << backend;
    const auto m = server.metrics();
    EXPECT_EQ(m.requests, 8u * 120u) << backend;
    EXPECT_LE(m.p50_latency_us, m.p99_latency_us) << backend;
    std::uint64_t histogram_total = 0;
    for (const auto count : m.batch_size_histogram) histogram_total += count;
    EXPECT_EQ(histogram_total, m.batches) << backend;
  }
}

// Error isolation: a poisoned request (NaN feature or wrong width) fails
// only its own future — concurrent neighbors that could have coalesced
// with it still succeed.
TEST_F(ServeFixture, PoisonedRequestFailsAlone) {
  ServeOptions opt;
  opt.max_batch = 128;
  opt.workers = 2;
  InferenceServer server(opt);
  server.registry().install("default", wrap(forest_a_));

  std::vector<std::future<std::vector<std::int32_t>>> good;
  for (std::size_t i = 0; i < 10; ++i) {
    good.push_back(server.submit(rows_from(i, 2), 2));
  }
  auto poisoned = rows_from(3, 2);
  poisoned[cols_ + 1] = std::numeric_limits<float>::quiet_NaN();
  auto nan_future = server.submit(poisoned, 2);
  auto short_future = server.submit(rows_from(0, 2), 3);  // wrong width
  for (std::size_t i = 0; i < 10; ++i) {
    good.push_back(server.submit(rows_from(i + 20, 2), 2));
  }

  try {
    (void)nan_future.get();
    FAIL() << "NaN request must fail";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("NaN"), std::string::npos);
  }
  EXPECT_THROW((void)short_future.get(), std::invalid_argument);
  for (std::size_t i = 0; i < good.size(); ++i) {
    const std::size_t first = i < 10 ? i : i + 10;
    auto got = good[i].get();
    EXPECT_TRUE(matches(ref_a_, first, got)) << "neighbor " << i;
  }
  const auto m = server.metrics();
  EXPECT_EQ(m.rejected, 2u);
  EXPECT_EQ(m.requests, 20u);
}

// Hot-swap invariant: under concurrent load a swap never yields a response
// mixing model versions, and a request submitted after install() returned
// is always served by the new version.
TEST_F(ServeFixture, HotSwapUnderLoadNeverMixesVersions) {
  ServeOptions opt;
  opt.max_batch = 64;
  opt.workers = 4;
  InferenceServer server(opt);
  server.registry().install("default", wrap(forest_a_));
  std::atomic<int> mixed{0};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < 250; ++i) {
        const std::size_t n = 2 + ((p + i) % 7);
        const std::size_t first = (p * 811 + i * 11) % rows_;
        auto got = server.submit(rows_from(first, n), n).get();
        if (!matches(ref_a_, first, got) && !matches(ref_b_, first, got)) {
          mixed.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.registry().install("default", wrap(forest_b_)), 2u);
  for (auto& t : producers) t.join();
  EXPECT_EQ(mixed.load(), 0);

  // Post-swap submits resolve the new snapshot.
  auto got = server.submit(rows_from(5, 4), 4).get();
  EXPECT_TRUE(matches(ref_b_, 5, got));
}

// Shutdown contract: stop() with a non-empty queue drains — every accepted
// request completes with a correct result, none is dropped.  The parked
// worker pins the requests in the queue until stop() begins.
TEST_F(ServeFixture, ShutdownDrainsNonEmptyQueue) {
  ServeOptions opt;
  opt.workers = 1;
  const auto gate = std::make_shared<GatePredictor>(wrap(forest_a_));
  InferenceServer server(opt);
  const GateGuard release(*gate);
  server.registry().install("default", gate);
  auto bait = park_worker(server, *gate);
  std::vector<PredictionFuture> futures;
  for (std::size_t i = 0; i < 40; ++i) {
    futures.push_back(server.submit(rows_from(i * 3, 2), 2));
  }
  EXPECT_EQ(server.metrics().queued_samples, 80u);
  // stop() joins the parked worker, so it runs beside the test thread; the
  // gate opens once the drain has begun.
  std::thread stopper([&] { server.stop(); });
  while (server.metrics().health != flint::serve::HealthState::kDraining) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate->open();
  stopper.join();
  EXPECT_TRUE(matches(ref_a_, 0, bait.get()));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    auto got = futures[i].get();  // would block forever if dropped
    EXPECT_TRUE(matches(ref_a_, i * 3, got)) << "request " << i;
  }
  // Submits after stop are rejected with a typed error, not lost silently.
  auto late = server.submit(rows_from(0, 1), 1);
  EXPECT_EQ(serve_error_code(late), ErrorCode::kStopped);
  // stop() is idempotent.
  EXPECT_NO_THROW(server.stop());
}

TEST_F(ServeFixture, BackpressureRejectsBeyondQueueCapacity) {
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 4;
  const auto gate = std::make_shared<GatePredictor>(wrap(forest_a_));
  InferenceServer server(opt);
  const GateGuard release(*gate);
  server.registry().install("default", gate);
  auto bait = park_worker(server, *gate);  // no idle worker to dispatch to
  std::vector<PredictionFuture> accepted;
  for (std::size_t i = 0; i < 4; ++i) {
    accepted.push_back(server.submit(rows_from(i, 1), 1));
  }
  auto overflow = server.submit(rows_from(0, 1), 1);
  try {
    (void)overflow.get();
    FAIL() << "expected queue-full rejection";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kQueueFull);
    EXPECT_GT(e.retry_after_us(), 0u);  // Overloaded/QueueFull carry a hint
  }
  gate->open();
  server.stop();  // drains the four accepted requests
  EXPECT_TRUE(matches(ref_a_, 0, bait.get()));
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    EXPECT_TRUE(matches(ref_a_, i, accepted[i].get()));
  }
}

// Regression for the backpressure unit bug: queue_capacity bounds queued
// *requests*, so a few huge requests used to buy unbounded queued memory.
// sample_capacity closes that hole — admission is cost-aware.
TEST_F(ServeFixture, BackpressureBoundsQueuedSamples) {
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 1024;  // far from binding here
  opt.sample_capacity = 200;
  const auto gate = std::make_shared<GatePredictor>(wrap(forest_a_));
  InferenceServer server(opt);
  const GateGuard release(*gate);
  server.registry().install("default", gate);
  auto bait = park_worker(server, *gate);  // no idle worker to dispatch to
  // A single request beyond sample_capacity is never admissible.
  auto huge = server.submit(rows_from(0, 201), 201);
  EXPECT_EQ(serve_error_code(huge), ErrorCode::kOverloaded);
  // 80 samples queued behind the parked worker (pressure 0.4: below the
  // degrade ladder); a further 130 would cross the sample bound even
  // though the request count (3) is nowhere near queue_capacity.
  std::vector<PredictionFuture> accepted;
  accepted.push_back(server.submit(rows_from(0, 40), 40));
  accepted.push_back(server.submit(rows_from(40, 40), 40));
  auto overflow = server.submit(rows_from(80, 130), 130);
  try {
    (void)overflow.get();
    FAIL() << "expected sample-bound shed";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
    EXPECT_GT(e.retry_after_us(), 0u);
  }
  const auto m = server.metrics();
  EXPECT_EQ(m.queued_samples, 80u);
  EXPECT_EQ(m.shed, 2u);
  gate->open();
  server.stop();
  EXPECT_TRUE(matches(ref_a_, 0, bait.get()));
  EXPECT_TRUE(matches(ref_a_, 0, accepted[0].get()));
  EXPECT_TRUE(matches(ref_a_, 40, accepted[1].get()));
}

// stop() racing concurrent submit(): every future a producer receives must
// resolve — a correct result if admitted before the drain, or
// ErrorCode::kStopped — never a broken promise or a hang.  Runs under TSan
// in CI.
TEST_F(ServeFixture, StopVsConcurrentSubmitRace) {
  ServeOptions opt;
  opt.max_batch = 32;
  opt.workers = 2;
  InferenceServer server(opt);
  server.registry().install("default", wrap(forest_a_));
  std::atomic<bool> go{false};
  std::atomic<int> wrong{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> stopped{0};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < 8; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t i = 0; i < 200; ++i) {
        const std::size_t first = (p * 131 + i * 7) % rows_;
        auto future = server.submit(rows_from(first, 2), 2);
        try {
          auto got = future.get();
          if (!matches(ref_a_, first, got)) wrong.fetch_add(1);
          ok.fetch_add(1);
        } catch (const ServeError& e) {
          if (e.code() != ErrorCode::kStopped) wrong.fetch_add(1);
          stopped.fetch_add(1);
        } catch (...) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  go.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.stop();
  for (auto& t : producers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ok.load() + stopped.load(), 8u * 200u);
  // Accounting: accepted requests all resolved, one way or the other.
  const auto m = server.metrics();
  EXPECT_EQ(m.requests, m.completed + m.failed);
  EXPECT_EQ(m.health, flint::serve::HealthState::kDraining);
}

TEST_F(ServeFixture, NamedModelsRouteIndependently) {
  InferenceServer server{ServeOptions{}};
  server.registry().install("a", wrap(forest_a_));
  server.registry().install("b", wrap(forest_b_));
  auto got_a = server.submit(rows_from(2, 3), 3, "a").get();
  auto got_b = server.submit(rows_from(2, 3), 3, "b").get();
  auto got_default = server.submit(rows_from(2, 3), 3).get();  // = "a"
  EXPECT_TRUE(matches(ref_a_, 2, got_a));
  EXPECT_TRUE(matches(ref_b_, 2, got_b));
  EXPECT_EQ(got_default, got_a);
  auto unknown = server.submit(rows_from(0, 1), 1, "zzz");
  EXPECT_THROW((void)unknown.get(), std::invalid_argument);
}

TEST_F(ServeFixture, ZeroCopySingleLargeRequest) {
  ServeOptions opt;
  opt.max_batch = 16;  // the request below alone fills a block
  opt.workers = 1;
  InferenceServer server(opt);
  server.registry().install("default", wrap(forest_a_));
  // Larger than max_batch: never split, dispatched without re-coalescing.
  auto got = server.submit(rows_from(0, 50), 50).get();
  ASSERT_EQ(got.size(), 50u);
  EXPECT_TRUE(matches(ref_a_, 0, got));
  const auto m = server.metrics();
  EXPECT_EQ(m.zero_copy_batches, 1u);
  EXPECT_EQ(m.batches, 1u);
  // An empty request resolves immediately without touching the queue.
  auto empty = server.submit({}, 0);
  EXPECT_TRUE(empty.get().empty());
}

// Work-conserving dispatch: an idle worker takes an isolated request at
// once, never waiting for company, and executes it as one zero-copy batch.
TEST_F(ServeFixture, IsolatedRequestDispatchesAtOnceToIdleWorker) {
  ServeOptions opt;
  opt.workers = 1;
  InferenceServer server(opt);
  server.registry().install("default", wrap(forest_a_));
  auto future = server.submit(rows_from(3, 1), 1);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_TRUE(matches(ref_a_, 3, future.get()));
  const auto m = server.metrics();
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.zero_copy_batches, 1u);
}

// Under load the workers still coalesce: requests queued behind the busy
// (parked) worker form one batch the moment it frees up.
TEST_F(ServeFixture, RequestsQueuedBehindBusyWorkerCoalesceOnRelease) {
  ServeOptions opt;
  opt.workers = 1;
  const auto gate = std::make_shared<GatePredictor>(wrap(forest_a_));
  InferenceServer server(opt);
  const GateGuard release(*gate);
  server.registry().install("default", gate);
  auto bait = park_worker(server, *gate);
  std::vector<PredictionFuture> queued;
  for (std::size_t i = 0; i < 6; ++i) {
    queued.push_back(server.submit(rows_from(10 + i, 1), 1));
  }
  EXPECT_EQ(server.metrics().queued_samples, 6u);
  gate->open();
  EXPECT_TRUE(matches(ref_a_, 0, bait.get()));
  for (std::size_t i = 0; i < queued.size(); ++i) {
    ASSERT_EQ(queued[i].wait_for(std::chrono::seconds(1)),
              std::future_status::ready);
    EXPECT_TRUE(matches(ref_a_, 10 + i, queued[i].get()));
  }
  const auto m = server.metrics();
  EXPECT_EQ(m.batches, 2u);  // the bait, then all six coalesced
  EXPECT_EQ(m.zero_copy_batches, 1u);
}

// An idle worker never sleeps while work is queued: with one of two workers
// parked, the other takes the next request at once; a request that arrives
// while both are parked waits in the queue until one frees up.
TEST_F(ServeFixture, IdleWorkerNeverSleepsWhileWorkIsQueued) {
  ServeOptions opt;
  opt.max_batch = 1;
  opt.workers = 2;
  const auto gate = std::make_shared<GatePredictor>(wrap(forest_a_));
  InferenceServer server(opt);
  const GateGuard release(*gate);
  server.registry().install("default", gate);
  auto first = park_worker(server, *gate);
  auto second = server.submit(rows_from(1, 1), 1);
  ASSERT_TRUE(gate->wait_entered(2));  // the idle worker took it at once
  auto third = server.submit(rows_from(2, 1), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.metrics().queued_samples, 1u);
  gate->open();
  EXPECT_TRUE(matches(ref_a_, 0, first.get()));
  EXPECT_TRUE(matches(ref_a_, 1, second.get()));
  ASSERT_EQ(third.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_TRUE(matches(ref_a_, 2, third.get()));
  EXPECT_EQ(server.metrics().batches, 3u);
}

// An idle worker polls for the next request before it parks: isolated
// requests about 100 µs apart are taken without a wake-up, every result
// stays exact, and a server with no traffic stops spinning.
TEST_F(ServeFixture, IdleWorkerSpinsForSparseRequestsThenParks) {
  ServeOptions opt;
  opt.workers = 1;
  InferenceServer server(opt);
  server.registry().install("default", wrap(forest_a_));
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t first = (i * 7) % rows_;
    auto got = server.submit(rows_from(first, 1), 1).get();
    ASSERT_TRUE(matches(ref_a_, first, got)) << "request " << i;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const auto m = server.metrics();
  EXPECT_GT(m.spin_hits, 0u);
  EXPECT_LE(m.spin_hits, m.batches);
  EXPECT_GT(m.spin_us, 0.0);
  // Parked: spin time stops growing once the last window has ended.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double idle_spin_us = server.metrics().spin_us;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.metrics().spin_us, idle_spin_us);
}

TEST_F(ServeFixture, SubmitBeforeAnyInstallIsRejected) {
  InferenceServer server{ServeOptions{}};
  auto future = server.submit(rows_from(0, 1), 1);
  EXPECT_THROW((void)future.get(), std::invalid_argument);
  const auto m = server.metrics();
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.requests, 0u);
}

}  // namespace
