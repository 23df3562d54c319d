// Chaos suite for the serve/ resilience contract: no submitted request is
// ever silently dropped — every accepted future resolves exactly once, to
// a result or one typed ServeError — and the server keeps serving after
// every fault.  The always-on half exercises deadlines, admission control
// and the degrade ladder with real timing; the FLINT_FAULTS half drives
// the deterministic fault points of serve/faults.hpp (injected throws,
// allocation failures, stalls + watchdog fail-over, clock skew, mid-swap
// faults) and is what the chaos-smoke CI job sweeps across seeds
// (FLINT_CHAOS_SEED) under ASan/UBSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/split.hpp"
#include "data/synth.hpp"
#include "predict/predictor.hpp"
#include "serve/faults.hpp"
#include "serve/server.hpp"
#include "serve_test_support.hpp"
#include "trees/forest.hpp"

namespace {

using flint::serve::ErrorCode;
using flint::serve::HealthState;
using flint::serve::InferenceServer;
using flint::serve::PredictorPtr;
using flint::serve::Priority;
using flint::serve::ServeError;
using flint::serve::ServeOptions;
using flint::serve::ShedPolicy;
using flint::serve::SubmitOptions;
using flint::serve::testing::GateGuard;
using flint::serve::testing::GatePredictor;
namespace faults = flint::serve::faults;

PredictorPtr wrap(const flint::trees::Forest<float>& forest) {
  return PredictorPtr(flint::predict::make_predictor(forest, "encoded"));
}

/// Delegating predictor that sleeps before every batch — deterministic
/// pipeline contention for the deadline tests (a busy worker makes batches
/// queue behind it for a known duration).
class SlowPredictor : public flint::predict::Predictor<float> {
 public:
  SlowPredictor(PredictorPtr inner, std::chrono::milliseconds delay)
      : inner_(std::move(inner)), delay_(delay) {
    set_missing_policy(inner_->missing_policy());
  }
  [[nodiscard]] std::string name() const override {
    return "slow:" + inner_->name();
  }
  [[nodiscard]] int num_classes() const noexcept override {
    return inner_->num_classes();
  }
  [[nodiscard]] std::size_t feature_count() const noexcept override {
    return inner_->feature_count();
  }

 private:
  void do_predict_batch(const float* features, std::size_t n_samples,
                        std::int32_t* out) const override {
    std::this_thread::sleep_for(delay_);
    inner_->predict_batch_prevalidated(features, n_samples, out);
  }

  PredictorPtr inner_;
  std::chrono::milliseconds delay_;
};

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

class ResilienceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    faults::reset();
    const auto full =
        flint::data::generate<float>(flint::data::magic_spec(), 11, 600);
    split_ = flint::data::train_test_split(full, 0.3, 11);
    flint::trees::ForestOptions opt;
    opt.n_trees = 9;
    opt.tree.max_depth = 6;
    opt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
    forest_a_ = flint::trees::train_forest(split_.train, opt);
    opt.tree.seed = 1717;
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

  void TearDown() override { faults::reset(); }

  std::vector<float> rows_from(std::size_t first, std::size_t n) const {
    std::vector<float> out(n * cols_);
    for (std::size_t s = 0; s < n; ++s) {
      std::copy_n(pool_.data() + ((first + s) % rows_) * cols_, cols_,
                  out.data() + s * cols_);
    }
    return out;
  }

  bool matches(const std::vector<std::int32_t>& ref, std::size_t first,
               const std::vector<std::int32_t>& got) const {
    for (std::size_t s = 0; s < got.size(); ++s) {
      if (got[s] != ref[(first + s) % rows_]) return false;
    }
    return true;
  }

  /// Polls metrics() until `predicate` holds or ~2s elapse.
  template <typename Predicate>
  static bool eventually(const InferenceServer& server, Predicate predicate) {
    for (int i = 0; i < 400; ++i) {
      if (predicate(server.metrics())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
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

// ---------------------------------------------------------------------------
// Always-on: deadlines, admission control, degrade ladder.
// ---------------------------------------------------------------------------

TEST_F(ResilienceFixture, GenerousDeadlineSucceeds) {
  InferenceServer server{ServeOptions{}};
  server.registry().install("default", wrap(forest_a_));
  SubmitOptions sopt;
  sopt.deadline_us = 10'000'000;
  auto got = server.submit(rows_from(0, 3), 3, {}, sopt).get();
  EXPECT_TRUE(matches(ref_a_, 0, got));
  const auto m = server.metrics();
  EXPECT_EQ(m.deadline_missed, 0u);
  EXPECT_EQ(m.completed, 1u);
}

// Workers sweep the queue before they form a batch.  Behind the parked
// single worker, a request whose deadline passes while it is queued fails
// "before dispatch" as soon as the worker frees up, while its no-deadline
// neighbour and a request whose deadline is still live coalesce into that
// worker's next batch and succeed.
TEST_F(ResilienceFixture, ExpiredInQueueSweptWhenWorkerFrees) {
  ServeOptions opt;
  opt.workers = 1;
  const auto gate = std::make_shared<GatePredictor>(wrap(forest_a_));
  InferenceServer server(opt);
  const GateGuard release(*gate);
  server.registry().install("default", gate);
  auto bait = server.submit(rows_from(0, 1), 1);
  ASSERT_TRUE(gate->wait_entered());
  auto no_deadline = server.submit(rows_from(0, 2), 2);
  SubmitOptions tight;
  tight.deadline_us = 20'000;
  auto doomed = server.submit(rows_from(5, 2), 2, {}, tight);
  SubmitOptions loose;
  loose.deadline_us = 30'000'000;
  auto live = server.submit(rows_from(10, 2), 2, {}, loose);
  // Well past the tight deadline: nothing has left the queue, since the
  // only worker is parked and no other thread dispatches.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(server.metrics().queued_samples, 6u);
  gate->open();
  EXPECT_TRUE(matches(ref_a_, 0, bait.get()));
  try {
    (void)doomed.get();
    ADD_FAILURE() << "expired request was executed";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    EXPECT_NE(std::string(e.what()).find("before dispatch"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(matches(ref_a_, 0, no_deadline.get()));
  EXPECT_TRUE(matches(ref_a_, 10, live.get()));
  const auto m = server.metrics();
  EXPECT_EQ(m.deadline_missed, 1u);
  EXPECT_EQ(m.batches, 2u);  // the bait, then both survivors together
  EXPECT_EQ(m.requests, m.completed + m.failed);
}

// A request whose deadline expires while queued is swept and failed typed,
// never executed: the single worker is pinned by a slow batch, and the
// deadline-carrying request expires in the request queue behind it.
TEST_F(ResilienceFixture, ExpiredRequestSweptNotExecuted) {
  ServeOptions opt;
  opt.max_batch = 64;
  opt.workers = 1;
  InferenceServer server(opt);
  server.registry().install(
      "default", std::make_shared<SlowPredictor>(
                     wrap(forest_a_), std::chrono::milliseconds(150)));
  auto slow = server.submit(rows_from(0, 2), 2);
  // Let the worker pick the slow batch up before the deadline request.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  SubmitOptions sopt;
  sopt.deadline_us = 20'000;  // expires ~100ms before the worker frees up
  auto doomed = server.submit(rows_from(10, 2), 2, {}, sopt);
  EXPECT_EQ(serve_error_code(doomed), ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(matches(ref_a_, 0, slow.get()));
  const auto m = server.metrics();
  EXPECT_EQ(m.deadline_missed, 1u);
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.requests, m.completed + m.failed);
}

// Queue pressure drives the degrade ladder and the health state machine:
// above 50% sample pressure the server reports degraded, and draining once
// stop() begins.
TEST_F(ResilienceFixture, DegradeLevelAndHealthTrackPressure) {
  ServeOptions opt;
  opt.workers = 1;
  opt.sample_capacity = 100;
  const auto gate = std::make_shared<GatePredictor>(wrap(forest_a_));
  InferenceServer server(opt);
  const GateGuard release(*gate);
  server.registry().install("default", gate);
  EXPECT_EQ(server.metrics().health, HealthState::kHealthy);
  auto bait = server.submit(rows_from(0, 1), 1);
  ASSERT_TRUE(gate->wait_entered());  // no idle worker: the queue holds
  auto pinned = server.submit(rows_from(0, 60), 60);  // pressure 0.6
  auto m = server.metrics();
  EXPECT_EQ(m.degrade_level, 1);
  EXPECT_EQ(m.health, HealthState::kDegraded);
  EXPECT_EQ(m.queued_samples, 60u);
  gate->open();
  server.stop();
  EXPECT_TRUE(matches(ref_a_, 0, bait.get()));
  EXPECT_TRUE(matches(ref_a_, 0, pinned.get()));
  m = server.metrics();
  EXPECT_EQ(m.health, HealthState::kDraining);
  EXPECT_EQ(m.degrade_level, 0);
  EXPECT_EQ(m.requests, m.completed + m.failed);
}

// ---------------------------------------------------------------------------
// FLINT_FAULTS: injected faults, watchdog fail-over, chaos sweep.
// ---------------------------------------------------------------------------

TEST_F(ResilienceFixture, InjectedPredictorThrowFailsBatchTyped) {
#if !FLINT_FAULTS
  GTEST_SKIP() << "requires -DFLINT_FAULTS=ON";
#else
  faults::Arm arm;
  arm.site = faults::Site::kWorkerExecute;
  arm.kind = faults::Kind::kThrow;
  arm.fire_at = 1;
  arm.count = 1;
  faults::arm(arm);
  InferenceServer server{ServeOptions{}};
  server.registry().install("default", wrap(forest_a_));
  auto doomed = server.submit(rows_from(0, 2), 2);
  EXPECT_EQ(serve_error_code(doomed), ErrorCode::kExecutionFailed);
  // The fault window is exhausted: the server keeps serving.
  auto fine = server.submit(rows_from(5, 2), 2);
  EXPECT_TRUE(matches(ref_a_, 5, fine.get()));
  const auto m = server.metrics();
  EXPECT_GE(m.faults_injected, 1u);
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.completed, 1u);
#endif
}

TEST_F(ResilienceFixture, InjectedAllocFailureInCoalesceFailsBatchTyped) {
#if !FLINT_FAULTS
  GTEST_SKIP() << "requires -DFLINT_FAULTS=ON";
#else
  faults::Arm arm;
  arm.site = faults::Site::kWorkerCoalesce;
  arm.kind = faults::Kind::kBadAlloc;
  arm.fire_at = 1;
  arm.count = 1;
  faults::arm(arm);
  InferenceServer server{ServeOptions{}};
  server.registry().install("default", wrap(forest_a_));
  auto doomed = server.submit(rows_from(0, 2), 2);
  EXPECT_EQ(serve_error_code(doomed), ErrorCode::kExecutionFailed);
  auto fine = server.submit(rows_from(5, 2), 2);
  EXPECT_TRUE(matches(ref_a_, 5, fine.get()));
#endif
}

// Priority eviction + ladder-top shedding, made deterministic by stalling
// the only worker while it forms its first batch (the queue cannot drain
// under it).
TEST_F(ResilienceFixture, PriorityEvictionAndLadderShedding) {
#if !FLINT_FAULTS
  GTEST_SKIP() << "requires -DFLINT_FAULTS=ON";
#else
  faults::Arm arm;
  arm.site = faults::Site::kWorkerForm;
  arm.kind = faults::Kind::kStall;
  arm.fire_at = 1;
  arm.count = 1;
  arm.stall_us = 5'000'000;
  faults::arm(arm);
  ServeOptions opt;
  opt.max_batch = 64;
  opt.workers = 1;
  opt.queue_capacity = 4;
  opt.shed_policy = ShedPolicy::kPriorityEvict;
  opt.stall_timeout_us = 0;  // the stall is the scenario, not a failure
  InferenceServer server(opt);
  server.registry().install("default", wrap(forest_a_));
  // The bait batch parks the worker inside the stall...
  auto bait = server.submit(rows_from(0, 1), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // ...so these four kLow requests stay queued.
  SubmitOptions low;
  low.priority = Priority::kLow;
  std::vector<std::future<std::vector<std::int32_t>>> lows;
  for (std::size_t i = 0; i < 4; ++i) {
    lows.push_back(server.submit(rows_from(10 + i, 1), 1, {}, low));
  }
  // Queue full (4/4, degrade level 3): another kLow is shed outright...
  auto shed = server.submit(rows_from(20, 1), 1, {}, low);
  try {
    (void)shed.get();
    FAIL() << "expected ladder shed";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
    EXPECT_GT(e.retry_after_us(), 0u);
  }
  // ...while a kHigh request displaces the youngest kLow victim.
  SubmitOptions high;
  high.priority = Priority::kHigh;
  auto vip = server.submit(rows_from(30, 1), 1, {}, high);
  EXPECT_EQ(serve_error_code(lows[3]), ErrorCode::kOverloaded);
  auto m = server.metrics();
  EXPECT_EQ(m.evicted, 1u);
  EXPECT_EQ(m.shed, 1u);
  // Release the worker: everything still queued completes correctly.
  faults::cancel_stalls();
  EXPECT_TRUE(matches(ref_a_, 0, bait.get()));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(matches(ref_a_, 10 + i, lows[i].get()));
  }
  EXPECT_TRUE(matches(ref_a_, 30, vip.get()));
  server.stop();
  m = server.metrics();
  EXPECT_EQ(m.requests, m.completed + m.failed);
#endif
}

// A worker stalled at either of its stall-prone sites — forming its batch
// or executing it — is failed over by the watchdog and respawned.
TEST_F(ResilienceFixture, WorkerStallWatchdogFailsOverAndRespawns) {
#if !FLINT_FAULTS
  GTEST_SKIP() << "requires -DFLINT_FAULTS=ON";
#else
  for (const auto site :
       {faults::Site::kWorkerExecute, faults::Site::kWorkerForm}) {
    SCOPED_TRACE(faults::to_string(site));
    faults::reset();
    faults::Arm arm;
    arm.site = site;
    arm.kind = faults::Kind::kStall;
    arm.fire_at = 1;
    arm.count = 1;
    arm.stall_us = 10'000'000;  // far beyond the watchdog threshold
    faults::arm(arm);
    ServeOptions opt;
    opt.workers = 1;
    opt.stall_timeout_us = 60'000;
    InferenceServer server(opt);
    server.registry().install("default", wrap(forest_a_));
    auto stalled = server.submit(rows_from(0, 2), 2);
    // The watchdog fails only the affected request, with a typed error.
    EXPECT_EQ(serve_error_code(stalled), ErrorCode::kStalled);
    EXPECT_EQ(server.metrics().worker_restarts, 1u);
    // The respawned worker serves immediately (the fault window is spent).
    auto fine = server.submit(rows_from(5, 2), 2);
    EXPECT_TRUE(matches(ref_a_, 5, fine.get()));
    // While the zombie is still stalled the server reports degraded; once
    // released and reaped it recovers to healthy.
    faults::cancel_stalls();
    EXPECT_TRUE(eventually(server, [](const flint::serve::ServeMetrics& m) {
      return m.health == HealthState::kHealthy;
    }));
    server.stop();
    const auto m = server.metrics();
    EXPECT_EQ(m.requests, m.completed + m.failed);
  }
#endif
}

// Every path that loses a batch — a worker stalled while executing, one
// stalled while forming, and an allocation failure while coalescing —
// leaves the pool live: an isolated request still resolves at once, and
// once the zombies are reaped a pair queued behind the parked worker still
// coalesces into one batch (a zombie that kept taking work would split
// it).
TEST_F(ResilienceFixture, PoolStaysLiveAfterFailOversAndAssemblyFaults) {
#if !FLINT_FAULTS
  GTEST_SKIP() << "requires -DFLINT_FAULTS=ON";
#else
  // Per-site hit counts: request 1 stalls its worker (execute hit 1),
  // request 2 stalls the replacement while forming (form hit 2), request 3
  // fails coalescing (coalesce hit 2 — request 2 never reached it).
  faults::Arm execute_stall;
  execute_stall.site = faults::Site::kWorkerExecute;
  execute_stall.kind = faults::Kind::kStall;
  execute_stall.fire_at = 1;
  execute_stall.stall_us = 10'000'000;
  faults::arm(execute_stall);
  faults::Arm form_stall = execute_stall;
  form_stall.site = faults::Site::kWorkerForm;
  form_stall.fire_at = 2;
  faults::arm(form_stall);
  faults::Arm bad_alloc;
  bad_alloc.site = faults::Site::kWorkerCoalesce;
  bad_alloc.kind = faults::Kind::kBadAlloc;
  bad_alloc.fire_at = 2;
  faults::arm(bad_alloc);
  ServeOptions opt;
  opt.workers = 1;
  opt.stall_timeout_us = 60'000;
  InferenceServer server(opt);
  server.registry().install("default", wrap(forest_a_));
  auto execute_stalled = server.submit(rows_from(0, 1), 1);
  EXPECT_EQ(serve_error_code(execute_stalled), ErrorCode::kStalled);
  auto form_stalled = server.submit(rows_from(1, 1), 1);
  EXPECT_EQ(serve_error_code(form_stalled), ErrorCode::kStalled);
  auto alloc_failed = server.submit(rows_from(2, 1), 1);
  EXPECT_EQ(serve_error_code(alloc_failed), ErrorCode::kExecutionFailed);
  auto m = server.metrics();
  EXPECT_EQ(m.worker_restarts, 2u);

  auto probe = server.submit(rows_from(3, 1), 1);
  ASSERT_EQ(probe.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_TRUE(matches(ref_a_, 3, probe.get()));

  // Let the zombies come back and be reaped; with the live worker parked,
  // queued requests must hold and then leave together.
  faults::cancel_stalls();
  ASSERT_TRUE(eventually(server, [](const flint::serve::ServeMetrics& s) {
    return s.health == HealthState::kHealthy;
  }));
  const auto gate = std::make_shared<GatePredictor>(wrap(forest_a_));
  const GateGuard release(*gate);
  server.registry().install("default", gate);
  auto bait = server.submit(rows_from(4, 1), 1);
  ASSERT_TRUE(gate->wait_entered());
  auto first = server.submit(rows_from(5, 1), 1);
  auto second = server.submit(rows_from(6, 1), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.metrics().queued_samples, 2u);
  const std::uint64_t batches_before = server.metrics().batches;
  gate->open();
  EXPECT_TRUE(matches(ref_a_, 4, bait.get()));
  EXPECT_TRUE(matches(ref_a_, 5, first.get()));
  EXPECT_TRUE(matches(ref_a_, 6, second.get()));
  m = server.metrics();
  EXPECT_EQ(m.batches, batches_before + 2);  // the bait, then the pair
  server.stop();
  m = server.metrics();
  EXPECT_EQ(m.requests, m.completed + m.failed);
#endif
}

// A request that arrives while the spinner is between the end of its
// window and the queue lock gets no wake-up, since submit() saw the
// spinner, so the spinner must find it when it re-checks the queue.  A
// stall at worker.spin holds that gap open for 300 ms.
TEST_F(ResilienceFixture, SpinnerRechecksQueueAfterItsWindow) {
#if !FLINT_FAULTS
  GTEST_SKIP() << "requires -DFLINT_FAULTS=ON";
#else
  faults::Arm arm;
  arm.site = faults::Site::kWorkerSpin;
  arm.kind = faults::Kind::kThrow;
  EXPECT_THROW(faults::arm(arm), std::invalid_argument);  // stall only
  arm.kind = faults::Kind::kStall;
  arm.fire_at = 1;
  arm.count = 1;
  arm.stall_us = 300'000;
  faults::arm(arm);
  ServeOptions opt;
  opt.workers = 1;
  InferenceServer server(opt);
  server.registry().install("default", wrap(forest_a_));
  // The idle worker's first window ends with nothing queued, and stalls.
  ASSERT_TRUE(eventually(server, [](const flint::serve::ServeMetrics& m) {
    return m.faults_injected >= 1;
  }));
  auto future = server.submit(rows_from(0, 2), 2);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(2)),
            std::future_status::ready);
  EXPECT_TRUE(matches(ref_a_, 0, future.get()));
  EXPECT_EQ(server.metrics().spin_hits, 1u);  // taken without a wake-up
#endif
}

// A fault mid-install (the registry.install fault point sits before the
// pointer flip) must leave the last-good entry serving — the hot-swap
// rollback contract.
TEST_F(ResilienceFixture, MidSwapFaultRollsBackToLastGoodModel) {
#if !FLINT_FAULTS
  GTEST_SKIP() << "requires -DFLINT_FAULTS=ON";
#else
  InferenceServer server{ServeOptions{}};
  server.registry().install("default", wrap(forest_a_));
  faults::Arm arm;
  arm.site = faults::Site::kRegistryInstall;
  arm.kind = faults::Kind::kThrow;
  arm.fire_at = 1;
  arm.count = 1;
  faults::arm(arm);
  EXPECT_THROW(server.registry().install("default", wrap(forest_b_)),
               faults::InjectedFault);
  // Still serving model A at version 1.
  EXPECT_EQ(server.registry().resolve().version, 1u);
  auto got = server.submit(rows_from(3, 4), 4).get();
  EXPECT_TRUE(matches(ref_a_, 3, got));
  // A clean retry of the swap succeeds (fault window spent).
  EXPECT_EQ(server.registry().install("default", wrap(forest_b_)), 2u);
  auto swapped = server.submit(rows_from(3, 4), 4).get();
  EXPECT_TRUE(matches(ref_b_, 3, swapped));
#endif
}

// Constant clock skew must not break deadline bookkeeping: every serve
// timing decision reads the same (skewed) clock, so budgets still measure
// true elapsed time.
TEST_F(ResilienceFixture, ClockSkewDoesNotBreakDeadlines) {
#if !FLINT_FAULTS
  GTEST_SKIP() << "requires -DFLINT_FAULTS=ON";
#else
  for (const std::int64_t skew_us : {-2000, +2000}) {
    faults::reset();
    faults::Arm arm;
    arm.site = faults::Site::kClockNow;
    arm.kind = faults::Kind::kClockSkew;
    arm.skew_us = skew_us;
    faults::arm(arm);
    InferenceServer server{ServeOptions{}};
    server.registry().install("default", wrap(forest_a_));
    SubmitOptions sopt;
    sopt.deadline_us = 500'000;  // far beyond one batch's true latency
    auto got = server.submit(rows_from(0, 3), 3, {}, sopt).get();
    EXPECT_TRUE(matches(ref_a_, 0, got)) << "skew " << skew_us;
    EXPECT_EQ(server.metrics().deadline_missed, 0u) << "skew " << skew_us;
  }
#endif
}

// The seed sweep: a whole deterministic fault plan (throws, allocation
// failures, possibly clock skew) armed across every site, concurrent
// producers with mixed deadlines/priorities plus a mid-run hot swap.  The
// contract under any seed: every future resolves exactly once with a
// correct result or a typed error, the books balance, and the server
// serves cleanly once the plan is spent.
TEST_F(ResilienceFixture, ChaosSweepEveryRequestResolvesTyped) {
#if !FLINT_FAULTS
  GTEST_SKIP() << "requires -DFLINT_FAULTS=ON";
#else
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("FLINT_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  faults::arm_seeded(seed, /*stall_us=*/0);
  ServeOptions opt;
  opt.max_batch = 32;
  opt.workers = 2;
  opt.stall_timeout_us = 2'000'000;
  InferenceServer server(opt);
  // The registry fault point can reject even the first install; the
  // windows are finite, so a bounded retry always lands it.
  for (int attempt = 0;; ++attempt) {
    try {
      server.registry().install("default", wrap(forest_a_));
      break;
    } catch (const std::exception&) {
      ASSERT_LT(attempt, 20) << "install never admitted under seed " << seed;
    }
  }
  std::atomic<int> wrong{0};
  std::atomic<std::uint64_t> values{0};
  std::atomic<std::uint64_t> typed_errors{0};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < 40; ++i) {
        const std::size_t n = 1 + ((p + i) % 5);
        const std::size_t first = (p * 131 + i * 17) % rows_;
        SubmitOptions sopt;
        sopt.deadline_us = (i % 3 == 0) ? 50'000 : 0;
        sopt.priority = static_cast<Priority>(i % 3);
        auto future = server.submit(rows_from(first, n), n, {}, sopt);
        try {
          auto got = future.get();
          // A mid-run swap is attempted below; either model is correct.
          if (!matches(ref_a_, first, got) && !matches(ref_b_, first, got)) {
            wrong.fetch_add(1);
          }
          values.fetch_add(1);
        } catch (const ServeError&) {
          typed_errors.fetch_add(1);
        } catch (...) {
          wrong.fetch_add(1);  // anything untyped breaks the contract
        }
      }
    });
  }
  // Mid-run hot swap; the registry fault point may reject it — in that
  // case the last-good model must keep serving (checked via `wrong`).
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  try {
    server.registry().install("default", wrap(forest_b_));
  } catch (const std::exception&) {
    // Rolled back; still serving model A.
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(wrong.load(), 0) << "seed " << seed;
  EXPECT_EQ(values.load() + typed_errors.load(), 4u * 40u) << "seed " << seed;
  server.stop();
  const auto m = server.metrics();
  EXPECT_EQ(m.requests, m.completed + m.failed) << "seed " << seed;
  // The plan is spent (finite windows): a fresh request must serve.
  faults::reset();
  InferenceServer after{ServeOptions{}};
  after.registry().install("default", wrap(forest_a_));
  auto probe = after.submit(rows_from(0, 2), 2).get();
  EXPECT_TRUE(matches(ref_a_, 0, probe)) << "seed " << seed;
#endif
}

}  // namespace
