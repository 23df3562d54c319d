// Test doubles shared by the serve suites (test_serve, test_resilience).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

#include "predict/predictor.hpp"
#include "serve/server.hpp"

namespace flint::serve::testing {

/// Delegating predictor whose batches block until open() — parks a worker
/// deterministically.  Workers form their own batches, so with every
/// worker parked requests submitted meanwhile provably stay in the request
/// queue until a worker frees up.
class GatePredictor : public predict::Predictor<float> {
 public:
  explicit GatePredictor(PredictorPtr inner) : inner_(std::move(inner)) {
    set_missing_policy(inner_->missing_policy());
  }
  [[nodiscard]] std::string name() const override {
    return "gate:" + inner_->name();
  }
  [[nodiscard]] int num_classes() const noexcept override {
    return inner_->num_classes();
  }
  [[nodiscard]] std::size_t feature_count() const noexcept override {
    return inner_->feature_count();
  }

  /// Waits (bounded) until `batches` batches have entered the gate.
  [[nodiscard]] bool wait_entered(std::size_t batches = 1) const {
    std::unique_lock lk(mu_);
    return cv_.wait_for(lk, std::chrono::seconds(10),
                        [&] { return entered_ >= batches; });
  }

  /// Releases every parked batch and lets later ones through.  Idempotent.
  void open() {
    {
      const std::lock_guard lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  void do_predict_batch(const float* features, std::size_t n_samples,
                        std::int32_t* out) const override {
    {
      std::unique_lock lk(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lk, [&] { return open_; });
    }
    inner_->predict_batch_prevalidated(features, n_samples, out);
  }

  PredictorPtr inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::size_t entered_ = 0;
  bool open_ = false;
};

/// Opens a gate on scope exit, so a failed assertion never leaves a worker
/// parked for the server's destructor to join forever.  Declare it after
/// the server it guards.
class GateGuard {
 public:
  explicit GateGuard(GatePredictor& gate) : gate_(gate) {}
  ~GateGuard() { gate_.open(); }
  GateGuard(const GateGuard&) = delete;
  GateGuard& operator=(const GateGuard&) = delete;

 private:
  GatePredictor& gate_;
};

}  // namespace flint::serve::testing
