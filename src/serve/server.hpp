// serve — the long-lived inference runtime: converts kernel throughput into
// served QPS by coalescing concurrent small requests into micro-batches.
//
// The FLInt engines only reach their headline rates at batch >= ~1024
// (docs/BENCHMARKS.md), but a serving workload arrives as many tiny
// concurrent requests.  InferenceServer closes that gap:
//
//   submit() ──> MPSC request queue ──> worker pool (an idle worker sweeps,
//                (mutex + cv +          forms, coalesces and executes its
//                 enqueue counter)      own micro-batch via Predictor)
//                      ▲ admission control   ▲ watchdog (stall detection,
//                                              fail-over, respawn)
//
//   * workers form their own batches: an idle worker waits on the request
//     queue, sweeps expired requests, takes the head request plus its
//     queued same-snapshot neighbours up to `max_batch` samples, wakes
//     another idle worker if work is still queued, then executes.  So an
//     isolated request dispatches as soon as a worker is idle and never
//     waits for company; requests that arrive while every worker is busy
//     queue, and the next worker to free up takes them as one batch.
//     Batching thus costs latency only under load.  A batch holding a
//     single request executes zero-copy, directly on that request's own
//     buffer;
//   * an idle worker does not park at once: while no other worker spins,
//     it polls an enqueue counter for up to 1 ms, yielding the CPU on
//     every pass, and submit() skips the thread wake-up while it does.  A
//     request that arrives in that window is taken without a wake-up,
//     which on a VM costs several times a single-sample kernel.  The
//     spinner re-checks the queue under the lock when its window ends, so
//     no request is stranded.  ServeMetrics::spin_hits and spin_us show
//     what the spin catches and what it costs;
//   * per-request deadlines (SubmitOptions::deadline_us) bound time spent
//     in the queue: a request whose deadline expires before a worker takes
//     it is swept and failed with ErrorCode::kDeadlineExceeded instead of
//     being executed late (a dispatched batch always runs to completion);
//   * admission control bounds both queued requests (queue_capacity) and
//     queued samples (sample_capacity — a single huge request cannot buy
//     unbounded memory), sheds lowest-priority work first under
//     ShedPolicy::kPriorityEvict, and under sustained overload walks a
//     degrade ladder (report degraded -> force larger batches -> shed
//     low-priority admissions) driven by queue pressure;
//   * every submit() returns a std::future carrying either the predictions
//     or a typed error: std::invalid_argument for malformed requests
//     (shape/NaN/unknown model), serve::ServeError (serve/errors.hpp) for
//     every server condition — queue-full, overload shed, post-stop
//     submit, deadline miss, watchdog fail-over, execution failure;
//   * models live in a ModelRegistry: named, versioned, hot-swappable.  A
//     request pins its predictor snapshot (shared_ptr) at submit time and a
//     batch only coalesces requests pinned to the same snapshot, so a swap
//     under load can never produce a result from a half-swapped model; a
//     failed install (verification, allocation, injected fault) leaves the
//     last-good entry serving;
//   * a watchdog thread monitors worker progress: a worker stuck in one
//     batch past stall_timeout_us is failed over — only the affected
//     requests error (ErrorCode::kStalled), a replacement thread respawns,
//     and the stalled thread is reaped when it comes back.  Health is a
//     healthy/degraded/draining state machine exposed via metrics();
//   * deterministic fault points for all of the above live in
//     serve/faults.hpp (FLINT_FAULTS builds; no-ops otherwise) and the
//     chaos suite tests/test_resilience.cpp holds the resilience contract:
//     no request is ever silently dropped — every accepted future resolves
//     exactly once, to a result or one typed error;
//   * stop() (and the destructor) drains: the workers keep forming batches
//     until the queue is empty, so queued requests are completed (or
//     deadline-swept, typed), never dropped.
//
// Metrics (request/batch/shed/deadline/restart counters, spin hits and
// time, queue depth and pressure, health state, a log2 batch-size
// histogram and p50/p99/max request latency) are sampled with metrics(),
// exported through the BENCH_*.json machinery with add_serve_metrics, and
// rendered as one JSON line by serve_metrics_json (the CLI `stats`
// command).
#pragma once

#include <array>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_annotations.hpp"
#include "predict/predictor.hpp"
#include "serve/errors.hpp"

namespace flint::harness {
class BenchJson;
}

namespace flint::serve {

using PredictorPtr = std::shared_ptr<const predict::Predictor<float>>;

/// One named, versioned model as resolved from the registry.
struct ModelEntry {
  std::string name;
  std::uint64_t version = 0;  ///< bumped by every install() under this name
  PredictorPtr predictor;
};

/// Named model store with atomic hot-swap.  install() publishes a new
/// predictor under a name by flipping the shared_ptr inside one lock;
/// resolve() returns a snapshot whose predictor stays valid (shared
/// ownership) for as long as the caller holds it, so in-flight work is
/// never invalidated by a concurrent swap.  install() is strongly
/// exception-safe: a throw (verification upstream, allocation, injected
/// fault) leaves the previous entry untouched and serving.
class ModelRegistry {
 public:
  /// Publishes `predictor` under `name`, replacing any previous version;
  /// returns the new version number (1 for a first install).  The first
  /// name ever installed becomes the default model.
  std::uint64_t install(const std::string& name, PredictorPtr predictor);

  /// Snapshot of a model; empty `name` resolves the default model.  Throws
  /// std::invalid_argument for an unknown name or an empty registry.
  [[nodiscard]] ModelEntry resolve(std::string_view name = {}) const;

  /// Snapshot of every installed model (one entry per name).
  [[nodiscard]] std::vector<ModelEntry> list() const;

 private:
  mutable core::Mutex mutex_;
  // Few models: linear scan under the lock.
  std::vector<ModelEntry> models_ FLINT_GUARDED_BY(mutex_);
  std::string default_name_ FLINT_GUARDED_BY(mutex_);
};

/// Priority class of a request.  Lower value = more important; admission
/// control sheds kLow first (degrade ladder), and ShedPolicy::kPriorityEvict
/// displaces queued lower-priority work to admit higher-priority work.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

inline constexpr std::size_t kPriorityClasses = 3;

inline const char* to_string(Priority p) noexcept {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "unknown";
}

/// What admission control does when a bound (queue_capacity or
/// sample_capacity) is hit.
enum class ShedPolicy : std::uint8_t {
  /// Reject the incoming request (kQueueFull / kOverloaded on its future).
  kRejectNew = 0,
  /// Evict queued strictly-lower-priority requests (youngest first, failed
  /// with kOverloaded + retry hint) to admit the incoming request; reject
  /// the incoming request only if no such victims free enough room.
  kPriorityEvict = 1,
};

/// Server health as exposed by metrics() and the serve CLI.
enum class HealthState : std::uint8_t {
  kHealthy = 0,   ///< no overload pressure, no outstanding fail-over
  kDegraded = 1,  ///< degrade ladder active and/or a stalled stage is being
                  ///< replaced; still serving
  kDraining = 2,  ///< stop() in progress: completing queued work
};

inline const char* to_string(HealthState s) noexcept {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kDraining: return "draining";
  }
  return "unknown";
}

/// Batching/pool/resilience knobs of an InferenceServer.
struct ServeOptions {
  /// Most samples a worker takes into one batch.  A worker never waits to
  /// fill it: it takes what is queued when it frees up, so batches grow
  /// only while every worker is busy.  A single request at or beyond the
  /// bound forms a batch of its own (requests are never split), and
  /// max_batch = 1 makes every request its own batch.  The degrade ladder
  /// doubles the effective value under queue pressure.
  std::size_t max_batch = 1024;
  /// Batch-execution worker threads; 0 means available_parallelism().
  unsigned workers = 1;
  /// submit() rejects (ErrorCode::kQueueFull) beyond this many queued
  /// requests — the request-count backpressure bound.
  std::size_t queue_capacity = 65536;
  /// submit() sheds (ErrorCode::kOverloaded) beyond this many queued
  /// *samples* — the cost-aware admission bound; without it one huge
  /// request slips past the request-count bound.
  std::size_t sample_capacity = std::size_t{1} << 20;
  /// What to do when a bound is hit (see ShedPolicy).
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
  /// Watchdog fail-over threshold: a worker stuck in one batch for longer
  /// than this is failed over and respawned.  0 disables the watchdog.
  /// Keep generous: it must only ever fire on a genuinely wedged worker,
  /// not on a slow batch.
  std::uint32_t stall_timeout_us = 10'000'000;
};

/// Per-request submit options (deadline + priority class).
struct SubmitOptions {
  /// Queue-time budget in microseconds, relative to submit(); 0 = none.
  /// A request still queued when the budget expires is failed with
  /// ErrorCode::kDeadlineExceeded, never executed: every worker sweeps the
  /// queue before it forms a batch, so the failure lands when a worker
  /// next frees up.  Once a worker has taken the request into its batch
  /// it runs to completion even if the result lands after the deadline.
  std::uint64_t deadline_us = 0;
  Priority priority = Priority::kNormal;
};

/// Number of log2 buckets of the batch-size histogram (bucket i counts
/// batches of 2^i .. 2^(i+1)-1 samples).
inline constexpr std::size_t kBatchHistogramBuckets = 24;

/// Point-in-time counters and latency percentiles of a server.
struct ServeMetrics {
  std::uint64_t requests = 0;          ///< accepted into the queue
  std::uint64_t rejected = 0;          ///< failed at submit: validation,
                                       ///< backpressure, shed, stopped
  std::uint64_t samples = 0;           ///< samples across accepted requests
  std::uint64_t batches = 0;           ///< batches executed
  /// Single-request batches, executed on the request's own buffer without
  /// a coalescing copy (batch-1 dispatch configs count every batch here).
  std::uint64_t zero_copy_batches = 0;
  std::uint64_t completed = 0;         ///< accepted requests fulfilled with
                                       ///< a result
  std::uint64_t failed = 0;            ///< accepted requests failed with a
                                       ///< typed error (= deadline_missed +
                                       ///< evicted + stall/execution
                                       ///< failures)
  std::uint64_t deadline_missed = 0;   ///< accepted, then swept expired
  std::uint64_t shed = 0;              ///< rejections due to load (queue and
                                       ///< sample bounds, degrade ladder,
                                       ///< eviction shortfall) — subset of
                                       ///< rejected
  std::uint64_t evicted = 0;           ///< accepted, then displaced by
                                       ///< higher-priority work
  /// Batches a spinning worker took without being woken: it polled the
  /// queue instead of parking, and the request arrived while it polled.
  /// A subset of batches.
  std::uint64_t spin_hits = 0;
  /// Wall time idle workers spent polling before they took a batch or
  /// parked, in µs.  Each poll yields the CPU, so this bounds the CPU the
  /// spin costs from above.
  double spin_us = 0.0;
  std::uint64_t worker_restarts = 0;   ///< watchdog worker fail-overs
  std::uint64_t faults_injected = 0;   ///< process-wide faults fired
                                       ///< (FLINT_FAULTS builds; else 0)
  std::size_t max_queue_depth = 0;     ///< request-queue high-water mark
  std::size_t queued_samples = 0;      ///< gauge at snapshot time
  int degrade_level = 0;               ///< gauge: 0 normal .. 3 shedding
  HealthState health = HealthState::kHealthy;
  double mean_batch_samples = 0.0;
  double p50_latency_us = 0.0;  ///< submit -> future-fulfilled, per request
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
  std::array<std::uint64_t, kBatchHistogramBuckets> batch_size_histogram{};
};

/// The serving runtime (see the file comment for the pipeline).  All public
/// methods are thread-safe; submit() may be called from any number of
/// producer threads.
class InferenceServer {
 public:
  /// Starts the worker and watchdog threads immediately.  Models
  /// are installed through registry(); submits before the first install are
  /// rejected with a typed error on the future.
  explicit InferenceServer(const ServeOptions& options = {});
  /// stop()s (drains, never drops) and joins.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  [[nodiscard]] ModelRegistry& registry() noexcept { return registry_; }

  /// Enqueues `n_samples` row-major samples against `model` (empty = the
  /// default model) and returns the future of their predictions, in order.
  /// `features` is copied, so the caller's buffer may be reused as soon as
  /// submit returns.  Rejection (bad shape, NaN feature, unknown model —
  /// std::invalid_argument; queue full, overload shed, server stopped —
  /// ServeError) is delivered as the future's exception and fails only
  /// this request.  n_samples == 0 resolves immediately.  `submit_options`
  /// carries the optional deadline and priority class.
  [[nodiscard]] std::future<std::vector<std::int32_t>> submit(
      std::span<const float> features, std::size_t n_samples,
      std::string_view model = {},
      const SubmitOptions& submit_options = {});

  /// Lets the workers drain every queued request into final batches and
  /// complete them (deadline-expired requests are swept with their typed
  /// error), then joins all threads.  Idempotent; implied by the destructor.  Requests
  /// submitted after (or concurrently with) stop may be rejected with
  /// ErrorCode::kStopped, but a request whose submit() returned an
  /// accepting future is always resolved — result or typed error, exactly
  /// once.
  void stop();

  [[nodiscard]] ServeMetrics metrics() const;
  [[nodiscard]] const ServeOptions& options() const noexcept { return options_; }
  [[nodiscard]] unsigned worker_count() const noexcept;

 private:
  struct Impl;
  ServeOptions options_;
  ModelRegistry registry_;
  std::unique_ptr<Impl> impl_;
};

/// Writes a metrics snapshot into a BENCH_*.json header (prefixed keys) —
/// the serve runtime's export path into the repo's bench artifact tooling.
void add_serve_metrics(harness::BenchJson& json, const ServeMetrics& metrics,
                       const std::string& prefix = "serve_");

/// Renders a metrics snapshot as one line of JSON (no trailing newline) —
/// the `stats` command of the serve CLI line protocol.
[[nodiscard]] std::string serve_metrics_json(const ServeMetrics& metrics);

}  // namespace flint::serve
