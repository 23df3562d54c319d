#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/thread_annotations.hpp"
#include "harness/bench_json.hpp"
#include "serve/faults.hpp"

namespace flint::serve {

namespace {

using Clock = std::chrono::steady_clock;

double microseconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

std::int64_t to_us(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

/// Latency reservoir bound: past this many records the buffer becomes a
/// ring (oldest samples overwritten), so a long-running server's
/// percentiles track the recent window instead of growing without bound.
/// Kept modest (64k doubles = 512 KiB) because metrics() copies the buffer
/// under the metrics mutex — a huge reservoir would stall workers'
/// post-batch accounting for the duration of the copy.
constexpr std::size_t kMaxLatencySamples = std::size_t{1} << 16;

std::size_t histogram_bucket(std::size_t batch_samples) {
  std::size_t bucket = 0;
  while ((std::size_t{2} << bucket) <= batch_samples &&
         bucket + 1 < kBatchHistogramBuckets) {
    ++bucket;
  }
  return bucket;
}

/// Degrade-ladder thresholds over queue pressure (the max of the sample
/// and request fill fractions).  Pure function of instantaneous pressure,
/// so tests and metrics() agree with the workers by construction.
int degrade_level_from(std::size_t queued_samples, std::size_t queue_depth,
                       const ServeOptions& options) {
  const double sample_pressure =
      static_cast<double>(queued_samples) /
      static_cast<double>(options.sample_capacity);
  const double request_pressure =
      static_cast<double>(queue_depth) /
      static_cast<double>(options.queue_capacity);
  const double pressure = std::max(sample_pressure, request_pressure);
  if (pressure >= 0.90) return 3;
  if (pressure >= 0.75) return 2;
  if (pressure >= 0.50) return 1;
  return 0;
}

/// Backoff hint carried by every shed, rejected-when-full or evicted
/// request's ServeError.
constexpr std::uint32_t kRetryAfterUs = 1000;

/// How long an idle worker polls for the next request before it parks on
/// the queue condition variable.  On a VM whose idle vCPUs halt, waking a
/// parked worker costs about 55 µs, around 5x the 8–13 µs single-sample
/// kernel of a 128-tree depth-14 forest.  At 2k Poisson requests/s a 1 ms
/// window catches about 86% of arrivals (1 - e^-2).  The CLI and the
/// default ServeOptions run one worker, so that worker is the spinner.
/// Under sparse traffic the spin burns up to one core (with no traffic a
/// worker parks after one window); the worker yields on every pass, so
/// clients that need the CPU still get it.
constexpr auto kSpinWindow = std::chrono::microseconds(1000);

/// Maps any batch-assembly/execution exception to the typed contract:
/// ServeError passes through, everything else (predictor throw, injected
/// fault, std::bad_alloc from a coalesce/output allocation) becomes
/// kExecutionFailed with the original message preserved.
std::exception_ptr as_typed_execution_error(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const ServeError&) {
    return error;
  } catch (const std::bad_alloc&) {
    return std::make_exception_ptr(ServeError(
        ErrorCode::kExecutionFailed, "allocation failure during batch"));
  } catch (const std::exception& e) {
    return std::make_exception_ptr(ServeError(
        ErrorCode::kExecutionFailed,
        std::string("batch execution failed: ") + e.what()));
  } catch (...) {
    return std::make_exception_ptr(
        ServeError(ErrorCode::kExecutionFailed, "batch execution failed"));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ModelRegistry.
// ---------------------------------------------------------------------------

std::uint64_t ModelRegistry::install(const std::string& name,
                                     PredictorPtr predictor) {
  if (name.empty()) {
    throw std::invalid_argument("ModelRegistry: model name must be non-empty");
  }
  if (!predictor) {
    throw std::invalid_argument("ModelRegistry: null predictor for '" + name +
                                "'");
  }
  // Mid-swap fault point: anything thrown from here on (a simulated
  // allocation failure, a verification throw upstream in the caller) must
  // leave the previous entry serving — the flip below is the only mutation.
  faults::hit(faults::Site::kRegistryInstall);
  core::MutexLock lk(mutex_);
  if (default_name_.empty()) default_name_ = name;
  for (auto& entry : models_) {
    if (entry.name == name) {
      // The hot swap: one shared_ptr flip under the lock.  Snapshots taken
      // by earlier resolve() calls keep the old predictor alive until their
      // batches finish.
      entry.predictor = std::move(predictor);
      return ++entry.version;
    }
  }
  models_.push_back(ModelEntry{name, 1, std::move(predictor)});
  return 1;
}

ModelEntry ModelRegistry::resolve(std::string_view name) const {
  core::MutexLock lk(mutex_);
  if (models_.empty()) {
    throw std::invalid_argument("ModelRegistry: no models installed");
  }
  const std::string_view wanted = name.empty() ? default_name_ : name;
  for (const auto& entry : models_) {
    if (entry.name == wanted) return entry;
  }
  throw std::invalid_argument("ModelRegistry: unknown model '" +
                              std::string(name) + "'");
}

std::vector<ModelEntry> ModelRegistry::list() const {
  core::MutexLock lk(mutex_);
  return models_;
}

// ---------------------------------------------------------------------------
// InferenceServer.
// ---------------------------------------------------------------------------

struct InferenceServer::Impl {
  struct Request {
    PredictorPtr predictor;
    std::vector<float> features;
    std::size_t n_samples = 0;
    std::promise<std::vector<std::int32_t>> promise;
    Clock::time_point enqueued;
    Clock::time_point deadline = Clock::time_point::max();
    Priority priority = Priority::kNormal;
  };

  /// A formed micro-batch.  All requests share one predictor snapshot (the
  /// hot-swap invariant) and, unless zero_copy, one coalesced feature
  /// buffer.  On the zero-copy path the single request's own buffer is the
  /// execution buffer.  Heap-allocated and shared between the worker that
  /// formed it and the watchdog; the per-request settled flags make
  /// settlement exactly-once even when a stalled worker and the watchdog
  /// race to resolve the same promises.
  struct Batch {
    PredictorPtr predictor;
    std::vector<Request> requests;
    std::vector<float> coalesced;
    std::size_t n_samples = 0;
    bool zero_copy = false;
    bool spin_hit = false;  ///< formed by a spinner that was never woken
    core::Mutex mu;
    std::vector<char> settled FLINT_GUARDED_BY(mu);  // 1:1 with requests
  };
  using BatchPtr = std::shared_ptr<Batch>;

  /// One worker thread as the watchdog sees it.  On fail-over the whole
  /// slot moves to `zombies` (the stalled thread still references it) and
  /// a fresh slot takes its place at the same index.
  struct Slot {
    std::thread thread;
    std::atomic<bool> abandoned{false};  ///< failed over; exit when seen
    std::atomic<bool> done{false};       ///< thread function returned
  };

  explicit Impl(const ServeOptions& options)
      : options(options),
        n_workers(std::max(
            1u, options.workers ? options.workers
                                : predict::available_parallelism())) {
    try {
      {
        core::MutexLock sl(slots_mutex);
        // Heartbeat tables are sized before any worker thread exists.
        worker_current.resize(n_workers);
        worker_busy_since_us.assign(n_workers, 0);
        worker_slots.reserve(n_workers);
        for (unsigned i = 0; i < n_workers; ++i) {
          worker_slots.push_back(std::make_unique<Slot>());
          spawn_worker_locked(i);
        }
      }
      if (options.stall_timeout_us > 0) {
        watchdog_thread = std::thread([this] { watchdog_loop(); });
      }
    } catch (...) {
      // Thread exhaustion mid-spawn: join what started (destroying a
      // joinable std::thread would terminate) and surface the error.
      stop();
      throw;
    }
  }

  void spawn_worker_locked(std::size_t index) FLINT_REQUIRES(slots_mutex) {
    Slot* slot = worker_slots[index].get();
    slot->thread = std::thread([this, slot, index] {
      worker_loop(slot, index);
      slot->done.store(true);
    });
  }

  // -- workers ------------------------------------------------------------

  /// An idle worker waits on the request queue, sweeps expired requests,
  /// forms a batch from the head request and wakes another idle worker if
  /// work is still queued, so no worker sleeps while work waits.  Once
  /// between two batches, and only while no other worker spins, an idle
  /// worker polls for up to kSpinWindow before it parks, and submit()
  /// skips the wake-up while it spins.  The spinner re-checks the queue
  /// under the lock after every spin, so a stale counter only shortens a
  /// spin and never strands a request.  On shutdown the workers drain the
  /// queue, then exit.
  void worker_loop(Slot* slot, std::size_t index) {
    core::UniqueLock lk(queue_mutex);
    bool may_spin = true;  // at most one spin between two batches
    for (;;) {
      bool spin_hit = false;
      // Condition predicates are written as explicit loops in the locked
      // scope (not wait(lock, lambda)) so the thread-safety analysis sees
      // every guarded read under the lock it requires.
      while (!stopping && queue.empty()) {
        if (!may_spin || spinner) {
          queue_cv.wait(lk);
          continue;
        }
        may_spin = false;
        spinner = true;
        const std::uint64_t seen = enqueues.load();
        lk.unlock();
        const double spun_us = poll_enqueues(seen);
        lk.lock();
        spinner = false;
        spin_us += spun_us;
        spin_hit = !queue.empty();
      }
      if (queue.empty()) break;  // stopping, and the queue is drained
      // Deadline sweep before formation: an expired-in-queue request is
      // failed typed, never executed.
      std::vector<Request> expired = sweep_expired_locked();
      if (!expired.empty()) {
        lk.unlock();
        fail_expired(std::move(expired));
        lk.lock();
        continue;  // re-evaluate with fresh queue state
      }
      // Degrade ladder, step 2: force larger batches — amortize per-batch
      // overhead harder while the queue is drowning.
      const int level =
          degrade_level_from(queued_samples, queue.size(), options);
      const std::size_t eff_max_batch =
          level >= 2 ? options.max_batch * 2 : options.max_batch;
      BatchPtr batch = form_batch_locked(eff_max_batch);
      batch->spin_hit = spin_hit;
      const bool more = !queue.empty();
      lk.unlock();
      if (more) queue_cv.notify_one();
      if (!run_batch(slot, index, batch)) return;  // failed over mid-batch
      lk.lock();
      may_spin = true;
    }
  }

  /// Polls the enqueue counter, yielding the CPU on every pass, until it
  /// moves past `seen` or kSpinWindow ends.  Returns the time spent, in µs.
  double poll_enqueues(std::uint64_t seen) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point until = start + kSpinWindow;
    while (enqueues.load() == seen && Clock::now() < until) {
      std::this_thread::yield();
    }
    const double spun_us = microseconds_between(start, Clock::now());
    faults::hit(faults::Site::kWorkerSpin);
    return spun_us;
  }

  /// Removes every request whose deadline has passed.  Caller fails the
  /// returned requests outside the lock.
  std::vector<Request> sweep_expired_locked() FLINT_REQUIRES(queue_mutex) {
    std::vector<Request> expired;
    const Clock::time_point now = faults::now();
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->deadline < now) {
        queued_samples -= it->n_samples;
        expired.push_back(std::move(*it));
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
    return expired;
  }

  void fail_expired(std::vector<Request> expired) {
    const auto error = std::make_exception_ptr(ServeError(
        ErrorCode::kDeadlineExceeded,
        "deadline expired before dispatch (queue-time budget exhausted)"));
    // Counters before settlement, like the fulfill path: a client that
    // observes its error also observes the accounting for it.
    {
      core::MutexLock ml(metrics_mutex);
      metrics.deadline_missed += expired.size();
      metrics.failed += expired.size();
    }
    for (Request& r : expired) r.promise.set_exception(error);
  }

  /// Pops the head request plus every queued neighbor that shares its
  /// predictor snapshot, up to `eff_max_batch` samples.  A request larger
  /// than that still forms a (single-request) batch — requests are never
  /// split.  Caller holds queue_mutex.
  BatchPtr form_batch_locked(std::size_t eff_max_batch)
      FLINT_REQUIRES(queue_mutex) {
    BatchPtr batch = std::make_shared<Batch>();
    batch->requests.push_back(std::move(queue.front()));
    queue.pop_front();
    batch->predictor = batch->requests.front().predictor;
    batch->n_samples = batch->requests.front().n_samples;
    queued_samples -= batch->n_samples;
    while (!queue.empty() && batch->n_samples < eff_max_batch) {
      Request& next = queue.front();
      if (next.predictor.get() != batch->predictor.get()) break;
      if (batch->n_samples + next.n_samples > eff_max_batch) break;
      batch->n_samples += next.n_samples;
      queued_samples -= next.n_samples;
      batch->requests.push_back(std::move(next));
      queue.pop_front();
    }
    {
      core::MutexLock bm(batch->mu);
      batch->settled.assign(batch->requests.size(), 0);
    }
    return batch;
  }

  /// Builds the contiguous execution buffer.  One-request batches run
  /// zero-copy on the request's own storage.
  static void coalesce(Batch& batch) {
    faults::hit(faults::Site::kWorkerCoalesce);
    if (batch.requests.size() == 1) {
      batch.zero_copy = true;
      return;
    }
    std::size_t total = 0;
    for (const Request& r : batch.requests) total += r.features.size();
    batch.coalesced.reserve(total);
    for (const Request& r : batch.requests) {
      batch.coalesced.insert(batch.coalesced.end(), r.features.begin(),
                             r.features.end());
    }
  }

  /// Coalesces and executes a formed batch under this worker's watchdog
  /// heartbeat.  Returns false when the watchdog failed the worker over
  /// mid-batch: it already resolved the requests, the slot no longer owns
  /// `index`, and the thread must exit.
  bool run_batch(Slot* slot, std::size_t index, const BatchPtr& batch) {
    {
      core::MutexLock sl(slots_mutex);
      worker_current[index] = batch;
      worker_busy_since_us[index] = to_us(faults::now());
    }
    bool assembled = false;
    try {
      faults::hit(faults::Site::kWorkerForm);
      coalesce(*batch);
      assembled = true;
    } catch (...) {
      fail_batch(*batch, as_typed_execution_error(std::current_exception()));
    }
    if (assembled) execute(*batch);
    core::MutexLock sl(slots_mutex);
    // An abandoned (failed-over) worker no longer owns its index: the
    // watchdog cleared it and a replacement may have re-registered.
    if (slot->abandoned.load()) return false;
    worker_current[index].reset();
    worker_busy_since_us[index] = 0;
    return true;
  }

  void execute(Batch& batch) {
    // Pre-execution deadline sweep: a request that expired while its batch
    // was being formed (say, a stall at worker.form with the watchdog off)
    // is failed typed, never executed late; a batch the watchdog already
    // settled is skipped.  Once the predict below starts, the batch runs
    // to completion.
    {
      const Clock::time_point now = faults::now();
      core::MutexLock bm(batch.mu);
      std::vector<std::size_t> missed;
      bool any_live = false;
      for (std::size_t i = 0; i < batch.requests.size(); ++i) {
        if (batch.settled[i]) continue;
        if (batch.requests[i].deadline < now) {
          batch.settled[i] = 1;
          missed.push_back(i);
        } else {
          any_live = true;
        }
      }
      if (!missed.empty()) {
        // Counters before settlement (see the fulfill path below).
        {
          core::MutexLock ml(metrics_mutex);
          metrics.deadline_missed += missed.size();
          metrics.failed += missed.size();
        }
        const auto error = std::make_exception_ptr(ServeError(
            ErrorCode::kDeadlineExceeded,
            "deadline expired before execution (queue-time budget "
            "exhausted)"));
        for (const std::size_t i : missed) {
          batch.requests[i].promise.set_exception(error);
        }
      }
      if (!any_live) return;  // nothing left to run: skip the predict
    }
    std::vector<std::int32_t> out;
    try {
      faults::hit(faults::Site::kWorkerExecute);
      const float* buffer = batch.zero_copy
                                ? batch.requests.front().features.data()
                                : batch.coalesced.data();
      out.resize(batch.n_samples);
      batch.predictor->predict_batch_prevalidated(buffer, batch.n_samples,
                                                  out.data());
    } catch (...) {
      fail_batch(batch, as_typed_execution_error(std::current_exception()));
      return;
    }
    const auto done = faults::now();
    // Settle and account under the batch lock: requests the watchdog
    // already failed (a stall that resolved late) are skipped, and metrics
    // are recorded before fulfillment so a client that observes its result
    // also observes the counters/latency of the batch that produced it.
    core::MutexLock bm(batch.mu);
    std::vector<std::size_t> fulfill;
    fulfill.reserve(batch.requests.size());
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
      if (!batch.settled[i]) {
        batch.settled[i] = 1;
        fulfill.push_back(i);
      }
    }
    {
      core::MutexLock ml(metrics_mutex);
      ++metrics.batches;
      if (batch.zero_copy) ++metrics.zero_copy_batches;
      if (batch.spin_hit) ++metrics.spin_hits;
      ++metrics.batch_size_histogram[histogram_bucket(batch.n_samples)];
      batched_samples += batch.n_samples;
      metrics.completed += fulfill.size();
      for (const std::size_t i : fulfill) {
        const double us =
            microseconds_between(batch.requests[i].enqueued, done);
        if (latencies.size() < kMaxLatencySamples) {
          latencies.push_back(us);
        } else {
          latencies[latency_cursor % kMaxLatencySamples] = us;
        }
        ++latency_cursor;
      }
    }
    std::vector<std::size_t> offsets(batch.requests.size() + 1, 0);
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
      offsets[i + 1] = offsets[i] + batch.requests[i].n_samples;
    }
    for (const std::size_t i : fulfill) {
      std::vector<std::int32_t> slice(
          out.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
          out.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]));
      batch.requests[i].promise.set_value(std::move(slice));
    }
  }

  /// Fails every not-yet-settled request of `batch` with `error`.
  void fail_batch(Batch& batch, const std::exception_ptr& error) {
    core::MutexLock bm(batch.mu);
    std::vector<std::size_t> to_fail;
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
      if (batch.settled[i]) continue;
      batch.settled[i] = 1;
      to_fail.push_back(i);
    }
    if (to_fail.empty()) return;
    {
      core::MutexLock ml(metrics_mutex);
      metrics.failed += to_fail.size();
    }
    for (const std::size_t i : to_fail) {
      batch.requests[i].promise.set_exception(error);
    }
  }

  // -- watchdog -----------------------------------------------------------

  void watchdog_loop() {
    const auto period = std::chrono::microseconds(std::clamp<std::uint32_t>(
        options.stall_timeout_us / 8, 2'000, 250'000));
    core::UniqueLock sl(slots_mutex);
    while (!watchdog_stop) {
      slots_cv.wait_for(sl, period);
      if (watchdog_stop) break;
      const std::int64_t now = to_us(faults::now());
      for (std::size_t i = 0; i < worker_slots.size(); ++i) {
        if (is_stalled(worker_busy_since_us[i], now)) {
          fail_over_worker_locked(i);
        }
      }
      // Reap fail-over threads that have since come back and exited.
      for (auto it = zombies.begin(); it != zombies.end();) {
        if ((*it)->done.load()) {
          (*it)->thread.join();
          it = zombies.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  [[nodiscard]] bool is_stalled(std::int64_t busy_since_us,
                                std::int64_t now_us) const {
    return busy_since_us != 0 &&
           now_us - busy_since_us >
               static_cast<std::int64_t>(options.stall_timeout_us);
  }

  /// Abandons the stalled worker at `index` and respawns a replacement in
  /// its slot, which starts by checking the request queue.
  void fail_over_worker_locked(std::size_t index) FLINT_REQUIRES(slots_mutex) {
    BatchPtr stranded = std::move(worker_current[index]);
    worker_current[index].reset();
    worker_busy_since_us[index] = 0;
    worker_slots[index]->abandoned.store(true);
    zombies.push_back(std::move(worker_slots[index]));
    worker_slots[index] = std::make_unique<Slot>();
    spawn_worker_locked(index);
    // Counters before settlement: a client that observes its kStalled
    // error also observes the restart that produced it.
    {
      core::MutexLock ml(metrics_mutex);
      ++metrics.worker_restarts;
    }
    if (stranded) {
      fail_batch(*stranded,
                 std::make_exception_ptr(ServeError(
                     ErrorCode::kStalled,
                     "worker stalled mid-batch; failed over and respawned")));
    }
  }

  /// Fails requests displaced from the queue by priority eviction.  Called
  /// outside queue_mutex.
  void fail_victims(std::vector<Request> victims) {
    if (victims.empty()) return;
    const auto error = std::make_exception_ptr(
        ServeError(ErrorCode::kOverloaded,
                   "evicted from the queue by higher-priority work",
                   kRetryAfterUs));
    {
      core::MutexLock ml(metrics_mutex);
      metrics.evicted += victims.size();
      metrics.failed += victims.size();
    }
    for (Request& victim : victims) {
      victim.promise.set_exception(error);
    }
  }

  // -- shutdown -----------------------------------------------------------

  void stop() {
    core::MutexLock sl(stop_mutex);
    if (joined) return;
    {
      core::MutexLock lk(queue_mutex);
      stopping = true;
      enqueues.fetch_add(1);  // ends a spin now
    }
    queue_cv.notify_all();
    // Retire the watchdog first so no fail-over races the joins below.
    {
      core::MutexLock slk(slots_mutex);
      watchdog_stop = true;
    }
    slots_cv.notify_all();
    if (watchdog_thread.joinable()) watchdog_thread.join();
    // Wake any injected stall: shutdown never waits out a stall budget.
    faults::cancel_stalls();
    std::vector<std::thread> threads;
    {
      core::MutexLock slk(slots_mutex);
      for (auto& slot : worker_slots) {
        if (slot) threads.push_back(std::move(slot->thread));
      }
      for (auto& zombie : zombies) {
        threads.push_back(std::move(zombie->thread));
      }
    }
    // joinable() guards the partially-constructed case (ctor cleanup).
    for (auto& t : threads) {
      if (t.joinable()) t.join();  // workers drain the queue; reap fail-overs
    }
    joined = true;
  }

  ServeOptions options;
  const unsigned n_workers;

  // core::Mutex + condition_variable_any (not std::mutex/_variable): the
  // annotated wrapper is what makes these GUARDED_BY proofs checkable —
  // see core/thread_annotations.hpp.  Lock order: slots_mutex, then a
  // batch's mu, then metrics_mutex.  queue_mutex nests only the mu of a
  // batch still private to the worker forming it.
  core::Mutex queue_mutex;
  std::condition_variable_any queue_cv;
  std::deque<Request> queue FLINT_GUARDED_BY(queue_mutex);
  std::size_t queued_samples FLINT_GUARDED_BY(queue_mutex) = 0;
  bool stopping FLINT_GUARDED_BY(queue_mutex) = false;
  bool spinner FLINT_GUARDED_BY(queue_mutex) = false;  // a worker polls
  double spin_us FLINT_GUARDED_BY(queue_mutex) = 0.0;
  // Bumped under queue_mutex by every enqueue and by stop(); the spinner
  // polls it without the lock.  The only lock-free queue state: the queue
  // itself is re-read under the lock.
  std::atomic<std::uint64_t> enqueues{0};

  // Watchdog-visible pool state: the worker slots, their progress
  // heartbeats (set while a worker holds a batch, cleared when it is
  // done), and the fail-over zombie list.
  core::Mutex slots_mutex;
  std::condition_variable_any slots_cv;
  std::vector<std::unique_ptr<Slot>> worker_slots FLINT_GUARDED_BY(slots_mutex);
  std::vector<BatchPtr> worker_current FLINT_GUARDED_BY(slots_mutex);
  std::vector<std::int64_t> worker_busy_since_us FLINT_GUARDED_BY(slots_mutex);
  std::vector<std::unique_ptr<Slot>> zombies FLINT_GUARDED_BY(slots_mutex);
  bool watchdog_stop FLINT_GUARDED_BY(slots_mutex) = false;

  core::Mutex metrics_mutex;
  ServeMetrics metrics FLINT_GUARDED_BY(metrics_mutex);
  std::uint64_t batched_samples FLINT_GUARDED_BY(metrics_mutex) = 0;
  std::vector<double> latencies FLINT_GUARDED_BY(metrics_mutex);
  std::size_t latency_cursor FLINT_GUARDED_BY(metrics_mutex) = 0;

  core::Mutex stop_mutex;
  bool joined FLINT_GUARDED_BY(stop_mutex) = false;

  std::thread watchdog_thread;
};

InferenceServer::InferenceServer(const ServeOptions& options)
    : options_(options) {
  if (options_.max_batch == 0) {
    throw std::invalid_argument("InferenceServer: max_batch must be >= 1");
  }
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument(
        "InferenceServer: queue_capacity must be >= 1");
  }
  if (options_.sample_capacity == 0) {
    throw std::invalid_argument(
        "InferenceServer: sample_capacity must be >= 1");
  }
  impl_ = std::make_unique<Impl>(options_);
}

InferenceServer::~InferenceServer() {
  if (impl_) impl_->stop();
}

void InferenceServer::stop() { impl_->stop(); }

unsigned InferenceServer::worker_count() const noexcept {
  return impl_->n_workers;
}

std::future<std::vector<std::int32_t>> InferenceServer::submit(
    std::span<const float> features, std::size_t n_samples,
    std::string_view model, const SubmitOptions& submit_options) {
  std::promise<std::vector<std::int32_t>> promise;
  std::future<std::vector<std::int32_t>> future = promise.get_future();
  // Rejection path: the typed error rides the future, so a bad request
  // fails alone — by construction it is never enqueued, never batched.
  const auto reject = [&](std::exception_ptr error, bool is_shed = false) {
    {
      core::MutexLock ml(impl_->metrics_mutex);
      ++impl_->metrics.rejected;
      if (is_shed) ++impl_->metrics.shed;
    }
    promise.set_exception(std::move(error));
    return std::move(future);
  };

  ModelEntry entry;
  try {
    entry = registry_.resolve(model);
  } catch (const std::invalid_argument&) {
    return reject(std::current_exception());
  }
  const std::size_t width = entry.predictor->feature_count();
  if (features.size() != n_samples * width) {
    return reject(std::make_exception_ptr(std::invalid_argument(
        "serve: feature span holds " + std::to_string(features.size()) +
        " values, expected " + std::to_string(n_samples * width) + " (" +
        std::to_string(n_samples) + " samples x " + std::to_string(width) +
        " features of model '" + entry.name + "')")));
  }
  // Missing gate: mirrors Predictor::predict_batch.  Workers dispatch
  // prevalidated batches, so this boundary owns both the legacy NaN reject
  // and — for missing-capable models — the policy's rewrites (applied to
  // the request's own copy below).
  const predict::MissingPolicy policy = entry.predictor->missing_policy();
  if (!policy.allow_nan) {
    for (std::size_t i = 0; i < features.size(); ++i) {
      if (std::isnan(features[i])) {
        return reject(std::make_exception_ptr(std::invalid_argument(
            "serve: NaN feature at sample " + std::to_string(i / width) +
            ", feature " + std::to_string(i % width) +
            " (model '" + entry.name + "' declares no missing-value "
            "support; see README \"NaN/zero semantics\")")));
      }
    }
  }
  if (n_samples == 0) {
    promise.set_value({});
    return future;
  }

  // Cost-aware admission: a request that alone exceeds the sample bound
  // can never be admitted, whatever the queue looks like.  Checked before
  // the copy below, so an oversized request is rejected without one.
  if (n_samples > options_.sample_capacity) {
    return reject(std::make_exception_ptr(ServeError(
                      ErrorCode::kOverloaded,
                      "request of " + std::to_string(n_samples) +
                          " samples exceeds sample_capacity " +
                          std::to_string(options_.sample_capacity),
                      kRetryAfterUs)),
                  /*is_shed=*/true);
  }

  const auto now = faults::now();
  Impl::Request request;
  request.predictor = std::move(entry.predictor);
  request.n_samples = n_samples;
  request.enqueued = now;
  request.priority = submit_options.priority;
  if (submit_options.deadline_us > 0) {
    request.deadline =
        now + std::chrono::microseconds(submit_options.deadline_us);
  }
  // Copy and rewrite outside queue_mutex: the critical section below,
  // which a spinning worker retakes to form its batch, stays short.
  request.features.assign(features.begin(), features.end());
  predict::apply_missing_rewrites<float>(policy, request.features);

  std::vector<Impl::Request> victims;
  {
    core::UniqueLock lk(impl_->queue_mutex);
    if (impl_->stopping) {
      lk.unlock();
      return reject(std::make_exception_ptr(
          ServeError(ErrorCode::kStopped, "server is stopped")));
    }
    const int level = degrade_level_from(impl_->queued_samples,
                                         impl_->queue.size(), options_);
    // Degrade ladder, step 3: at the top of the ladder low-priority work
    // is shed outright, before the hard bounds are even consulted.
    if (level >= 3 && request.priority == Priority::kLow) {
      lk.unlock();
      return reject(std::make_exception_ptr(ServeError(
                        ErrorCode::kOverloaded,
                        "shedding low-priority work (degrade level " +
                            std::to_string(level) + ")",
                        kRetryAfterUs)),
                    /*is_shed=*/true);
    }
    bool over_requests = impl_->queue.size() >= options_.queue_capacity;
    bool over_samples =
        impl_->queued_samples + n_samples > options_.sample_capacity;
    if ((over_requests || over_samples) &&
        options_.shed_policy == ShedPolicy::kPriorityEvict) {
      // Evict queued strictly-lower-priority work, youngest first, until
      // the incoming request fits (or no eligible victims remain).
      std::size_t i = impl_->queue.size();
      while (i > 0 && (impl_->queue.size() >= options_.queue_capacity ||
                       impl_->queued_samples + n_samples >
                           options_.sample_capacity)) {
        --i;
        if (impl_->queue[i].priority > request.priority) {
          impl_->queued_samples -= impl_->queue[i].n_samples;
          victims.push_back(std::move(impl_->queue[i]));
          impl_->queue.erase(impl_->queue.begin() +
                             static_cast<std::ptrdiff_t>(i));
        }
      }
      over_requests = impl_->queue.size() >= options_.queue_capacity;
      over_samples =
          impl_->queued_samples + n_samples > options_.sample_capacity;
    }
    if (over_requests || over_samples) {
      lk.unlock();
      std::exception_ptr error;
      if (over_requests) {
        error = std::make_exception_ptr(ServeError(
            ErrorCode::kQueueFull,
            "request queue full (" + std::to_string(options_.queue_capacity) +
                " requests)",
            kRetryAfterUs));
      } else {
        error = std::make_exception_ptr(ServeError(
            ErrorCode::kOverloaded,
            "sample capacity exhausted (" +
                std::to_string(options_.sample_capacity) +
                " samples queued)",
            kRetryAfterUs));
      }
      auto rejected_future = reject(std::move(error), /*is_shed=*/true);
      impl_->fail_victims(std::move(victims));
      return rejected_future;
    }
    request.promise = std::move(promise);
    impl_->queue.push_back(std::move(request));
    impl_->queued_samples += n_samples;
    impl_->enqueues.fetch_add(1);
    // A spinning worker sees the bump and retakes the lock itself.
    const bool wake = !impl_->spinner;
    const std::size_t depth = impl_->queue.size();
    lk.unlock();
    if (wake) impl_->queue_cv.notify_one();
    impl_->fail_victims(std::move(victims));
    core::MutexLock ml(impl_->metrics_mutex);
    ++impl_->metrics.requests;
    impl_->metrics.samples += n_samples;
    impl_->metrics.max_queue_depth =
        std::max(impl_->metrics.max_queue_depth, depth);
  }
  return future;
}

ServeMetrics InferenceServer::metrics() const {
  std::vector<double> window;
  ServeMetrics snapshot;
  {
    core::MutexLock ml(impl_->metrics_mutex);
    snapshot = impl_->metrics;
    snapshot.mean_batch_samples =
        impl_->metrics.batches
            ? static_cast<double>(impl_->batched_samples) /
                  static_cast<double>(impl_->metrics.batches)
            : 0.0;
    window = impl_->latencies;
  }
  bool draining = false;
  {
    core::MutexLock lk(impl_->queue_mutex);
    snapshot.queued_samples = impl_->queued_samples;
    snapshot.spin_us = impl_->spin_us;
    snapshot.degrade_level = degrade_level_from(
        impl_->queued_samples, impl_->queue.size(), options_);
    draining = impl_->stopping;
  }
  bool fail_over_outstanding = false;
  {
    core::MutexLock sl(impl_->slots_mutex);
    fail_over_outstanding = !impl_->zombies.empty();
  }
  snapshot.faults_injected = faults::fired_total();
  snapshot.health = draining ? HealthState::kDraining
                    : (snapshot.degrade_level > 0 || fail_over_outstanding)
                        ? HealthState::kDegraded
                        : HealthState::kHealthy;
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    const auto quantile = [&](double q) {
      const std::size_t idx = std::min(
          window.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(window.size())));
      return window[idx];
    };
    snapshot.p50_latency_us = quantile(0.50);
    snapshot.p99_latency_us = quantile(0.99);
    snapshot.max_latency_us = window.back();
  }
  return snapshot;
}

void add_serve_metrics(harness::BenchJson& json, const ServeMetrics& metrics,
                       const std::string& prefix) {
  json.set(prefix + "requests",
           static_cast<std::int64_t>(metrics.requests));
  json.set(prefix + "rejected",
           static_cast<std::int64_t>(metrics.rejected));
  json.set(prefix + "samples", static_cast<std::int64_t>(metrics.samples));
  json.set(prefix + "batches", static_cast<std::int64_t>(metrics.batches));
  json.set(prefix + "zero_copy_batches",
           static_cast<std::int64_t>(metrics.zero_copy_batches));
  json.set(prefix + "completed",
           static_cast<std::int64_t>(metrics.completed));
  json.set(prefix + "failed", static_cast<std::int64_t>(metrics.failed));
  json.set(prefix + "deadline_missed",
           static_cast<std::int64_t>(metrics.deadline_missed));
  json.set(prefix + "shed", static_cast<std::int64_t>(metrics.shed));
  json.set(prefix + "evicted", static_cast<std::int64_t>(metrics.evicted));
  json.set(prefix + "spin_hits",
           static_cast<std::int64_t>(metrics.spin_hits));
  json.set(prefix + "spin_us", metrics.spin_us);
  json.set(prefix + "worker_restarts",
           static_cast<std::int64_t>(metrics.worker_restarts));
  json.set(prefix + "faults_injected",
           static_cast<std::int64_t>(metrics.faults_injected));
  json.set(prefix + "degrade_level", metrics.degrade_level);
  json.set(prefix + "health", std::string(to_string(metrics.health)));
  json.set(prefix + "max_queue_depth", metrics.max_queue_depth);
  json.set(prefix + "queued_samples", metrics.queued_samples);
  json.set(prefix + "mean_batch_samples", metrics.mean_batch_samples);
  json.set(prefix + "p50_latency_us", metrics.p50_latency_us);
  json.set(prefix + "p99_latency_us", metrics.p99_latency_us);
  json.set(prefix + "max_latency_us", metrics.max_latency_us);
  for (std::size_t b = 0; b < metrics.batch_size_histogram.size(); ++b) {
    if (metrics.batch_size_histogram[b] == 0) continue;
    json.set(prefix + "batch_hist_p2_" + std::to_string(b),
             static_cast<std::int64_t>(metrics.batch_size_histogram[b]));
  }
}

std::string serve_metrics_json(const ServeMetrics& metrics) {
  const auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return std::string(buf);
  };
  std::string json = "{";
  const auto field = [&json](const std::string& key,
                             const std::string& value, bool quoted = false) {
    if (json.size() > 1) json += ",";
    json += "\"" + key + "\":";
    json += quoted ? "\"" + value + "\"" : value;
  };
  field("health", to_string(metrics.health), /*quoted=*/true);
  field("degrade_level", std::to_string(metrics.degrade_level));
  field("requests", std::to_string(metrics.requests));
  field("rejected", std::to_string(metrics.rejected));
  field("samples", std::to_string(metrics.samples));
  field("batches", std::to_string(metrics.batches));
  field("zero_copy_batches", std::to_string(metrics.zero_copy_batches));
  field("completed", std::to_string(metrics.completed));
  field("failed", std::to_string(metrics.failed));
  field("deadline_missed", std::to_string(metrics.deadline_missed));
  field("shed", std::to_string(metrics.shed));
  field("evicted", std::to_string(metrics.evicted));
  field("spin_hits", std::to_string(metrics.spin_hits));
  field("spin_us", num(metrics.spin_us));
  field("worker_restarts", std::to_string(metrics.worker_restarts));
  field("faults_injected", std::to_string(metrics.faults_injected));
  field("max_queue_depth", std::to_string(metrics.max_queue_depth));
  field("queued_samples", std::to_string(metrics.queued_samples));
  field("mean_batch_samples", num(metrics.mean_batch_samples));
  field("p50_latency_us", num(metrics.p50_latency_us));
  field("p99_latency_us", num(metrics.p99_latency_us));
  field("max_latency_us", num(metrics.max_latency_us));
  json += "}";
  return json;
}

}  // namespace flint::serve
