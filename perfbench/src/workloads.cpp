#include "workloads.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "data/csv.hpp"
#include "exec/artifacts/artifacts.hpp"
#include "exec/layout/plan.hpp"
#include "model/model_io.hpp"
#include "predict/predictor.hpp"
#include "serve/server.hpp"
#include "verify/verify.hpp"

#include "inputs.hpp"
#include "report.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {
namespace {

using Predictor = flint::predict::Predictor<float>;
using PredictorPtr = std::shared_ptr<const Predictor>;
using Model = flint::model::ForestModel<float>;

constexpr const char* kEngine = "layout:auto";
constexpr std::size_t kBatchRows = 1024;
constexpr std::size_t kBatchPoolRows = 64 * kBatchRows;
constexpr std::size_t kServePoolRows = 65536;
constexpr std::size_t kProbeBatches = 16;
constexpr double kWarmupS = 0.5;     // open-loop warm-up, excluded from stats
constexpr double kProbeS = 0.4;      // per per-layer probe
constexpr int kMinInvocations = 3;   // file-predict
// Set-ups per phase: at least kMinSetups and until kSetupBudgetS is spent,
// so a model that sets up in 0.1 s gets as steady a median as a slow one.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 30;
constexpr double kSetupBudgetS = 2.0;

[[nodiscard]] double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
[[nodiscard]] double usecs(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// True while another set-up is due, given the set-up times so far.
[[nodiscard]] bool more_setups(const std::vector<double>& times) {
  const auto n = static_cast<int>(times.size());
  double spent = 0.0;
  for (const double t : times) spent += t;
  return n < kMinSetups || (n < kMaxSetups && spent < kSetupBudgetS);
}

/// The span names every phase records.
struct Names {
  explicit Names(Trace& t)
      : setup(t.name("setup.total")),
        load(t.name("model.load_any_model")),
        verify(t.name("verify.verify_model")),
        make(t.name("predict.make_predictor")),
        server_start(t.name("serve.start")),
        install(t.name("serve.install")),
        hot_swap(t.name("serve.hot_swap")),
        request(t.name("loadgen.request")),
        submit(t.name("serve.submit")),
        wait(t.name("serve.wait")),
        batch(t.name("predict.predict_batch")),
        prevalidated(t.name("exec.predict_batch_prevalidated")),
        one(t.name("exec.predict_one")),
        quantize(t.name("quant.quantize_row")),
        cli(t.name("cli.predict")) {}
  std::uint32_t setup, load, verify, make, server_start, install, hot_swap,
      request, submit, wait, batch, prevalidated, one, quantize, cli;
};

struct Shape {
  std::size_t trees = 0;
  std::size_t nodes = 0;
  std::size_t max_depth = 0;
  std::string plan;  ///< the predictor's name(), e.g. layout:q4/dfs/il4
};

/// What one phase (untraced or traced) measured.
struct Phase {
  Outcomes outcomes;
  double throughput_sps = 0.0;
  Percentile p50;
  Percentile p90;
  Percentile p99;
  double setup_s = 0.0;
  double peak_rss_mib = 0.0;
  Shape shape;
  std::map<std::string, double> layer;  ///< per-layer figures measured here
};

[[nodiscard]] double self_peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

[[nodiscard]] bool matches(const std::int32_t* got, const Pool& pool,
                           std::size_t offset, std::size_t n) {
  return std::equal(got, got + n, pool.ref.begin() + static_cast<long>(offset));
}

void count(Outcomes& o, bool ok) { ++(ok ? o.ok : o.mismatched); }

struct Loaded {
  Model model;
  PredictorPtr predictor;
};

/// load_any_model, optionally verify_model, make_predictor — each a span
/// under `parent`.
Loaded load_and_make(const std::string& path, bool verify, Trace::Sink& sink,
                     const Names& n, std::uint64_t parent) {
  Loaded l;
  timed(sink, n.load, parent,
        [&] { l.model = flint::model::load_any_model<float>(path); });
  if (verify) {
    flint::verify::Report report;
    timed(sink, n.verify, parent,
          [&] { report = flint::verify::verify_model(l.model); });
    if (!report.ok()) throw std::runtime_error("model failed verification: " + path);
  }
  timed(sink, n.make, parent,
        [&] { l.predictor = flint::predict::make_predictor(l.model, kEngine); });
  return l;
}

[[nodiscard]] Shape shape_of(const Loaded& l) {
  return {l.model.forest.size(), l.model.forest.total_nodes(),
          l.model.forest.max_depth(), l.predictor->name()};
}

/// Repeated set-ups of load + make; returns the last predictor.
PredictorPtr set_up(const std::string& path,
                    Trace::Sink& sink, const Names& n, Phase& ph) {
  PredictorPtr predictor;
  std::vector<double> times;
  while (more_setups(times)) {
    predictor.reset();
    Span root{sink.new_id(), 0, 0, n.setup, now_ns(), 0};
    Loaded l = load_and_make(path, false, sink, n, root.id);
    root.end_ns = now_ns();
    sink.add(root);
    times.push_back(secs(root.end_ns - root.start_ns));
    ph.shape = shape_of(l);
    predictor = std::move(l.predictor);
  }
  ph.setup_s = median(times);
  return predictor;
}

void set_latency(Phase& ph, std::vector<double> latencies_us) {
  ph.p50 = percentile(latencies_us, 50.0);
  ph.p90 = percentile(latencies_us, 90.0);
  ph.p99 = percentile(std::move(latencies_us), 99.0);
}

// ---------------------------------------------------------------- batch-deep

Phase batch_phase(const Pool& pool, const std::string& model_path,
                  const RunOptions& opt, Trace& trace) {
  const Names n(trace);
  auto& sink = trace.sink();
  Phase ph;
  const PredictorPtr predictor = set_up(model_path, sink, n, ph);
  const std::size_t batches = pool.rows() / kBatchRows;
  std::vector<std::int32_t> out(kBatchRows);
  const auto run_batch = [&](std::size_t b) {
    predictor->predict_batch({pool.row(b * kBatchRows), kBatchRows * pool.cols},
                             kBatchRows, out);
    return matches(out.data(), pool, b * kBatchRows, kBatchRows);
  };
  for (std::size_t b = 0; b < batches; ++b) count(ph.outcomes, run_batch(b));  // warm-up

  std::vector<double> latencies_us;
  std::uint64_t ok_samples = 0;
  const std::int64_t start = now_ns();
  const auto stop = start + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::int64_t end = start;
  for (std::size_t call = 0;; ++call) {
    const std::size_t b = call % batches;
    Span span{sink.new_id(), 0, call + 1, n.batch, now_ns(), 0};
    const bool ok = run_batch(b);
    span.end_ns = now_ns();
    sink.add(span);
    latencies_us.push_back(usecs(span.end_ns - span.start_ns));
    count(ph.outcomes, ok);
    if (ok) ok_samples += kBatchRows;
    end = span.end_ns;
    if (end >= stop) break;
  }
  ph.throughput_sps = static_cast<double>(ok_samples) / secs(end - start);
  set_latency(ph, std::move(latencies_us));
  ph.peak_rss_mib = self_peak_rss_mib();
  return ph;
}

// ------------------------------------------------------------ serve-* (open)

struct ServeSpec {
  double rate = 0.0;
  double mean_size = 1.0;
  std::uint32_t max_size = 1;
  double swap_every_s = 0.0;  ///< 0 = no hot-swap
  std::uint64_t salt = 0;
};

enum class Kind : std::uint8_t { kOk, kMismatch, kRejected, kShed, kDeadline, kFailed };

void count(Outcomes& o, Kind k) {
  switch (k) {
    case Kind::kOk: ++o.ok; break;
    case Kind::kMismatch: ++o.mismatched; break;
    case Kind::kRejected: ++o.rejected; break;
    case Kind::kShed: ++o.shed; break;
    case Kind::kDeadline: ++o.deadline_missed; break;
    case Kind::kFailed: ++o.failed; break;
  }
}

[[nodiscard]] Kind classify(const flint::serve::ServeError& e) {
  using flint::serve::ErrorCode;
  switch (e.code()) {
    case ErrorCode::kQueueFull:
    case ErrorCode::kOverloaded: return Kind::kShed;
    case ErrorCode::kStopped: return Kind::kRejected;
    case ErrorCode::kDeadlineExceeded: return Kind::kDeadline;
    default: return Kind::kFailed;
  }
}

Phase serve_phase(const ServeSpec& spec, const Pool& pool,
                  const std::string& model_path, const RunOptions& opt,
                  Trace& trace) {
  using flint::serve::InferenceServer;
  const Names n(trace);
  auto& main_sink = trace.sink();
  auto& collector_sink = trace.sink();
  auto& swap_sink = trace.sink();
  Phase ph;

  // Set-up: load + verify + make + server start + install, as `serve` does.
  std::unique_ptr<InferenceServer> server;
  std::vector<double> setup_times;
  while (more_setups(setup_times)) {
    server.reset();
    Span root{main_sink.new_id(), 0, 0, n.setup, now_ns(), 0};
    Loaded l = load_and_make(model_path, true, main_sink, n, root.id);
    timed(main_sink, n.server_start, root.id,
          [&] { server = std::make_unique<InferenceServer>(); });
    timed(main_sink, n.install, root.id,
          [&] { server->registry().install("default", l.predictor); });
    root.end_ns = now_ns();
    main_sink.add(root);
    setup_times.push_back(secs(root.end_ns - root.start_ns));
    ph.shape = shape_of(l);
  }
  ph.setup_s = median(setup_times);

  const auto schedule =
      make_schedule(derive_seed(opt.seed, spec.salt), spec.rate,
                    kWarmupS + opt.seconds, spec.mean_size, spec.max_size, pool.rows());
  const std::size_t total = schedule.size();
  struct Slot {
    std::future<std::vector<std::int32_t>> result;
    std::int64_t sent_ns = 0;
    std::int64_t submitted_ns = 0;
    std::int64_t ready_ns = 0;
    Kind kind = Kind::kFailed;
  };
  std::vector<Slot> slots(total);
  std::atomic<std::size_t> published{0};
  const std::int64_t t0 = now_ns() + 50'000'000;  // lets the threads start

  // Completion collector: resolves futures in send order.  It polls rather
  // than blocks, so a result is timed when it is ready, not when a sleeping
  // thread gets woken (hundreds of microseconds at the tail on a VM).
  std::jthread collector([&] {
    for (std::size_t i = 0; i < total; ++i) {
      while (published.load(std::memory_order_acquire) <= i) {
      }
      Slot& s = slots[i];
      const Request& rq = schedule[i];
      while (s.result.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      }
      s.ready_ns = now_ns();
      try {
        const auto got = s.result.get();
        s.kind = got.size() == rq.size && matches(got.data(), pool, rq.offset, rq.size)
                     ? Kind::kOk
                     : Kind::kMismatch;
      } catch (const flint::serve::ServeError& e) {
        s.kind = classify(e);
      } catch (const std::invalid_argument&) {
        s.kind = Kind::kRejected;
      } catch (...) {
        s.kind = Kind::kFailed;
      }
      if (trace.enabled()) {
        const std::uint64_t id = collector_sink.new_id();
        collector_sink.add({id, 0, i + 1, n.request, t0 + rq.due_ns, s.ready_ns});
        collector_sink.add({collector_sink.new_id(), id, i + 1, n.submit, s.sent_ns,
                            s.submitted_ns});
        collector_sink.add({collector_sink.new_id(), id, i + 1, n.wait,
                            s.submitted_ns, s.ready_ns});
      }
    }
  });

  // Hot-swap thread: load + verify + make + install every swap_every_s.
  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  bool stopping = false;
  std::exception_ptr swap_error;
  std::jthread swapper;
  if (spec.swap_every_s > 0.0) {
    swapper = std::jthread([&] {
      const auto period = static_cast<std::int64_t>(spec.swap_every_s * 1e9);
      for (std::int64_t next = t0 + period;; next += period) {
        {
          std::unique_lock lock(stop_mutex);
          const std::chrono::steady_clock::time_point due{std::chrono::nanoseconds(next)};
          if (stop_cv.wait_until(lock, due, [&] { return stopping; })) return;
        }
        try {
          Span root{swap_sink.new_id(), 0, 0, n.hot_swap, now_ns(), 0};
          Loaded l = load_and_make(model_path, true, swap_sink, n, root.id);
          timed(swap_sink, n.install, root.id,
                [&] { server->registry().install("default", l.predictor); });
          root.end_ns = now_ns();
          swap_sink.add(root);
        } catch (...) {
          swap_error = std::current_exception();
          return;
        }
      }
    });
  }

  // Generator: sends each request at its scheduled time, spinning until it
  // is due (a sleeping thread wakes hundreds of microseconds late at the
  // tail on a VM, which would skew the schedule itself).
  for (std::size_t i = 0; i < total; ++i) {
    const Request& rq = schedule[i];
    const std::int64_t due = t0 + rq.due_ns;
    while (now_ns() < due) {
    }
    Slot& s = slots[i];
    s.sent_ns = now_ns();
    try {
      s.result = server->submit({pool.row(rq.offset), rq.size * pool.cols}, rq.size);
    } catch (...) {
      std::promise<std::vector<std::int32_t>> failed;
      failed.set_exception(std::current_exception());
      s.result = failed.get_future();
    }
    s.submitted_ns = now_ns();
    published.store(i + 1, std::memory_order_release);
  }
  collector.join();
  {
    std::lock_guard lock(stop_mutex);
    stopping = true;
  }
  stop_cv.notify_all();
  if (swapper.joinable()) swapper.join();
  const auto m = server->metrics();
  server->stop();
  if (swap_error) ++ph.outcomes.failed;

  // Statistics over the requests due after the warm-up.
  const auto warm_ns = static_cast<std::int64_t>(kWarmupS * 1e9);
  std::vector<double> latency_us, lag_us, submit_us, wait_us;
  std::uint64_t ok_samples = 0;
  std::int64_t last_ready = t0 + warm_ns;
  for (std::size_t i = 0; i < total; ++i) {
    const Slot& s = slots[i];
    const Request& rq = schedule[i];
    count(ph.outcomes, s.kind);
    if (rq.due_ns < warm_ns || s.kind != Kind::kOk) continue;
    const std::int64_t due = t0 + rq.due_ns;
    latency_us.push_back(usecs(s.ready_ns - due));
    lag_us.push_back(usecs(s.sent_ns - due));
    submit_us.push_back(usecs(s.submitted_ns - s.sent_ns));
    wait_us.push_back(usecs(s.ready_ns - s.submitted_ns));
    ok_samples += rq.size;
    last_ready = std::max(last_ready, s.ready_ns);
  }
  ph.throughput_sps =
      static_cast<double>(ok_samples) / secs(last_ready - (t0 + warm_ns));
  set_latency(ph, std::move(latency_us));
  ph.peak_rss_mib = self_peak_rss_mib();

  ph.layer = {
      {"serve.submit_us_p50", median(submit_us)},
      {"serve.submit_us_p99", percentile(submit_us, 99.0).value},
      {"serve.wait_us_p50", median(wait_us)},
      {"serve.server_p50_us", m.p50_latency_us},
      {"serve.server_p99_us", m.p99_latency_us},
      {"serve.mean_batch_samples", m.mean_batch_samples},
      {"serve.zero_copy_share",
       m.batches ? static_cast<double>(m.zero_copy_batches) / static_cast<double>(m.batches)
                 : 0.0},
      {"serve.max_queue_depth", static_cast<double>(m.max_queue_depth)},
      {"serve.rejected", static_cast<double>(m.rejected)},
      {"serve.shed", static_cast<double>(m.shed)},
      {"serve.deadline_missed", static_cast<double>(m.deadline_missed)},
      {"serve.failed", static_cast<double>(m.failed)},
      {"loadgen.lag_us_p50", median(lag_us)},
      {"loadgen.lag_us_p99", percentile(lag_us, 99.0).value},
  };
  return ph;
}

// -------------------------------------------------------------- file-predict

struct ChildRun {
  int status = -1;
  std::int64_t wall_ns = 0;
  long max_rss_kb = 0;
};

/// Runs argv[0] with stdout to `stdout_path` and stderr beside it, waits for
/// it, and returns its exit status, wall time and peak RSS.
ChildRun run_child(const std::vector<std::string>& argv, const std::string& stdout_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  const std::string stderr_path = stdout_path + ".err";
  posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  ChildRun run;
  pid_t pid = 0;
  const std::int64_t start = now_ns();
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot start " + argv[0]);
  rusage ru{};
  while (wait4(pid, &run.status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  run.wall_ns = now_ns() - start;
  run.max_rss_kb = ru.ru_maxrss;
  return run;
}

/// True iff the file holds one label per pool row, each equal to its
/// reference, followed by the CLI's accuracy line.
bool cli_output_matches(const std::string& path, const Pool& pool) {
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const char* p = text.data();
  const char* end = p + text.size();
  for (std::size_t r = 0; r < pool.rows(); ++r) {
    std::int32_t v = 0;
    const auto res = std::from_chars(p, end, v);
    if (res.ec != std::errc{} || res.ptr == end || *res.ptr != '\n') return false;
    if (v != pool.ref[r]) return false;
    p = res.ptr + 1;
  }
  return std::string_view(p, static_cast<std::size_t>(end - p)).starts_with("accuracy ");
}

Phase file_phase(const Pool& pool, const ModelFiles& files, const RunOptions& opt,
                 Trace& trace) {
  const Names n(trace);
  auto& sink = trace.sink();
  Phase ph;
  // What the command does before its first prediction, measured in-process.
  (void)set_up(files.model, sink, n, ph);

  const std::vector<std::string> argv = {
      opt.cli_path, "predict", "--model", files.model, "--data", files.csv,
      "--engine", kEngine, "--labels", "yes"};
  const std::string out_path =
      (std::filesystem::path(opt.out_dir) / "file-predict.out").string();
  const auto invoke = [&] {
    const ChildRun run = run_child(argv, out_path);
    const bool ok = WIFEXITED(run.status) && WEXITSTATUS(run.status) == 0 &&
                    cli_output_matches(out_path, pool);
    return std::pair{run, ok};
  };
  count(ph.outcomes, invoke().second);  // warm-up: page cache, loader

  std::vector<double> latencies_us;
  std::vector<double> rss_mib;
  std::uint64_t ok_rows = 0;
  const std::int64_t start = now_ns();
  const auto stop = start + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::int64_t end = start;
  for (int i = 1; i <= kMinInvocations || end < stop; ++i) {
    Span span{sink.new_id(), 0, static_cast<std::uint64_t>(i), n.cli, now_ns(), 0};
    const auto [run, ok] = invoke();
    span.end_ns = span.start_ns + run.wall_ns;
    sink.add(span);
    count(ph.outcomes, ok);
    if (ok) ok_rows += pool.rows();
    latencies_us.push_back(usecs(run.wall_ns));
    rss_mib.push_back(static_cast<double>(run.max_rss_kb) / 1024.0);
    end = now_ns();
  }
  ph.throughput_sps = static_cast<double>(ok_rows) / secs(end - start);
  ph.layer["cli.predict_s"] = median(latencies_us) * 1e-6;
  set_latency(ph, std::move(latencies_us));
  ph.peak_rss_mib = median(rss_mib);
  return ph;
}

// ------------------------------------------------------------ layer probes

/// Times `call(b)` over the probe batches for kProbeS, one span per call;
/// returns samples per second.  `call` returns whether the batch matched.
template <typename Call>
double batch_rate(std::size_t batches, Trace::Sink& sink, std::uint32_t name,
                  Outcomes& outcomes, Call&& call) {
  std::int64_t busy = 0;
  std::uint64_t samples = 0;
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(kProbeS * 1e9);
  for (std::size_t i = 0;; ++i) {
    Span span{sink.new_id(), 0, 0, name, now_ns(), 0};
    const bool ok = call(i % batches);
    span.end_ns = now_ns();
    sink.add(span);
    count(outcomes, ok);
    busy += span.end_ns - span.start_ns;
    samples += kBatchRows;
    if (span.end_ns >= stop) break;
  }
  return static_cast<double>(samples) / secs(busy);
}

/// Per-layer probes on the workload's own model and pool: kernel rate of
/// the auto plan and of each pinned width, the batch-boundary share, the q4
/// rank remap, and predict_one latency.  Every output is checked.
void run_probes(const std::string& model_path, const Pool& pool, Trace& trace,
                Phase& ph) {
  const Names n(trace);
  auto& sink = trace.sink();
  const Model model = flint::model::load_any_model<float>(model_path);
  if (trace.durations_s("verify.verify_model").empty()) {
    timed(sink, n.verify, 0, [&] { (void)flint::verify::verify_model(model); });
  }
  const std::size_t batches = std::min(kProbeBatches, pool.rows() / kBatchRows);
  std::vector<std::int32_t> out(kBatchRows);
  const auto features = [&](std::size_t b) {
    return std::span<const float>(pool.row(b * kBatchRows), kBatchRows * pool.cols);
  };
  const auto prevalidated = [&](const Predictor& p) {
    return [&](std::size_t b) {
      p.predict_batch_prevalidated(features(b).data(), kBatchRows, out.data());
      return matches(out.data(), pool, b * kBatchRows, kBatchRows);
    };
  };

  const auto auto_predictor = flint::predict::make_predictor(model, kEngine);
  ph.layer["exec.kernel_sps"] =
      batch_rate(batches, sink, n.prevalidated, ph.outcomes, prevalidated(*auto_predictor));

  // Boundary share: predict_batch against prevalidated on identical batches.
  std::int64_t with_boundary = 0;
  std::int64_t without = 0;
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(kProbeS * 1e9);
  for (std::size_t i = 0;; ++i) {
    const std::size_t b = i % batches;
    const std::int64_t a = now_ns();
    auto_predictor->predict_batch(features(b), kBatchRows, out);
    const std::int64_t m = now_ns();
    count(ph.outcomes, matches(out.data(), pool, b * kBatchRows, kBatchRows));
    const std::int64_t m2 = now_ns();
    auto_predictor->predict_batch_prevalidated(features(b).data(), kBatchRows, out.data());
    const std::int64_t e = now_ns();
    count(ph.outcomes, matches(out.data(), pool, b * kBatchRows, kBatchRows));
    sink.add({sink.new_id(), 0, 0, n.batch, a, m});
    sink.add({sink.new_id(), 0, 0, n.prevalidated, m2, e});
    with_boundary += m - a;
    without += e - m2;
    if (e >= stop) break;
  }
  ph.layer["predict.boundary_share"] =
      static_cast<double>(with_boundary - without) / static_cast<double>(with_boundary);

  // The q4 image: rank remap cost, and whether pinned q4 is exact here.
  bool q4_exact = false;
  try {
    flint::exec::artifacts::ExecArtifacts<float> art(
        model.forest, 64, flint::exec::layout::detect_cache_info(),
        flint::exec::layout::NodeWidth::Q4);
    if (const auto* q4 = art.try_q4_at(art.plan().hot_depth)) {
      q4_exact = q4->exact();
      std::vector<std::uint16_t> keys(kBatchRows * pool.cols);
      std::int64_t busy = 0;
      std::uint64_t samples = 0;
      const std::int64_t q_stop = now_ns() + static_cast<std::int64_t>(kProbeS * 1e9);
      for (std::size_t i = 0;; ++i) {
        const std::size_t b = i % batches;
        Span span{sink.new_id(), 0, 0, n.quantize, now_ns(), 0};
        for (std::size_t s = 0; s < kBatchRows; ++s) {
          q4->quantize_row(pool.row(b * kBatchRows + s), keys.data() + s * pool.cols);
        }
        asm volatile("" : : "g"(keys.data()) : "memory");  // keep the stores
        span.end_ns = now_ns();
        sink.add(span);
        busy += span.end_ns - span.start_ns;
        samples += kBatchRows;
        if (span.end_ns >= q_stop) break;
      }
      ph.layer["quant.remap_ns_per_sample"] =
          static_cast<double>(busy) / static_cast<double>(samples);
    }
  } catch (const std::invalid_argument&) {
    // Not packable at 4 bytes: no remap figure.
  }

  for (const char* width : {"c16", "c8", "q4"}) {
    if (std::string_view(width) == "q4" && !q4_exact) continue;  // lossy: no reference
    std::unique_ptr<Predictor> pinned;
    try {
      pinned = flint::predict::make_predictor(model, std::string("layout:") + width);
    } catch (const std::invalid_argument&) {
      continue;  // width does not fit this model
    }
    ph.layer[std::string("exec.kernel_sps.") + width] =
        batch_rate(batches, sink, n.prevalidated, ph.outcomes, prevalidated(*pinned));
  }

  // predict_one latency.
  std::vector<double> one_us;
  const std::int64_t o_stop = now_ns() + static_cast<std::int64_t>(kProbeS * 1e9);
  for (std::size_t r = 0;; r = (r + 1) % pool.rows()) {
    Span span{sink.new_id(), 0, 0, n.one, now_ns(), 0};
    const std::int32_t got = auto_predictor->predict_one({pool.row(r), pool.cols});
    span.end_ns = now_ns();
    sink.add(span);
    count(ph.outcomes, got == pool.ref[r]);
    one_us.push_back(usecs(span.end_ns - span.start_ns));
    if (span.end_ns >= o_stop) break;
  }
  ph.layer["exec.one_us_p50"] = median(one_us);
  ph.layer["exec.one_us_p99"] = percentile(std::move(one_us), 99.0).value;
}

// -------------------------------------------------------------- reporting

[[nodiscard]] double node_bytes(const std::string& plan) {
  if (plan.starts_with("layout:c16")) return 16;
  if (plan.starts_with("layout:c8")) return 8;
  if (plan.starts_with("layout:q4")) return 4;
  return 0;  // wide interpreter fallback
}

[[nodiscard]] std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

[[nodiscard]] std::string host_json(const RunOptions& opt) {
  const auto cache = flint::exec::layout::detect_cache_info();
  return "{\"host\": {\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"available_parallelism\": " +
         std::to_string(flint::predict::available_parallelism()) +
         ", \"l2_bytes\": " + std::to_string(cache.l2_bytes) +
         ", \"llc_bytes\": " + std::to_string(cache.llc_bytes) +
         ", \"compiler\": \"" + compiler() + "\", \"git_sha\": \"" + opt.git_sha + "\"}}";
}

[[nodiscard]] std::string inputs_json(const RunOptions& opt, const ModelRecipe& recipe,
                                      const Shape& shape) {
  return "{\"inputs\": {\"workload\": \"" + opt.workload +
         "\", \"seed\": " + std::to_string(opt.seed) + ", \"model\": \"" + recipe.key +
         "\", \"dataset\": \"" + recipe.dataset + "\", \"trees\": " +
         std::to_string(shape.trees) + ", \"nodes\": " + std::to_string(shape.nodes) +
         ", \"max_depth\": " + std::to_string(shape.max_depth) + ", \"plan\": \"" +
         shape.plan + "\"}}";
}

[[nodiscard]] std::string phase_json(const char* label, const Phase& ph) {
  return std::string("{\"phase\": \"") + label +
         "\", \"throughput_sps\": " + json_number(ph.throughput_sps) +
         ", \"latency_p50_us\": " + json_number(ph.p50.value) +
         ", \"latency_p90_us\": " + json_number(ph.p90.value) +
         ", \"latency_p99_us\": " + json_number(ph.p99.value) +
         ", \"latency_samples\": " + std::to_string(ph.p99.count) +
         ", \"latency_beyond_p99\": " + std::to_string(ph.p99.beyond) +
         ", \"setup_s\": " + json_number(ph.setup_s) +
         ", \"peak_rss_mib\": " + json_number(ph.peak_rss_mib) +
         ", \"attempted\": " + std::to_string(ph.outcomes.attempted()) +
         ", \"errors\": " + std::to_string(ph.outcomes.errors()) + "}";
}

[[nodiscard]] std::map<std::string, double> end_to_end(const Phase& ph) {
  return {{"throughput_sps", ph.throughput_sps},
          {"latency_p50_us", ph.p50.value},
          {"latency_p90_us", ph.p90.value},
          {"setup_s", ph.setup_s},
          {"peak_rss_mib", ph.peak_rss_mib}};
}

[[nodiscard]] double median_or_zero(std::vector<double> v) {
  return v.empty() ? 0.0 : median(std::move(v));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"batch-deep", "serve-sparse",
                                                 "serve-mixed", "file-predict"};
  return names;
}

WorkloadInputs workload_inputs(const std::string& workload) {
  if (workload == "batch-deep" || workload == "serve-sparse") return {false, false};
  if (workload == "serve-mixed") return {true, false};
  if (workload == "file-predict") return {false, true};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::vector<Request> make_schedule(std::uint64_t seed, double rate, double seconds,
                                   double mean_size, std::uint32_t max_size,
                                   std::size_t pool_rows) {
  if (rate <= 0.0 || max_size == 0 || pool_rows < max_size) {
    throw std::invalid_argument("make_schedule: bad rate, size cap or pool");
  }
  std::mt19937_64 rng(seed);
  const auto uniform = [&] {  // (0, 1]
    return (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
  };
  const double extra_mean = std::max(mean_size - 1.0, 0.0);
  // Geometric on {0, 1, ...} with mean extra_mean: P(k) = p (1-p)^k.
  const double p = 1.0 / (1.0 + extra_mean);
  const auto horizon = static_cast<std::int64_t>(seconds * 1e9);
  std::vector<Request> schedule;
  double t = 0.0;
  std::size_t cursor = 0;
  for (;;) {
    t += -std::log(uniform()) / rate * 1e9;
    if (t >= static_cast<double>(horizon)) break;
    Request rq;
    rq.due_ns = static_cast<std::int64_t>(t);
    std::uint32_t extra = 0;
    if (extra_mean > 0.0) {
      extra = static_cast<std::uint32_t>(
          std::min(std::floor(std::log(uniform()) / std::log1p(-p)),
                   static_cast<double>(max_size - 1)));
    }
    rq.size = 1 + extra;
    if (cursor + rq.size > pool_rows) cursor = 0;
    rq.offset = static_cast<std::uint32_t>(cursor);
    cursor += rq.size;
    schedule.push_back(rq);
  }
  return schedule;
}

RunResult run_workload(const RunOptions& opt) {
  const WorkloadInputs needs = workload_inputs(opt.workload);
  const ModelRecipe& recipe = needs.wide_model ? kWideModel : kDeepModel;
  const ModelFiles files = model_files(opt.inputs_dir, recipe);
  const std::size_t rows = opt.workload == "batch-deep"  ? kBatchPoolRows
                           : opt.workload == "file-predict" ? 0
                                                            : kServePoolRows;
  Pool pool = load_pool(files.pool, rows);
  pool.ref[0] += opt.corrupt_reference;
  std::filesystem::create_directories(opt.out_dir);

  const auto run_phase = [&](Trace& trace) {
    if (opt.workload == "batch-deep") return batch_phase(pool, files.model, opt, trace);
    if (opt.workload == "file-predict") return file_phase(pool, files, opt, trace);
    ServeSpec spec;
    if (opt.workload == "serve-sparse") {
      spec = {2000.0, 1.0, 1, 0.0, 101};
    } else {
      spec = {20000.0, 8.0, 64, 2.0, 102};
    }
    return serve_phase(spec, pool, files.model, opt, trace);
  };

  RunResult result;
  Trace untraced(false);
  const Phase base = run_phase(untraced);
  result.outcomes = base.outcomes;
  result.info.push_back(host_json(opt));
  result.info.push_back(inputs_json(opt, recipe, base.shape));
  result.info.push_back(phase_json("untraced", base));
  if (!opt.trace) {
    result.metrics = end_to_end(base);
    return result;
  }

  Trace traced(true);
  Phase tp = run_phase(traced);
  if (opt.workload == "file-predict") {
    timed(traced.sink(), traced.name("data.load_csv"), 0,
          [&] { (void)flint::data::load_csv<float>(files.csv); });
  }
  run_probes(files.model, pool, traced, tp);
  result.outcomes += tp.outcomes;
  result.info.push_back(phase_json("traced", tp));

  auto& m = result.metrics;
  m = tp.layer;
  m["model.nodes"] = static_cast<double>(tp.shape.nodes);
  m["model.max_depth"] = static_cast<double>(tp.shape.max_depth);
  m["exec.plan_node_bytes"] = node_bytes(tp.shape.plan);
  m["model.load_s"] = median_or_zero(traced.durations_s("model.load_any_model"));
  m["verify.verify_s"] = median_or_zero(traced.durations_s("verify.verify_model"));
  m["predict.make_s"] = median_or_zero(traced.durations_s("predict.make_predictor"));
  m["data.csv_load_s"] = median_or_zero(traced.durations_s("data.load_csv"));
  if (opt.workload.starts_with("serve-")) {
    m["serve.install_s"] = median_or_zero(traced.durations_s("serve.install"));
    m["serve.swap_s"] = median_or_zero(traced.durations_s("serve.hot_swap"));
    m["serve.tax_us_p50"] = tp.p50.value - m["exec.one_us_p50"];
  }
  m["latency_p99_us"] = tp.p99.value;
  m["latency.samples"] = static_cast<double>(tp.p99.count);
  m["latency.samples_beyond_p99"] = static_cast<double>(tp.p99.beyond);
  m["error_rate"] = result.outcomes.error_rate();
  for (const auto& [layer, s] : self_seconds_by_layer(traced.spans(), traced.names())) {
    if (layer != "setup") m["self_s." + layer] = s;
  }
  m["trace.overhead.throughput_sps"] = tp.throughput_sps - base.throughput_sps;
  m["trace.overhead.latency_p50_us"] = tp.p50.value - base.p50.value;
  m["trace.overhead.latency_p90_us"] = tp.p90.value - base.p90.value;
  m["trace.overhead.setup_s"] = tp.setup_s - base.setup_s;

  const auto trace_path =
      (std::filesystem::path(opt.out_dir) / ("trace-" + opt.workload + ".csv")).string();
  if (traced.write_csv(trace_path)) {
    result.info.push_back("{\"trace_file\": \"" + trace_path + "\"}");
  }
  return result;
}

}  // namespace perfbench
