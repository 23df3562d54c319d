// Self-tests of the benchmark's own arithmetic and of its correctness gate.
//
//   perfbench_tests [SCRATCH_DIR]
//
// Without an argument only the pure checks run.  With one, the inputs of
// the deep model are prepared under SCRATCH_DIR and two short workloads
// run end to end: once as is (must pass) and once with one reference
// prediction changed (must fail).  run.py --selftest passes the directory.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "inputs.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_percentile() {
  using perfbench::percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const auto p50 = percentile(v, 50);
  CHECK(p50.value == 50 && p50.count == 100 && p50.beyond == 50);
  const auto p99 = percentile(v, 99);
  CHECK(p99.value == 99 && p99.count == 100 && p99.beyond == 1);
  const auto p100 = percentile(v, 100);
  CHECK(p100.value == 100 && p100.beyond == 0);
  // Ten samples cannot support a p99 beyond the maximum.
  const auto small = percentile({5, 1, 4, 2, 3, 10, 9, 8, 7, 6}, 99);
  CHECK(small.value == 10 && small.count == 10 && small.beyond == 0);
  CHECK(percentile({7}, 50).value == 7);
  const auto empty = percentile({}, 99);
  CHECK(empty.value == 0 && empty.count == 0 && empty.beyond == 0);
  CHECK(throws([] { (void)percentile({1}, 0); }));
  CHECK(perfbench::median({3, 1, 2}) == 2);
}

void test_outcomes() {
  perfbench::Outcomes o;
  CHECK(o.attempted() == 0 && o.error_rate() == 0.0);
  o.ok = 90;
  o.mismatched = 1;
  o.rejected = 2;
  o.shed = 3;
  o.deadline_missed = 4;
  CHECK(o.attempted() == 100 && o.errors() == 10);
  CHECK(std::abs(o.error_rate() - 0.1) < 1e-12);
  perfbench::Outcomes more;
  more.ok = 10;
  more.failed = 5;
  o += more;
  CHECK(o.attempted() == 115 && o.errors() == 15 && o.failed == 5);
}

void test_self_time() {
  perfbench::Trace trace(true);
  const auto root = trace.name("setup.total");
  const auto load = trace.name("model.load_any_model");
  const auto make = trace.name("predict.make_predictor");
  auto& sink = trace.sink();
  sink.add({1, 0, 0, root, 0, 100});
  sink.add({2, 1, 0, load, 10, 30});
  sink.add({3, 1, 0, make, 20, 50});   // overlaps the load span
  sink.add({4, 1, 0, make, 90, 120});  // runs past its parent
  sink.add({5, 2, 0, make, 12, 14});   // grandchild of the root
  const auto self = perfbench::self_seconds_by_layer(trace.spans(), trace.names());
  // root: 100 - |[10,50] u [90,100]| = 50; load: 20 - 2 = 18;
  // make: 30 + 30 + 2 = 62.
  CHECK(std::abs(self.at("setup") - 50e-9) < 1e-15);
  CHECK(std::abs(self.at("model") - 18e-9) < 1e-15);
  CHECK(std::abs(self.at("predict") - 62e-9) < 1e-15);
  CHECK(trace.durations_s("predict.make_predictor").size() == 3);

  perfbench::Trace off(false);
  off.sink().add({1, 0, 0, off.name("x.y"), 0, 1});
  CHECK(off.spans().empty());
}

void test_result_line() {
  const std::vector<perfbench::MetricSpec> specs = {{"a_s", "s"}, {"b", "count"}};
  perfbench::Outcomes o;
  o.ok = 3;
  o.shed = 1;
  const auto line = perfbench::result_line(true, o, {{"a_s", 0.25}}, specs);
  CHECK(line ==
        "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": "
        "{\"a_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
        "\"b\": {\"value\": 0, \"unit\": \"count\"}}}");
  CHECK(throws([&] { (void)perfbench::result_line(true, o, {{"typo", 1.0}}, specs); }));
  CHECK(throws([&] { (void)perfbench::result_line(true, o, {{"b", NAN}}, specs); }));
  CHECK(perfbench::json_number(1234.5678901234567) == "1234.5678901234567");
}

void test_schedule() {
  const auto a = perfbench::make_schedule(7, 20000, 2.0, 8.0, 64, 65536);
  const auto b = perfbench::make_schedule(7, 20000, 2.0, 8.0, 64, 65536);
  const auto c = perfbench::make_schedule(8, 20000, 2.0, 8.0, 64, 65536);
  CHECK(a.size() == b.size() && a.back().due_ns == b.back().due_ns);
  CHECK(a.back().due_ns != c.back().due_ns);
  // Poisson count over 2 s at 20k/s: 40000 +- 200 (1 sigma).
  CHECK(a.size() > 39000 && a.size() < 41000);
  double samples = 0;
  std::int64_t prev = -1;
  for (const auto& rq : a) {
    CHECK(rq.size >= 1 && rq.size <= 64);
    CHECK(rq.offset + rq.size <= 65536);
    CHECK(rq.due_ns > prev);
    prev = rq.due_ns;
    samples += rq.size;
  }
  const double mean = samples / static_cast<double>(a.size());
  CHECK(mean > 7.6 && mean < 8.2);  // 8 less the cap's trim
  for (const auto& rq : perfbench::make_schedule(1, 2000, 1.0, 1.0, 1, 100)) {
    CHECK(rq.size == 1 && rq.offset < 100);
  }
}

/// A wrong reference must fail the run; the right one must pass.
void test_correctness_gate(const std::string& dir) {
  const auto inputs = (std::filesystem::path(dir) / "inputs").string();
  perfbench::prepare(inputs, perfbench::kDeepModel, 3, false, 4);
  for (const char* workload : {"batch-deep", "serve-sparse"}) {
    perfbench::RunOptions opt;
    opt.workload = workload;
    opt.seed = 3;
    opt.seconds = 0.3;
    opt.inputs_dir = inputs;
    opt.out_dir = (std::filesystem::path(dir) / "out").string();
    const auto good = perfbench::run_workload(opt);
    CHECK(good.correct() && good.outcomes.errors() == 0 && good.outcomes.ok > 0);
    CHECK(good.metrics.at("throughput_sps") > 0 && good.metrics.at("setup_s") > 0);
    opt.corrupt_reference = 1;
    const auto bad = perfbench::run_workload(opt);
    CHECK(!bad.correct() && bad.outcomes.mismatched > 0);
    CHECK(bad.outcomes.error_rate() > 0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  test_percentile();
  test_outcomes();
  test_self_time();
  test_result_line();
  test_schedule();
  if (argc > 1) test_correctness_gate(argv[1]);
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all perfbench self-tests passed\n");
  return 0;
}
