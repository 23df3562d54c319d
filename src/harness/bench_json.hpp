// harness/bench_json — machine-readable benchmark artifacts.
//
// Every bench binary emits a `BENCH_<name>.json` file next to its text
// output so the repo's perf trajectory can be tracked by tooling instead of
// scraped from stdout.  The schema is deliberately flat:
//
//   {
//     "bench": "<name>",
//     "git_sha": "<build-time sha (cmake/git_sha.cmake stamp, regenerated
//                  every build); FLINT_GIT_SHA env overrides>",
//     "git_dirty": <true when the stamped checkout had uncommitted changes>,
//     "host": { "cpu": ..., "arch": ..., "logical_cores": ... },
//     "unix_time": <seconds>,
//     ...header fields set by the bench...,
//     "rows": [ { "backend": "...", "batch": 1024, "samples_per_sec": ... },
//               ... ]
//   }
//
// Rows are free-form key/value objects (string, double, int64 or bool
// values) so each bench records whatever its sweep measures.  The file is
// written by write() or, failing that, the destructor; a bench that aborts
// through std::exit on a verification failure leaves no artifact, which is
// what CI wants (missing artifact = failed run).
//
// The output directory defaults to the working directory and can be
// redirected with FLINT_BENCH_JSON_DIR (used by CI to collect artifacts).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace flint::harness {

struct RunRecord;  // experiment.hpp

/// One JSON scalar; insertion order of keys is preserved.
struct BenchValue {
  enum class Kind { String, Number, Integer, Boolean } kind = Kind::String;
  std::string s;
  double d = 0.0;
  std::int64_t i = 0;
  bool b = false;

  static BenchValue of(std::string v);
  static BenchValue of(const char* v);
  static BenchValue of(double v);
  static BenchValue of(std::int64_t v);
  static BenchValue of(std::size_t v);
  static BenchValue of(int v);
  static BenchValue of(unsigned v);
  static BenchValue of(bool v);
};

class BenchJson {
 public:
  /// `name` without the BENCH_ prefix or .json suffix, e.g.
  /// "layout_throughput".  Header is pre-populated with bench/git_sha/host/
  /// timestamp fields.
  explicit BenchJson(std::string name);
  ~BenchJson();

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  /// Sets/overwrites a top-level header field.
  template <typename V>
  void set(const std::string& key, V value) {
    set_value(key, BenchValue::of(std::move(value)));
  }

  /// Appends a row of {key, value} pairs to "rows".
  void add_row(std::vector<std::pair<std::string, BenchValue>> fields);

  /// Convenience for the common throughput-sweep row shape.
  void add_rate(const std::string& backend, std::size_t batch,
                unsigned threads, double samples_per_sec);

  /// Writes BENCH_<name>.json (FLINT_BENCH_JSON_DIR or cwd) and returns the
  /// path; empty string and a stderr note on I/O failure.  Idempotent: the
  /// destructor only writes if this was never called.
  std::string write();

 private:
  void set_value(const std::string& key, BenchValue value);

  std::string name_;
  std::vector<std::pair<std::string, BenchValue>> header_;
  std::vector<std::vector<std::pair<std::string, BenchValue>>> rows_;
  bool written_ = false;
};

/// Appends one row per experiment-grid record (the Figure-3/4 and Table
/// II/III benches all share run_grid output).
void add_run_records(BenchJson& json, std::span<const RunRecord> records);

}  // namespace flint::harness
