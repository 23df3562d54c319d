#include "report.hpp"

#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"throughput_sps", "samples/s"},
      {"latency_p50_us", "us"},
      {"latency_p90_us", "us"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"model.load_s", "s"},
      {"model.nodes", "count"},
      {"model.max_depth", "count"},
      {"verify.verify_s", "s"},
      {"predict.make_s", "s"},
      {"predict.boundary_share", "ratio"},
      {"exec.plan_node_bytes", "bytes"},
      {"exec.kernel_sps", "samples/s"},
      {"exec.kernel_sps.c16", "samples/s"},
      {"exec.kernel_sps.c8", "samples/s"},
      {"exec.kernel_sps.q4", "samples/s"},
      {"exec.one_us_p50", "us"},
      {"exec.one_us_p99", "us"},
      {"quant.remap_ns_per_sample", "ns"},
      {"data.csv_load_s", "s"},
      {"cli.predict_s", "s"},
      {"serve.submit_us_p50", "us"},
      {"serve.submit_us_p99", "us"},
      {"serve.wait_us_p50", "us"},
      {"serve.tax_us_p50", "us"},
      {"serve.server_p50_us", "us"},
      {"serve.server_p99_us", "us"},
      {"serve.mean_batch_samples", "count"},
      {"serve.zero_copy_share", "ratio"},
      {"serve.max_queue_depth", "count"},
      {"serve.install_s", "s"},
      {"serve.swap_s", "s"},
      {"serve.rejected", "count"},
      {"serve.shed", "count"},
      {"serve.deadline_missed", "count"},
      {"serve.failed", "count"},
      {"loadgen.lag_us_p50", "us"},
      {"loadgen.lag_us_p99", "us"},
      {"latency_p99_us", "us"},
      {"latency.samples", "count"},
      {"latency.samples_beyond_p99", "count"},
      {"error_rate", "ratio"},
      {"self_s.model", "s"},
      {"self_s.verify", "s"},
      {"self_s.predict", "s"},
      {"self_s.exec", "s"},
      {"self_s.quant", "s"},
      {"self_s.data", "s"},
      {"self_s.cli", "s"},
      {"self_s.serve", "s"},
      {"self_s.loadgen", "s"},
      {"trace.overhead.throughput_sps", "samples/s"},
      {"trace.overhead.latency_p50_us", "us"},
      {"trace.overhead.latency_p90_us", "us"},
      {"trace.overhead.setup_s", "s"},
  };
  return specs;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string result_line(bool correct, const Outcomes& outcomes,
                        const std::map<std::string, double>& values,
                        const std::vector<MetricSpec>& specs) {
  std::set<std::string> known;
  for (const auto& s : specs) known.insert(s.name);
  for (const auto& [name, value] : values) {
    if (!known.count(name)) throw std::logic_error("unlisted metric " + name);
  }
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(outcomes.attempted()) +
                    ", \"failed\": " + std::to_string(outcomes.errors()) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& s : specs) {
    const auto it = values.find(s.name);
    const double v = it == values.end() ? 0.0 : it->second;
    out += (first ? "" : ", ") + json_string(s.name) + ": {\"value\": " +
           json_number(v) + ", \"unit\": " + json_string(s.unit) + "}";
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
