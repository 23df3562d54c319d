#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::uint32_t Trace::name(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<Span> Trace::spans() const {
  std::vector<Span> all;
  for (const auto& s : sinks_) all.insert(all.end(), s.spans_.begin(), s.spans_.end());
  return all;
}

std::vector<double> Trace::durations_s(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : sinks_) {
    for (const auto& span : s.spans_) {
      if (names_[span.name] == name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
      }
    }
  }
  return out;
}

bool Trace::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,request,name,start_ns,end_ns\n";
  for (const auto& s : sinks_) {
    for (const auto& span : s.spans_) {
      out << span.id << ',' << span.parent << ',' << span.request << ','
          << names_[span.name] << ',' << span.start_ns << ',' << span.end_ns
          << '\n';
    }
  }
  return static_cast<bool>(out);
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans, const std::vector<std::string>& names) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cursor = s.start_ns;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    const std::string& full = names[s.name];
    const std::string layer = full.substr(0, full.find('.'));
    out[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

}  // namespace perfbench
