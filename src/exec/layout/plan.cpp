#include "exec/layout/plan.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

namespace flint::exec::layout {

const char* to_string(NodeWidth w) {
  switch (w) {
    case NodeWidth::C16: return "c16";
    case NodeWidth::Q4: return "q4";
    case NodeWidth::Wide: return "wide";
  }
  return "?";
}

std::string LayoutPlan::describe() const {
  std::string s = to_string(width);
  s += hot_depth ? "/slab" + std::to_string(hot_depth) : "/dfs";
  s += "/il" + std::to_string(interleave);
  if (prefetch_opposite) s += "/pf";
  return s;
}

std::size_t parse_sysfs_cache_size(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  std::size_t value = 0;
  std::size_t digits = 0;
  while (i < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i]))) {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
    ++digits;
  }
  if (digits == 0) return 0;
  if (i < text.size()) {
    switch (std::tolower(static_cast<unsigned char>(text[i]))) {
      case 'k': value <<= 10; ++i; break;
      case 'm': value <<= 20; ++i; break;
      case 'g': value <<= 30; ++i; break;
      default: break;
    }
  }
  while (i < text.size()) {
    if (!std::isspace(static_cast<unsigned char>(text[i]))) return 0;
    ++i;
  }
  return value;
}

CacheInfo cache_info_from_sysfs(const std::string& cache_dir) {
  CacheInfo info;
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cache_dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    if (name.rfind("index", 0) != 0) continue;

    const auto read_line = [&](const char* file) {
      std::string line;
      std::ifstream f(entry.path() / file);
      if (f) std::getline(f, line);
      return line;
    };
    const std::string type = read_line("type");
    if (type == "Instruction") continue;  // Data/Unified only
    const std::string level_text = read_line("level");
    const std::string size_text = read_line("size");
    if (level_text.empty()) continue;
    const long level = std::strtol(level_text.c_str(), nullptr, 10);
    const std::size_t size = parse_sysfs_cache_size(size_text);
    if (size == 0) continue;
    if (level == 2) {
      info.l2_bytes = std::max(info.l2_bytes, size);
    } else if (level >= 3) {
      info.llc_bytes = std::max(info.llc_bytes, size);
    }
  }
  return info;
}

CacheInfo sanitize_cache_info(CacheInfo info) {
  // Documented defaults for hosts where neither probe reports anything
  // (musl sysconf returns -1; many container images mount no sysfs cache
  // topology): a deliberately mid-range 1 MiB L2 / 8 MiB LLC.
  constexpr std::size_t kDefaultL2 = std::size_t{1} << 20;
  constexpr std::size_t kDefaultLlc = std::size_t{8} << 20;
  if (info.l2_bytes == 0) info.l2_bytes = kDefaultL2;
  if (info.llc_bytes == 0) info.llc_bytes = kDefaultLlc;
  info.l2_bytes = std::clamp(info.l2_bytes, std::size_t{32} << 10,
                             std::size_t{64} << 20);
  info.llc_bytes = std::clamp(info.llc_bytes, std::size_t{512} << 10,
                              std::size_t{1} << 30);
  info.llc_bytes = std::max(info.llc_bytes, info.l2_bytes);
  return info;
}

CacheInfo detect_cache_info() {
  CacheInfo info;
#ifdef _SC_LEVEL2_CACHE_SIZE
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) info.l2_bytes = static_cast<std::size_t>(l2);
#endif
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) info.llc_bytes = static_cast<std::size_t>(l3);
#endif
  // sysconf commonly yields -1/0 on musl and inside containers; fill the
  // gaps from the sysfs topology, then default + clamp (the documented
  // fallback chain in plan.hpp).
  if (info.l2_bytes == 0 || info.llc_bytes == 0) {
    const CacheInfo sysfs =
        cache_info_from_sysfs("/sys/devices/system/cpu/cpu0/cache");
    if (info.l2_bytes == 0) info.l2_bytes = sysfs.l2_bytes;
    if (info.llc_bytes == 0) info.llc_bytes = sysfs.llc_bytes;
  }
  return sanitize_cache_info(info);
}

bool width_fits(NodeWidth width, const NarrowFit& fit) {
  return width_unfit_reason(width, fit).empty();
}

std::string width_unfit_reason(NodeWidth width, const NarrowFit& fit) {
  switch (width) {
    case NodeWidth::Wide:
      return {};
    case NodeWidth::C16:
      if (fit.feature_count > 0x7FFF'FFFFu) {
        return "feature index does not fit the int32 node field";
      }
      return {};
    case NodeWidth::Q4:
      // Necessary static bounds only; the per-forest feature/offset/key
      // bit split is resolved at pack time (try_pack_q4 reports the
      // precise reason when the 31-bit budget cannot be met).
      if (fit.feature_count > 32767) {
        return "feature index does not fit the 4-byte node's feature bits";
      }
      if (fit.num_classes > 65535) {
        return "class id does not fit the 4-byte node's key bits";
      }
      return {};
  }
  return "unknown node width";
}

namespace {

std::size_t node_bytes(NodeWidth w) { return w == NodeWidth::Q4 ? 4 : 16; }

}  // namespace

LayoutPlan auto_plan(const trees::ForestStats& stats, const NarrowFit& fit,
                     std::size_t block_size, const CacheInfo& cache,
                     std::optional<NodeWidth> force_width) {
  const std::size_t l2 = cache.l2_bytes ? cache.l2_bytes : 256u * 1024;

  LayoutPlan plan;
  // Blocked traversal streams each tree's node array once per block, so
  // larger blocks amortize the stream further; floor the knob at a size
  // where that amortization has leveled off (raised again below once the
  // image is known to spill L2).
  plan.block_size = std::max<std::size_t>(block_size, 256);

  // Width: narrow to 4 bytes only once the 16-byte image spills L2 by a
  // wide margin (2x) AND the per-sample rank remap is amortized — the
  // remap must stay a small fraction of the traversal work (trees x mean
  // leaf depth) it buys back.  remap_cost prices the remap as ~log2(splits)
  // halving steps per feature; KeyTable's search index reads one 64-byte
  // block per level, about 5x cheaper on deep models' tables, so the price
  // is conservative.  It stays so that no plan moves until a regime bench
  // measures the crossover.  c16-float needs no table at all.  A forced
  // width (pinned layout:c16/q4 backend) skips the choice but still gets
  // placement and traversal tuned for its own image size below.
  if (force_width) {
    plan.width = *force_width;
  } else {
    plan.width = NodeWidth::C16;
    double remap_cost = 0.0;  // halving-search steps per sample remap
    for (const auto& f : stats.features) {
      remap_cost += std::log2(1.0 + static_cast<double>(f.splits));
    }
    const double walk =
        static_cast<double>(stats.trees.size()) * stats.mean_leaf_depth;
    const bool cache_hostile =
        stats.total_nodes * node_bytes(NodeWidth::C16) > 2 * l2;
    const bool remap_amortized = remap_cost * 4.0 < walk;
    // The caller (ExecArtifacts) packs eagerly and demotes via
    // fit.allow_q4 = false when the bit budget or the quantization
    // accuracy contract fails, so an auto Q4 plan that survives here is
    // only tentative until the pack succeeds.
    if (fit.allow_q4 && width_fits(NodeWidth::Q4, fit) && cache_hostile &&
        remap_amortized) {
      plan.width = NodeWidth::Q4;
    }
  }
  if (!width_fits(plan.width, fit)) {
    plan.width = NodeWidth::Wide;
    return plan;
  }
  const std::size_t image = stats.total_nodes * node_bytes(plan.width);

  // Placement: root-block the top levels once the image outgrows L2 (the
  // per-core cache the hot loop actually lives in; VM-reported LLC sizes
  // are unreliable).  Slab estimate: levels 0..d-1 contribute up to
  // 2^d - 1 spine starts per tree, and each start's spine runs to a leaf
  // — about (mean_leaf_depth - d) nodes — so the slab holds roughly
  // starts x spine_length nodes.  Pick the deepest level whose estimate
  // stays within half of L2.
  if (image > l2) {
    const double budget = static_cast<double>(l2) / 2.0;
    const double mld = stats.mean_leaf_depth > 0.0
                           ? stats.mean_leaf_depth
                           : static_cast<double>(stats.max_depth);
    auto slab_bytes = [&](std::size_t d) {
      const double starts = static_cast<double>(stats.trees.size()) *
                            (static_cast<double>(std::size_t{1} << d) - 1.0);
      const double spine = std::max(1.0, mld - static_cast<double>(d) + 1.0);
      return starts * spine *
             static_cast<double>(node_bytes(plan.width));
    };
    std::size_t d = 0;
    while (d < 8 && d + 1 < stats.max_depth && slab_bytes(d + 1) <= budget) {
      ++d;
    }
    plan.hot_depth = d;
    plan.prefetch_opposite = true;
    plan.block_size = std::max<std::size_t>(plan.block_size, 1024);
  }

  // Latency path: enough independent chases to cover a miss, bounded by the
  // ensemble.
  plan.interleave = std::clamp<std::size_t>(stats.trees.size(), 1,
                                            image > l2 ? 8 : 4);
  return plan;
}

}  // namespace flint::exec::layout
