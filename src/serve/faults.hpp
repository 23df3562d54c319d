// serve/faults — deterministic fault injection for the serving runtime.
//
// The resilience contract of src/serve ("every submitted request resolves
// to exactly one result or typed error, and the server keeps serving") is
// only testable if faults can actually happen on demand.  This module
// plants named *fault points* in the worker and registry paths; each
// point is a single call that is compiled to nothing unless the build
// enables -DFLINT_FAULTS=ON (the chaos-smoke CI job), so production builds
// carry zero overhead and zero extra branches.
//
// Fault model (all injected exactly at a catalogued site, never randomly
// mid-instruction):
//
//   * kStall    — the thread sleeps `stall_us` at the site, in cancellable
//                 slices, simulating a wedged worker.  The serve watchdog
//                 is expected to detect it, fail over the affected requests
//                 and respawn the worker.
//   * kThrow    — throws faults::InjectedFault (a std::runtime_error),
//                 simulating a predictor/stage exception.
//   * kBadAlloc — throws std::bad_alloc, simulating allocation failure in
//                 batch assembly.
//   * kClockSkew— does not fire at a site; instead faults::now() (the
//                 clock every deadline decision in serve reads) returns
//                 steady_clock::now() + skew_us while armed.
//
// Determinism: a fault arms against a site with a 1-based `fire_at` hit
// index and a `count` of consecutive firings; per-site hit counters make a
// given (plan, workload) replayable.  arm_seeded(seed) derives a whole
// plan from a splitmix64 stream, which is what the CI seed sweep drives.
//
// The injector is a process-wide singleton (fault points are reached from
// server-internal threads that carry no injection context); tests arm it,
// run one server, then reset().
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace flint::serve::faults {

/// The fault-point catalog.  Site names (to_string) are stable: tests, the
/// docs table in docs/ARCHITECTURE.md and the chaos suite refer to them.
enum class Site : int {
  kWorkerForm = 0,     ///< worker: after popping requests, before coalesce
  kWorkerCoalesce,     ///< worker: inside batch-buffer assembly
  kWorkerExecute,      ///< worker: immediately before predict dispatch
  kRegistryInstall,    ///< ModelRegistry::install, before the pointer flip
  kClockNow,           ///< the deadline clock (skew only)
  kWorkerSpin,         ///< idle worker: a spin window ended (stall only)
  kCount_,
};

inline constexpr std::size_t kSiteCount = static_cast<std::size_t>(Site::kCount_);

inline const char* to_string(Site site) noexcept {
  switch (site) {
    case Site::kWorkerForm: return "worker.form";
    case Site::kWorkerCoalesce: return "worker.coalesce";
    case Site::kWorkerExecute: return "worker.execute";
    case Site::kRegistryInstall: return "registry.install";
    case Site::kClockNow: return "clock.now";
    case Site::kWorkerSpin: return "worker.spin";
    case Site::kCount_: break;
  }
  return "unknown";
}

enum class Kind : int {
  kNone = 0,
  kStall,
  kThrow,
  kBadAlloc,
  kClockSkew,
};

/// The exception kThrow raises at a site.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(Site site)
      : std::runtime_error(std::string("injected fault at ") +
                           to_string(site)),
        site_(site) {}
  [[nodiscard]] Site site() const noexcept { return site_; }

 private:
  Site site_;
};

/// One armed fault: fires on hits [fire_at, fire_at + count) of `site`
/// (1-based hit index; count 0 = every hit from fire_at on).
struct Arm {
  Site site = Site::kWorkerExecute;
  Kind kind = Kind::kNone;
  std::uint64_t fire_at = 1;
  std::uint32_t count = 1;
  std::uint32_t stall_us = 0;   ///< kStall sleep duration
  std::int64_t skew_us = 0;     ///< kClockSkew offset
};

#if FLINT_FAULTS

/// Arms `arm` (replacing any previous arm of the same site).  Throws
/// std::invalid_argument for a throw or alloc fault at worker.spin: that
/// site sits outside any batch, so it only stalls.
void arm(const Arm& arm);

/// Derives a deterministic multi-site plan from `seed` (splitmix64): each
/// worker and registry site except worker.spin gets a throw/alloc/stall
/// fault at a pseudo-random hit in [1, 12]; stalls use `stall_us`.  The
/// same seed always yields the same plan — the CI chaos job sweeps seeds.
void arm_seeded(std::uint64_t seed, std::uint32_t stall_us);

/// Disarms every site and zeroes the hit/fired counters.
void reset();

/// Wakes every in-progress injected stall early (stop() calls this so
/// shutdown never waits out a long stall).
void cancel_stalls();

/// Total faults fired since the last reset() (all sites).
[[nodiscard]] std::uint64_t fired_total();

/// The site hook: counts the hit and fires the armed fault, if any
/// (sleeps, throws InjectedFault, or throws std::bad_alloc).
void hit(Site site);

/// The deadline clock: steady_clock::now() plus any armed skew.
[[nodiscard]] std::chrono::steady_clock::time_point now();

#else  // !FLINT_FAULTS — every hook compiles to nothing.

inline void arm(const Arm&) {}
inline void arm_seeded(std::uint64_t, std::uint32_t) {}
inline void reset() {}
inline void cancel_stalls() {}
inline std::uint64_t fired_total() { return 0; }
inline void hit(Site) {}
inline std::chrono::steady_clock::time_point now() {
  return std::chrono::steady_clock::now();
}

#endif  // FLINT_FAULTS

}  // namespace flint::serve::faults
