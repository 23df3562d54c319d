#include "serve/faults.hpp"

#if FLINT_FAULTS

#include <array>
#include <atomic>
#include <condition_variable>
#include <new>

#include "core/thread_annotations.hpp"

namespace flint::serve::faults {

namespace {

struct SiteState {
  Arm arm;                       // kind == kNone when disarmed
  std::uint64_t hits = 0;
};

/// All injector state behind one mutex: fault points are cold by
/// definition (a handful of firings per test), so there is no contention
/// worth optimizing — but hit() must still be safe from every serve
/// thread at once.
struct Injector {
  core::Mutex mutex;
  std::condition_variable_any stall_cv;
  std::array<SiteState, kSiteCount> sites FLINT_GUARDED_BY(mutex){};
  std::uint64_t stall_epoch FLINT_GUARDED_BY(mutex) = 0;
  std::atomic<std::uint64_t> fired{0};
  std::atomic<std::int64_t> skew_us{0};
};

Injector& injector() {
  static Injector instance;
  return instance;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Sleeps `stall_us` in slices, waking early if cancel_stalls() bumps the
/// epoch — shutdown must never have to wait out a long injected stall.
void stall(std::uint32_t stall_us) {
  using Clock = std::chrono::steady_clock;
  Injector& inj = injector();
  const auto until = Clock::now() + std::chrono::microseconds(stall_us);
  core::UniqueLock lk(inj.mutex);
  const std::uint64_t epoch = inj.stall_epoch;
  while (inj.stall_epoch == epoch && Clock::now() < until) {
    inj.stall_cv.wait_until(lk, until);
  }
}

}  // namespace

void arm(const Arm& arm) {
  if (arm.site == Site::kWorkerSpin &&
      (arm.kind == Kind::kThrow || arm.kind == Kind::kBadAlloc)) {
    throw std::invalid_argument("faults: worker.spin accepts stalls only");
  }
  Injector& inj = injector();
  core::MutexLock lk(inj.mutex);
  SiteState& site = inj.sites[static_cast<std::size_t>(arm.site)];
  site.arm = arm;
  site.hits = 0;
  if (arm.kind == Kind::kClockSkew) inj.skew_us.store(arm.skew_us);
}

void arm_seeded(std::uint64_t seed, std::uint32_t stall_us) {
  std::uint64_t state = seed;
  // worker.spin stays out: it is stall-only, and keeping the list fixed
  // keeps every seed's plan the same shape.
  constexpr Site kFireable[] = {Site::kWorkerForm, Site::kWorkerCoalesce,
                                Site::kWorkerExecute, Site::kRegistryInstall};
  for (const Site site : kFireable) {
    Arm plan;
    plan.site = site;
    // Stalls are reserved for the explicitly-armed watchdog tests: a
    // seeded sweep mixes throw/alloc faults (plus clock skew below) so a
    // seed's runtime stays bounded by the workload, not by stall budgets.
    plan.kind = splitmix64(state) % 2 == 0 ? Kind::kThrow : Kind::kBadAlloc;
    plan.fire_at = 1 + splitmix64(state) % 12;
    plan.count = 1 + static_cast<std::uint32_t>(splitmix64(state) % 3);
    plan.stall_us = stall_us;
    arm(plan);
  }
  if (splitmix64(state) % 2 == 0) {
    Arm skew;
    skew.site = Site::kClockNow;
    skew.kind = Kind::kClockSkew;
    // Either direction, up to ~2ms: enough to cross deadline boundaries
    // without expiring every queued request outright.
    skew.skew_us = static_cast<std::int64_t>(splitmix64(state) % 4000) - 2000;
    arm(skew);
  }
}

void reset() {
  Injector& inj = injector();
  {
    core::MutexLock lk(inj.mutex);
    for (SiteState& site : inj.sites) site = SiteState{};
    ++inj.stall_epoch;  // release anything mid-stall
  }
  inj.stall_cv.notify_all();
  inj.fired.store(0);
  inj.skew_us.store(0);
}

void cancel_stalls() {
  Injector& inj = injector();
  {
    core::MutexLock lk(inj.mutex);
    ++inj.stall_epoch;
  }
  inj.stall_cv.notify_all();
}

std::uint64_t fired_total() { return injector().fired.load(); }

void hit(Site site) {
  Injector& inj = injector();
  Kind kind = Kind::kNone;
  std::uint32_t stall_us = 0;
  {
    core::MutexLock lk(inj.mutex);
    SiteState& state = inj.sites[static_cast<std::size_t>(site)];
    ++state.hits;
    const Arm& arm = state.arm;
    const bool in_window =
        arm.kind != Kind::kNone && arm.kind != Kind::kClockSkew &&
        state.hits >= arm.fire_at &&
        (arm.count == 0 || state.hits < arm.fire_at + arm.count);
    if (in_window) {
      kind = arm.kind;
      stall_us = arm.stall_us;
    }
  }
  if (kind == Kind::kNone) return;
  inj.fired.fetch_add(1);
  switch (kind) {
    case Kind::kStall:
      stall(stall_us);
      return;
    case Kind::kThrow:
      throw InjectedFault(site);
    case Kind::kBadAlloc:
      throw std::bad_alloc();
    case Kind::kNone:
    case Kind::kClockSkew:
      return;
  }
}

std::chrono::steady_clock::time_point now() {
  return std::chrono::steady_clock::now() +
         std::chrono::microseconds(injector().skew_us.load());
}

}  // namespace flint::serve::faults

#endif  // FLINT_FAULTS
