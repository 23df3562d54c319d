// exec/layout/vote — the majority-vote epilogue of the layout engine
// (engine.hpp, both compact widths) and its exact early exit.
//
// A vote forest predicts argmax_first over per-class tree votes (ties to the
// lower class id, as in Forest::predict).  Once no other class can catch
// the leader with the trees that are left, every completion of the walk
// ends on that leader, so the walk stops there: vote_decided is that test,
// and the prediction is bit-identical by construction.  The leader holds at
// most t of the first t votes and needs at least T - t, so no sample is
// decided before half the trees have voted; both traversal shapes walk the
// first floor(T/2) trees without checking.
//
//   * latency path (engine.cpp predict_one_interleaved): one check after
//     each interleave group past the midpoint;
//   * batch path (vote_with_exit): after the midpoint, trees are walked in
//     chunks of kExitChunk; after each chunk the decided lanes write their
//     class and the undecided ones move forward, so the next chunk walks
//     only them.  A block that fits one AVX2 tile group (vote_tiles) is a
//     single latency chain per tree whatever its lane count, so it is never
//     compacted: it stops once every lane is decided.
//
// Score (additive) models sum every tree and never take these paths.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "exec/layout/kernels.hpp"

namespace flint::exec::layout {

/// Class with the most votes; ties go to the lower class id.
inline std::int32_t argmax_first(const int* votes, std::size_t classes) {
  std::size_t best = 0;
  for (std::size_t c = 1; c < classes; ++c) {
    if (votes[c] > votes[best]) best = c;
  }
  return static_cast<std::int32_t>(best);
}

/// True when `remaining` more votes cannot move argmax_first away from the
/// current leader: every other class c has votes[c] + remaining below the
/// leader's votes, or equal to them with c above the leader (the lower-id
/// tie-break keeps the leader).  The test is tight: when it fails, handing
/// every remaining vote to the offending class changes the winner.
inline bool vote_decided(const int* votes, std::size_t classes,
                         std::size_t remaining) {
  const auto lead = static_cast<std::size_t>(argmax_first(votes, classes));
  // A class below the leader must stay under `bar`; one above may reach it.
  const long long bar =
      votes[lead] - static_cast<long long>(remaining);
  for (std::size_t c = 0; c < lead; ++c) {
    if (votes[c] >= bar) return false;
  }
  for (std::size_t c = lead + 1; c < classes; ++c) {
    if (votes[c] > bar) return false;
  }
  return true;
}

/// Trees walked between two exit checks on the batch path.
inline constexpr std::size_t kExitChunk = 8;

/// Batch vote over `n` lanes with the exact early exit.  `votes` holds one
/// zeroed row of `classes` counters per lane; `sample_of` has room for `n`
/// entries and maps each lane to its output index in `out`.
/// `walk(t0, t1, live)` adds the votes of trees [t0, t1) for lanes
/// [0, live), reading lane l's sample as sample_of[l];
/// `move_lane(from, to)` moves the keys of lane `from` to lane `to`
/// (to < from) for walks that hold keys per lane.  While at most
/// `group_lanes` lanes are live, no lane moves: the walk stops once every
/// lane is decided.  A decided lane stays decided as more votes arrive, so
/// that check resumes at the first lane still open.
template <typename Walk, typename MoveLane>
void vote_with_exit(std::size_t trees, std::size_t classes, std::size_t n,
                    std::size_t group_lanes, int* votes,
                    std::int32_t* sample_of, std::int32_t* out, Walk&& walk,
                    MoveLane&& move_lane) {
  for (std::size_t l = 0; l < n; ++l) {
    sample_of[l] = static_cast<std::int32_t>(l);
  }
  std::size_t live = n;
  std::size_t open = 0;  // lanes before it are decided (group_lanes mode)
  std::size_t t = trees / 2;
  if (t > 0) walk(0, t, live);
  while (t < trees && live > 0) {
    const std::size_t t1 = std::min(trees, t + kExitChunk);
    walk(t, t1, live);
    t = t1;
    const std::size_t remaining = trees - t;
    if (remaining == 0) break;
    if (live <= group_lanes) {
      while (open < live &&
             vote_decided(votes + open * classes, classes, remaining)) {
        ++open;
      }
      if (open == live) break;
      continue;
    }
    std::size_t kept = 0;
    for (std::size_t l = 0; l < live; ++l) {
      const int* row = votes + l * classes;
      if (vote_decided(row, classes, remaining)) {
        out[sample_of[l]] = argmax_first(row, classes);
        continue;
      }
      if (kept != l) {
        move_lane(l, kept);
        std::copy(row, row + classes, votes + kept * classes);
        sample_of[kept] = sample_of[l];
      }
      ++kept;
    }
    live = kept;
  }
  for (std::size_t l = 0; l < live; ++l) {
    out[sample_of[l]] = argmax_first(votes + l * classes, classes);
  }
}

/// vote_with_exit over feature-major int32 key tiles (kernels.hpp layout)
/// holding `n` filled lanes: pads the last tile with key 0, zeroes the vote
/// rows, and moves a lane's whole key column set when it compacts.
/// `walk_tiles(t0, t1, n_tiles)` runs a tile kernel over trees [t0, t1).
/// `tiles` holds ceil(n / kTileLanes) tiles, `votes` as many rows of lanes.
template <typename WalkTiles>
void vote_tiles(std::size_t trees, std::size_t classes, std::size_t cols,
                std::size_t n, std::int32_t* tiles, int* votes,
                std::int32_t* sample_of, std::int32_t* out,
                WalkTiles&& walk_tiles) {
  constexpr std::size_t W = kTileLanes;
  const std::size_t n_tiles = (n + W - 1) / W;
  auto lane_key = [&](std::size_t lane) {
    return tiles + (lane / W) * cols * W + lane % W;
  };
  for (std::size_t l = n; l < n_tiles * W; ++l) {
    std::int32_t* k = lane_key(l);
    for (std::size_t c = 0; c < cols; ++c) k[c * W] = 0;
  }
  std::fill(votes, votes + n_tiles * W * classes, 0);
  vote_with_exit(
      trees, classes, n, kTileGroup * W, votes, sample_of, out,
      [&](std::size_t t0, std::size_t t1, std::size_t live) {
        walk_tiles(t0, t1, (live + W - 1) / W);
      },
      [&](std::size_t from, std::size_t to) {
        const std::int32_t* src = lane_key(from);
        std::int32_t* dst = lane_key(to);
        for (std::size_t c = 0; c < cols; ++c) dst[c * W] = src[c * W];
      });
}

}  // namespace flint::exec::layout
