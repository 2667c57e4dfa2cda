// Serial-derived mobility: the pure functions the engine uses to decide
// when a call leaves its cell and where it goes.
//
// A migrating call is identified by an encoded serial packing (call, hop):
// the low 44 bits carry the original CallId, the high bits count completed
// handoffs. Dwell times and destination picks are drawn from substreams
// derived from (scenario seed, serial) alone — no engine-global mobility
// stream — so every shard, at any shard count, computes identical
// trajectories regardless of how calls interleave.
#pragma once

#include <cassert>
#include <cstdint>

#include "sim/random.hpp"
#include "sim/types.hpp"

namespace dca::traffic::mobility {

/// Bit layout of an encoded serial: low 44 bits = CallId, high bits = hop.
inline constexpr int kHopShift = 44;
inline constexpr std::uint64_t kCallMask = (std::uint64_t{1} << kHopShift) - 1;

/// Encodes (call, hop) into one serial. Hop 0 is the fresh call; each
/// handoff increments it, so every acquisition attempt of a call's life
/// has a distinct serial.
[[nodiscard]] inline std::uint64_t encode_serial(std::uint64_t call,
                                                 std::uint64_t hop) {
  assert(call != 0 && call <= kCallMask);
  assert(hop < (std::uint64_t{1} << 20));
  return call | (hop << kHopShift);
}

[[nodiscard]] inline std::uint64_t call_of(std::uint64_t serial) {
  return serial & kCallMask;
}

[[nodiscard]] inline std::uint64_t hop_of(std::uint64_t serial) {
  return serial >> kHopShift;
}

/// Dwell time in the current cell for the call leg identified by `serial`
/// (exponential with the configured mean, clamped to >= 1 us so time
/// always advances).
[[nodiscard]] inline sim::Duration dwell(std::uint64_t seed,
                                         std::uint64_t serial,
                                         double mean_dwell_s) {
  auto rng = sim::RngStream::derive(seed ^ 0xd3e11ull, serial);
  const sim::Duration d = sim::from_seconds(rng.exponential_mean(mean_dwell_s));
  return d > 0 ? d : 1;
}

/// Index into the departing cell's neighbour list for the leg `serial`.
[[nodiscard]] inline std::size_t pick_neighbor(std::uint64_t seed,
                                               std::uint64_t serial,
                                               std::size_t n) {
  auto rng = sim::RngStream::derive(seed ^ 0x40b11eull, serial);
  return rng.pick_index(n);
}

}  // namespace dca::traffic::mobility
