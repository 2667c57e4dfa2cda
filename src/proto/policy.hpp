// The allocation-policy seam.
//
// Two layers live here:
//
//  1. ChannelPick — the low-level "pick one of the believed-free channels"
//     strategy shared by schemes that pick "some free channel". The paper
//     (and Dong & Lai) leave the pick unspecified; it matters a lot for
//     the update family, where two concurrent requesters that pick the
//     same channel collide and burn a retry:
//       * kRandom     — uniform over the believed-free set; concurrent
//                       requesters spread out (the library default);
//       * kLowest     — always the lowest-numbered free channel;
//                       deterministic and cache-friendly but maximizes
//                       collisions;
//       * kRoundRobin — scan from just past the previously picked channel;
//                       decorrelates a single node's successive picks.
//
//  2. AllocationPolicy — the pluggable policy object every AllocatorNode
//     consults. It owns three hooks, each with a pass-through default that
//     reproduces the paper's behaviour bit for bit:
//       * pick()        — override the channel pick;
//       * thresholds()  — rewrite the adaptive scheme's θ_l/θ_h hysteresis
//                         pair (tuned/learned thresholds);
//       * admit()       — request-priority gate run before a request is
//                         served (guard channels, handoff preference, ...).
//     Policies are immutable after construction and shared by every node
//     of a world, so every shard routes through the identical object and
//     traces stay bit-identical for any shard/thread count.
//
// New policies register with the static PolicyRegistry: one file in
// src/proto/policies/ defining the class + a register function, plus one
// DCA_POLICY line in policies/builtin.hpp (the registration manifest that
// keeps static-library linking deterministic). See docs/ARCHITECTURE.md
// "The allocation-policy seam" for the full recipe.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cell/spectrum.hpp"
#include "sim/random.hpp"

namespace dca::proto {

enum class ChannelPick : std::uint8_t { kRandom = 0, kLowest = 1, kRoundRobin = 2 };

[[nodiscard]] inline const char* channel_pick_name(ChannelPick p) {
  switch (p) {
    case ChannelPick::kRandom: return "random";
    case ChannelPick::kLowest: return "lowest";
    case ChannelPick::kRoundRobin: return "round-robin";
  }
  return "?";
}

/// Picks one channel from a non-empty set. `cursor` is the caller's
/// round-robin state (updated on every pick, ignored by other policies).
[[nodiscard]] inline cell::ChannelId pick_channel(const cell::ChannelSet& freeSet,
                                                  ChannelPick policy,
                                                  sim::RngStream& rng,
                                                  cell::ChannelId& cursor) {
  switch (policy) {
    case ChannelPick::kLowest:
      return freeSet.first();
    case ChannelPick::kRoundRobin: {
      cell::ChannelId r = freeSet.next_after(cursor);
      if (r == cell::kNoChannel) r = freeSet.first();
      cursor = r;
      return r;
    }
    case ChannelPick::kRandom:
    default: {
      // nth-set-bit select: zero allocations on the hot path. The RNG draw
      // is pick_index(size()) — exactly what the old to_vector() path drew —
      // so trajectories do not move.
      const auto n = static_cast<std::size_t>(freeSet.size());
      return freeSet.nth(static_cast<int>(rng.pick_index(n)));
    }
  }
}

/// How a channel request entered the system: a fresh call, or the
/// continuation leg of a call handed off from a neighbouring cell.
/// Priority policies use this to favour in-progress calls (dropping a
/// live call is worse than blocking a new one).
enum class RequestClass : std::uint8_t { kNewCall = 0, kHandoff = 1 };

[[nodiscard]] inline const char* request_class_name(RequestClass c) {
  return c == RequestClass::kHandoff ? "handoff" : "new-call";
}

/// A parsed policy selection: a registry name plus ordered key=value
/// parameters. The canonical text form is "name" or "name(k=v,k2=v2)" —
/// what `policy =` in scenario files and `--policy` on the CLI accept,
/// and what to_string() round-trips.
struct PolicySpec {
  std::string name = "default";
  std::vector<std::pair<std::string, double>> params;

  [[nodiscard]] bool is_default() const {
    return name == "default" && params.empty();
  }
  /// Value of `key`, or `fallback` when absent.
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string to_string() const;
};

/// Parses "name" or "name(k=v,k2=v2)" into `out`. Returns false (with a
/// human-readable `error`) on syntax errors; registry lookup is separate.
[[nodiscard]] bool parse_policy_spec(const std::string& text, PolicySpec& out,
                                     std::string& error);

class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;

  /// Registry name ("default", "tuned-threshold", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Canonical "name(k=v,...)" description with every parameter filled in
  /// (defaults included) — what benches and the tournament table record.
  [[nodiscard]] virtual std::string describe() const { return name(); }

  // -- hook 1: channel pick ------------------------------------------------
  /// Chooses one member of the non-empty believed-free set. `configured`
  /// is the scheme's ChannelPick knob (scenario `update_pick`); the
  /// default policy dispatches on it unchanged.
  [[nodiscard]] virtual cell::ChannelId pick(const cell::ChannelSet& freeSet,
                                             ChannelPick configured,
                                             sim::RngStream& rng,
                                             cell::ChannelId& cursor) const {
    return pick_channel(freeSet, configured, rng, cursor);
  }

  // -- hook 2: adaptive hysteresis thresholds ------------------------------
  struct Thresholds {
    int low = 0;   // θ_l: enter borrowing below this prediction
    int high = 0;  // θ_h: return to local at this prediction
  };
  /// Maps the scenario-configured (θ_l, θ_h) pair to the effective one.
  /// Consulted once per adaptive node at construction.
  [[nodiscard]] virtual Thresholds thresholds(Thresholds base) const {
    return base;
  }

  // -- hook 3: request admission / priority --------------------------------
  /// Fast pre-check: when false, admit() is never called and nodes skip
  /// computing their free estimate — the default policy costs nothing on
  /// the request hot path.
  [[nodiscard]] virtual bool gates_admission() const { return false; }
  /// May a request of class `cls` be served when the node believes
  /// `free_channels` channels are locally available? Returning false
  /// blocks the request immediately (Outcome::kBlockedNoChannel, zero
  /// messages). Runs once per request, before the scheme's protocol.
  [[nodiscard]] virtual bool admit(RequestClass cls, int free_channels) const {
    (void)cls;
    (void)free_channels;
    return true;
  }

  /// The process-wide default policy (all hooks pass-through). Nodes built
  /// without an explicit policy — direct-construction unit tests, mostly —
  /// fall back to this instance.
  [[nodiscard]] static const AllocationPolicy& fallback();
};

/// The static policy registry: name -> factory. Built-in policies live in
/// src/proto/policies/ (one file each) and are entered via the manifest in
/// policies/builtin.hpp, so lookup works identically in every binary that
/// links dca_proto — no reliance on static-initializer link order.
class PolicyRegistry {
 public:
  using Factory = std::unique_ptr<AllocationPolicy> (*)(const PolicySpec& spec,
                                                        std::string& error);

  [[nodiscard]] static PolicyRegistry& instance();

  /// Registers `name`; returns false (and changes nothing) on duplicates.
  bool add(const std::string& name, const std::string& summary, Factory factory);

  [[nodiscard]] bool known(const std::string& name) const;
  /// One-line summary of a registered policy ("" when unknown).
  [[nodiscard]] std::string summary(const std::string& name) const;
  /// Registered names in registration order (default first).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Instantiates the policy `spec` names. Returns nullptr with a
  /// human-readable `error` for unknown names, unknown parameters, or
  /// parameter values the policy rejects.
  [[nodiscard]] std::unique_ptr<AllocationPolicy> make(const PolicySpec& spec,
                                                       std::string& error) const;

 private:
  struct Entry {
    std::string name;
    std::string summary;
    Factory factory;
  };
  std::vector<Entry> entries_;
};

}  // namespace dca::proto
