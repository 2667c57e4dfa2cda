// Per-call records and experiment-level aggregation.
//
// The collector opens a record when a call requests a channel and closes
// it at the accept/drop decision; the world drains closed records in
// canonical order and folds them into an AggregateBuilder. Control
// messages are billed to their request's serial by the world (per-serial
// tallies), because a bill can land after its record was folded. The
// aggregate view computes exactly the quantities the paper's Section 5
// analysis is parameterized by:
//
//   ξ₁, ξ₂, ξ₃  — fractions of acquisitions that were local / borrowed via
//                 update / obtained via search,
//   m           — mean update-mode attempts among borrow acquisitions,
//   N_borrow    — mean number of borrowing-mode interference neighbours
//                 sampled at acquisition instants,
//   N_search    — mean number of simultaneous searches in the
//                 neighbourhood sampled at search-acquisition instants,
// plus the evaluation outputs: block/drop probability, acquisition time
// (reported in units of T), and control messages per call.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cell/grid.hpp"
#include "metrics/summary.hpp"
#include "proto/allocator.hpp"
#include "sim/types.hpp"
#include "traffic/call.hpp"

namespace dca::metrics {

struct CallRecord {
  std::uint64_t serial = 0;
  traffic::CallId call = 0;
  cell::CellId cellId = cell::kNoCell;
  bool is_handoff = false;
  sim::SimTime t_request = 0;
  sim::SimTime t_decision = 0;
  proto::Outcome outcome = proto::Outcome::kBlockedNoChannel;
  int attempts = 0;  // paper's m for this call (update rounds used)
  int borrowing_neighbors = 0;   // sampled at decision
  int searching_neighbors = 0;   // sampled at decision
  std::uint32_t messages = 0;    // control messages billed to this request

  [[nodiscard]] std::uint32_t total_messages() const noexcept { return messages; }
  [[nodiscard]] sim::Duration delay() const noexcept { return t_decision - t_request; }
};

/// Aggregated results over one simulation run.
struct Aggregate {
  std::uint64_t offered = 0;       // channel requests issued
  std::uint64_t acquired = 0;
  std::uint64_t blocked = 0;       // no channel available
  std::uint64_t starved = 0;       // update retry cap exhausted
  std::uint64_t timed_out = 0;     // protocol round aborted by timeout
  std::uint64_t downed = 0;        // arrival cell crashed or resyncing
  std::uint64_t handoff_offered = 0;   // requests that were handoffs
  std::uint64_t handoff_failures = 0;  // ... of which failed (forced term.)

  double xi1 = 0.0, xi2 = 0.0, xi3 = 0.0;
  double mean_update_attempts = 0.0;  // m over ξ₂ acquisitions
  Summary attempts;                   // attempts over ALL closed requests
  double mean_borrowing_neighbors = 0.0;   // N_borrow
  double mean_searching_neighbors = 0.0;   // N_search

  Summary delay_us;           // acquisition delay, microseconds, acquired calls
  Summary delay_in_T;         // acquisition delay in units of T
  Summary messages_per_call;  // attributed messages per closed request
  Summary messages_acquired;  // ... among acquired only

  [[nodiscard]] double drop_rate() const noexcept {
    return offered == 0
               ? 0.0
               : static_cast<double>(blocked + starved + timed_out + downed) /
                     static_cast<double>(offered);
  }
};

/// Incremental accumulator behind aggregate_records. Records are folded
/// one at a time in canonical order, so the world retires closed records
/// window by window instead of buffering the full run.
///
/// The message-count Summaries are split out of add_core() because a
/// record's message tally is NOT final at its decision instant — the
/// end-of-call RELEASE (and any retried control leg) bills later. The
/// world therefore folds add_core() at window barriers, keeps per-serial
/// tallies, and replays add_messages() in fold order at run end. Each
/// Summary's accumulation state depends only on its own add() sequence,
/// so deferring one pair of Summaries past the others is bit-identical to
/// a single pass over finished records (aggregate_records).
class AggregateBuilder {
 public:
  explicit AggregateBuilder(sim::Duration T, sim::SimTime warmup = 0)
      : T_(T), warmup_(warmup) {}

  /// True iff `outcome` granted a channel (vs blocked/starved/timed out).
  [[nodiscard]] static bool acquired_outcome(proto::Outcome outcome) noexcept {
    return outcome == proto::Outcome::kAcquiredLocal ||
           outcome == proto::Outcome::kAcquiredUpdate ||
           outcome == proto::Outcome::kAcquiredSearch;
  }

  /// Folds every statistic except messages_per_call / messages_acquired.
  /// Returns false when the record fell inside warmup (discarded); the
  /// caller must mirror that admission decision for add_messages().
  bool add_core(const CallRecord& r);

  /// Folds one admitted record's final message total. Must be called in
  /// the same record order as add_core(), acquired = whether the record's
  /// outcome acquired a channel.
  void add_messages(std::uint32_t total, bool acquired);

  /// Both halves at once, for a record whose bill is final.
  void add(const CallRecord& r) {
    if (add_core(r)) add_messages(r.total_messages(), acquired_outcome(r.outcome));
  }

  /// Finalizes the derived ratios and returns the aggregate.
  [[nodiscard]] Aggregate finish() const;

 private:
  sim::Duration T_;
  sim::SimTime warmup_;
  Aggregate a_;
  std::uint64_t n_local_ = 0, n_update_ = 0, n_search_ = 0;
  double sum_attempts_update_ = 0.0;
  double sum_borrowing_ = 0.0;
  double sum_searching_ = 0.0;
  std::uint64_t n_search_samples_ = 0;
};

/// Aggregates a sequence of closed, billed call records (e.g. a world's
/// records() view) through the same AggregateBuilder, and so the same
/// floating-point accumulation order, as the world's own fold. `T` is the
/// latency bound for delay_in_T; records with t_request < `warmup` are
/// discarded.
[[nodiscard]] Aggregate aggregate_records(const std::vector<CallRecord>& records,
                                          sim::Duration T,
                                          sim::SimTime warmup = 0);

class Collector {
 public:
  /// Opens the record for an issued request.
  void open(std::uint64_t serial, traffic::CallId call, cell::CellId cellId,
            sim::SimTime now, bool is_handoff);

  /// Closes the record at the decision instant. `borrowing_neighbors` /
  /// `searching_neighbors` are environment samples taken by the runner.
  void close(std::uint64_t serial, sim::SimTime now, proto::Outcome outcome,
             int attempts, int borrowing_neighbors, int searching_neighbors);

  /// Closed records not yet drained, in close order (bills not filled).
  [[nodiscard]] const std::vector<CallRecord>& closed() const noexcept {
    return closed_;
  }
  [[nodiscard]] std::size_t open_count() const noexcept { return open_.size(); }

  /// Removes and returns the prefix of closed records with t_decision <
  /// `frontier`. Records close in non-decreasing decision order per
  /// collector, so this is a prefix splice.
  [[nodiscard]] std::vector<CallRecord> drain_closed_before(sim::SimTime frontier);

 private:
  std::unordered_map<std::uint64_t, CallRecord> open_;
  std::vector<CallRecord> closed_;
};

}  // namespace dca::metrics
