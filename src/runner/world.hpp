// The World: one fully assembled simulated cellular system — grid, reuse
// plan, reliable control network, one allocator node per cell, call
// lifecycle, metrics, and the Theorem-1 invariant checker — executed on
// the deterministically-parallel ShardedKernel (sim/shard.hpp). A
// shards = 1 run is a one-shard kernel; there is no other engine.
//
// Cells are partitioned across shards (cell/partition.hpp). Every piece of
// mutable run state lives on exactly one shard and is only touched by
// events that shard executes:
//
//   owner = cell c          node, node RNG, pause state, held backlog,
//                           ground-truth ChannelSet, pending/active calls,
//                           per-cell metric records (request cell = c)
//   owner = link (a, b)     sender side (a): FIFO floor, transport tx
//                           window, fault RNG, per-link delivery sequence;
//                           receiver side (b): resequencing buffer
//   per shard               message counters, transport stats, collector,
//                           trace buffer, usage integral
//
// Cross-shard effects travel exclusively as message deliveries (delay >=
// the latency floor), satisfying the kernel's lookahead contract. Results
// merge exactly: integer counters and int64 usage integrals sum; call
// records and trace events concatenate and stable-sort by (time, cell),
// which reproduces the canonical global order because same-(time, cell)
// entries always come from a single shard in execution order. Cross-shard
// metric reads (the paper's N_borrow / N_search neighbour samples) are
// reconstructed from per-cell flag-change timelines instead of sampled
// live. Every output is therefore identical for any shard and thread
// count (see docs/ARCHITECTURE.md for the argument and its limits).
//
// Two ways to drive it:
//   * run_profile (experiment.hpp): a LoadProfile's arrivals are drawn at
//     construction, run() executes the horizon plus the drain, result()
//     merges everything into a RunResult;
//   * the step API: submit_call / send / schedule_in between
//     run_until / run_to_quiescence steps, with node(c), ground_truth_use
//     and records() for inspection — scripted scenarios, tests, examples.
//     Step calls act at now() on the calling thread; from inside an event
//     (schedule_in) they may only touch the event owner's shard.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cell/grid.hpp"
#include "cell/reuse.hpp"
#include "metrics/availability.hpp"
#include "metrics/collector.hpp"
#include "net/fault.hpp"
#include "net/latency.hpp"
#include "net/link_table.hpp"
#include "net/message.hpp"
#include "proto/allocator.hpp"
#include "radio/noise.hpp"
#include "runner/flag_timeline.hpp"
#include "runner/scenario.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "sim/trace.hpp"
#include "traffic/call.hpp"
#include "traffic/generator.hpp"
#include "traffic/profile.hpp"

namespace dca::runner {

class ConformanceChecker;

struct RunResult {
  Scheme scheme = Scheme::kFca;
  metrics::Aggregate agg;
  std::uint64_t total_messages = 0;
  /// Protocol messages whose sender and receiver cells live on different
  /// shards (always 0 at shards = 1). An engine-cost metric, not a
  /// simulation result: it varies with shards/partition while every
  /// simulation output stays bit-identical.
  std::uint64_t cross_shard_messages = 0;
  std::array<std::uint64_t, net::kNumMsgKinds> messages_by_kind{};
  std::uint64_t offered_calls = 0;  // including warmup
  double carried_erlangs = 0.0;     // time-weighted channels in use
  std::uint64_t violations = 0;
  std::uint64_t executed_events = 0;
  bool quiescent = false;
  net::TransportStats transport;  // all-zero unless faults were enabled
  /// Crash/resync availability accounting (all-zero with crashes off).
  metrics::Availability availability;

  /// Process-wide peak resident set (getrusage ru_maxrss) sampled after
  /// the run, in bytes; 0 where the platform cannot report it. A
  /// high-water mark, so it reflects the largest run of the process, not
  /// necessarily this one — meaningful for one-run processes (dcasim,
  /// the metro smoke test) and as an upper bound elsewhere.
  std::uint64_t peak_rss_bytes = 0;
  /// In-engine conformance replay (streaming mode with a trace attached):
  /// whether it ran, and how many invariant violations it found.
  bool conformance_checked = false;
  std::uint64_t conformance_violations = 0;
  [[nodiscard]] bool conformance_ok() const {
    return conformance_checked && conformance_violations == 0;
  }

  /// Control messages per offered call over the whole run (global view,
  /// complementary to the per-call attribution in agg.messages_per_call).
  [[nodiscard]] double messages_per_offered() const {
    return offered_calls == 0
               ? 0.0
               : static_cast<double>(total_messages) /
                     static_cast<double>(offered_calls);
  }
};

class World {
 public:
  /// Sees every message as it reaches its destination node (after any
  /// pause hold), with the delivery instant. Testing and tracing only.
  using DeliveryObserver =
      std::function<void(sim::SimTime, const net::Message&)>;

  /// Builds the world. `profile` (optional) supplies the Poisson arrivals
  /// of the whole run, drawn up front for [0, config.duration); without
  /// one the world only carries calls offered through submit_call.
  /// `latency_override` (optional) replaces the scenario latency model
  /// (the Fig. 11 scripted race). `trace` (optional) receives every
  /// structured event in canonical (t, cell) order. The config must pass
  /// validate_scenario.
  World(const ScenarioConfig& config, Scheme scheme,
        const traffic::LoadProfile* profile = nullptr,
        std::unique_ptr<net::LatencyModel> latency_override = nullptr,
        sim::TraceRecorder* trace = nullptr);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // -- run_profile path ---------------------------------------------------

  /// Runs through config.duration, then drains to quiescence.
  void run();
  /// Merges the per-shard results. Call once, after the last step; with a
  /// trace attached it emits the closing kRunEnd event.
  [[nodiscard]] RunResult result();

  // -- step API -------------------------------------------------------------

  /// Offers one call at now(): opens its record and submits the channel
  /// request to the arrival cell's MSS synchronously. spec.arrival is
  /// ignored. Call ids must be unique, nonzero, and disjoint from the
  /// profile's (which are 1..offered). Call it between steps, or from a
  /// schedule_in event of a one-shard world.
  void submit_call(const traffic::CallSpec& spec);
  /// Sends a control message from msg.from to msg.to at now(), exactly as
  /// msg.from's node would (counted, billed, faulted, transported). The
  /// cells must interfere.
  void send(net::Message msg);
  /// Runs `fn` at now() + delay (negative delays mean now) as an event
  /// owned by cell `owner`.
  void schedule_in(cell::CellId owner, sim::Duration delay,
                   std::function<void()> fn);

  /// Executes every event at or before `deadline`; now() becomes deadline.
  void run_until(sim::SimTime deadline);
  /// Executes every pending event; now() becomes the last event's instant.
  void run_to_quiescence();
  /// The step clock: the instant of the last step boundary or event.
  [[nodiscard]] sim::SimTime now() const { return kernel_.max_now(); }

  void set_delivery_observer(DeliveryObserver fn) {
    observer_ = std::move(fn);
  }

  // -- inspection -----------------------------------------------------------

  [[nodiscard]] const cell::HexGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] const cell::ReusePlan& plan() const noexcept { return plan_; }
  [[nodiscard]] proto::AllocatorNode& node(cell::CellId c) {
    return *nodes_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const proto::AllocatorNode& node(cell::CellId c) const {
    return *nodes_[static_cast<std::size_t>(c)];
  }
  /// The latency bound T the paper's formulas are expressed in.
  [[nodiscard]] sim::Duration latency_bound() const;
  /// Ground-truth usage of a cell (must equal node(c).in_use()).
  [[nodiscard]] const cell::ChannelSet& ground_truth_use(cell::CellId c) const {
    return truth_[static_cast<std::size_t>(c)];
  }
  /// Calls currently holding a channel.
  [[nodiscard]] std::size_t active_calls() const;
  /// Theorem 1 violations observed (must stay 0).
  [[nodiscard]] std::uint64_t interference_violations() const;
  /// Intra-cell channel reassignments performed (repacking extension).
  [[nodiscard]] std::uint64_t reassignments() const;
  /// Theorem 2 style end-of-run check: no request is still open and no
  /// node is busy, queueing or resynchronizing.
  [[nodiscard]] bool quiescent() const;
  /// Protocol messages sent (transport frames excluded), in total and by
  /// kind.
  [[nodiscard]] std::uint64_t total_sent() const;
  [[nodiscard]] std::uint64_t sent_of(net::MsgKind k) const;
  [[nodiscard]] net::TransportStats transport_stats() const;
  /// Every closed call record so far in canonical (decision time, cell)
  /// order, with message bills and neighbour samples filled in. Rebuilt on
  /// each call (invalidating the previous vector); empty when
  /// config.stream_metrics folds records away.
  [[nodiscard]] const std::vector<metrics::CallRecord>& records() const;

 private:
  class ShardEnv;
  struct ShardState;
  using LinkKey = std::pair<cell::CellId, cell::CellId>;

  struct PendingCall {
    traffic::CallId call = 0;
    sim::Duration remaining = 0;
    bool is_handoff = false;
  };
  struct ActiveCall {
    traffic::CallId call = 0;
    cell::CellId cellId = cell::kNoCell;
    cell::ChannelId channel = cell::kNoChannel;
    sim::SimTime ends = 0;
  };

  [[nodiscard]] ShardState& state_of(cell::CellId c);
  [[nodiscard]] const ShardState& state_of(cell::CellId c) const;
  [[nodiscard]] sim::SimTime now_of(cell::CellId c) const {
    return kernel_.now(kernel_.shard_of(c));
  }
  /// Runs a step-API action as if it executed inside an event owned by
  /// `c`, so node timers and flag tracking attribute to that cell.
  template <typename F>
  void as_cell(cell::CellId c, F&& fn);

  // Canonical-key scheduling. Local classes draw the owner cell's
  // scheduling counter; deliveries draw the directed link's sender-side
  // counter. Templated on the callable so hot-path closures (message
  // deliveries carrying a net::Message by value) flow straight into the
  // kernel's EventFn inline buffer with no intermediate allocation.
  template <typename F>
  sim::EventId schedule_local(cell::CellId owner, std::uint8_t klass,
                              sim::SimTime when, F&& fn);
  template <typename F>
  void schedule_delivery(net::LinkId lid, cell::CellId from, cell::CellId to,
                         sim::SimTime when, F&& fn);
  template <typename F>
  sim::EventId schedule_key(const sim::EventKey& key, F&& fn);
  void flag_check(cell::CellId owner);

  // Traffic: the arrival table's candidates replay as arrival events.
  void schedule_next_candidate(cell::CellId c, std::size_t k);
  void candidate_fire(cell::CellId c, std::size_t k);
  void start_call(std::uint64_t serial, cell::CellId c, sim::Duration holding);

  // Network: FIFO links, or the reliable transport under link faults.
  void net_send(int s, net::Message msg);
  void transport_send(int s, net::Message msg);
  void transmit(int s, const LinkKey& link, std::uint64_t seq);
  void arm_rto(int s, const LinkKey& link, std::uint64_t seq);
  void on_rto(int s, const LinkKey& link, std::uint64_t seq);
  void on_data_frame(const LinkKey& link, std::uint64_t seq,
                     const net::Message& msg);
  void send_ack(const LinkKey& data_link, std::uint64_t cumulative);
  void deliver_to_node(const net::Message& msg);
  void dispatch_to_node(const net::Message& msg);
  sim::RngStream& link_rng(ShardState& st, net::LinkId lid, const LinkKey& link);
  sim::RngStream& node_rng(cell::CellId c);
  [[nodiscard]] sim::Duration rto(int attempts) const;
  void record_link(ShardState& st, sim::TraceKind k, const LinkKey& link,
                   std::uint64_t seq, std::int64_t b = 0);

  // Pauses.
  void schedule_pause_cycle(cell::CellId c, sim::SimTime from_time);
  void pause_cell(cell::CellId c, sim::SimTime t);
  void resume_cell(cell::CellId c, sim::SimTime t);

  // Crash-recovery fault model.
  void schedule_crash_cycle(cell::CellId c, sim::SimTime from_time);
  void crash_cell(cell::CellId c);
  void restart_cell(cell::CellId c);
  /// Opens and immediately blocks a call offered to a down cell.
  void reject_call_down(cell::CellId c, std::uint64_t serial,
                        traffic::CallId call, sim::Duration remaining,
                        bool is_handoff);
  [[nodiscard]] bool down_now(cell::CellId c) const {
    return (crashes_on_ && crashed_[static_cast<std::size_t>(c)] != 0) ||
           nodes_[static_cast<std::size_t>(c)]->resyncing();
  }

  // Call lifecycle (NodeEnv backends).
  void notify_acquired(cell::CellId cellId, std::uint64_t serial,
                       cell::ChannelId ch, proto::Outcome how, int attempts);
  void notify_blocked(cell::CellId cellId, std::uint64_t serial,
                      proto::Outcome why, int attempts);
  void notify_released(cell::CellId cellId, cell::ChannelId ch);
  void notify_reassigned(cell::CellId cellId, cell::ChannelId from_ch,
                         cell::ChannelId to_ch);
  void notify_resynced(cell::CellId cellId, int rounds);
  void end_call(std::uint64_t serial, cell::CellId cellId);
  void handoff_arrival(const net::Message& msg);
  void accumulate_usage(ShardState& st, sim::SimTime t);
  void trace_call_event(sim::TraceKind kind, cell::CellId cellId,
                        cell::ChannelId ch, std::uint64_t serial,
                        std::int64_t a = 0);
  void trace_handoff(sim::TraceKind kind, cell::CellId cellId,
                     cell::CellId peer, std::uint64_t serial, std::int64_t hop,
                     sim::SimTime ends);

  /// Buffered trace: emits everything recorded so far in canonical order.
  void flush_trace();
  /// Streaming: folds everything that became final before `frontier`
  /// into the incremental aggregate and releases its memory. Runs at
  /// window barriers (every fold stride) and once at result().
  void on_window(sim::SimTime frontier);
  void fold_to(sim::SimTime frontier);
  /// Buffered: the per-shard records, merged into canonical order.
  [[nodiscard]] std::vector<metrics::CallRecord> merged_records() const;

  ScenarioConfig config_;
  Scheme scheme_;
  sim::TraceRecorder* trace_;
  bool tracing_;
  cell::HexGrid grid_;
  cell::ReusePlan plan_;
  // Shared dense link index. Built once from the grid, read-only during
  // the run, so all shards can resolve (from,to) -> LinkId without locks;
  // the per-link *state* lives in each ShardState's flat vectors.
  net::LinkTable links_;
  std::unique_ptr<net::LatencyModel> latency_;
  radio::NoiseField noise_;
  std::vector<int> partition_;
  sim::ShardedKernel kernel_;
  std::vector<ShardState> states_;
  // Shared by every node; must outlive nodes_ (declared before it).
  std::unique_ptr<const proto::AllocationPolicy> policy_;
  std::vector<std::unique_ptr<proto::AllocatorNode>> nodes_;
  // Lazily materialized: most cells never make a randomized pick, and an
  // engaged stream is ~2.5 KB.
  std::vector<std::unique_ptr<sim::RngStream>> node_rng_;
  std::vector<sim::RngStream> pause_rng_;
  std::vector<sim::RngStream> crash_rng_;
  std::vector<cell::ChannelSet> truth_;
  std::vector<std::uint64_t> cell_seq_;  // local-class canonical counters

  // Crash-recovery state. The per-cell arrays are only ever touched by
  // kClassControl events owned by that cell (and by readers on its shard),
  // so cross-shard contention never arises; the availability sums live in
  // each ShardState and merge at result().
  bool crashes_on_ = false;
  std::vector<std::uint8_t> crashed_;     // currently off the air
  std::vector<sim::SimTime> down_since_;  // crash instant, per cell
  std::vector<sim::SimTime> restart_at_;  // last restart instant, per cell
  net::PartitionTimeline partitions_;     // views config_.fault.partitions

  bool transport_ = false;
  sim::Duration rto_base_ = 0;

  // The run's arrivals (traffic/generator.hpp). Serials of profile calls
  // are their CallIds; arrivals_.call_cell also registers the arrival cell
  // of every call offered through submit_call (by id), so serial -> cell
  // resolves for both.
  traffic::ArrivalTable arrivals_;
  std::uint64_t scripted_calls_ = 0;

  // Flag timelines for deferred neighbour sampling (flag_timeline.hpp).
  FlagTimelines flags_;

  // Dense per-link rank maps (see ShardState): tx_rank_[lid] indexes the
  // sender-side vectors of shard_of(from), rx_rank_[lid] the receiver-side
  // vectors of shard_of(to). Built once, read-only during the run.
  std::vector<std::uint32_t> tx_rank_;
  std::vector<std::uint32_t> rx_rank_;

  DeliveryObserver observer_;
  mutable std::vector<metrics::CallRecord> records_view_;

  // -- streaming-mode state (config_.stream_metrics) ---------------------
  bool streaming_ = false;
  std::optional<metrics::AggregateBuilder> builder_;
  // Admitted records in fold order: (serial, acquired). The deferred
  // message Summaries replay over this at run end once the per-serial
  // tallies are final — 9 bytes/call instead of a ~120-byte CallRecord.
  std::vector<std::pair<std::uint64_t, bool>> fold_order_;
  sim::SimTime next_fold_ = 0;
  sim::Duration fold_stride_ = 0;
  // In-engine conformance replay over the drained trace prefixes (the
  // streamed trace may be spilled or discarded by the recorder's sink, so
  // post-hoc check_trace is not an option).
  std::unique_ptr<ConformanceChecker> conform_;
};

}  // namespace dca::runner
