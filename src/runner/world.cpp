#include "runner/world.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cell/partition.hpp"
#include "net/latency.hpp"
#include "runner/conformance.hpp"
#include "runner/node_factory.hpp"
#include "traffic/mobility.hpp"

namespace dca::runner {
namespace {

using cell::CellId;
using net::LinkId;

/// Conservative lookahead for the kernel: the minimum latency floor over
/// the links that actually cross shards. Shard-internal links don't
/// constrain the window (their deliveries never enter an outbox), so a
/// partition that keeps the slow links internal earns a wider window than
/// the global min_one_way(). Fault jitter only ever *adds* delay on top
/// of the model's floor, so it never weakens the bound.
sim::Duration cross_shard_lookahead(const net::LinkTable& links,
                                    const net::LatencyModel& latency,
                                    const std::vector<int>& partition) {
  sim::Duration floor_min = 0;
  bool any = false;
  for (LinkId lid = 0; lid < links.n_links(); ++lid) {
    const auto [from, to] = links.endpoints(lid);
    if (partition[static_cast<std::size_t>(from)] ==
        partition[static_cast<std::size_t>(to)]) {
      continue;
    }
    const sim::Duration f = latency.link_floor(lid, from, to);
    if (!any || f < floor_min) floor_min = f;
    any = true;
  }
  // No cross-shard link at all (single shard, or a partition the grid
  // cannot produce): any positive lookahead is safe; use the global floor.
  return any ? floor_min : latency.min_one_way();
}

/// Canonical merge orders. Equal (time, cell) keys always come from one
/// shard (a cell's records and events are made on its own shard), so a
/// stable sort of the per-shard concatenation keeps their execution order.
bool before_in_close_order(const metrics::CallRecord& a,
                           const metrics::CallRecord& b) {
  return a.t_decision != b.t_decision ? a.t_decision < b.t_decision
                                      : a.cellId < b.cellId;
}
bool before_in_trace_order(const sim::TraceEvent& a, const sim::TraceEvent& b) {
  return a.t != b.t ? a.t < b.t : a.cell < b.cell;
}

}  // namespace

/// Per-shard NodeEnv. Nodes of shard s all share one env; `current` is
/// set to the owning cell of the event being executed, which is how
/// schedule_in / cancel_scheduled attribute timers without widening the
/// NodeEnv interface.
class World::ShardEnv final : public proto::NodeEnv {
 public:
  World* world = nullptr;
  int shard = 0;
  CellId current = cell::kNoCell;

  [[nodiscard]] sim::SimTime now() const override;
  void send(net::Message msg) override;
  [[nodiscard]] sim::Duration latency_bound() const override;
  void notify_acquired(CellId cellId, std::uint64_t serial, cell::ChannelId ch,
                       proto::Outcome how, int attempts) override;
  void notify_blocked(CellId cellId, std::uint64_t serial, proto::Outcome why,
                      int attempts) override;
  void notify_released(CellId cellId, cell::ChannelId ch) override;
  void notify_reassigned(CellId cellId, cell::ChannelId from_ch,
                         cell::ChannelId to_ch) override;
  void notify_resynced(CellId cellId, int rounds) override;
  sim::RngStream& rng(CellId cellId) override;
  sim::EventId schedule_in(sim::Duration delay, sim::TimerFn fn) override;
  void cancel_scheduled(sim::EventId id) override;
  void record(const sim::TraceEvent& ev) override;
};

struct PendingFrame {
  net::Message msg;
  sim::EventId timer = sim::kInvalidEventId;
  int attempts = 0;
};
struct LinkTx {
  std::uint64_t next_seq = 1;
  // pending covers exactly [lowest_unacked, next_seq): frames enter at
  // next_seq and leave only as a cumulative-ack prefix.
  std::uint64_t lowest_unacked = 1;
  net::SeqRing<PendingFrame> pending;
};
struct LinkRx {
  std::uint64_t next_expected = 1;
  net::SeqRing<net::Message> reorder;
};

/// All run state owned by one shard. Only events executing on that shard
/// touch it, so workers never contend; alignas keeps neighbouring shards
/// off each other's cache lines.
struct alignas(64) World::ShardState {
  ShardEnv env;

  // -- network (sender side keyed by link (from,to) with shard_of(from)
  //    == this shard; receiver side with shard_of(to) == this shard) ----
  std::uint64_t total_sent = 0;
  std::uint64_t cross_shard_sent = 0;  // protocol messages leaving this shard
  std::array<std::uint64_t, net::kNumMsgKinds> by_kind{};
  // All per-link state is a flat vector indexed by the owning side's
  // *rank*: the world precomputes tx_rank_[lid] (dense index among links
  // whose sender lives on shard_of(from)) and rx_rank_[lid] (receiver
  // side), so each shard allocates only its own links' entries and the
  // total across shards is n_links, not n_links * shards — the difference
  // between ~26 MB and ~200 MB of link state on a 300x300 metro grid.
  std::vector<sim::SimTime> link_clock;   // FIFO floor, by tx rank
  std::vector<std::uint64_t> link_seq;    // canonical key seq, by tx rank
  std::vector<LinkTx> tx;                 // transport send window, by tx rank
  std::vector<LinkRx> rx;                 // transport resequencer, by rx rank
  // Lazily materialized (an engaged mt19937_64 is ~2.5 KB and most links
  // of a large grid never fault); derivation is a pure function of
  // (seed, link) so lazy == eager, draw for draw.
  std::vector<std::unique_ptr<sim::RngStream>> fault_rng;
  std::vector<std::uint8_t> paused;                // by cell
  std::vector<std::vector<net::Message>> held;     // by cell
  std::size_t paused_count = 0;
  net::TransportStats tstats;

  // -- calls & metrics --------------------------------------------------
  metrics::Collector collector;  // records whose request cell is local
  // Message attribution: messages billed per serial on this shard, summed
  // across shards when read. A bill is exact wherever it lands — a
  // migrated leg's record lives on whichever shard the handoff reached —
  // and also when it lands after its record was folded.
  std::vector<std::uint32_t> msg_tally_base;                       // serial - 1
  std::unordered_map<std::uint64_t, std::uint32_t> msg_tally_hop;  // handoff legs
  std::unordered_map<std::uint64_t, PendingCall> pending;
  std::unordered_map<std::uint64_t, ActiveCall> active;
  std::uint64_t violations = 0;
  std::uint64_t reassignments = 0;
  // Crash/resync accounting for cells owned by this shard; every field is
  // a sum (or max), so the run total is the associative per-shard merge.
  metrics::Availability avail;

  // Time-weighted usage integral in exact channel-microseconds; the
  // per-shard int64 partial sums merge by addition, so the total is the
  // same for every shard count.
  std::int64_t usage_integral = 0;
  std::int64_t channels_in_use = 0;
  sim::SimTime last_usage_change = 0;

  std::vector<sim::TraceEvent> trace;
};

inline World::ShardState& World::state_of(CellId c) {
  return states_[static_cast<std::size_t>(kernel_.shard_of(c))];
}
inline const World::ShardState& World::state_of(CellId c) const {
  return states_[static_cast<std::size_t>(kernel_.shard_of(c))];
}

// -- ShardEnv forwarding ---------------------------------------------------

sim::SimTime World::ShardEnv::now() const { return world->kernel_.now(shard); }
void World::ShardEnv::send(net::Message msg) {
  world->net_send(shard, std::move(msg));
}
sim::Duration World::ShardEnv::latency_bound() const {
  return world->latency_->max_one_way();
}
void World::ShardEnv::notify_acquired(CellId cellId, std::uint64_t serial,
                                      cell::ChannelId ch, proto::Outcome how,
                                      int attempts) {
  world->notify_acquired(cellId, serial, ch, how, attempts);
}
void World::ShardEnv::notify_blocked(CellId cellId, std::uint64_t serial,
                                     proto::Outcome why, int attempts) {
  world->notify_blocked(cellId, serial, why, attempts);
}
void World::ShardEnv::notify_released(CellId cellId, cell::ChannelId ch) {
  world->notify_released(cellId, ch);
}
void World::ShardEnv::notify_reassigned(CellId cellId, cell::ChannelId from_ch,
                                        cell::ChannelId to_ch) {
  world->notify_reassigned(cellId, from_ch, to_ch);
}
void World::ShardEnv::notify_resynced(CellId cellId, int rounds) {
  world->notify_resynced(cellId, rounds);
}
sim::RngStream& World::ShardEnv::rng(CellId cellId) {
  return world->node_rng(cellId);
}
sim::EventId World::ShardEnv::schedule_in(sim::Duration delay, sim::TimerFn fn) {
  if (delay < 0) delay = 0;
  return world->schedule_local(current, sim::kClassTimer, now() + delay,
                               std::move(fn));
}
void World::ShardEnv::cancel_scheduled(sim::EventId id) {
  world->kernel_.cancel(current, id);
}
void World::ShardEnv::record(const sim::TraceEvent& ev) {
  if (world->tracing_) {
    world->states_[static_cast<std::size_t>(shard)].trace.push_back(ev);
  }
}

// -- construction ----------------------------------------------------------

World::World(const ScenarioConfig& config, Scheme scheme,
             const traffic::LoadProfile* profile,
             std::unique_ptr<net::LatencyModel> latency_override,
             sim::TraceRecorder* trace)
    : config_(config),
      scheme_(scheme),
      trace_(trace),
      tracing_(trace != nullptr),
      grid_(config.rows, config.cols, config.interference_radius, config.wrap),
      plan_(config.greedy_plan
                ? cell::ReusePlan::greedy(grid_, config.n_channels)
                : cell::ReusePlan::cluster(grid_, config.n_channels,
                                           config.cluster)),
      links_(grid_),
      latency_(latency_override ? std::move(latency_override)
                                : make_scenario_latency(config)),
      partition_(cell::make_partition(grid_, config.shards, config.partition)),
      kernel_(partition_, config.shards,
              cross_shard_lookahead(links_, *latency_, partition_),
              config.threads),
      states_(static_cast<std::size_t>(config.shards)),
      builder_(latency_->max_one_way(), config.warmup) {
  // A broken reuse plan voids every guarantee downstream; fail fast even
  // in release builds (e.g. a torus whose dimensions don't fit the
  // cluster pattern: cluster 7 needs rows % 14 == 0 and cols % 7 == 0).
  if (!plan_.validate(grid_)) {
    const std::string plan_name =
        config_.greedy_plan ? "greedy" : "cluster " + std::to_string(config_.cluster);
    std::fprintf(stderr,
                 "World: reuse plan invalid for %dx%d grid (radius %d, %s%s)"
                 " — interfering cells would share primary channels\n",
                 config_.rows, config_.cols, config_.interference_radius,
                 plan_name.c_str(),
                 config_.wrap == cell::Wrap::kToroidal ? ", toroidal" : "");
    std::abort();
  }
  for (int s = 0; s < config_.shards; ++s) {
    states_[static_cast<std::size_t>(s)].env.world = this;
    states_[static_cast<std::size_t>(s)].env.shard = s;
  }

  transport_ = config_.fault.link_faults();
  rto_base_ = 2 * (latency_->max_one_way() + config_.fault.jitter) +
              sim::milliseconds(1);

  const auto n = static_cast<std::size_t>(grid_.n_cells());
  const auto n_links = static_cast<std::size_t>(links_.n_links());
  latency_->bind_links(links_);
  // Dense per-shard link ranks: each shard's vectors hold only the links
  // whose owning side lives on it, so total link state is n_links entries
  // across all shards.
  tx_rank_.resize(n_links);
  rx_rank_.resize(n_links);
  std::vector<std::uint32_t> tx_count(static_cast<std::size_t>(config_.shards), 0);
  std::vector<std::uint32_t> rx_count(static_cast<std::size_t>(config_.shards), 0);
  for (LinkId lid = 0; lid < links_.n_links(); ++lid) {
    const auto [from, to] = links_.endpoints(lid);
    tx_rank_[static_cast<std::size_t>(lid)] =
        tx_count[static_cast<std::size_t>(kernel_.shard_of(from))]++;
    rx_rank_[static_cast<std::size_t>(lid)] =
        rx_count[static_cast<std::size_t>(kernel_.shard_of(to))]++;
  }
  for (int s = 0; s < config_.shards; ++s) {
    ShardState& st = states_[static_cast<std::size_t>(s)];
    const auto n_tx = static_cast<std::size_t>(tx_count[static_cast<std::size_t>(s)]);
    st.link_clock.assign(n_tx, 0);
    st.link_seq.assign(n_tx, 0);
    if (transport_) {
      st.tx.resize(n_tx);
      st.rx.resize(
          static_cast<std::size_t>(rx_count[static_cast<std::size_t>(s)]));
      st.fault_rng.resize(n_tx);
    }
    if (config_.fault.pauses()) {
      st.paused.assign(n, 0);
      st.held.resize(n);
    }
  }
  truth_.assign(n, cell::ChannelSet(config_.n_channels));
  cell_seq_.assign(n, 0);
  flags_.reset(n);
  node_rng_.resize(n);

  policy_ = make_policy(config_);
  nodes_.reserve(n);
  for (CellId c = 0; c < grid_.n_cells(); ++c) {
    ShardEnv& env = states_[static_cast<std::size_t>(kernel_.shard_of(c))].env;
    proto::NodeContext ctx{c, &grid_, &plan_, &env,
                           proto::Resilience{config_.request_timeout},
                           policy_.get()};
    nodes_.push_back(make_node(ctx, scheme_, config_));
  }

  if (config_.fault.pauses()) {
    pause_rng_.reserve(n);
    for (CellId c = 0; c < grid_.n_cells(); ++c) {
      pause_rng_.push_back(sim::RngStream::derive(
          config_.seed, std::uint64_t{0x9a05e000} + static_cast<std::uint64_t>(c)));
      schedule_pause_cycle(c, 0);
    }
  }
  if (config_.fault.crashes()) {
    crashes_on_ = true;
    crashed_.assign(n, 0);
    down_since_.assign(n, 0);
    restart_at_.assign(n, 0);
    crash_rng_.reserve(n);
    for (CellId c = 0; c < grid_.n_cells(); ++c) {
      crash_rng_.push_back(sim::RngStream::derive(
          config_.seed, std::uint64_t{0xCa45e000} + static_cast<std::uint64_t>(c)));
      schedule_crash_cycle(c, 0);
    }
  }
  if (config_.fault.has_partitions()) {
    // Tolerate specs naming cells past the grid (validate_scenario
    // rejects them up front, but the timeline must never index out of
    // range regardless).
    int np = grid_.n_cells();
    for (const net::PartitionSpec& p : config_.fault.partitions) {
      for (const CellId c : p.cells) {
        if (c + 1 > np) np = c + 1;
      }
    }
    partitions_ = net::PartitionTimeline(config_.fault.partitions, np);
  }

  if (profile != nullptr) {
    arrivals_ = traffic::draw_arrivals(grid_.n_cells(), *profile,
                                       config_.mean_holding_s, config_.seed,
                                       config_.duration);
  } else {
    arrivals_.begin.assign(n + 1, 0);
  }
  for (CellId c = 0; c < grid_.n_cells(); ++c) {
    schedule_next_candidate(c, arrivals_.begin[static_cast<std::size_t>(c)]);
  }

  kernel_.set_pin_threads(config_.pin);
  for (ShardState& st : states_) {
    st.msg_tally_base.assign(arrivals_.call_cell.size(), 0);
  }
  if (tracing_) {
    conform_ = std::make_unique<ConformanceChecker>(grid_, config_.n_channels);
  }
  kernel_.set_window_hook([this](sim::SimTime frontier) { on_window(frontier); });
}

World::~World() = default;

// -- scheduling ------------------------------------------------------------

template <typename F>
sim::EventId World::schedule_key(const sim::EventKey& key, F&& fn) {
  const int dest = kernel_.shard_of(key.owner);
  auto wrapped = [this, dest, owner = key.owner,
                  f = std::forward<F>(fn)]() mutable {
    states_[static_cast<std::size_t>(dest)].env.current = owner;
    f();
    flag_check(owner);
  };
  static_assert(sim::EventFn::fits_inline<decltype(wrapped)>(),
                "sharded dispatch wrapper must fit EventFn's inline buffer; "
                "grow sim::kEventFnCapacity if the wrapped closure grew");
  return kernel_.schedule(key, std::move(wrapped));
}

template <typename F>
sim::EventId World::schedule_local(CellId owner, std::uint8_t klass,
                                          sim::SimTime when, F&& fn) {
  sim::EventKey key;
  key.when = when;
  key.owner = owner;
  key.klass = klass;
  key.seq = ++cell_seq_[static_cast<std::size_t>(owner)];
  return schedule_key(key, std::forward<F>(fn));
}

template <typename F>
void World::schedule_delivery(LinkId lid, CellId from, CellId to,
                                     sim::SimTime when, F&& fn) {
  // The delivery closure plus the dispatch wrapper must stay inside the
  // kernel's inline callback buffer — this is the sharded hot path.
  static_assert(sim::EventFn::fits_inline<std::decay_t<F>>(),
                "delivery closure must fit EventFn's inline buffer; grow "
                "sim::kEventFnCapacity if net::Message grew");
  sim::EventKey key;
  key.when = when;
  key.owner = to;
  key.klass = sim::kClassDelivery;
  key.sub = from;
  key.seq = ++state_of(from).link_seq[tx_rank_[static_cast<std::size_t>(lid)]];
  (void)schedule_key(key, std::forward<F>(fn));
}

void World::flag_check(CellId owner) {
  const auto& node = *nodes_[static_cast<std::size_t>(owner)];
  flags_.observe(owner, now_of(owner), node.is_borrowing(),
                 node.is_searching());
}

// -- traffic ---------------------------------------------------------------

void World::schedule_next_candidate(CellId c, std::size_t k) {
  if (k == arrivals_.begin[static_cast<std::size_t>(c) + 1]) return;
  (void)schedule_local(c, sim::kClassArrival, arrivals_.candidates[k].t,
                       [this, c, k]() { candidate_fire(c, k); });
}

void World::candidate_fire(CellId c, std::size_t k) {
  const traffic::ArrivalTable::Candidate& cand = arrivals_.candidates[k];
  if (cand.holding > 0) {
    start_call(static_cast<std::uint64_t>(cand.id), c, cand.holding);
  }
  schedule_next_candidate(c, k + 1);
}

void World::start_call(std::uint64_t serial, CellId c,
                       sim::Duration holding) {
  if (crashes_on_ && down_now(c)) {
    reject_call_down(c, serial, static_cast<traffic::CallId>(serial), holding,
                     /*is_handoff=*/false);
    return;
  }
  ShardState& st = state_of(c);
  st.pending[serial] =
      PendingCall{static_cast<traffic::CallId>(serial), holding, false};
  st.collector.open(serial, static_cast<traffic::CallId>(serial), c, now_of(c),
                    /*is_handoff=*/false);
  trace_call_event(sim::TraceKind::kRequest, c, cell::kNoChannel, serial);
  nodes_[static_cast<std::size_t>(c)]->request_channel(serial);
}

// -- network ---------------------------------------------------------------

sim::RngStream& World::link_rng(ShardState& st, LinkId lid,
                                       const LinkKey& link) {
  auto& slot = st.fault_rng[tx_rank_[static_cast<std::size_t>(lid)]];
  if (!slot) {
    // Stream derivation is a pure function of (seed, endpoints), so lazy
    // construction draws the exact sequence an eager table would.
    const std::uint64_t label =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(link.first))
         << 32) |
        static_cast<std::uint32_t>(link.second);
    slot = std::make_unique<sim::RngStream>(
        sim::RngStream::derive(config_.seed ^ 0xFA017ull, label));
  }
  return *slot;
}

sim::RngStream& World::node_rng(CellId c) {
  auto& slot = node_rng_[static_cast<std::size_t>(c)];
  if (!slot) {
    // Derivation is a pure function of (seed, cell), so a stream made on
    // the first draw yields the sequence an eager table would.
    slot = std::make_unique<sim::RngStream>(sim::RngStream::derive(
        config_.seed, std::uint64_t{0x90de000} + static_cast<std::uint64_t>(c)));
  }
  return *slot;
}

void World::record_link(ShardState& st, sim::TraceKind k,
                               const LinkKey& link, std::uint64_t seq,
                               std::int64_t b) {
  if (!tracing_) return;
  sim::TraceEvent e;
  e.kind = k;
  e.t = kernel_.now(st.env.shard);
  e.cell = static_cast<std::int32_t>(link.first);
  e.peer = static_cast<std::int32_t>(link.second);
  e.a = static_cast<std::int64_t>(seq);
  e.b = b;
  st.trace.push_back(e);
}

void World::net_send(int s, net::Message msg) {
  assert(msg.from != cell::kNoCell && msg.to != cell::kNoCell);
  assert(msg.from != msg.to && "nodes do not message themselves");
  ShardState& st = states_[static_cast<std::size_t>(s)];
  ++st.total_sent;
  if (kernel_.shard_of(msg.to) != s) ++st.cross_shard_sent;
  ++st.by_kind[static_cast<std::size_t>(msg.kind)];
  // Bill the message to its request's serial. HANDOFF carries the *next*
  // leg's serial, whose record does not open until the message lands, so
  // it is billed to no call.
  if (msg.serial != 0 && msg.kind != net::MsgKind::kHandoff) {
    if (traffic::mobility::hop_of(msg.serial) > 0) {
      ++st.msg_tally_hop[msg.serial];
    } else {
      assert(msg.serial <= arrivals_.call_cell.size());
      ++st.msg_tally_base[static_cast<std::size_t>(msg.serial - 1)];
    }
  }
  if (transport_) {
    transport_send(s, std::move(msg));
    return;
  }
  const LinkId lid = links_.require(msg.from, msg.to);
  const sim::Duration d = latency_->link_delay(lid, msg.from, msg.to);
  sim::SimTime when = kernel_.now(s) + (d > 0 ? d : 0);
  sim::SimTime& floor_time = st.link_clock[tx_rank_[static_cast<std::size_t>(lid)]];
  if (when < floor_time) when = floor_time;
  floor_time = when;
  schedule_delivery(lid, msg.from, msg.to, when,
                    [this, m = std::move(msg)]() { deliver_to_node(m); });
}

void World::transport_send(int s, net::Message msg) {
  const LinkKey link{msg.from, msg.to};
  const LinkId lid = links_.require(link.first, link.second);
  LinkTx& tx = states_[static_cast<std::size_t>(s)]
                   .tx[tx_rank_[static_cast<std::size_t>(lid)]];
  const std::uint64_t seq = tx.next_seq++;
  tx.pending.insert(seq).msg = std::move(msg);
  transmit(s, link, seq);
  arm_rto(s, link, seq);
}

sim::Duration World::rto(int attempts) const {
  const int shift = attempts < 6 ? attempts : 6;
  return rto_base_ << shift;
}

void World::arm_rto(int s, const LinkKey& link, std::uint64_t seq) {
  ShardState& st = states_[static_cast<std::size_t>(s)];
  const LinkId lid = links_.require(link.first, link.second);
  PendingFrame* f =
      st.tx[tx_rank_[static_cast<std::size_t>(lid)]].pending.find(seq);
  assert(f != nullptr && "arming an RTO for a frame not in the window");
  auto cb = [this, s, link, seq]() { on_rto(s, link, seq); };
  static_assert(sim::EventFn::fits_inline<decltype(cb)>(),
                "RTO closure must fit EventFn's inline buffer");
  f->timer = schedule_local(link.first, sim::kClassTimer,
                            kernel_.now(s) + rto(f->attempts), std::move(cb));
}

void World::on_rto(int s, const LinkKey& link, std::uint64_t seq) {
  ShardState& st = states_[static_cast<std::size_t>(s)];
  const LinkId lid = links_.require(link.first, link.second);
  PendingFrame* f =
      st.tx[tx_rank_[static_cast<std::size_t>(lid)]].pending.find(seq);
  if (f == nullptr) return;  // acked in the meantime
  f->timer = sim::kInvalidEventId;
  ++f->attempts;
  ++st.tstats.retransmissions;
  record_link(st, sim::TraceKind::kRetransmit, link, seq, f->attempts);
  transmit(s, link, seq);
  arm_rto(s, link, seq);
}

void World::transmit(int s, const LinkKey& link, std::uint64_t seq) {
  ShardState& st = states_[static_cast<std::size_t>(s)];
  const LinkId lid = links_.require(link.first, link.second);
  sim::RngStream& rng = link_rng(st, lid, link);
  // Partition cut: checked before any RNG draw so the per-link stream
  // advances identically whether or not a partition is configured.
  if (config_.fault.has_partitions() &&
      partitions_.severed(link.first, link.second, kernel_.now(s))) {
    ++st.tstats.frames_dropped;
    record_link(st, sim::TraceKind::kDrop, link, seq, -1);
    return;  // severed; the RTO resends until the partition heals
  }
  if (config_.fault.drop_prob > 0 && rng.bernoulli(config_.fault.drop_prob)) {
    ++st.tstats.frames_dropped;
    record_link(st, sim::TraceKind::kDrop, link, seq);
    return;  // lost in flight; the RTO will resend it
  }
  const PendingFrame* f =
      st.tx[tx_rank_[static_cast<std::size_t>(lid)]].pending.find(seq);
  assert(f != nullptr && "transmitting a frame not in the window");
  const net::Message& msg = f->msg;
  int copies = 1;
  if (config_.fault.dup_prob > 0 && rng.bernoulli(config_.fault.dup_prob)) {
    ++st.tstats.frames_duplicated;
    record_link(st, sim::TraceKind::kDup, link, seq);
    copies = 2;
  }
  for (int i = 0; i < copies; ++i) {
    sim::Duration d = latency_->link_delay(lid, link.first, link.second);
    if (d < 0) d = 0;
    if (config_.fault.jitter > 0) d += rng.uniform_int(0, config_.fault.jitter);
    // No FIFO floor: frame-level reordering is the injected fault; the
    // receive side resequences. The fault jitter only ever *adds* delay,
    // so d stays >= the latency floor and the lookahead contract holds.
    schedule_delivery(lid, link.first, link.second, kernel_.now(s) + d,
                      [this, link, seq, m = msg]() {
                        on_data_frame(link, seq, m);
                      });
  }
}

void World::on_data_frame(const LinkKey& link, std::uint64_t seq,
                                 const net::Message& msg) {
  // Executes on the receiver's shard. The rx vector is sized once at
  // construction, so this reference stays valid across node deliveries.
  ShardState& st = state_of(link.second);
  const LinkId lid = links_.require(link.first, link.second);
  LinkRx& rx = st.rx[rx_rank_[static_cast<std::size_t>(lid)]];
  if (seq == rx.next_expected && rx.reorder.empty()) {
    // In-order frame with nothing parked behind it: deliver without
    // staging it in the ring (the common case on a mostly lossless link).
    ++rx.next_expected;
    deliver_to_node(msg);
  } else if (seq >= rx.next_expected) {
    if (!rx.reorder.contains(seq)) rx.reorder.insert(seq) = msg;
    while (net::Message* next = rx.reorder.find(rx.next_expected)) {
      const net::Message m = std::move(*next);
      rx.reorder.erase(rx.next_expected);
      ++rx.next_expected;
      deliver_to_node(m);
    }
  }
  send_ack(link, rx.next_expected - 1);
}

void World::send_ack(const LinkKey& data_link, std::uint64_t cumulative) {
  // Executes on the receiver's shard; the ack travels the reverse link,
  // whose sender-side state (fault RNG, canonical seq) lives right here.
  ShardState& st = state_of(data_link.second);
  ++st.tstats.acks_sent;
  const LinkKey back{data_link.second, data_link.first};
  const LinkId back_lid = links_.require(back.first, back.second);
  sim::RngStream& rng = link_rng(st, back_lid, back);
  // Partition cut severs the ack path too (both directions cross the cut).
  if (config_.fault.has_partitions() &&
      partitions_.severed(back.first, back.second,
                          kernel_.now(st.env.shard))) {
    ++st.tstats.frames_dropped;
    record_link(st, sim::TraceKind::kDrop, back, cumulative, -1);
    return;
  }
  if (config_.fault.drop_prob > 0 && rng.bernoulli(config_.fault.drop_prob)) {
    ++st.tstats.frames_dropped;
    record_link(st, sim::TraceKind::kDrop, back, cumulative);
    return;
  }
  sim::Duration d = latency_->link_delay(back_lid, back.first, back.second);
  if (d < 0) d = 0;
  if (config_.fault.jitter > 0) d += rng.uniform_int(0, config_.fault.jitter);
  auto cb = [this, data_link, cumulative]() {
    // Executes on the original sender's shard. The pending window is the
    // dense range [lowest_unacked, next_seq), so walking the cumulative
    // prefix erases exactly the acknowledged frames.
    ShardState& sst = state_of(data_link.first);
    const LinkId lid = links_.require(data_link.first, data_link.second);
    LinkTx& tx = sst.tx[tx_rank_[static_cast<std::size_t>(lid)]];
    while (tx.lowest_unacked <= cumulative &&
           tx.lowest_unacked < tx.next_seq) {
      PendingFrame* f = tx.pending.find(tx.lowest_unacked);
      assert(f != nullptr && "hole in the transport send window");
      if (f->timer != sim::kInvalidEventId) {
        kernel_.cancel(data_link.first, f->timer);
      }
      tx.pending.erase(tx.lowest_unacked);
      ++tx.lowest_unacked;
    }
  };
  static_assert(sim::EventFn::fits_inline<decltype(cb)>(),
                "ack closure must fit EventFn's inline buffer");
  schedule_delivery(back_lid, back.first, back.second,
                    kernel_.now(st.env.shard) + d, std::move(cb));
}

void World::deliver_to_node(const net::Message& msg) {
  ShardState& st = state_of(msg.to);
  if (st.paused_count != 0 &&
      st.paused[static_cast<std::size_t>(msg.to)] != 0) {
    st.held[static_cast<std::size_t>(msg.to)].push_back(msg);
    return;
  }
  dispatch_to_node(msg);
}

void World::dispatch_to_node(const net::Message& msg) {
  if (observer_) observer_(now_of(msg.to), msg);
  // HANDOFF is runner-level state migration, not protocol traffic: it is
  // intercepted here (after the pause hold) so allocator nodes and their
  // Lamport clocks never see it.
  if (msg.kind == net::MsgKind::kHandoff) {
    handoff_arrival(msg);
    return;
  }
  // A crashed MSS loses inbound protocol traffic permanently (the NIC
  // acks, the process is gone); senders resolve via their timeout paths.
  // A *resyncing* node receives normally — it must, to collect its resync
  // replies — it just admits no new traffic yet.
  if (crashes_on_ && crashed_[static_cast<std::size_t>(msg.to)] != 0) {
    return;
  }
  nodes_[static_cast<std::size_t>(msg.to)]->on_message(msg);
}

// -- pauses ----------------------------------------------------------------

void World::schedule_pause_cycle(CellId c, sim::SimTime from_time) {
  // Exponential gap between pause onsets, exponential pause length; each
  // cell draws from its own derived stream, so the timeline is a pure
  // function of (config, seed). No new pause starts past the arrival
  // horizon, keeping the drain phase pause-free (quiescence stays
  // reachable).
  auto& rng = pause_rng_[static_cast<std::size_t>(c)];
  const double gap_s =
      rng.exponential_mean(60.0 / config_.fault.pause_rate_per_min);
  const sim::SimTime at = from_time + sim::from_seconds(gap_s);
  if (at >= config_.duration) return;
  const double len_s = rng.exponential_mean(config_.fault.pause_mean_s);
  const sim::Duration len = std::max<sim::Duration>(sim::from_seconds(len_s), 1);
  (void)schedule_local(c, sim::kClassControl, at, [this, c, at, len]() {
    pause_cell(c, at);
    (void)schedule_local(c, sim::kClassControl, at + len, [this, c, at, len]() {
      resume_cell(c, at + len);
      schedule_pause_cycle(c, at + len);
    });
  });
}

void World::pause_cell(CellId c, sim::SimTime t) {
  ShardState& st = state_of(c);
  std::uint8_t& flag = st.paused[static_cast<std::size_t>(c)];
  if (flag != 0) return;
  flag = 1;
  ++st.paused_count;
  if (tracing_) {
    sim::TraceEvent e;
    e.kind = sim::TraceKind::kPause;
    e.t = t;
    e.cell = static_cast<std::int32_t>(c);
    st.trace.push_back(e);
  }
}

void World::resume_cell(CellId c, sim::SimTime t) {
  ShardState& st = state_of(c);
  if (st.paused[static_cast<std::size_t>(c)] == 0) return;
  st.paused[static_cast<std::size_t>(c)] = 0;
  --st.paused_count;
  if (tracing_) {
    sim::TraceEvent e;
    e.kind = sim::TraceKind::kResume;
    e.t = t;
    e.cell = static_cast<std::int32_t>(c);
    st.trace.push_back(e);
  }
  std::vector<net::Message>& slot = st.held[static_cast<std::size_t>(c)];
  if (!slot.empty()) {
    const std::vector<net::Message> backlog = std::move(slot);
    slot.clear();
    for (const net::Message& m : backlog) dispatch_to_node(m);
  }
}

// -- crash-recovery fault model --------------------------------------------

void World::schedule_crash_cycle(CellId c, sim::SimTime from_time) {
  // Exponential gap between crash onsets, exponential outage length, from
  // the cell's own stream (label 0xCa45e000 + c): the schedule is a pure
  // function of (config, seed). Realized as kClassControl events owned by
  // the crashing cell, so crash, restart and every neighbouring event run
  // in one canonical order at any shard count. No onset past the arrival
  // horizon: the drain phase restarts every down cell and then stays
  // crash-free, keeping quiescence reachable.
  auto& rng = crash_rng_[static_cast<std::size_t>(c)];
  const double gap_s =
      rng.exponential_mean(60.0 / config_.fault.crash_rate_per_min);
  const sim::SimTime at = from_time + sim::from_seconds(gap_s);
  if (at >= config_.duration) return;
  const double len_s = rng.exponential_mean(config_.fault.crash_mean_s);
  const sim::Duration len = std::max<sim::Duration>(sim::from_seconds(len_s), 1);
  (void)schedule_local(c, sim::kClassControl, at, [this, c, at, len]() {
    crash_cell(c);
    (void)schedule_local(c, sim::kClassControl, at + len, [this, c, at, len]() {
      restart_cell(c);
      schedule_crash_cycle(c, at + len);
    });
  });
}

void World::crash_cell(CellId c) {
  assert(crashed_[static_cast<std::size_t>(c)] == 0 && "crash while down");
  crashed_[static_cast<std::size_t>(c)] = 1;
  ShardState& st = state_of(c);
  ++st.avail.crashes;
  down_since_[static_cast<std::size_t>(c)] = now_of(c);

  // Live calls at c die with the MSS. Torn down in serial order (a
  // canonical order), with no protocol messages: the
  // neighbours learn of the crash from the silence (timeouts) and the
  // eventual resync round, exactly like a real outage.
  std::vector<std::uint64_t> torn;
  for (const auto& [serial, call] : st.active) {
    if (call.cellId == c) torn.push_back(serial);
  }
  std::sort(torn.begin(), torn.end());
  trace_call_event(sim::TraceKind::kCrash, c, cell::kNoChannel, 0,
                   static_cast<std::int64_t>(torn.size()));
  for (const std::uint64_t serial : torn) {
    const auto it = st.active.find(serial);
    const cell::ChannelId ch = it->second.channel;
    st.active.erase(it);
    notify_released(c, ch);  // ground truth + usage + kRelease trace
  }

  // Wipe the allocator's volatile state; requests it was serving or
  // queueing resolve as blocked-down through the runner's own path.
  const std::vector<std::uint64_t> lost =
      nodes_[static_cast<std::size_t>(c)]->crash_reset();
  for (const std::uint64_t serial : lost) {
    notify_blocked(c, serial, proto::Outcome::kBlockedDown, 0);
  }
}

void World::restart_cell(CellId c) {
  assert(crashed_[static_cast<std::size_t>(c)] != 0 && "restart while up");
  crashed_[static_cast<std::size_t>(c)] = 0;
  ShardState& st = state_of(c);
  st.avail.down_us += static_cast<std::uint64_t>(
      now_of(c) - down_since_[static_cast<std::size_t>(c)]);
  restart_at_[static_cast<std::size_t>(c)] = now_of(c);
  trace_call_event(sim::TraceKind::kRestart, c, cell::kNoChannel, 0);
  nodes_[static_cast<std::size_t>(c)]->begin_resync();
}

void World::notify_resynced(CellId cellId, int rounds) {
  ShardState& st = state_of(cellId);
  ++st.avail.resyncs;
  st.avail.resync_us += static_cast<std::uint64_t>(
      now_of(cellId) - restart_at_[static_cast<std::size_t>(cellId)]);
  st.avail.resync_rounds += static_cast<std::uint64_t>(rounds);
  st.avail.max_resync_rounds = std::max(st.avail.max_resync_rounds,
                                        static_cast<std::uint64_t>(rounds));
  trace_call_event(sim::TraceKind::kResyncDone, cellId, cell::kNoChannel, 0,
                   static_cast<std::int64_t>(rounds));
}

void World::reject_call_down(CellId c, std::uint64_t serial,
                                    traffic::CallId call,
                                    sim::Duration remaining, bool is_handoff) {
  ShardState& st = state_of(c);
  st.pending[serial] = PendingCall{call, remaining, is_handoff};
  st.collector.open(serial, call, c, now_of(c), is_handoff);
  trace_call_event(sim::TraceKind::kRequest, c, cell::kNoChannel, serial);
  notify_blocked(c, serial, proto::Outcome::kBlockedDown, 0);
}

// -- call lifecycle --------------------------------------------------------

void World::trace_call_event(sim::TraceKind kind, CellId cellId,
                                    cell::ChannelId ch, std::uint64_t serial,
                                    std::int64_t a) {
  if (!tracing_) return;
  ShardState& st = state_of(cellId);
  sim::TraceEvent e;
  e.kind = kind;
  e.t = now_of(cellId);
  e.cell = static_cast<std::int32_t>(cellId);
  e.channel = static_cast<std::int32_t>(ch);
  e.serial = serial;
  e.a = a;
  st.trace.push_back(e);
}

void World::trace_handoff(sim::TraceKind kind, CellId cellId,
                                 CellId peer, std::uint64_t serial,
                                 std::int64_t hop, sim::SimTime ends) {
  if (!tracing_) return;
  ShardState& st = state_of(cellId);
  sim::TraceEvent e;
  e.kind = kind;
  e.t = now_of(cellId);
  e.cell = static_cast<std::int32_t>(cellId);
  e.peer = static_cast<std::int32_t>(peer);
  e.serial = serial;
  e.a = hop;
  e.b = static_cast<std::int64_t>(ends);
  st.trace.push_back(e);
}

void World::accumulate_usage(ShardState& st, sim::SimTime t) {
  st.usage_integral += (t - st.last_usage_change) * st.channels_in_use;
  st.last_usage_change = t;
}

void World::notify_acquired(CellId cellId, std::uint64_t serial,
                                   cell::ChannelId ch, proto::Outcome how,
                                   int attempts) {
  ShardState& st = state_of(cellId);
  const sim::SimTime t = now_of(cellId);
  // Theorem-1 check against same-shard neighbours only (cross-shard
  // ground truth is mid-window foreign state); the ConformanceChecker's
  // reuse-distance pass on the merged trace covers the full region.
  const int s = kernel_.shard_of(cellId);
  for (const CellId j : grid_.interference(cellId)) {
    if (kernel_.shard_of(j) != s) continue;
    if (truth_[static_cast<std::size_t>(j)].contains(ch)) {
      ++st.violations;
      std::fprintf(stderr,
                   "[T1 VIOLATION] t=%lld cell=%d ch=%d conflicts with "
                   "cell=%d (sharded)\n",
                   static_cast<long long>(t), cellId, ch, j);
      assert(false && "co-channel interference: Theorem 1 violated");
    }
  }
  truth_[static_cast<std::size_t>(cellId)].insert(ch);
  accumulate_usage(st, t);
  ++st.channels_in_use;
  trace_call_event(sim::TraceKind::kAcquire, cellId, ch, serial,
                   static_cast<std::int64_t>(how));

  // Neighbour borrow/search samples are reconstructed from the flag
  // timelines at merge time; only the self-searching term (added for
  // acquisitions only) is taken live.
  const int searching_self =
      nodes_[static_cast<std::size_t>(cellId)]->is_searching() ? 1 : 0;
  st.collector.close(serial, t, how, attempts, 0, searching_self);

  const auto it = st.pending.find(serial);
  assert(it != st.pending.end());
  const PendingCall pc = it->second;
  st.pending.erase(it);

  ActiveCall state;
  state.call = pc.call;
  state.cellId = cellId;
  state.channel = ch;
  state.ends = t + pc.remaining;
  st.active[serial] = state;
  sim::SimTime next_event = state.ends;
  if (config_.mean_dwell_s > 0.0) {
    // Dwell is a pure function of (seed, serial): the same draw on
    // whichever shard hosts the call.
    const sim::Duration dwell =
        traffic::mobility::dwell(config_.seed, serial, config_.mean_dwell_s);
    if (t + dwell < state.ends) next_event = t + dwell;
  }
  (void)schedule_local(cellId, sim::kClassProgress, next_event,
                       [this, serial, cellId]() { end_call(serial, cellId); });
}

void World::end_call(std::uint64_t serial, CellId cellId) {
  ShardState& st = state_of(cellId);
  const auto it = st.active.find(serial);
  if (it == st.active.end()) return;  // torn down by a crash
  const ActiveCall state = it->second;
  st.active.erase(it);
  nodes_[static_cast<std::size_t>(state.cellId)]->release_channel(state.channel,
                                                                 serial);

  if (now_of(cellId) >= state.ends) return;  // call completed normally

  // Handoff: the mobile moved to a random neighbouring cell mid-call. The
  // call state (identity, absolute end time) rides a HANDOFF message over
  // the ordinary network path, which is exactly what crosses shard
  // boundaries through the double-buffered outboxes; the destination
  // issues the fresh channel request when it lands.
  const auto neigh = grid_.neighbors(state.cellId);
  if (neigh.empty()) return;
  const std::uint64_t hop = traffic::mobility::hop_of(serial) + 1;
  const CellId dest = neigh[traffic::mobility::pick_neighbor(
      config_.seed, serial, neigh.size())];
  const std::uint64_t new_serial =
      traffic::mobility::encode_serial(traffic::mobility::call_of(serial), hop);
  trace_handoff(sim::TraceKind::kHandoffLeave, state.cellId, dest, new_serial,
                static_cast<std::int64_t>(hop), state.ends);
  net::Message msg;
  msg.kind = net::MsgKind::kHandoff;
  msg.from = state.cellId;
  msg.to = dest;
  msg.serial = new_serial;
  msg.ts.count = static_cast<std::uint64_t>(state.ends);
  net_send(kernel_.shard_of(state.cellId), std::move(msg));
}

void World::handoff_arrival(const net::Message& msg) {
  ShardState& st = state_of(msg.to);
  const sim::SimTime t = now_of(msg.to);
  const auto ends = static_cast<sim::SimTime>(msg.ts.count);
  const std::uint64_t hop = traffic::mobility::hop_of(msg.serial);
  trace_handoff(sim::TraceKind::kHandoffRecv, msg.to, msg.from, msg.serial,
                static_cast<std::int64_t>(hop), ends);
  if (ends <= t) return;  // call expired while in transit
  const auto call =
      static_cast<traffic::CallId>(traffic::mobility::call_of(msg.serial));
  if (crashes_on_ && down_now(msg.to)) {
    // Graceful degradation: the destination MSS cannot admit the call.
    reject_call_down(msg.to, msg.serial, call, ends - t, /*is_handoff=*/true);
    return;
  }
  st.pending[msg.serial] = PendingCall{call, ends - t, /*is_handoff=*/true};
  st.collector.open(msg.serial, call, msg.to, t, /*is_handoff=*/true);
  trace_call_event(sim::TraceKind::kRequest, msg.to, cell::kNoChannel,
                   msg.serial);
  nodes_[static_cast<std::size_t>(msg.to)]->request_channel(msg.serial);
}

void World::notify_blocked(CellId cellId, std::uint64_t serial,
                                  proto::Outcome why, int attempts) {
  ShardState& st = state_of(cellId);
  st.collector.close(serial, now_of(cellId), why, attempts, 0, 0);
  st.pending.erase(serial);
  trace_call_event(sim::TraceKind::kBlock, cellId, cell::kNoChannel, serial,
                   static_cast<std::int64_t>(why));
}

void World::notify_released(CellId cellId, cell::ChannelId ch) {
  ShardState& st = state_of(cellId);
  assert(truth_[static_cast<std::size_t>(cellId)].contains(ch));
  truth_[static_cast<std::size_t>(cellId)].erase(ch);
  accumulate_usage(st, now_of(cellId));
  --st.channels_in_use;
  assert(st.channels_in_use >= 0);
  trace_call_event(sim::TraceKind::kRelease, cellId, ch, 0);
}

void World::notify_reassigned(CellId cellId, cell::ChannelId from_ch,
                                     cell::ChannelId to_ch) {
  ShardState& st = state_of(cellId);
  const int s = kernel_.shard_of(cellId);
  for (const CellId j : grid_.interference(cellId)) {
    if (kernel_.shard_of(j) != s) continue;
    if (truth_[static_cast<std::size_t>(j)].contains(to_ch)) {
      ++st.violations;
      std::fprintf(stderr,
                   "[T1 VIOLATION] t=%lld cell=%d reassign %d->%d conflicts "
                   "with cell=%d (sharded)\n",
                   static_cast<long long>(now_of(cellId)), cellId, from_ch,
                   to_ch, j);
      assert(false && "co-channel interference on reassignment");
    }
  }
  assert(truth_[static_cast<std::size_t>(cellId)].contains(from_ch));
  truth_[static_cast<std::size_t>(cellId)].erase(from_ch);
  truth_[static_cast<std::size_t>(cellId)].insert(to_ch);
  ++st.reassignments;
  trace_call_event(sim::TraceKind::kRelease, cellId, from_ch, 0);
  trace_call_event(sim::TraceKind::kAcquire, cellId, to_ch, 0);
  for (auto& [serial, call] : st.active) {
    if (call.cellId == cellId && call.channel == from_ch) {
      call.channel = to_ch;
      return;
    }
  }
  assert(false && "reassignment of a channel with no active call");
}

// -- step API --------------------------------------------------------------

template <typename F>
void World::as_cell(CellId c, F&& fn) {
  ShardEnv& env = state_of(c).env;
  const CellId outer = env.current;
  env.current = c;
  fn();
  flag_check(c);
  env.current = outer;
}

void World::submit_call(const traffic::CallSpec& spec) {
  const auto serial = static_cast<std::uint64_t>(spec.id);
  if (serial == 0 || serial > traffic::mobility::kCallMask) {
    std::fprintf(stderr, "World: call id %llu out of range\n",
                 static_cast<unsigned long long>(serial));
    std::abort();
  }
  auto& call_cell = arrivals_.call_cell;
  if (serial > call_cell.size()) {
    call_cell.resize(serial, cell::kNoCell);
    for (ShardState& st : states_) st.msg_tally_base.resize(serial, 0);
  }
  if (call_cell[serial - 1] != cell::kNoCell) {
    std::fprintf(stderr, "World: call id %llu offered twice\n",
                 static_cast<unsigned long long>(serial));
    std::abort();
  }
  call_cell[serial - 1] = spec.cell;
  ++scripted_calls_;
  as_cell(spec.cell, [&] { start_call(serial, spec.cell, spec.holding); });
}

void World::send(net::Message msg) {
  const CellId from = msg.from;
  as_cell(from, [&] { net_send(kernel_.shard_of(from), std::move(msg)); });
}

void World::schedule_in(CellId owner, sim::Duration delay,
                        std::function<void()> fn) {
  if (delay < 0) delay = 0;
  (void)schedule_local(owner, sim::kClassControl, now_of(owner) + delay,
                       [f = std::move(fn)]() { f(); });
}

void World::run_until(sim::SimTime deadline) {
  kernel_.run_until(deadline);
  fold_to(now());
}

void World::run_to_quiescence() {
  kernel_.run_to_quiescence();
  // Bring every shard clock to the last event's instant, so the next step
  // call acts at one global now().
  kernel_.run_until(kernel_.max_now());
  fold_to(now());
}

sim::Duration World::latency_bound() const { return latency_->max_one_way(); }

std::size_t World::active_calls() const {
  std::size_t n = 0;
  for (const ShardState& st : states_) n += st.active.size();
  return n;
}

std::uint64_t World::interference_violations() const {
  std::uint64_t n = 0;
  for (const ShardState& st : states_) n += st.violations;
  return n;
}

std::uint64_t World::reassignments() const {
  std::uint64_t n = 0;
  for (const ShardState& st : states_) n += st.reassignments;
  return n;
}

std::uint64_t World::total_sent() const {
  std::uint64_t n = 0;
  for (const ShardState& st : states_) n += st.total_sent;
  return n;
}

std::uint64_t World::sent_of(net::MsgKind k) const {
  std::uint64_t n = 0;
  for (const ShardState& st : states_) n += st.by_kind[static_cast<std::size_t>(k)];
  return n;
}

net::TransportStats World::transport_stats() const {
  net::TransportStats t;
  for (const ShardState& st : states_) {
    t.frames_dropped += st.tstats.frames_dropped;
    t.frames_duplicated += st.tstats.frames_duplicated;
    t.retransmissions += st.tstats.retransmissions;
    t.acks_sent += st.tstats.acks_sent;
  }
  return t;
}

// -- run & merge -----------------------------------------------------------

void World::run() {
  keep_log_ = false;
  kernel_.run_until(config_.duration);
  kernel_.run_to_quiescence();
}

bool World::quiescent() const {
  for (const ShardState& st : states_) {
    if (!st.pending.empty()) return false;
    if (st.collector.open_count() != 0) return false;
  }
  for (const auto& n : nodes_) {
    if (n->busy() || n->queued() != 0 || n->resyncing()) return false;
  }
  return true;
}

// The fold runs inside the kernel's window hook, on exactly one worker
// while the others are parked at the barrier, and on the calling thread at
// the end of each step. Window monotonicity gives the correctness
// argument: at a barrier every event executed so far fired at
// when < frontier, so every buffered trace entry has t < frontier and the
// drain below takes *complete* per-shard buffers; everything a later fold
// drains is >= this frontier. Per-batch canonical sorting + concatenation
// across folds therefore reproduces one global canonical sort. Records
// fold only below the step clock: a step call between steps acts at now()
// and may close a record there, which must still sort among its equals.
void World::on_window(sim::SimTime frontier) {
  if (frontier < next_fold_) return;
  // Windows are one lookahead (~ms) wide, so folding every barrier would
  // pay the O(shards + grid) sweep ~10^5 times; a one-second stride keeps
  // the backlog small at ~duration-in-seconds folds per run.
  next_fold_ = frontier + sim::seconds(1);
  fold_to(std::min(frontier, kernel_.max_now()));
}

void World::fold_to(sim::SimTime frontier) {
  std::vector<metrics::CallRecord> batch;
  for (ShardState& st : states_) {
    std::vector<metrics::CallRecord> part =
        st.collector.drain_closed_before(frontier);
    batch.insert(batch.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
  }
  if (!batch.empty()) {
    std::stable_sort(batch.begin(), batch.end(), before_in_close_order);
    // Neighbour samples need timeline entries at or before each close —
    // resolve them *before* pruning.
    flags_.apply_neighbor_samples(grid_, batch);
    for (const metrics::CallRecord& r : batch) {
      if (builder_.add_core(r)) {
        fold_order_.emplace_back(
            r.serial, metrics::AggregateBuilder::acquired_outcome(r.outcome));
      }
    }
    if (keep_log_) log_.insert(log_.end(), batch.begin(), batch.end());
  }
  // Every remaining record closes at >= frontier, so the earliest future
  // flags query bounds at frontier - 1; prune_before keeps exactly the
  // suffix those queries can resolve.
  flags_.prune_before(frontier);

  if (tracing_) {
    std::vector<sim::TraceEvent> events;
    std::size_t total = 0;
    for (const ShardState& st : states_) total += st.trace.size();
    events.reserve(total);
    for (ShardState& st : states_) {
      events.insert(events.end(), st.trace.begin(), st.trace.end());
      st.trace.clear();
    }
    std::stable_sort(events.begin(), events.end(), before_in_trace_order);
    for (const sim::TraceEvent& e : events) {
      conform_->feed(e);
      trace_->emit(e);
    }
  }
}

std::uint32_t World::billed(std::uint64_t serial) const {
  std::uint32_t n = 0;
  const bool leg = traffic::mobility::hop_of(serial) > 0;
  for (const ShardState& st : states_) {
    if (leg) {
      const auto it = st.msg_tally_hop.find(serial);
      if (it != st.msg_tally_hop.end()) n += it->second;
    } else {
      n += st.msg_tally_base[static_cast<std::size_t>(serial - 1)];
    }
  }
  return n;
}

const std::vector<metrics::CallRecord>& World::records() const {
  // The log is canonical and every record still in a collector closed at
  // or after the last fold frontier, so the tail's canonical merge
  // appends after it.
  records_view_ = log_;
  const auto head = static_cast<std::ptrdiff_t>(records_view_.size());
  for (const ShardState& st : states_) {
    const std::vector<metrics::CallRecord>& part = st.collector.closed();
    records_view_.insert(records_view_.end(), part.begin(), part.end());
  }
  const std::span<metrics::CallRecord> tail(records_view_.begin() + head,
                                            records_view_.end());
  std::stable_sort(tail.begin(), tail.end(), before_in_close_order);
  flags_.apply_neighbor_samples(grid_, tail);
  for (metrics::CallRecord& r : records_view_) r.messages = billed(r.serial);
  return records_view_;
}

RunResult World::result() {
  RunResult out;
  out.scheme = scheme_;

  // Drain whatever closed after the last fold (the quiescence tail runs
  // past `duration`, so use an unbounded frontier), then replay the two
  // deferred message Summaries in fold order — the only Summaries whose
  // inputs (final per-serial bills) are unknown at fold time.
  fold_to(sim::kTimeNever);
  for (const auto& [serial, acquired] : fold_order_) {
    builder_.add_messages(billed(serial), acquired);
  }
  out.agg = builder_.finish();

  std::int64_t usage = 0;
  for (const ShardState& st : states_) {
    out.cross_shard_messages += st.cross_shard_sent;
    out.availability.merge(st.avail);
    usage += st.usage_integral;
    if (st.last_usage_change < config_.duration) {
      usage += (config_.duration - st.last_usage_change) * st.channels_in_use;
    }
  }
  out.total_messages = total_sent();
  for (int k = 0; k < net::kNumMsgKinds; ++k) {
    out.messages_by_kind[static_cast<std::size_t>(k)] =
        sent_of(static_cast<net::MsgKind>(k));
  }
  out.violations = interference_violations();
  out.transport = transport_stats();
  out.offered_calls = arrivals_.calls() + scripted_calls_;
  out.carried_erlangs = config_.duration > 0
                            ? static_cast<double>(usage) /
                                  static_cast<double>(config_.duration)
                            : 0.0;
  out.executed_events = kernel_.executed();
  out.quiescent = quiescent();

  if (tracing_) {
    sim::TraceEvent end;
    end.kind = sim::TraceKind::kRunEnd;
    end.t = kernel_.max_now();
    end.a = out.quiescent ? 1 : 0;
    end.b = static_cast<std::int64_t>(active_calls());
    conform_->feed(end);
    trace_->emit(end);
    const ConformanceReport rep = conform_->finish();
    out.conformance_checked = true;
    out.conformance_violations = rep.violations.size();
    if (!rep.ok()) {
      std::fprintf(stderr, "[conformance] %s\n", rep.to_string().c_str());
    }
  }
  return out;
}

}  // namespace dca::runner
