// Unit tests for the deterministic fault-injection layer and its
// reliable-transport sublayer: whatever the fault cocktail, the protocol
// layer must still observe exactly-once, per-link FIFO delivery, and the
// entire fault schedule must replay bit-identically from the seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "net/fault.hpp"
#include "net/message.hpp"
#include "runner/world.hpp"
#include "sim/trace.hpp"

namespace dca::net {
namespace {

/// A one-shard world used as a transport harness. Basic-update nodes
/// treat a RELEASE from a neighbour as "forget that channel" and never
/// answer it, so scripted RELEASEs exercise only the network layer; the
/// delivery observer records what reaches each node, in order.
runner::ScenarioConfig harness_config(const FaultConfig& fault,
                                      std::uint64_t seed) {
  runner::ScenarioConfig cfg;  // 8x8, radius 2: cells 0, 1, 2 interfere
  cfg.latency = 100;
  cfg.duration = sim::minutes(2);  // pauses start only before the horizon
  cfg.fault = fault;
  cfg.seed = seed;
  return cfg;
}

struct PauseWindow {
  sim::SimTime pause = 0;
  sim::SimTime resume = 0;
};

/// The first pause of `cell` in a message-free run of `cfg` that lasts at
/// least 400 ms while `other` (if any) is never paused. The pause timeline
/// is a pure function of the scenario, so a second world built from the
/// same config pauses at exactly these instants.
PauseWindow first_pause(const runner::ScenarioConfig& cfg, cell::CellId cell,
                        cell::CellId other) {
  sim::TraceRecorder rec;
  runner::World probe(cfg, runner::Scheme::kBasicUpdate, nullptr, nullptr, &rec);
  probe.run_to_quiescence();
  std::vector<PauseWindow> mine, others;
  for (const sim::TraceEvent& e : rec.events()) {
    if (e.cell != cell && e.cell != other) continue;
    auto& list = e.cell == cell ? mine : others;
    if (e.kind == sim::TraceKind::kPause) list.push_back({e.t, sim::kTimeNever});
    if (e.kind == sim::TraceKind::kResume) list.back().resume = e.t;
  }
  for (const PauseWindow& w : mine) {
    if (w.resume - w.pause < sim::milliseconds(400)) continue;
    bool clear = true;
    for (const PauseWindow& o : others) {
      if (o.pause < w.resume && w.pause < o.resume) clear = false;
    }
    if (clear) return w;
  }
  return {};
}

class FaultNetFixture : public ::testing::Test {
 protected:
  std::unique_ptr<runner::World> world;
  std::vector<Message> delivered;

  void start(const FaultConfig& cfg, std::uint64_t seed,
             sim::TraceRecorder* rec = nullptr) {
    world = std::make_unique<runner::World>(harness_config(cfg, seed),
                                            runner::Scheme::kBasicUpdate,
                                            nullptr, nullptr, rec);
    world->set_delivery_observer(
        [this](sim::SimTime, const Message& m) { delivered.push_back(m); });
  }

  static Message mk(cell::CellId from, cell::CellId to, int tag) {
    Message m;
    m.kind = MsgKind::kRelease;
    m.from = from;
    m.to = to;
    m.channel = tag;
    return m;
  }

  void send_burst(int n) {
    for (int i = 0; i < n; ++i) world->send(mk(0, 1, i));
  }

  void expect_exactly_once_in_order(int n) {
    ASSERT_EQ(delivered.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(delivered[static_cast<std::size_t>(i)].channel, i);
  }
};

TEST_F(FaultNetFixture, DropsAreRetransmittedExactlyOnceInOrder) {
  FaultConfig cfg;
  cfg.drop_prob = 0.4;
  start(cfg, /*seed=*/7);
  send_burst(60);
  world->run_to_quiescence();
  expect_exactly_once_in_order(60);
  EXPECT_GT(world->transport_stats().frames_dropped, 0u);
  EXPECT_GT(world->transport_stats().retransmissions, 0u);
  // The paper's message-complexity counter must not see transport frames.
  EXPECT_EQ(world->total_sent(), 60u);
}

TEST_F(FaultNetFixture, DuplicatesAreFiltered) {
  FaultConfig cfg;
  cfg.dup_prob = 1.0;  // every frame delivered twice
  start(cfg, 7);
  send_burst(20);
  world->run_to_quiescence();
  expect_exactly_once_in_order(20);
  EXPECT_EQ(world->transport_stats().frames_duplicated, 20u);
}

TEST_F(FaultNetFixture, JitterCannotReorderALink) {
  FaultConfig cfg;
  cfg.jitter = 5000;  // 50x the base latency: wild physical reordering
  start(cfg, 7);
  send_burst(40);
  world->run_to_quiescence();
  expect_exactly_once_in_order(40);
}

TEST_F(FaultNetFixture, FullCocktailStillExactlyOnceInOrder) {
  FaultConfig cfg;
  cfg.drop_prob = 0.3;
  cfg.dup_prob = 0.3;
  cfg.jitter = 2000;
  start(cfg, 99);
  for (int i = 0; i < 30; ++i) {
    world->send(mk(0, 1, i));
    world->send(mk(2, 1, 100 + i));  // second link interleaved
  }
  world->run_to_quiescence();
  ASSERT_EQ(delivered.size(), 60u);
  int next01 = 0, next21 = 100;
  for (const Message& m : delivered) {
    if (m.from == 0) {
      EXPECT_EQ(m.channel, next01++);
    } else {
      EXPECT_EQ(m.channel, next21++);
    }
  }
  EXPECT_EQ(next01, 30);
  EXPECT_EQ(next21, 130);
}

TEST_F(FaultNetFixture, PauseHoldsDeliveryAndResumeFlushesInOrder) {
  FaultConfig cfg;
  cfg.pause_rate_per_min = 6.0;
  cfg.pause_mean_s = 1.0;
  const PauseWindow win = first_pause(harness_config(cfg, 7), 1, 2);
  ASSERT_LT(win.pause, win.resume);
  start(cfg, 7);
  world->run_until(win.pause);  // cell 1 is now paused
  send_burst(5);
  world->send(mk(0, 2, 77));  // other destinations unaffected
  world->run_until(win.resume - 1);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].to, 2);

  delivered.clear();
  world->run_until(win.resume);
  expect_exactly_once_in_order(5);
}

TEST_F(FaultNetFixture, PausedStationKeepsAckingUnderDrops) {
  // A paused allocator process on a live host: transport ACKs still flow,
  // so the sender's pending window drains (retransmissions stop) while the
  // station is paused, and delivery completes, in order, the moment the
  // process resumes.
  FaultConfig cfg;
  cfg.drop_prob = 0.3;
  cfg.pause_rate_per_min = 6.0;
  cfg.pause_mean_s = 1.0;
  const PauseWindow win = first_pause(harness_config(cfg, 13), 1, cell::kNoCell);
  ASSERT_LT(win.pause, win.resume);
  start(cfg, 13);
  world->run_until(win.pause);
  send_burst(25);
  world->run_until(win.pause + sim::milliseconds(300));
  const std::uint64_t settled = world->transport_stats().retransmissions;
  EXPECT_GT(settled, 0u) << "drops should force retransmissions";
  world->run_until(win.resume - 1);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(world->transport_stats().retransmissions, settled)
      << "every frame was acked while the station was paused";
  world->run_until(win.resume);
  expect_exactly_once_in_order(25);
}

TEST_F(FaultNetFixture, RecorderSeesDropsDupsAndRetransmits) {
  sim::TraceRecorder rec;
  FaultConfig cfg;
  cfg.drop_prob = 0.4;
  cfg.dup_prob = 0.4;
  start(cfg, 7, &rec);
  send_burst(40);
  world->run_to_quiescence();
  std::uint64_t drops = 0, dups = 0, rexmits = 0;
  for (const sim::TraceEvent& e : rec.events()) {
    if (e.kind == sim::TraceKind::kDrop) ++drops;
    if (e.kind == sim::TraceKind::kDup) ++dups;
    if (e.kind == sim::TraceKind::kRetransmit) ++rexmits;
  }
  EXPECT_EQ(drops, world->transport_stats().frames_dropped);
  EXPECT_EQ(dups, world->transport_stats().frames_duplicated);
  EXPECT_EQ(rexmits, world->transport_stats().retransmissions);
  EXPECT_GT(drops, 0u);
}

using DeliveryLog = std::vector<std::tuple<sim::SimTime, cell::CellId, int>>;

DeliveryLog run_faulty_burst(std::uint64_t seed) {
  FaultConfig cfg;
  cfg.drop_prob = 0.25;
  cfg.dup_prob = 0.25;
  cfg.jitter = 1500;
  runner::World world(harness_config(cfg, seed), runner::Scheme::kBasicUpdate);
  DeliveryLog log;
  world.set_delivery_observer([&](sim::SimTime t, const Message& m) {
    log.emplace_back(t, m.from, m.channel);
  });
  // A ring of four mutually interfering cells (8x8 grid, radius 2).
  const cell::CellId ring[4] = {0, 1, 9, 8};
  for (int i = 0; i < 50; ++i) {
    Message m;
    m.kind = MsgKind::kRelease;
    m.from = ring[i % 4];
    m.to = ring[(i + 1) % 4];
    m.channel = i;
    world.send(m);
  }
  world.run_to_quiescence();
  return log;
}

TEST(FaultNetDeterminism, SameSeedSameDeliverySchedule) {
  const DeliveryLog a = run_faulty_burst(42);
  const DeliveryLog b = run_faulty_burst(42);
  EXPECT_EQ(a, b);
}

TEST(FaultNetDeterminism, DifferentSeedDifferentFaultSchedule) {
  const DeliveryLog a = run_faulty_burst(42);
  const DeliveryLog b = run_faulty_burst(43);
  EXPECT_NE(a, b) << "fault schedule should be a function of the seed";
}

}  // namespace
}  // namespace dca::net
