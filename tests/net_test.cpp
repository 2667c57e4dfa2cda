// Unit tests for the network substrate: timestamps, latency models,
// message delivery through the world's links, and the message counters.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cell/grid.hpp"
#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/timestamp.hpp"
#include "runner/world.hpp"

namespace dca::net {
namespace {

TEST(Timestamp, TotalOrderWithNodeTieBreak) {
  const Timestamp a{5, 1}, b{5, 2}, c{6, 0};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(b > a);
  EXPECT_FALSE(a < a);
}

TEST(LamportClock, TickIncrements) {
  LamportClock clk(3);
  const Timestamp t1 = clk.tick();
  const Timestamp t2 = clk.tick();
  EXPECT_TRUE(t1 < t2);
  EXPECT_EQ(t1.node, 3);
}

TEST(LamportClock, WitnessAdvancesPastObserved) {
  LamportClock a(0), b(1);
  a.tick();
  a.tick();
  const Timestamp ta = a.tick();  // count 3
  b.witness(ta);
  const Timestamp tb = b.tick();
  EXPECT_TRUE(ta < tb) << "a reply after witnessing must be causally later";
}

TEST(LamportClock, WitnessOlderTimestampIsNoop) {
  LamportClock a(0);
  a.tick();
  a.tick();
  a.witness(Timestamp{1, 9});
  EXPECT_EQ(a.peek().count, 2u);
}

TEST(Latency, FixedIsConstant) {
  FixedLatency l(5000);
  EXPECT_EQ(l.delay(0, 1), 5000);
  EXPECT_EQ(l.delay(7, 3), 5000);
  EXPECT_EQ(l.max_one_way(), 5000);
}

TEST(Latency, JitterStaysInRange) {
  JitterLatency l(100, 200, sim::RngStream(1));
  for (int i = 0; i < 1000; ++i) {
    const auto d = l.delay(0, 1);
    EXPECT_GE(d, 100);
    EXPECT_LE(d, 200);
  }
  EXPECT_EQ(l.max_one_way(), 200);
}

TEST(Latency, MatrixOverridesPerLink) {
  MatrixLatency l(1000);
  l.set(2, 3, 50);
  l.set(3, 2, 9000);
  EXPECT_EQ(l.delay(2, 3), 50);
  EXPECT_EQ(l.delay(3, 2), 9000);
  EXPECT_EQ(l.delay(0, 1), 1000);
  EXPECT_EQ(l.max_one_way(), 9000);
}

/// The world's network, driven directly: a one-shard world of basic-update
/// nodes (which take a RELEASE from a neighbour as "forget that channel"
/// and never answer it), scripted sends, and a delivery observer.
struct NetHarness {
  explicit NetHarness(std::unique_ptr<LatencyModel> latency = nullptr)
      : world(config(), runner::Scheme::kBasicUpdate, nullptr,
              latency ? std::move(latency) : std::make_unique<FixedLatency>(100)) {
    world.set_delivery_observer([this](sim::SimTime t, const Message& m) {
      delivered.push_back(m);
      delivered_at.push_back(t);
    });
  }
  static runner::ScenarioConfig config() {
    runner::ScenarioConfig cfg;  // 8x8, radius 2: cells 0, 1, 2, 9 interfere
    cfg.latency = 100;
    return cfg;
  }

  runner::World world;
  std::vector<Message> delivered;
  std::vector<sim::SimTime> delivered_at;
};

class NetworkFixture : public ::testing::Test {
 protected:
  NetHarness net;
  std::vector<Message>& delivered = net.delivered;

  static Message mk(cell::CellId from, cell::CellId to, MsgKind kind) {
    Message m;
    m.kind = kind;
    m.from = from;
    m.to = to;
    return m;
  }
};

TEST_F(NetworkFixture, DeliversAfterLatency) {
  net.world.send(mk(0, 1, MsgKind::kRelease));
  EXPECT_TRUE(delivered.empty());
  net.world.run_to_quiescence();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(net.world.now(), 100);
  EXPECT_EQ(net.delivered_at[0], 100);
  EXPECT_EQ(delivered[0].from, 0);
  EXPECT_EQ(delivered[0].to, 1);
}

TEST_F(NetworkFixture, PerLinkFifoWithFixedLatency) {
  for (int i = 0; i < 5; ++i) {
    Message m = mk(0, 1, MsgKind::kRelease);
    m.channel = i;
    net.world.send(m);
  }
  net.world.run_to_quiescence();
  ASSERT_EQ(delivered.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(delivered[static_cast<size_t>(i)].channel, i);
}

TEST(NetworkFifo, JitteredLinkNeverReorders) {
  // A latency model that draws wildly different delays must not let a
  // later send overtake an earlier one on the SAME directed link (the
  // paper's protocols assume ordered channels).
  class SawtoothLatency final : public LatencyModel {
   public:
    sim::Duration delay(cell::CellId, cell::CellId) override {
      // 1000, 10, 1000, 10, ... — every even message would be overtaken
      // by the next odd one without the FIFO floor.
      return (++n_ % 2) ? 1000 : 10;
    }
    [[nodiscard]] sim::Duration max_one_way() const override { return 1000; }
    [[nodiscard]] sim::Duration min_one_way() const override { return 10; }

   private:
    int n_ = 0;
  };
  NetHarness net(std::make_unique<SawtoothLatency>());
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.kind = MsgKind::kRelease;
    m.from = 0;
    m.to = 1;
    m.channel = i;
    net.world.send(m);
  }
  net.world.run_to_quiescence();
  ASSERT_EQ(net.delivered.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(net.delivered[static_cast<size_t>(i)].channel, i);
  }
}

TEST(NetworkFifo, DifferentLinksStillRace) {
  // The FIFO floor is per directed link: a fast message on another link
  // may still arrive first.
  class PerDestLatency final : public LatencyModel {
   public:
    sim::Duration delay(cell::CellId, cell::CellId to) override {
      return to == 1 ? 1000 : 10;
    }
    [[nodiscard]] sim::Duration max_one_way() const override { return 1000; }
    [[nodiscard]] sim::Duration min_one_way() const override { return 10; }
  };
  NetHarness net(std::make_unique<PerDestLatency>());
  Message slow;
  slow.kind = MsgKind::kRelease;
  slow.from = 0;
  slow.to = 1;
  net.world.send(slow);
  Message fast = slow;
  fast.to = 2;
  net.world.send(fast);
  net.world.run_to_quiescence();
  ASSERT_EQ(net.delivered.size(), 2u);
  EXPECT_EQ(net.delivered[0].to, 2) << "cross-link overtaking is allowed";
  EXPECT_EQ(net.delivered[1].to, 1);
}

TEST_F(NetworkFixture, CountersByKind) {
  net.world.send(mk(0, 1, MsgKind::kRequest));
  net.world.send(mk(1, 0, MsgKind::kResponse));
  net.world.send(mk(1, 2, MsgKind::kResponse));
  EXPECT_EQ(net.world.total_sent(), 3u);
  EXPECT_EQ(net.world.sent_of(MsgKind::kRequest), 1u);
  EXPECT_EQ(net.world.sent_of(MsgKind::kResponse), 2u);
  EXPECT_EQ(net.world.sent_of(MsgKind::kAcquisition), 0u);
}

TEST_F(NetworkFixture, ObserverSeesEveryMessageAtSendTime) {
  // Message complexity is counted when a message is sent, not when it
  // lands; the delivery observer sees it only once it lands.
  net.world.send(mk(0, 1, MsgKind::kRelease));
  EXPECT_EQ(net.world.total_sent(), 1u) << "counted at send, not delivery";
  EXPECT_TRUE(delivered.empty());
  net.world.run_to_quiescence();
  EXPECT_EQ(net.world.total_sent(), 1u);
  EXPECT_EQ(delivered.size(), 1u);
}

TEST_F(NetworkFixture, UseSetPayloadSurvivesDelivery) {
  Message m = mk(9, 1, MsgKind::kRelease);
  m.res_type = ResType::kSearchReply;
  m.use = cell::ChannelSet(70);
  m.use.insert(13);
  m.use.insert(42);
  net.world.send(m);
  net.world.run_to_quiescence();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_TRUE(delivered[0].use.contains(13));
  EXPECT_TRUE(delivered[0].use.contains(42));
  EXPECT_EQ(delivered[0].use.size(), 2);
}

TEST(MessageNames, KindNamesMatchPaper) {
  Message m;
  m.kind = MsgKind::kChangeMode;
  EXPECT_EQ(m.kind_name(), "CHANGE_MODE");
  m.kind = MsgKind::kAcquisition;
  EXPECT_EQ(m.kind_name(), "ACQUISITION");
}

}  // namespace
}  // namespace dca::net
