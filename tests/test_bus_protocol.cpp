// Tests for oracle/protocol.hpp and oracle/bus.hpp — the message substrate
// that the negotiation oracle routes every plan's messages through.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "oracle/bus.hpp"
#include "oracle/protocol.hpp"

namespace haste::oracle {
namespace {

Message value_msg(model::ChargerIndex sender, double marginal = 1.0) {
  Message msg;
  msg.sender = sender;
  msg.slot = 3;
  msg.color = 0;
  msg.command = Command::kValue;
  msg.marginal = marginal;
  return msg;
}

TEST(Protocol, WireSizeGrowsWithPayload) {
  Message msg = value_msg(0);
  const std::size_t base = msg.wire_size();
  msg.policy.tasks = {1, 2, 3};
  msg.policy.slot_energy = {1.0, 2.0, 3.0};
  EXPECT_EQ(msg.wire_size(), base + 3 * 12);
}

TEST(Protocol, DescribeMentionsCommand) {
  Message msg = value_msg(7);
  EXPECT_NE(msg.describe().find("VALUE"), std::string::npos);
  msg.command = Command::kUpdate;
  EXPECT_NE(msg.describe().find("UPD"), std::string::npos);
  msg.command = Command::kHello;
  EXPECT_NE(msg.describe().find("HELLO"), std::string::npos);
}

/// A bus endpoint that records what it receives and optionally reacts.
struct Recorder {
  std::vector<Message> received;
  std::function<void(const Message&)> react;

  void receive(const Message& message) {
    received.push_back(message);
    if (react) react(message);
  }
};

class BusFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (model::ChargerIndex i = 0; i < 3; ++i) {
      bus_.register_node(i, &nodes_[static_cast<std::size_t>(i)]);
    }
    // Line topology: 0 - 1 - 2.
    bus_.set_neighbors(0, {1});
    bus_.set_neighbors(1, {0, 2});
    bus_.set_neighbors(2, {1});
  }

  const std::vector<Message>& received(std::size_t i) const { return nodes_[i].received; }

  BroadcastBus<Recorder> bus_;
  Recorder nodes_[3];
};

TEST_F(BusFixture, BroadcastReachesOnlyNeighbors) {
  bus_.broadcast(value_msg(0));
  bus_.flush_round();
  EXPECT_TRUE(received(0).empty());
  ASSERT_EQ(received(1).size(), 1u);
  EXPECT_EQ(received(1)[0].sender, 0);
  EXPECT_TRUE(received(2).empty());
}

TEST_F(BusFixture, MiddleNodeReachesBoth) {
  bus_.broadcast(value_msg(1));
  bus_.flush_round();
  EXPECT_EQ(received(0).size(), 1u);
  EXPECT_EQ(received(2).size(), 1u);
}

TEST_F(BusFixture, StatsCountBroadcastsAndDeliveries) {
  bus_.broadcast(value_msg(0));
  bus_.broadcast(value_msg(1));
  bus_.flush_round();
  EXPECT_EQ(bus_.stats().broadcasts, 2u);
  EXPECT_EQ(bus_.stats().deliveries, 3u);  // 1 (from 0) + 2 (from 1)
  EXPECT_EQ(bus_.stats().rounds, 1u);
  EXPECT_GT(bus_.stats().bytes, 0u);
  bus_.reset_stats();
  EXPECT_EQ(bus_.stats().broadcasts, 0u);
}

TEST_F(BusFixture, RepliesLandInTheNextRound) {
  // Node 1 echoes whatever it receives. The echo must not be delivered in
  // the same flush.
  BroadcastBus<Recorder> bus;
  Recorder first;
  Recorder echo;
  echo.react = [&bus](const Message& m) {
    if (m.command == Command::kValue) {
      Message reply;
      reply.sender = 1;
      reply.command = Command::kUpdate;
      bus.broadcast(reply);
    }
  };
  bus.register_node(0, &first);
  bus.register_node(1, &echo);
  bus.set_neighbors(0, {1});
  bus.set_neighbors(1, {0});

  bus.broadcast(value_msg(0));
  EXPECT_EQ(bus.flush_round(), 1u);  // VALUE delivered, UPDATE queued
  EXPECT_TRUE(first.received.empty());
  EXPECT_EQ(bus.flush_round(), 1u);  // UPDATE delivered
  ASSERT_EQ(first.received.size(), 1u);
  EXPECT_EQ(first.received[0].command, Command::kUpdate);
  EXPECT_TRUE(bus.idle());
}

TEST_F(BusFixture, FlushOnEmptyIsNoRound) {
  EXPECT_EQ(bus_.flush_round(), 0u);
  EXPECT_EQ(bus_.stats().rounds, 0u);
}

TEST(Bus, DuplicateRegistrationRejected) {
  BroadcastBus<Recorder> bus;
  Recorder a;
  Recorder b;
  bus.register_node(0, &a);
  EXPECT_THROW(bus.register_node(0, &b), std::invalid_argument);
}

TEST(Bus, UnknownSenderRejected) {
  BroadcastBus<Recorder> bus;
  Recorder a;
  bus.register_node(0, &a);
  Message msg = value_msg(5);
  EXPECT_THROW(bus.broadcast(msg), std::invalid_argument);
}

TEST(Bus, NeighborsOfUnknownNodeRejected) {
  BroadcastBus<Recorder> bus;
  EXPECT_THROW(bus.set_neighbors(2, {0}), std::invalid_argument);
}

}  // namespace
}  // namespace haste::oracle
