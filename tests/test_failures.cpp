// Tests for charger-failure injection: Schedule::disable_from semantics and
// the online driver's re-planning around failures.
#include <gtest/gtest.h>

#include "core/evaluate.hpp"
#include "dist/online.hpp"
#include "geom/angle.hpp"
#include "io/scenario_io.hpp"
#include "oracle/negotiation.hpp"
#include "test_helpers.hpp"

namespace haste::dist {
namespace {

using geom::kPi;
using testing_helpers::random_network;

TEST(ScheduleDisable, SilencesFromSlotOn) {
  model::Schedule s(2, 6);
  s.assign(0, 0, 1.0);
  s.disable_from(0, 3);
  EXPECT_FALSE(s.disabled_at(0, 2));
  EXPECT_TRUE(s.disabled_at(0, 3));
  EXPECT_TRUE(s.disabled_at(0, 5));
  EXPECT_FALSE(s.disabled_at(1, 3));
  // Persistence stops at the outage.
  EXPECT_TRUE(s.resolved_orientation(0, 2).has_value());
  EXPECT_FALSE(s.resolved_orientation(0, 4).has_value());
  // Disabled slots never switch.
  s.assign(0, 4, 2.0);
  EXPECT_FALSE(s.switches_at(0, 4));
}

TEST(ScheduleDisable, EarlierCallWidensOutage) {
  model::Schedule s(1, 6);
  s.disable_from(0, 4);
  s.disable_from(0, 2);
  EXPECT_TRUE(s.disabled_at(0, 2));
  s.disable_from(0, 5);  // later: ignored
  EXPECT_TRUE(s.disabled_at(0, 3));
}

TEST(ScheduleDisable, OutOfRangeChargerThrows) {
  model::Schedule s(1, 4);
  EXPECT_THROW(s.disable_from(3, 0), std::out_of_range);
}

TEST(ScheduleDisable, EvaluatorStopsCountingEnergy) {
  // One charger, one always-active task straight ahead; disable halfway.
  model::TimeGrid time;
  time.slot_seconds = 60.0;
  time.rho = 0.0;
  std::vector<model::Charger> chargers = {{{0.0, 0.0}}};
  model::Task task;
  task.position = {10.0, 0.0};
  task.orientation = kPi;
  task.release_slot = 0;
  task.end_slot = 4;
  task.required_energy = 1e9;
  task.weight = 1.0;
  const model::Network net(chargers, {task}, testing_helpers::tiny_power(), time);

  model::Schedule schedule(1, 4);
  for (model::SlotIndex k = 0; k < 4; ++k) schedule.assign(0, k, 0.0);
  const double full = core::evaluate_schedule(net, schedule).task_energy[0];

  schedule.disable_from(0, 2);
  const double halved = core::evaluate_schedule(net, schedule).task_energy[0];
  EXPECT_NEAR(halved, full / 2.0, 1e-9);
}

TEST(OnlineFailures, FailureReducesUtility) {
  double with_failures = 0.0;
  double without = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 4, 10, 5);
    OnlineConfig healthy;
    healthy.colors = 1;
    OnlineConfig faulty = healthy;
    faulty.failures = {{0, 1}, {1, 2}};
    without += run_online(net, healthy).evaluation.weighted_utility;
    with_failures += run_online(net, faulty).evaluation.weighted_utility;
  }
  EXPECT_LE(with_failures, without + 1e-9);
}

TEST(OnlineFailures, DeadChargerDeliversNothingAfterFailure) {
  // Single charger network: failing it at slot 0 zeroes the outcome.
  util::Rng rng(7);
  const model::Network net = random_network(rng, 1, 4, 4);
  OnlineConfig config;
  config.colors = 1;
  config.failures = {{0, 0}};
  const OnlineResult result = run_online(net, config);
  EXPECT_DOUBLE_EQ(result.evaluation.weighted_utility, 0.0);
}

TEST(OnlineFailures, SurvivorsReplanToCover) {
  // Failure triggers an extra negotiation; the survivors' plan must still
  // deliver positive utility when at least one charger remains useful.
  util::Rng rng(8);
  const model::Network net = random_network(rng, 4, 12, 5);
  OnlineConfig config;
  config.colors = 1;
  const std::uint64_t base_negotiations = run_online(net, config).negotiations;
  config.failures = {{0, 2}};
  const OnlineResult result = run_online(net, config);
  EXPECT_GE(result.negotiations, base_negotiations);
  EXPECT_GE(result.evaluation.weighted_utility, 0.0);
}

TEST(OnlineFailures, FailedChargerStopsMessaging) {
  // With n = 2 neighbors, failing one before any task is released means all
  // post-failure negotiations involve a single node: no VALUE messages can
  // be exchanged between two alive nodes.
  std::vector<model::Charger> chargers = {{{0.0, 0.0}}, {{2.0, 0.0}}};
  model::Task task;
  task.position = {1.0, 0.0};
  task.orientation = 0.0;  // omnidirectional receiving in tiny_power()
  task.release_slot = 2;
  task.end_slot = 8;
  task.required_energy = 1e7;
  task.weight = 1.0;
  model::TimeGrid time;
  time.tau = 1;
  const model::Network net(chargers, {task}, testing_helpers::tiny_power(), time);

  OnlineConfig config;
  config.colors = 1;
  config.failures = {{1, 0}};
  const OnlineResult faulty = run_online(net, config);

  OnlineConfig healthy;
  healthy.colors = 1;
  const OnlineResult both = run_online(net, healthy);
  // Two-charger negotiation exchanges strictly more broadcasts than the
  // single-survivor one.
  EXPECT_LT(faulty.messages, both.messages);
  EXPECT_GT(faulty.evaluation.weighted_utility, 0.0);  // survivor still charges
}

TEST(OnlineFailures, InvalidFailureEntriesIgnored) {
  util::Rng rng(9);
  const model::Network net = random_network(rng, 2, 4, 3);
  OnlineConfig config;
  config.colors = 1;
  config.failures = {{-1, 0}, {99, 1}};
  EXPECT_NO_THROW(run_online(net, config));
}

TEST(OnlineFailures, TelemetryLogRecordsTriggers) {
  util::Rng rng(12);
  const model::Network net = random_network(rng, 3, 8, 4);
  OnlineConfig config;
  config.colors = 1;
  config.failures = {{1, 1}};
  const OnlineResult result = run_online(net, config);
  ASSERT_EQ(result.log.size(), result.negotiations);
  std::uint64_t logged_messages = 0;
  bool saw_failure = false;
  bool saw_arrival = false;
  model::SlotIndex previous_slot = 0;
  for (const NegotiationRecord& record : result.log) {
    EXPECT_GE(record.event_slot, previous_slot);
    previous_slot = record.event_slot;
    EXPECT_EQ(record.plan_start,
              std::min<model::SlotIndex>(record.event_slot + net.time().tau,
                                         net.horizon()));
    EXPECT_GE(record.known_tasks, 1u);
    EXPECT_LE(record.alive_chargers, static_cast<std::size_t>(net.charger_count()));
    logged_messages += record.messages;
    saw_failure |= record.trigger == ReplanTrigger::kFailure;
    saw_arrival |= record.trigger == ReplanTrigger::kArrival;
  }
  EXPECT_EQ(logged_messages, result.messages);
  EXPECT_TRUE(saw_arrival);
  // The failure at slot 1 triggers a re-plan only if tasks were known and
  // the horizon allows one; with release slots starting at 0 it does.
  EXPECT_TRUE(saw_failure);
}

TEST(OnlineFailures, AliveCountDropsAcrossFailureRecords) {
  util::Rng rng(13);
  const model::Network net = random_network(rng, 4, 10, 5);
  OnlineConfig config;
  config.colors = 1;
  config.failures = {{0, 1}, {1, 2}};
  const OnlineResult result = run_online(net, config);
  std::size_t min_alive = static_cast<std::size_t>(net.charger_count());
  for (const NegotiationRecord& record : result.log) {
    min_alive = std::min(min_alive, record.alive_chargers);
  }
  EXPECT_LE(min_alive, static_cast<std::size_t>(net.charger_count()) - 2);
}

TEST(OnlineFailures, Deterministic) {
  util::Rng rng(10);
  const model::Network net = random_network(rng, 3, 8, 4);
  OnlineConfig config;
  config.colors = 2;
  config.samples = 4;
  config.failures = {{1, 2}};
  const OnlineResult a = run_online(net, config);
  const OnlineResult b = run_online(net, config);
  EXPECT_EQ(a.evaluation.weighted_utility, b.evaluation.weighted_utility);
  EXPECT_EQ(a.messages, b.messages);
}

// The library counts each plan's deliveries as its senders' alive degrees;
// the checked run replays the same failures (arrivals first on slot ties,
// disable_from, an alive-restricted fleet) and makes every delivery on its
// bus. Both protocols must agree with it on the schedule and on every
// Fig. 16 counter, with no pricing mismatch.
TEST(OnlineFailures, CheckedRunMatchesSession) {
  std::size_t failure_plans = 0;
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 6, 16, 6);
    for (const OnlineStrategy strategy :
         {OnlineStrategy::kHaste, OnlineStrategy::kHasteSequential}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " "
                   << (strategy == OnlineStrategy::kHaste ? "election" : "token"));
      OnlineConfig config;
      config.strategy = strategy;
      config.colors = 2;
      config.samples = 8;
      config.seed = seed;
      config.failures = {{1, 2}, {4, 3}};
      const OnlineResult session = run_online(net, config);
      const oracle::CheckedRun checked = oracle::run_online_checked(net, config);
      const OnlineResult& reference = checked.result;

      EXPECT_TRUE(checked.mismatches.empty())
          << checked.mismatches.size() << " mismatches, first: " << checked.mismatches.front();
      EXPECT_EQ(io::schedule_to_json(session.schedule).dump(),
                io::schedule_to_json(reference.schedule).dump());
      EXPECT_EQ(session.messages, reference.messages);
      EXPECT_EQ(session.deliveries, reference.deliveries);
      EXPECT_EQ(session.message_bytes, reference.message_bytes);
      EXPECT_EQ(session.rounds, reference.rounds);
      ASSERT_EQ(session.log.size(), reference.log.size());
      for (std::size_t r = 0; r < session.log.size(); ++r) {
        EXPECT_EQ(session.log[r].trigger, reference.log[r].trigger) << "plan " << r;
        EXPECT_EQ(session.log[r].alive_chargers, reference.log[r].alive_chargers) << "plan " << r;
        EXPECT_EQ(session.log[r].deliveries, reference.log[r].deliveries) << "plan " << r;
        if (session.log[r].trigger == ReplanTrigger::kFailure) ++failure_plans;
      }
    }
  }
  // Failures must actually re-plan around a shrunken fleet.
  EXPECT_GE(failure_plans, 6u);
}

}  // namespace
}  // namespace haste::dist
