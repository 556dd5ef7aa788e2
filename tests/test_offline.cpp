// Tests for core/offline.hpp — Algorithm 2.
#include "core/offline.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/greedy_utility.hpp"
#include "core/evaluate.hpp"
#include "core/global_greedy.hpp"
#include "oracle/submodular.hpp"
#include "test_helpers.hpp"

namespace haste::core {
namespace {

using testing_helpers::random_network;

TEST(Offline, ScheduleHasValidDimensions) {
  util::Rng rng(1);
  const model::Network net = random_network(rng, 4, 8);
  const OfflineResult result = schedule_offline(net);
  EXPECT_EQ(result.schedule.charger_count(), net.charger_count());
  EXPECT_EQ(result.schedule.horizon(), net.horizon());
}

TEST(Offline, DeterministicGivenSeed) {
  util::Rng rng(2);
  const model::Network net = random_network(rng, 4, 8);
  OfflineConfig config;
  config.colors = 4;
  config.samples = 8;
  config.seed = 123;
  const OfflineResult a = schedule_offline(net, config);
  const OfflineResult b = schedule_offline(net, config);
  EXPECT_EQ(a.planned_relaxed_utility, b.planned_relaxed_utility);
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
      EXPECT_EQ(a.schedule.assignment(i, k), b.schedule.assignment(i, k));
    }
  }
}

TEST(Offline, SingleColorMatchesReferenceLocallyGreedy) {
  // C = 1 is the locally greedy algorithm; the incremental engine must make
  // exactly the choices of the slow reference implementation (same partition
  // order, ties to the first/previous policy are handled identically when
  // marginals are distinct, so compare the achieved objective value).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 3, 6, 3);
    const auto partitions = build_partitions(net);
    const HasteRObjective f(net, partitions);

    OfflineConfig config;
    config.colors = 1;
    config.switch_avoiding_tiebreak = false;
    const OfflineResult result = schedule_offline_over(net, partitions, config, {});

    const auto reference = locally_greedy(f, f.elements_by_partition());
    EXPECT_NEAR(result.planned_relaxed_utility, f.value(reference), 1e-9)
        << "seed " << seed;
  }
}

TEST(Offline, PlannedValueMatchesRelaxedEvaluation) {
  // With C = 1 the planner's internal estimate is exact; playing the
  // schedule with rho = 0 must reproduce it... except that evaluation also
  // counts persistence bonuses (unassigned slots keep the old orientation),
  // so evaluation >= plan.
  util::Rng rng(7);
  model::TimeGrid time;
  time.rho = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    const model::Network net = random_network(rng, 3, 6, 3, geom::kTwoPi, time);
    OfflineConfig config;
    config.colors = 1;
    const OfflineResult result = schedule_offline(net, config);
    const EvaluationResult eval = evaluate_schedule(net, result.schedule);
    EXPECT_GE(eval.weighted_utility, result.planned_relaxed_utility - 1e-9);
  }
}

TEST(Offline, AtLeastHalfOfExhaustiveRelaxedOptimum) {
  // The C = 1 guarantee (1/2 for HASTE-R), verified exactly on tiny
  // instances via exhaustive search on the reference objective.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 10 && checked < 4; ++seed) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 2, 3, 2);
    const auto partitions = build_partitions(net);
    const HasteRObjective f(net, partitions);
    if (f.ground_size() == 0 || f.ground_size() > 10) continue;
    ++checked;
    OfflineConfig config;
    config.colors = 1;
    const OfflineResult result = schedule_offline_over(net, partitions, config, {});
    const double optimum = f.value(maximize_exhaustive(f, f.elements_by_partition()));
    EXPECT_GE(result.planned_relaxed_utility, 0.5 * optimum - 1e-9) << "seed " << seed;
  }
  EXPECT_GT(checked, 0);
}

TEST(Offline, SwitchAvoidingTiebreakNeverSwitchesMore) {
  util::Rng rng(8);
  for (int trial = 0; trial < 5; ++trial) {
    const model::Network net = random_network(rng, 3, 8, 5);
    OfflineConfig with_tiebreak;
    with_tiebreak.colors = 1;
    with_tiebreak.switch_avoiding_tiebreak = true;
    OfflineConfig without = with_tiebreak;
    without.switch_avoiding_tiebreak = false;
    const int switches_with =
        evaluate_schedule(net, schedule_offline(net, with_tiebreak).schedule).switches;
    const int switches_without =
        evaluate_schedule(net, schedule_offline(net, without).schedule).switches;
    EXPECT_LE(switches_with, switches_without) << "trial " << trial;
  }
}

TEST(Offline, InitialEnergySuppressesSaturatedTasks) {
  util::Rng rng(9);
  const model::Network net = random_network(rng, 3, 5, 3);
  std::vector<double> full(static_cast<std::size_t>(net.task_count()));
  for (std::size_t j = 0; j < full.size(); ++j) {
    full[j] = net.tasks()[j].required_energy;
  }
  const auto partitions = build_partitions(net);
  OfflineConfig config;
  config.colors = 1;
  config.commit_zero_marginal = false;
  const OfflineResult result = schedule_offline_over(net, partitions, config, full);
  // Everyone saturated: no policy has positive marginal, nothing assigned.
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
      EXPECT_FALSE(result.schedule.assignment(i, k).has_value());
    }
  }
}

TEST(Offline, MoreColorsNeverHurtsMuch) {
  // TabularGreedy's guarantee improves with C; empirically C=4 should be at
  // least on par with C=1 up to sampling noise on average.
  util::Rng rng(10);
  double total_c1 = 0.0;
  double total_c4 = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    const model::Network net = random_network(rng, 4, 10, 4);
    OfflineConfig c1;
    c1.colors = 1;
    OfflineConfig c4;
    c4.colors = 4;
    c4.samples = 32;
    total_c1 += evaluate_schedule(net, schedule_offline(net, c1).schedule).weighted_utility;
    total_c4 += evaluate_schedule(net, schedule_offline(net, c4).schedule).weighted_utility;
  }
  EXPECT_GE(total_c4, 0.9 * total_c1);
}

TEST(Offline, EmptyNetworkYieldsEmptySchedule) {
  const model::Network net({}, {}, testing_helpers::tiny_power(), model::TimeGrid{});
  const OfflineResult result = schedule_offline(net);
  EXPECT_EQ(result.schedule.charger_count(), 0);
  EXPECT_EQ(result.schedule.horizon(), 0);
  EXPECT_DOUBLE_EQ(result.planned_relaxed_utility, 0.0);
}

// A warm start must carry one energy per task: every scheduler that seeds
// itself from one used to read a shorter span past its end. Each entry point
// now throws std::invalid_argument naming both sizes (the sanitized twin
// would report the out-of-bounds read if a check went missing).
template <typename Run>
void expect_rejects_short_initial_energy(Run run) {
  util::Rng rng(5);
  const model::Network net = random_network(rng, 3, 8);
  const std::vector<double> short_energy(7, 100.0);
  try {
    run(net, std::span<const double>(short_energy));
    ADD_FAILURE() << "a 7-entry initial_energy for 8 tasks was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(" 7 "), std::string::npos) << message;
    EXPECT_NE(message.find(" 8 "), std::string::npos) << message;
  }
}

TEST(InitialEnergy, OfflineRejectsAShortSpan) {
  expect_rejects_short_initial_energy([](const model::Network& net,
                                         std::span<const double> energy) {
    schedule_offline_over(net, build_partitions(net), OfflineConfig{}, energy);
  });
}

TEST(InitialEnergy, GlobalGreedyRejectsAShortSpan) {
  expect_rejects_short_initial_energy([](const model::Network& net,
                                         std::span<const double> energy) {
    schedule_global_greedy_over(net, build_partitions(net), energy);
  });
}

TEST(InitialEnergy, GreedyUtilityRejectsAShortSpan) {
  expect_rejects_short_initial_energy([](const model::Network& net,
                                         std::span<const double> energy) {
    std::vector<model::TaskIndex> all(static_cast<std::size_t>(net.task_count()));
    for (std::size_t j = 0; j < all.size(); ++j) all[j] = static_cast<model::TaskIndex>(j);
    baseline::schedule_greedy_utility_over(net, all, 0, energy);
  });
}

}  // namespace
}  // namespace haste::core
