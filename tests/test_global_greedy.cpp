// Tests for core/global_greedy.hpp — the lazy global matroid greedy.
#include "core/global_greedy.hpp"

#include <gtest/gtest.h>

#include "core/evaluate.hpp"
#include "core/offline.hpp"
#include "core/submodular.hpp"
#include "test_helpers.hpp"

namespace haste::core {
namespace {

using testing_helpers::random_network;

TEST(GlobalGreedy, AllModesMatchExactly) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 3, 8, 4);
    const GlobalGreedyResult eager =
        schedule_global_greedy(net, {GreedyMode::kEager});
    const GlobalGreedyResult lazy = schedule_global_greedy(net, {GreedyMode::kLazy});
    const GlobalGreedyResult incremental =
        schedule_global_greedy(net, {GreedyMode::kIncremental});
    EXPECT_NEAR(lazy.planned_relaxed_utility, eager.planned_relaxed_utility, 1e-9)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(incremental.planned_relaxed_utility, lazy.planned_relaxed_utility)
        << "seed " << seed;
    for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
      for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
        EXPECT_EQ(lazy.schedule.assignment(i, k), eager.schedule.assignment(i, k))
            << "seed " << seed << " charger " << i << " slot " << k;
        EXPECT_EQ(incremental.schedule.assignment(i, k), lazy.schedule.assignment(i, k))
            << "seed " << seed << " charger " << i << " slot " << k;
      }
    }
  }
}

TEST(GlobalGreedy, CheaperModesSaveEvaluations) {
  util::Rng rng(10);
  const model::Network net = random_network(rng, 4, 12, 5);
  const GlobalGreedyResult eager = schedule_global_greedy(net, {GreedyMode::kEager});
  const GlobalGreedyResult lazy = schedule_global_greedy(net, {GreedyMode::kLazy});
  const GlobalGreedyResult incremental =
      schedule_global_greedy(net, {GreedyMode::kIncremental});
  EXPECT_LE(lazy.evaluations, eager.evaluations);
  EXPECT_LE(incremental.evaluations, lazy.evaluations);
}

TEST(GlobalGreedy, RespectsPartitionMatroid) {
  util::Rng rng(11);
  const model::Network net = random_network(rng, 3, 8, 4);
  const GlobalGreedyResult result = schedule_global_greedy(net);
  // One assignment per (charger, slot) is structural in Schedule; check the
  // assignments are dominant-set witnesses of the right partition.
  const auto partitions = build_partitions(net);
  for (const auto& partition : partitions) {
    const model::SlotAssignment a =
        result.schedule.assignment(partition.charger, partition.slot);
    if (!a.has_value()) continue;
    const bool known = std::any_of(
        partition.policies.begin(), partition.policies.end(),
        [&](const PartitionPolicy& policy) { return policy.orientation == *a; });
    EXPECT_TRUE(known);
  }
}

TEST(GlobalGreedy, AtLeastHalfOfExhaustive) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 10 && checked < 4; ++seed) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 2, 3, 2);
    const auto partitions = build_partitions(net);
    const HasteRObjective f(net, partitions);
    if (f.ground_size() == 0 || f.ground_size() > 10) continue;
    ++checked;
    const GlobalGreedyResult result = schedule_global_greedy(net);
    const double optimum = f.value(maximize_exhaustive(f, f.elements_by_partition()));
    EXPECT_GE(result.planned_relaxed_utility, 0.5 * optimum - 1e-9) << "seed " << seed;
    EXPECT_LE(result.planned_relaxed_utility, optimum + 1e-9);
  }
  EXPECT_GT(checked, 0);
}

TEST(GlobalGreedy, ComparableToLocallyGreedy) {
  // Neither strictly dominates, but across instances global greedy should be
  // at least on par in aggregate.
  double global_total = 0.0;
  double local_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed * 13);
    const model::Network net = random_network(rng, 4, 10, 4);
    global_total += schedule_global_greedy(net).planned_relaxed_utility;
    OfflineConfig config;
    config.colors = 1;
    local_total += schedule_offline(net, config).planned_relaxed_utility;
  }
  EXPECT_GE(global_total, 0.98 * local_total);
}

TEST(GlobalGreedy, InitialEnergyRespected) {
  util::Rng rng(14);
  const model::Network net = random_network(rng, 2, 4, 3);
  std::vector<double> full(static_cast<std::size_t>(net.task_count()));
  for (std::size_t j = 0; j < full.size(); ++j) {
    full[j] = net.tasks()[j].required_energy;
  }
  const auto partitions = build_partitions(net);
  const GlobalGreedyResult result =
      schedule_global_greedy_over(net, partitions, {}, full);
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
      EXPECT_FALSE(result.schedule.assignment(i, k).has_value());
    }
  }
}

TEST(GlobalGreedy, EmptyNetwork) {
  const model::Network net({}, {}, testing_helpers::tiny_power(), model::TimeGrid{});
  const GlobalGreedyResult result = schedule_global_greedy(net);
  EXPECT_DOUBLE_EQ(result.planned_relaxed_utility, 0.0);
}

}  // namespace
}  // namespace haste::core
