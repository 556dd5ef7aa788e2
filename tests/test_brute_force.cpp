// Tests for baseline/brute_force.hpp — the exact HASTE-R optimum.
#include "baseline/brute_force.hpp"

#include <gtest/gtest.h>

#include "core/evaluate.hpp"
#include "core/offline.hpp"
#include "oracle/submodular.hpp"
#include "test_helpers.hpp"

namespace haste::baseline {
namespace {

using testing_helpers::random_network;

TEST(BruteForce, MatchesExhaustiveReferenceOnTinyInstances) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 12 && checked < 5; ++seed) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 2, 3, 2);
    const auto partitions = core::build_partitions(net);
    const core::HasteRObjective f(net, partitions);
    if (f.ground_size() == 0 || f.ground_size() > 9) continue;
    ++checked;
    const BruteForceResult result = optimal_relaxed(net);
    const double reference =
        f.value(core::maximize_exhaustive(f, f.elements_by_partition()));
    EXPECT_TRUE(result.exhausted);
    EXPECT_NEAR(result.relaxed_utility, reference, 1e-9) << "seed " << seed;
  }
  EXPECT_GT(checked, 0);
}

TEST(BruteForce, ScheduleAchievesReportedValue) {
  util::Rng rng(3);
  const model::Network net = random_network(rng, 2, 4, 2);
  const BruteForceResult result = optimal_relaxed(net);
  // Playing the returned schedule with rho ignored must reach at least the
  // reported relaxed objective (persistence can only add energy).
  const core::EvaluationResult eval = core::evaluate_schedule(net, result.schedule);
  EXPECT_GE(eval.relaxed_weighted_utility, result.relaxed_utility - 1e-9);
}

TEST(BruteForce, DominatesGreedy) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 3, 4, 2);
    const BruteForceResult opt = optimal_relaxed(net);
    if (!opt.exhausted) continue;
    core::OfflineConfig config;
    config.colors = 1;
    const core::OfflineResult greedy = core::schedule_offline(net, config);
    EXPECT_GE(opt.relaxed_utility, greedy.planned_relaxed_utility - 1e-9)
        << "seed " << seed;
    // And the 1/2 guarantee the other way.
    EXPECT_GE(greedy.planned_relaxed_utility, 0.5 * opt.relaxed_utility - 1e-9)
        << "seed " << seed;
  }
}

TEST(BruteForce, BudgetExhaustionIsReported) {
  util::Rng rng(4);
  const model::Network net = random_network(rng, 4, 10, 4);
  const BruteForceResult result = optimal_relaxed(net, /*node_budget=*/50);
  EXPECT_FALSE(result.exhausted);
  // Even then the result is a valid lower bound achieved by a real schedule.
  EXPECT_GE(result.relaxed_utility, 0.0);
}

TEST(BruteForce, EmptyNetwork) {
  const model::Network net({}, {}, testing_helpers::tiny_power(), model::TimeGrid{});
  const BruteForceResult result = optimal_relaxed(net);
  EXPECT_TRUE(result.exhausted);
  EXPECT_DOUBLE_EQ(result.relaxed_utility, 0.0);
}

TEST(BruteForce, SingleChargerPicksBestPolicyPerSlot) {
  // With one charger and non-interacting tasks, the optimum is simply the
  // best policy per slot; verify against a direct computation.
  util::Rng rng(5);
  const model::Network net = random_network(rng, 1, 4, 3);
  const auto partitions = core::build_partitions(net);
  const core::HasteRObjective f(net, partitions);
  if (f.ground_size() == 0) GTEST_SKIP();
  const BruteForceResult result = optimal_relaxed(net);
  const double reference =
      f.value(core::maximize_exhaustive(f, f.elements_by_partition()));
  EXPECT_NEAR(result.relaxed_utility, reference, 1e-9);
}

}  // namespace
}  // namespace haste::baseline
