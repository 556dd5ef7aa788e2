// Tests for core/local_search.hpp — the swap-improvement pass.
#include "core/local_search.hpp"

#include <gtest/gtest.h>

#include "baseline/random_orient.hpp"
#include "core/evaluate.hpp"
#include "core/offline.hpp"
#include "oracle/submodular.hpp"
#include "test_helpers.hpp"

namespace haste::core {
namespace {

using testing_helpers::random_network;

TEST(LocalSearch, NeverDecreasesTheRelaxedObjective) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 3, 8, 4);
    const auto partitions = build_partitions(net);
    const model::Schedule start = baseline::schedule_random(net, seed);
    const LocalSearchResult result = improve_schedule(net, partitions, start);
    EXPECT_GE(result.relaxed_utility, result.initial_relaxed_utility - 1e-9)
        << "seed " << seed;
  }
}

TEST(LocalSearch, ImprovesARandomScheduleSubstantially) {
  double improved = 0.0;
  double initial = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed * 3);
    const model::Network net = random_network(rng, 4, 10, 4);
    const auto partitions = build_partitions(net);
    const model::Schedule start = baseline::schedule_random(net, seed);
    const LocalSearchResult result = improve_schedule(net, partitions, start);
    improved += result.relaxed_utility;
    initial += result.initial_relaxed_utility;
  }
  EXPECT_GT(improved, initial * 1.01);
}

TEST(LocalSearch, GreedyOutputIsNearLocallyOptimal) {
  // Improving the greedy schedule should change little (greedy is already a
  // per-partition argmax given earlier picks; local search fixes only
  // cross-ordering artifacts).
  util::Rng rng(9);
  const model::Network net = random_network(rng, 4, 10, 4);
  const auto partitions = build_partitions(net);
  OfflineConfig config;
  config.colors = 1;
  const OfflineResult greedy = schedule_offline(net, config);
  const LocalSearchResult result = improve_schedule(net, partitions, greedy.schedule);
  EXPECT_GE(result.relaxed_utility, result.initial_relaxed_utility - 1e-9);
  EXPECT_LE(result.relaxed_utility, result.initial_relaxed_utility * 1.2 + 1e-9);
}

TEST(LocalSearch, ResultConsistentWithReferenceObjective) {
  util::Rng rng(12);
  const model::Network net = random_network(rng, 3, 6, 3);
  const auto partitions = build_partitions(net);
  const model::Schedule start = baseline::schedule_random(net, 5);
  const LocalSearchResult result = improve_schedule(net, partitions, start);

  // Recompute the relaxed objective of the improved schedule from scratch.
  const core::EvaluationResult eval = evaluate_schedule(net, result.schedule);
  // Persistence can add energy the local-search objective does not track, so
  // evaluation with rho = 0 must be at least the reported value.
  EXPECT_GE(eval.relaxed_weighted_utility, result.relaxed_utility - 1e-9);
}

TEST(LocalSearch, StopsWithinPassBudget) {
  util::Rng rng(13);
  const model::Network net = random_network(rng, 3, 8, 4);
  const auto partitions = build_partitions(net);
  LocalSearchConfig config;
  config.max_passes = 2;
  const LocalSearchResult result =
      improve_schedule(net, partitions, baseline::schedule_random(net, 5), config);
  EXPECT_LE(result.passes, 2);
}

TEST(LocalSearch, FixedPointOnConvergedSchedule) {
  // Running the improver twice: the second run must find nothing to swap.
  util::Rng rng(14);
  const model::Network net = random_network(rng, 3, 8, 4);
  const auto partitions = build_partitions(net);
  const LocalSearchResult first =
      improve_schedule(net, partitions, baseline::schedule_random(net, 6));
  const LocalSearchResult second = improve_schedule(net, partitions, first.schedule);
  EXPECT_EQ(second.swaps, 0);
  EXPECT_NEAR(second.relaxed_utility, first.relaxed_utility, 1e-9);
}

TEST(LocalSearch, EmptyScheduleGetsFilled) {
  util::Rng rng(15);
  const model::Network net = random_network(rng, 3, 6, 3);
  const auto partitions = build_partitions(net);
  const model::Schedule empty(net.charger_count(), net.horizon());
  const LocalSearchResult result = improve_schedule(net, partitions, empty);
  EXPECT_DOUBLE_EQ(result.initial_relaxed_utility, 0.0);
  if (!partitions.empty()) {
    EXPECT_GT(result.relaxed_utility, 0.0);
    EXPECT_GT(result.swaps, 0);
  }
}

}  // namespace
}  // namespace haste::core
