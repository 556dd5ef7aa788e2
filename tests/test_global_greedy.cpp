// Tests for core/global_greedy.hpp — the lazy global matroid greedy.
#include "core/global_greedy.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core/offline.hpp"
#include "io/scenario_io.hpp"
#include "oracle/global_greedy.hpp"
#include "oracle/submodular.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

namespace haste::core {
namespace {

using testing_helpers::random_network;

TEST(GlobalGreedy, AllModesMatchExactly) {
  // The lazy greedy against the eager reference, which re-evaluates every
  // popped entry: same schedule on these tie-free instances.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 3, 8, 4);
    const GlobalGreedyResult eager = oracle::eager_global_greedy(net);
    const GlobalGreedyResult lazy = schedule_global_greedy(net);
    EXPECT_NEAR(lazy.planned_relaxed_utility, eager.planned_relaxed_utility, 1e-9)
        << "seed " << seed;
    for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
      for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
        EXPECT_EQ(lazy.schedule.assignment(i, k), eager.schedule.assignment(i, k))
            << "seed " << seed << " charger " << i << " slot " << k;
      }
    }
  }
}

TEST(GlobalGreedy, CheaperModesSaveEvaluations) {
  util::Rng rng(10);
  const model::Network net = random_network(rng, 4, 12, 5);
  const GlobalGreedyResult eager = oracle::eager_global_greedy(net);
  const GlobalGreedyResult lazy = schedule_global_greedy(net);
  EXPECT_LE(lazy.evaluations, eager.evaluations);
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
  const GlobalGreedyResult result = schedule_global_greedy_over(net, partitions, full);
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

// Golden global-greedy battery: pins the executed schedule (FNV-1a of its
// JSON) and the planned-utility bits of fixed global-greedy runs, so any
// rewrite of the matroid greedy's evaluation loop must reproduce the
// reference trajectory exactly. Evaluation counts are not pinned: they
// measure oracle work, not results.

namespace golden {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char byte : text) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Golden {
  std::uint64_t schedule_fnv = 0;  ///< over io::schedule_to_json(...).dump()
  std::uint64_t planned_bits = 0;  ///< planned_relaxed_utility

  friend bool operator==(const Golden&, const Golden&) = default;
};

Golden golden_of(const GlobalGreedyResult& result) {
  return {fnv1a(io::schedule_to_json(result.schedule).dump()),
          std::bit_cast<std::uint64_t>(result.planned_relaxed_utility)};
}

void expect_golden(const GlobalGreedyResult& result, const Golden& expected) {
  const Golden actual = golden_of(result);
  EXPECT_TRUE(actual == expected)
      << std::hex << "actual {0x" << actual.schedule_fnv << "ULL, 0x" << actual.planned_bits
      << "ULL}\nexpected {0x" << expected.schedule_fnv << "ULL, 0x" << expected.planned_bits
      << "ULL}";
}

model::Network paper(int chargers, int tasks, std::uint64_t seed,
                     const std::string& decay = "none") {
  sim::ScenarioConfig config = sim::ScenarioConfig::paper_default();
  config.chargers = chargers;
  config.tasks = tasks;
  config.deadline_decay = decay;
  config.deadline_beta = 6.0;
  config.deadline_fraction = 0.7;
  util::Rng rng(seed);
  return sim::generate_scenario(config, rng);
}

}  // namespace golden

TEST(GlobalGreedyGolden, PaperScale) {
  golden::expect_golden(schedule_global_greedy(golden::paper(50, 200, 41)),
                        {0xff65b071fbb447f5ULL, 0x3fe75426b4f7f74dULL});
}

TEST(GlobalGreedyGolden, LinearDeadlines) {
  golden::expect_golden(schedule_global_greedy(golden::paper(50, 200, 42, "linear")),
                        {0x9fea974f63502d68ULL, 0x3fe4f76684f9a084ULL});
}

TEST(GlobalGreedyGolden, HardDeadlines) {
  golden::expect_golden(schedule_global_greedy(golden::paper(50, 200, 43, "hard")),
                        {0x660fa777006a0b36ULL, 0x3fe12a65fcd6165fULL});
}

TEST(GlobalGreedyGolden, WarmStartOverGroundSet) {
  // The re-plan shape: a ground set from a later slot over harvested energy.
  const model::Network net = golden::paper(50, 200, 44);
  util::Rng rng(144);
  std::vector<double> initial(static_cast<std::size_t>(net.task_count()));
  for (double& energy : initial) energy = rng.uniform(0.0, 8'000.0);
  golden::expect_golden(schedule_global_greedy_over(net, build_partitions(net, 20), initial),
                        {0xc5b092118c44118fULL, 0x3fe9c6cf95cb5fe5ULL});
}

}  // namespace
}  // namespace haste::core
