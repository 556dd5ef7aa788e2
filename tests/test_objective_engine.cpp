// Tests for core/objective.hpp: ground-set construction and the incremental
// MarginalEngine against the slow reference objective.
#include "core/objective.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/submodular.hpp"
#include "test_helpers.hpp"

namespace haste::core {
namespace {

using testing_helpers::owned_policy;
using testing_helpers::random_network;

TEST(BuildPartitions, SlotMajorOrderAndActivityFilter) {
  util::Rng rng(1);
  const model::Network net = random_network(rng, 3, 8, 5);
  const auto partitions = build_partitions(net);
  model::SlotIndex last_slot = 0;
  for (const auto& partition : partitions) {
    EXPECT_GE(partition.slot, last_slot);
    last_slot = partition.slot;
    EXPECT_FALSE(partition.policies.empty());
    for (std::size_t q = 0; q < partition.policies.size(); ++q) {
      const Policy policy = owned_policy(partition, q);
      ASSERT_EQ(policy.tasks.size(), policy.slot_energy.size());
      EXPECT_FALSE(policy.tasks.empty());
      for (std::size_t t = 0; t < policy.tasks.size(); ++t) {
        EXPECT_TRUE(net.tasks()[static_cast<std::size_t>(policy.tasks[t])].active(
            partition.slot))
            << "inactive task in policy";
        EXPECT_NEAR(policy.slot_energy[t],
                    net.potential_power(partition.charger, policy.tasks[t]) *
                        net.time().slot_seconds,
                    1e-9);
      }
    }
  }
}

TEST(BuildPartitions, NoDuplicateActiveSetsWithinPartition) {
  util::Rng rng(2);
  const model::Network net = random_network(rng, 3, 10, 4);
  for (const auto& partition : build_partitions(net)) {
    std::set<std::vector<model::TaskIndex>> seen;
    for (std::size_t q = 0; q < partition.policies.size(); ++q) {
      const Policy policy = owned_policy(partition, q);
      EXPECT_TRUE(seen.insert(policy.tasks).second) << "duplicate active set";
    }
  }
}

TEST(BuildPartitions, FirstSlotSkipsEarlierSlots) {
  util::Rng rng(3);
  const model::Network net = random_network(rng, 3, 8, 5);
  for (const auto& partition : build_partitions(net, 2)) {
    EXPECT_GE(partition.slot, 2);
  }
}

TEST(BuildPartitions, CandidateRestriction) {
  util::Rng rng(4);
  const model::Network net = random_network(rng, 3, 8, 4);
  const std::vector<model::TaskIndex> candidates = {0, 1, 2};
  for (const auto& partition : build_partitions(net, 0, candidates)) {
    for (std::size_t q = 0; q < partition.policies.size(); ++q) {
      for (model::TaskIndex j : partition.policy_tasks(q)) {
        EXPECT_LE(j, 2);
      }
    }
  }
}

TEST(PanelColor, DeterministicAndInRange) {
  for (int c : {1, 2, 4, 8}) {
    for (int s = 0; s < 4; ++s) {
      const int color = MarginalEngine::panel_color(42, s, 3, 7, c);
      EXPECT_GE(color, 0);
      EXPECT_LT(color, c);
      EXPECT_EQ(color, MarginalEngine::panel_color(42, s, 3, 7, c));
    }
  }
  EXPECT_EQ(MarginalEngine::panel_color(42, 0, 0, 0, 1), 0);
}

TEST(PanelColor, RoughlyUniform) {
  constexpr int kColors = 4;
  int counts[kColors] = {0, 0, 0, 0};
  for (int i = 0; i < 100; ++i) {
    for (int k = 0; k < 100; ++k) {
      ++counts[MarginalEngine::panel_color(7, 0, i, k, kColors)];
    }
  }
  for (int c : counts) {
    EXPECT_GT(c, 2000);
    EXPECT_LT(c, 3000);
  }
}

TEST(FinalColor, DiffersFromPanelSaltAndIsStable) {
  const int a = MarginalEngine::final_color(42, 3, 7, 8);
  EXPECT_EQ(a, MarginalEngine::final_color(42, 3, 7, 8));
  EXPECT_GE(a, 0);
  EXPECT_LT(a, 8);
}

TEST(MarginalEngine, SingleColorIsExact) {
  // With C = 1 the engine's marginal must equal f(S + e) - f(S) of the
  // reference objective, step by step along a greedy run.
  util::Rng rng(5);
  const model::Network net = random_network(rng, 3, 6, 3);
  const auto partitions = build_partitions(net);
  const HasteRObjective f(net, partitions);
  MarginalEngine engine(net, {1, 1, 99});

  std::vector<ElementId> chosen;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const auto& elements = f.elements_by_partition()[p];
    for (std::size_t q = 0; q < partitions[p].policies.size(); ++q) {
      const Policy policy = owned_policy(partitions[p], q);
      const double fast =
          engine.marginal(partitions[p].charger, partitions[p].slot, policy, 0);
      std::vector<ElementId> extended = chosen;
      extended.push_back(elements[q]);
      const double slow = f.value(extended) - f.value(chosen);
      EXPECT_NEAR(fast, slow, 1e-10);
    }
    // Commit the first policy and continue.
    engine.commit(partitions[p].charger, partitions[p].slot, owned_policy(partitions[p], 0), 0);
    chosen.push_back(elements[0]);
    EXPECT_NEAR(engine.expected_value(), f.value(chosen), 1e-10);
  }
}

TEST(MarginalEngine, CommitReturnsRealizedMarginal) {
  util::Rng rng(6);
  const model::Network net = random_network(rng, 2, 4, 3);
  const auto partitions = build_partitions(net);
  if (partitions.empty()) GTEST_SKIP();
  MarginalEngine engine(net, {1, 1, 7});
  const auto& partition = partitions[0];
  const double predicted =
      engine.marginal(partition.charger, partition.slot, owned_policy(partition, 0), 0);
  const double realized =
      engine.commit(partition.charger, partition.slot, owned_policy(partition, 0), 0);
  EXPECT_DOUBLE_EQ(predicted, realized);
}

TEST(MarginalEngine, MarginalsShrinkAfterCommit) {
  // Submodularity in action: committing a policy cannot increase any other
  // policy's marginal for the same color.
  util::Rng rng(7);
  const model::Network net = random_network(rng, 3, 5, 3);
  const auto partitions = build_partitions(net);
  if (partitions.size() < 2) GTEST_SKIP();
  MarginalEngine engine(net, {1, 1, 7});
  std::vector<double> before;
  for (std::size_t q = 0; q < partitions[1].policies.size(); ++q) {
    before.push_back(engine.marginal(partitions[1].charger, partitions[1].slot,
                                     owned_policy(partitions[1], q), 0));
  }
  engine.commit(partitions[0].charger, partitions[0].slot, owned_policy(partitions[0], 0), 0);
  for (std::size_t q = 0; q < partitions[1].policies.size(); ++q) {
    const double after = engine.marginal(partitions[1].charger, partitions[1].slot,
                                         owned_policy(partitions[1], q), 0);
    EXPECT_LE(after, before[q] + 1e-12);
  }
}

TEST(MarginalEngine, InitialEnergyShiftsUtilities) {
  util::Rng rng(8);
  const model::Network net = random_network(rng, 2, 3, 2);
  std::vector<double> initial(static_cast<std::size_t>(net.task_count()));
  for (std::size_t j = 0; j < initial.size(); ++j) {
    initial[j] = net.tasks()[j].required_energy;  // everyone already full
  }
  MarginalEngine engine(net, {1, 1, 7}, initial);
  EXPECT_NEAR(engine.expected_value(), net.utility_upper_bound(), 1e-12);
  // All marginals must be zero: tasks are saturated.
  for (const auto& partition : build_partitions(net)) {
    for (std::size_t q = 0; q < partition.policies.size(); ++q) {
      EXPECT_NEAR(engine.marginal(partition.charger, partition.slot,
                                  owned_policy(partition, q), 0),
                  0.0, 1e-12);
    }
  }
}

TEST(MarginalEngine, ColorsPartitionTheSamples) {
  // A commit with color c only affects samples whose panel color matches, so
  // committing under every color exactly once accumulates the full energy.
  util::Rng rng(9);
  const model::Network net = random_network(rng, 2, 3, 2);
  const auto partitions = build_partitions(net);
  if (partitions.empty()) GTEST_SKIP();
  const auto& partition = partitions[0];
  const Policy policy = owned_policy(partition, 0);

  MarginalEngine multi(net, {4, 64, 11});
  double total = 0.0;
  for (int c = 0; c < 4; ++c) {
    total += multi.commit(partition.charger, partition.slot, policy, c);
  }
  MarginalEngine exact(net, {1, 1, 11});
  const double expected = exact.commit(partition.charger, partition.slot, policy, 0);
  EXPECT_NEAR(total, expected, 1e-9);
}

TEST(MarginalEngine, ClampsDegenerateConfig) {
  util::Rng rng(10);
  const model::Network net = random_network(rng, 1, 2, 2);
  MarginalEngine engine(net, {0, 0, 1});
  EXPECT_EQ(engine.colors(), 1);
  EXPECT_EQ(engine.samples(), 1);
}

}  // namespace
}  // namespace haste::core
