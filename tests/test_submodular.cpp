// Tests for core/submodular.hpp: the HASTE-R objective is normalized,
// monotone and submodular (Lemma 4.2), its constraint is a partition matroid
// (Lemma 4.1), and the reference maximizers behave.
#include "oracle/submodular.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "test_helpers.hpp"

namespace haste::core {
namespace {

using testing_helpers::random_network;

TEST(HasteRObjective, EmptySetIsZero) {
  util::Rng rng(1);
  const model::Network net = random_network(rng, 3, 5);
  const auto partitions = build_partitions(net);
  const HasteRObjective f(net, partitions);
  EXPECT_DOUBLE_EQ(f.value({}), 0.0);
}

TEST(HasteRObjective, SingletonValueMatchesDirectComputation) {
  util::Rng rng(2);
  const model::Network net = random_network(rng, 2, 4);
  const auto partitions = build_partitions(net);
  const HasteRObjective f(net, partitions);
  if (f.ground_size() == 0) GTEST_SKIP() << "degenerate instance";
  const ElementId e = 0;
  const kernels::RowView rows = f.rows_of(e);
  double expected = 0.0;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    expected += net.weighted_task_utility(rows.tasks[t], rows.delta[t]);
  }
  const std::vector<ElementId> set = {e};
  EXPECT_NEAR(f.value(set), expected, 1e-12);
}

TEST(HasteRObjective, MatroidMatchesPartitions) {
  util::Rng rng(3);
  const model::Network net = random_network(rng, 3, 6);
  const auto partitions = build_partitions(net);
  const HasteRObjective f(net, partitions);
  const PartitionMatroid matroid = f.matroid();
  EXPECT_EQ(matroid.ground_size(), f.ground_size());
  // Two elements of the same partition are dependent; different partitions
  // with one element each are independent.
  for (const auto& group : f.elements_by_partition()) {
    if (group.size() >= 2) {
      EXPECT_FALSE(matroid.is_independent(std::vector<ElementId>{group[0], group[1]}));
    }
    if (!group.empty()) {
      EXPECT_TRUE(matroid.is_independent(std::vector<ElementId>{group[0]}));
    }
  }
}

class ObjectiveProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObjectiveProperties, MonotoneOnRandomInstances) {
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 3, 6);
  const auto partitions = build_partitions(net);
  const HasteRObjective f(net, partitions);
  util::Rng check_rng(GetParam() * 7 + 1);
  EXPECT_LE(max_monotonicity_violation(f, check_rng, 300), 1e-10);
}

TEST_P(ObjectiveProperties, SubmodularOnRandomInstances) {
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 3, 6);
  const auto partitions = build_partitions(net);
  const HasteRObjective f(net, partitions);
  util::Rng check_rng(GetParam() * 7 + 2);
  EXPECT_LE(max_submodularity_violation(f, check_rng, 300), 1e-10);
}

TEST_P(ObjectiveProperties, SubmodularWithConcaveShapes) {
  // The extension to general concave utilities must preserve Lemma 4.2.
  for (const char* shape : {"sqrt", "log"}) {
    util::Rng rng(GetParam());
    std::vector<model::Charger> chargers;
    std::vector<model::Task> tasks;
    {
      const model::Network base = random_network(rng, 3, 6);
      chargers = base.chargers();
      tasks = base.tasks();
    }
    const model::Network net(chargers, tasks, testing_helpers::tiny_power(),
                             model::TimeGrid{}, model::make_utility_shape(shape));
    const auto partitions = build_partitions(net);
    const HasteRObjective f(net, partitions);
    util::Rng check_rng(GetParam() * 7 + 3);
    EXPECT_LE(max_submodularity_violation(f, check_rng, 200), 1e-10) << shape;
    EXPECT_LE(max_monotonicity_violation(f, check_rng, 200), 1e-10) << shape;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectiveProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ReferenceGreedy, RespectsMatroid) {
  util::Rng rng(20);
  const model::Network net = random_network(rng, 3, 6);
  const auto partitions = build_partitions(net);
  const HasteRObjective f(net, partitions);
  const auto chosen = locally_greedy(f, f.elements_by_partition());
  EXPECT_TRUE(f.matroid().is_independent(chosen));
}

TEST(ReferenceGreedy, AtLeastHalfOfExhaustive) {
  // Classical 1/2 guarantee of the locally greedy algorithm (the paper's
  // C = 1 case), checked exactly against exhaustive search on tiny ground
  // sets.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 2, 3, 2);
    const auto partitions = build_partitions(net);
    const HasteRObjective f(net, partitions);
    if (f.ground_size() == 0 || f.ground_size() > 10) continue;
    const double greedy = f.value(locally_greedy(f, f.elements_by_partition()));
    const double best = f.value(maximize_exhaustive(f, f.elements_by_partition()));
    EXPECT_GE(greedy, 0.5 * best - 1e-9) << "seed " << seed;
    EXPECT_LE(greedy, best + 1e-9);
  }
}

TEST(ExhaustiveMaximizer, FindsKnownOptimum) {
  util::Rng rng(30);
  const model::Network net = random_network(rng, 2, 3, 2);
  const auto partitions = build_partitions(net);
  const HasteRObjective f(net, partitions);
  if (f.ground_size() == 0 || f.ground_size() > 10) GTEST_SKIP();
  const auto best = maximize_exhaustive(f, f.elements_by_partition());
  // No single swap improves the exhaustive optimum.
  const double best_value = f.value(best);
  for (const auto& group : f.elements_by_partition()) {
    for (ElementId e : group) {
      std::vector<ElementId> alt;
      for (ElementId x : best) {
        if (f.partition_of(x) != f.partition_of(e)) alt.push_back(x);
      }
      alt.push_back(e);
      EXPECT_LE(f.value(alt), best_value + 1e-9);
    }
  }
}

}  // namespace
}  // namespace haste::core
