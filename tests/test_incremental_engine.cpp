// Differential property tests for the incremental marginal-evaluation stack:
//
//  * the span/CSR evaluation path of MarginalEngine reproduces the seed
//    (per-Policy) path bit-for-bit, including against an independent
//    reference that replays the engine's accumulation from scratch;
//  * the lazy global greedy reaches the eager reference's utility on
//    randomized instances with at most its evaluations (strictly fewer on
//    nontrivial instances);
//  * per-(task, sample) version counters track exactly the tasks a commit
//    touched;
//  * the HASTE-R incremental evaluator matches from-scratch values along
//    random push/pop trajectories.
#include <gtest/gtest.h>

#include <vector>

#include "core/global_greedy.hpp"
#include "core/objective.hpp"
#include "oracle/global_greedy.hpp"
#include "oracle/submodular.hpp"
#include "test_helpers.hpp"

namespace haste::core {
namespace {

using testing_helpers::owned_policy;
using testing_helpers::random_network;

/// Replays the engine's energy accumulation independently and computes one
/// marginal gain with exactly the seed operation order: iterate the policy's
/// rows, sum u(after) - u(before).
double reference_gain(const model::Network& net, const std::vector<double>& energy,
                      const Policy& policy) {
  double gain = 0.0;
  for (std::size_t t = 0; t < policy.tasks.size(); ++t) {
    const auto j = static_cast<std::size_t>(policy.tasks[t]);
    const double before = energy[j];
    const double after = before + policy.slot_energy[t];
    gain += net.weighted_task_utility(policy.tasks[t], after) -
            net.weighted_task_utility(policy.tasks[t], before);
  }
  return gain;
}

class IncrementalEngineSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  model::Network make_network() {
    util::Rng rng(GetParam());
    const int n = static_cast<int>(rng.uniform_int(2, 5));
    const int m = static_cast<int>(rng.uniform_int(4, 12));
    return random_network(rng, n, m, 5);
  }
};

TEST_P(IncrementalEngineSweep, SpanPathMatchesPolicyPathBitForBit) {
  // Walk a greedy-like trajectory: at every step compare the CSR-span
  // marginal, the Policy-vector marginal, and the independent reference —
  // all three must agree to the last bit — then commit and continue.
  const model::Network net = make_network();
  const auto partitions = build_partitions(net);
  MarginalEngine engine(net, {1, 1, 1});
  std::vector<double> energy(static_cast<std::size_t>(net.task_count()), 0.0);

  for (const PolicyPartition& partition : partitions) {
    for (std::size_t q = 0; q < partition.policies.size(); ++q) {
      const Policy policy = owned_policy(partition, q);
      const double via_policy =
          engine.marginal(partition.charger, partition.slot, policy, 0);
      const double via_span =
          engine.marginal(partition.charger, partition.slot,
                          partition.policy_tasks(q), partition.policy_energy(q), 0);
      EXPECT_EQ(via_policy, via_span);  // bit-for-bit
      EXPECT_EQ(via_span, reference_gain(net, energy, policy));
    }
    // Commit policy 0 and mirror it in the reference accumulation.
    engine.commit(partition.charger, partition.slot, partition.policy_tasks(0),
                  partition.policy_energy(0), 0);
    const Policy committed = owned_policy(partition, 0);
    for (std::size_t t = 0; t < committed.tasks.size(); ++t) {
      energy[static_cast<std::size_t>(committed.tasks[t])] += committed.slot_energy[t];
    }
  }
}

TEST_P(IncrementalEngineSweep, GreedyModesAgreeAndEvaluationsAreOrdered) {
  const model::Network net = make_network();
  const GlobalGreedyResult eager = oracle::eager_global_greedy(net);
  const GlobalGreedyResult lazy = schedule_global_greedy(net);
  // Eager may commit a different but equal-gain element when a refreshed
  // gain lands within its 1e-15 commit tolerance of the cached bound, so
  // compare by utility, not by schedule.
  EXPECT_DOUBLE_EQ(lazy.planned_relaxed_utility, eager.planned_relaxed_utility);
  EXPECT_LE(lazy.evaluations, eager.evaluations);
}

TEST_P(IncrementalEngineSweep, VersionCountersTrackTouchedTasksExactly) {
  const model::Network net = make_network();
  const auto partitions = build_partitions(net);
  if (partitions.empty()) GTEST_SKIP() << "degenerate instance";
  MarginalEngine engine(net, {1, 1, 1});

  // Replicate the version rule independently: with one sample every commit
  // applies, and a row bumps its task's sample-0 version exactly when the
  // added energy moved the task's utility (saturated tasks stay at their
  // version forever).
  std::vector<std::uint64_t> expected(static_cast<std::size_t>(net.task_count()), 0);
  std::vector<double> energy(static_cast<std::size_t>(net.task_count()), 0.0);
  std::uint64_t commits = 0;
  for (const PolicyPartition& partition : partitions) {
    const Policy policy = owned_policy(partition, partition.policies.size() - 1);
    engine.commit(partition.charger, partition.slot, policy, 0);
    ++commits;
    for (std::size_t t = 0; t < policy.tasks.size(); ++t) {
      const auto j = static_cast<std::size_t>(policy.tasks[t]);
      const double before = energy[j];
      const double after = before + policy.slot_energy[t];
      if (net.weighted_task_utility(policy.tasks[t], after) !=
          net.weighted_task_utility(policy.tasks[t], before)) {
        ++expected[j];
      }
      energy[j] = after;
    }
    for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
      EXPECT_EQ(engine.sample_version(0, j), expected[static_cast<std::size_t>(j)])
          << "task " << j << " after commit " << commits;
    }
  }
  EXPECT_EQ(engine.commit_count(), commits);
}

TEST_P(IncrementalEngineSweep, IncrementalObjectiveMatchesFromScratch) {
  const model::Network net = make_network();
  const auto partitions = build_partitions(net);
  const HasteRObjective f(net, partitions);
  if (f.ground_size() == 0) GTEST_SKIP() << "degenerate instance";

  const auto inc = f.incremental();
  std::vector<ElementId> stack;
  util::Rng rng(GetParam() * 31 + 7);
  for (int step = 0; step < 200; ++step) {
    const bool push = stack.empty() || rng.uniform() < 0.6;
    if (push) {
      const auto e = static_cast<ElementId>(rng.uniform_index(f.ground_size()));
      stack.push_back(e);
      inc->push(e);
    } else {
      stack.pop_back();
      inc->pop();
    }
    EXPECT_NEAR(inc->value(), f.value(stack), 1e-9) << "step " << step;
  }
  // Draining the stack restores the empty-set value exactly (pop is an exact
  // undo, so no drift can accumulate).
  const double empty = f.value({});
  while (!stack.empty()) {
    stack.pop_back();
    inc->pop();
  }
  EXPECT_EQ(inc->value(), empty);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEngineSweep,
                         ::testing::Values(3, 17, 29, 41, 53, 67, 79, 97));

TEST_P(IncrementalEngineSweep, SampleVersionsBumpOnlyInMatchingSamples) {
  // With a multi-sample panel a commit for color c applies only in the
  // samples whose panel color at (charger, slot) is c: exactly those samples'
  // per-(task, sample) counters may move, and the rest must stay untouched.
  const model::Network net = make_network();
  const auto partitions = build_partitions(net);
  if (partitions.empty()) GTEST_SKIP() << "degenerate instance";
  const MarginalEngine::Config config{4, 16, GetParam()};
  MarginalEngine engine(net, config);

  std::vector<std::vector<std::uint64_t>> expected(
      static_cast<std::size_t>(config.samples),
      std::vector<std::uint64_t>(static_cast<std::size_t>(net.task_count()), 0));
  std::vector<std::vector<double>> energy(
      static_cast<std::size_t>(config.samples),
      std::vector<double>(static_cast<std::size_t>(net.task_count()), 0.0));

  int color = 0;
  for (const PolicyPartition& partition : partitions) {
    const Policy policy = owned_policy(partition, 0);
    engine.commit(partition.charger, partition.slot, policy, color);
    for (int s = 0; s < config.samples; ++s) {
      if (MarginalEngine::panel_color(config.seed, s, partition.charger,
                                      partition.slot, config.colors) != color) {
        continue;
      }
      for (std::size_t t = 0; t < policy.tasks.size(); ++t) {
        const auto j = static_cast<std::size_t>(policy.tasks[t]);
        const double before = energy[static_cast<std::size_t>(s)][j];
        const double after = before + policy.slot_energy[t];
        if (net.weighted_task_utility(policy.tasks[t], after) !=
            net.weighted_task_utility(policy.tasks[t], before)) {
          ++expected[static_cast<std::size_t>(s)][j];
        }
        energy[static_cast<std::size_t>(s)][j] = after;
      }
    }
    color = (color + 1) % config.colors;
  }

  for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
    for (int s = 0; s < config.samples; ++s) {
      EXPECT_EQ(engine.sample_version(s, j),
                expected[static_cast<std::size_t>(s)][static_cast<std::size_t>(j)])
          << "task " << j << " sample " << s;
    }
  }
}

TEST(IncrementalEngine, StatsCountRowTermsAndMarginals) {
  util::Rng rng(5);
  const model::Network net = random_network(rng, 3, 8, 3);
  const auto partitions = build_partitions(net);
  ASSERT_FALSE(partitions.empty());
  MarginalEngine engine(net, {1, 1, 1});  // C = 1: every commit applies
  EXPECT_EQ(engine.stats().row_terms, 0u);
  EXPECT_EQ(engine.stats().marginals, 0u);
  EXPECT_EQ(engine.stats().commits, 0u);

  const PolicyPartition& partition = partitions.front();
  const Policy policy = owned_policy(partition, 0);
  engine.marginal(partition.charger, partition.slot, policy, 0);
  EXPECT_EQ(engine.stats().marginals, 1u);
  engine.row_term(0, policy.tasks.front(), 1.0);
  EXPECT_GT(engine.stats().row_terms, 0u);
  engine.commit(partition.charger, partition.slot, policy, 0);
  EXPECT_EQ(engine.stats().commits, 1u);
}

TEST(IncrementalEngine, StrictEvaluationSavingsOnDenseInstance) {
  // On a nontrivially overlapping instance the ordering is strict: eager
  // re-evaluates every popped entry, lazy only those from an older epoch.
  util::Rng rng(12345);
  const model::Network net = random_network(rng, 5, 16, 6);
  const GlobalGreedyResult eager = oracle::eager_global_greedy(net);
  const GlobalGreedyResult lazy = schedule_global_greedy(net);
  ASSERT_GT(lazy.evaluations, 0u);
  EXPECT_LT(lazy.evaluations, eager.evaluations);
}

}  // namespace
}  // namespace haste::core
