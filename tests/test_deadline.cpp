// Deadline-driven objective battery.
//
// Differentials: the greedy schedulers against the exact branch-and-bound
// optimum on deadline instances (the 1/2 guarantee must survive the plug-in
// objective), the batched (rebuild) offline scheduler vs the per-policy and
// incremental references, kernels on vs off, and online mode / node-reuse
// sweeps — all bit-identical contracts.
//
// Properties: tardiness decay monotone non-increasing, beta -> infinity
// reproduces the base objective bit for bit, hard mode never emits a row for
// a deadline-infeasible task (randomized 1000-case sweep), and the NaN /
// zero-deadline / negative-slack edges.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "baseline/brute_force.hpp"
#include "core/evaluate.hpp"
#include "core/global_greedy.hpp"
#include "core/kernels.hpp"
#include "core/objective.hpp"
#include "core/offline.hpp"
#include "dist/online.hpp"
#include "io/scenario_io.hpp"
#include "model/deadline.hpp"
#include "offline_reference.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"
#include "util/simd.hpp"

namespace haste {
namespace {

using testing_helpers::random_network;

/// Rebuilds `base` with deadlines drawn for ~`fraction` of its tasks under
/// the given decay policy. Deadline = release + U{1..duration}, so some
/// tasks finish comfortably early while others spend most of their window
/// tardy — the regime where the discount actually steers the greedy.
model::Network with_deadlines(const model::Network& base, util::Rng& rng,
                              model::DeadlinePolicy policy, double fraction = 0.8) {
  std::vector<model::Task> tasks = base.tasks();
  for (model::Task& task : tasks) {
    const bool carries = rng.uniform() < fraction;
    const model::SlotIndex duration = task.end_slot - task.release_slot;
    const auto grace =
        static_cast<model::SlotIndex>(rng.uniform_int(1, duration));
    if (carries) task.deadline_slot = task.release_slot + grace;
  }
  return model::Network(base.chargers(), std::move(tasks), base.power_model(),
                        base.time(), nullptr, policy);
}

void expect_equal_schedules(const model::Schedule& a, const model::Schedule& b) {
  ASSERT_EQ(a.charger_count(), b.charger_count());
  ASSERT_EQ(a.horizon(), b.horizon());
  for (model::ChargerIndex i = 0; i < a.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < a.horizon(); ++k) {
      const model::SlotAssignment x = a.assignment(i, k);
      const model::SlotAssignment y = b.assignment(i, k);
      ASSERT_EQ(x.has_value(), y.has_value()) << "charger " << i << " slot " << k;
      if (x.has_value()) {
        ASSERT_EQ(*x, *y) << "charger " << i << " slot " << k;
      }
    }
  }
}

std::vector<model::DeadlinePolicy> sweep_policies() {
  return {
      model::DeadlinePolicy{model::DeadlineDecay::kLinear, 2.0},
      model::DeadlinePolicy{model::DeadlineDecay::kExp, 3.0},
      model::DeadlinePolicy{model::DeadlineDecay::kHard, 0.0},
  };
}

class DeadlineSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  model::Network make_base(util::Rng& rng) {
    const int n = static_cast<int>(rng.uniform_int(2, 3));
    const int m = static_cast<int>(rng.uniform_int(3, 6));
    return random_network(rng, n, m, 3);
  }
};

TEST_P(DeadlineSweep, GreedyKeepsHalfGuaranteeAgainstBruteForce) {
  // The tardiness discount is applied to the rows before they enter the
  // partitions, so the objective stays monotone submodular and both greedy
  // families must keep the 1/2 bound against the exact optimum.
  util::Rng rng(GetParam());
  const model::Network base = make_base(rng);
  for (const model::DeadlinePolicy& policy : sweep_policies()) {
    const model::Network net = with_deadlines(base, rng, policy);
    const baseline::BruteForceResult opt = baseline::optimal_relaxed(net, 3'000'000);
    if (!opt.exhausted) GTEST_SKIP() << "instance too large for exact search";

    const core::GlobalGreedyResult global = core::schedule_global_greedy(net);
    core::OfflineConfig config;
    config.colors = 1;
    const core::OfflineResult local = core::schedule_offline(net, config);

    EXPECT_GE(opt.relaxed_utility, global.planned_relaxed_utility - 1e-9);
    EXPECT_GE(opt.relaxed_utility, local.planned_relaxed_utility - 1e-9);
    EXPECT_GE(global.planned_relaxed_utility, 0.5 * opt.relaxed_utility - 1e-9);
    EXPECT_GE(local.planned_relaxed_utility, 0.5 * opt.relaxed_utility - 1e-9);
  }
}

TEST_P(DeadlineSweep, RebuildAndIncrementalBitIdentical) {
  util::Rng rng(GetParam() * 7 + 1);
  const model::Network base = make_base(rng);
  for (const model::DeadlinePolicy& policy : sweep_policies()) {
    const model::Network net = with_deadlines(base, rng, policy);
    const auto partitions = core::build_partitions(net);
    core::OfflineConfig config;
    config.colors = 2;
    config.samples = 4;
    const core::OfflineResult rebuild =
        core::schedule_offline_over(net, partitions, config, {});
    for (const testing_helpers::ReferencePricing pricing :
         {testing_helpers::ReferencePricing::kPerPolicy,
          testing_helpers::ReferencePricing::kIncremental}) {
      const core::OfflineResult reference =
          testing_helpers::reference_offline(net, partitions, config, {}, pricing);
      expect_equal_schedules(rebuild.schedule, reference.schedule);
      EXPECT_EQ(rebuild.planned_relaxed_utility, reference.planned_relaxed_utility);
    }
  }
}

TEST_P(DeadlineSweep, KernelsOnOffBitIdentical) {
  if (!util::kernels_compiled()) GTEST_SKIP() << "kernels compiled out";
  util::Rng rng(GetParam() * 13 + 2);
  const model::Network base = make_base(rng);
  for (const model::DeadlinePolicy& policy : sweep_policies()) {
    const model::Network net = with_deadlines(base, rng, policy);
    core::OfflineConfig config;
    config.colors = 2;
    config.samples = 4;
    model::Schedule scalar(net.charger_count(), net.horizon());
    model::Schedule kernel(net.charger_count(), net.horizon());
    double scalar_utility = 0.0;
    double kernel_utility = 0.0;
    {
      util::ScopedKernelToggle off(false);
      const core::OfflineResult result = core::schedule_offline(net, config);
      scalar = result.schedule;
      scalar_utility = result.planned_relaxed_utility;
    }
    {
      util::ScopedKernelToggle on(true);
      const core::OfflineResult result = core::schedule_offline(net, config);
      kernel = result.schedule;
      kernel_utility = result.planned_relaxed_utility;
    }
    expect_equal_schedules(scalar, kernel);
    EXPECT_EQ(scalar_utility, kernel_utility);
  }
}

TEST_P(DeadlineSweep, OnlineModeAndReuseBitIdentical) {
  util::Rng rng(GetParam() * 29 + 3);
  const model::Network base = make_base(rng);
  const model::Network net = with_deadlines(
      base, rng, model::DeadlinePolicy{model::DeadlineDecay::kLinear, 2.0});

  dist::OnlineConfig config;
  config.colors = 2;
  config.samples = 4;
  config.mode = core::TabularMode::kRebuild;
  config.reuse_nodes = false;
  const dist::OnlineResult reference = dist::run_online(net, config);
  config.mode = core::TabularMode::kIncremental;
  config.reuse_nodes = true;
  const dist::OnlineResult warm = dist::run_online(net, config);

  expect_equal_schedules(reference.schedule, warm.schedule);
  EXPECT_EQ(reference.evaluation.weighted_utility, warm.evaluation.weighted_utility);
}

TEST_P(DeadlineSweep, PrefixEnergyAgreesWithFullEvaluation) {
  // prefix_task_energy over the whole horizon and evaluate_schedule's
  // effective energies are two calls into the playback loop with the same
  // discount rule — they must agree bit for bit (the online re-plan seeds
  // its engines from the former, the figures report the latter).
  util::Rng rng(GetParam() * 31 + 4);
  const model::Network base = make_base(rng);
  const model::Network net = with_deadlines(
      base, rng, model::DeadlinePolicy{model::DeadlineDecay::kExp, 2.0});
  core::OfflineConfig config;
  config.colors = 1;
  const core::OfflineResult result = core::schedule_offline(net, config);
  const core::EvaluationResult eval = core::evaluate_schedule(net, result.schedule);
  const std::vector<double> prefix =
      core::prefix_task_energy(net, result.schedule, net.horizon());
  ASSERT_EQ(prefix.size(), eval.task_effective_energy.size());
  for (std::size_t j = 0; j < prefix.size(); ++j) {
    EXPECT_EQ(prefix[j], eval.task_effective_energy[j]) << "task " << j;
    EXPECT_LE(eval.task_effective_energy[j], eval.task_energy[j] + 1e-12);
  }
}

TEST_P(DeadlineSweep, SerializationPreservesDeadlineOutcome) {
  util::Rng rng(GetParam() * 37 + 5);
  const model::Network base = make_base(rng);
  const model::Network net = with_deadlines(
      base, rng, model::DeadlinePolicy{model::DeadlineDecay::kLinear, 3.0});
  const model::Network restored = io::network_from_json(io::network_to_json(net));

  ASSERT_EQ(restored.task_count(), net.task_count());
  for (std::size_t j = 0; j < net.tasks().size(); ++j) {
    EXPECT_EQ(restored.tasks()[j].deadline_slot, net.tasks()[j].deadline_slot);
  }
  EXPECT_EQ(restored.deadline_policy().decay, net.deadline_policy().decay);
  EXPECT_EQ(restored.deadline_policy().beta, net.deadline_policy().beta);

  core::OfflineConfig config;
  config.colors = 2;
  config.samples = 4;
  const core::OfflineResult a = core::schedule_offline(net, config);
  const core::OfflineResult b = core::schedule_offline(restored, config);
  expect_equal_schedules(a.schedule, b.schedule);
  EXPECT_EQ(core::evaluate_schedule(net, a.schedule).weighted_utility,
            core::evaluate_schedule(restored, b.schedule).weighted_utility);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeadlineSweep,
                         ::testing::Values(3, 14, 159, 2653, 58979));

// ---------------------------------------------------------------------------
// Property / fuzz battery.

TEST(DeadlinePolicy, FactorMonotoneNonIncreasingAndBounded) {
  const std::vector<double> betas{0.5, 1.0, 8.0, 1e6};
  for (const model::DeadlineDecay decay :
       {model::DeadlineDecay::kLinear, model::DeadlineDecay::kExp,
        model::DeadlineDecay::kHard}) {
    for (const double beta : betas) {
      const model::DeadlinePolicy policy{decay, beta};
      double previous = 1.0;
      for (model::SlotIndex lateness = 1; lateness <= 200; ++lateness) {
        const double f = policy.factor(lateness);
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.0);
        EXPECT_LE(f, previous) << model::DeadlinePolicy::decay_name(decay)
                               << " beta " << beta << " L " << lateness;
        previous = f;
      }
    }
  }
}

TEST(DeadlinePolicy, InfiniteBetaReproducesBaseObjectiveBitwise) {
  // beta -> infinity: L / inf == 0 in IEEE, so both decays evaluate to
  // exactly 1.0 and a deadline instance must reproduce the deadline-free
  // schedule and utility bit for bit.
  const double inf = std::numeric_limits<double>::infinity();
  util::Rng rng(4242);
  const model::Network base = random_network(rng, 3, 6, 3);
  for (const model::DeadlineDecay decay :
       {model::DeadlineDecay::kLinear, model::DeadlineDecay::kExp}) {
    util::Rng deadline_rng(99);
    const model::Network net =
        with_deadlines(base, deadline_rng, model::DeadlinePolicy{decay, inf}, 1.0);
    ASSERT_TRUE(net.has_deadlines());

    core::OfflineConfig config;
    config.colors = 2;
    config.samples = 4;
    const core::OfflineResult with = core::schedule_offline(net, config);
    const core::OfflineResult without = core::schedule_offline(base, config);
    expect_equal_schedules(with.schedule, without.schedule);
    EXPECT_EQ(with.planned_relaxed_utility, without.planned_relaxed_utility);
    EXPECT_EQ(core::evaluate_schedule(net, with.schedule).weighted_utility,
              core::evaluate_schedule(base, without.schedule).weighted_utility);
  }
}

TEST(DeadlinePolicy, HardModeNeverEmitsAnInfeasibleRow) {
  // 1000-case randomized sweep: under hard decay, no partition may contain a
  // row for a task whose deadline window cannot physically reach its
  // required energy, and every surviving row sits strictly before its
  // task's deadline (tardy rows have factor 0 and are dropped).
  const model::DeadlinePolicy hard{model::DeadlineDecay::kHard, 0.0};
  int rows_checked = 0;
  for (std::uint64_t c = 0; c < 1000; ++c) {
    util::Rng rng(util::Rng::stream_seed(777, c));
    const int n = static_cast<int>(rng.uniform_int(1, 3));
    const int m = static_cast<int>(rng.uniform_int(1, 6));
    const model::Network base = random_network(rng, n, m, 3);
    const model::Network net = with_deadlines(base, rng, hard, 0.9);
    const auto partitions = core::build_partitions(net);
    for (const core::PolicyPartition& partition : partitions) {
      for (std::size_t q = 0; q < partition.policies.size(); ++q) {
        for (const model::TaskIndex j : partition.policy_tasks(q)) {
          ++rows_checked;
          ASSERT_FALSE(net.deadline_infeasible(j))
              << "case " << c << ": infeasible task " << j << " kept a row";
          ASSERT_GT(net.tardiness_factor(j, partition.slot), 0.0)
              << "case " << c << ": tardy hard row survived, task " << j
              << " slot " << partition.slot;
        }
      }
    }
  }
  EXPECT_GT(rows_checked, 0);
}

TEST(DeadlinePolicy, BatchedKernelFactorsMatchTheScalarNetworkPath) {
  // The kernel layer's batched tardiness_factors and the scalar
  // Network::tardiness_factor both reduce to DeadlinePolicy::slot_factor;
  // pin that they agree bitwise on every (task, slot), including infeasible
  // hard-mode tasks (0 everywhere) and deadline-free tasks (exactly 1).
  for (const model::DeadlinePolicy& policy : sweep_policies()) {
    util::Rng rng(4242);
    const model::Network base = random_network(rng, 3, 8, 4);
    const model::Network net = with_deadlines(base, rng, policy, 0.7);
    const core::kernels::UtilityTable table = core::kernels::UtilityTable::from(net);
    std::vector<model::TaskIndex> tasks(static_cast<std::size_t>(net.task_count()));
    for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
      tasks[static_cast<std::size_t>(j)] = j;
    }
    std::vector<double> factors(tasks.size());
    for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
      core::kernels::tardiness_factors(table, tasks, k, factors.data());
      for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
        EXPECT_EQ(factors[static_cast<std::size_t>(j)], net.tardiness_factor(j, k))
            << "decay " << model::DeadlinePolicy::decay_name(policy.decay)
            << " task " << j << " slot " << k;
        EXPECT_EQ(table.tardiness_factor(j, k), net.tardiness_factor(j, k));
      }
    }
  }
}

TEST(DeadlinePolicy, TighterBetaNeverImprovesAFixedSchedule) {
  // Monotonicity in tightness: evaluating the SAME schedule under a smaller
  // beta (harsher decay) can only lose utility.
  util::Rng rng(1337);
  const model::Network base = random_network(rng, 3, 6, 3);
  util::Rng deadline_rng(55);
  const model::Network gentle = with_deadlines(
      base, deadline_rng, model::DeadlinePolicy{model::DeadlineDecay::kLinear, 8.0});
  std::vector<model::Task> tasks = gentle.tasks();  // same deadlines
  const model::Network harsh(gentle.chargers(), std::move(tasks),
                             gentle.power_model(), gentle.time(), nullptr,
                             model::DeadlinePolicy{model::DeadlineDecay::kLinear, 2.0});

  core::OfflineConfig config;
  config.colors = 1;
  const core::OfflineResult plan = core::schedule_offline(gentle, config);
  const double gentle_utility =
      core::evaluate_schedule(gentle, plan.schedule).weighted_utility;
  const double harsh_utility =
      core::evaluate_schedule(harsh, plan.schedule).weighted_utility;
  EXPECT_LE(harsh_utility, gentle_utility + 1e-12);
}

TEST(DeadlinePolicy, NanAndNonPositiveBetaActAsHard) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double beta : {nan, 0.0, -3.0}) {
    for (const model::DeadlineDecay decay :
         {model::DeadlineDecay::kLinear, model::DeadlineDecay::kExp}) {
      const model::DeadlinePolicy policy{decay, beta};
      EXPECT_EQ(policy.factor(1), 0.0);
      EXPECT_EQ(policy.factor(100), 0.0);
      // Pre-deadline slots stay at exactly 1 regardless of the bad beta.
      EXPECT_EQ(policy.slot_factor(0, 5), 1.0);
    }
  }
}

TEST(DeadlinePolicy, DeadlineAtOrBeforeReleaseIsLegalAndFiniteEverywhere) {
  // Negative slack: a deadline at (or before) the release slot makes every
  // active slot tardy. The instance stays valid and every reported quantity
  // stays finite; under hard decay such a task simply earns nothing.
  util::Rng rng(2024);
  const model::Network base = random_network(rng, 2, 4, 3);
  std::vector<model::Task> tasks = base.tasks();
  tasks[0].deadline_slot = tasks[0].release_slot;  // zero slack
  tasks[1].deadline_slot = 0;                      // at-origin deadline
  for (const model::DeadlinePolicy policy :
       {model::DeadlinePolicy{model::DeadlineDecay::kLinear, 2.0},
        model::DeadlinePolicy{model::DeadlineDecay::kHard, 0.0}}) {
    std::vector<model::Task> copy = tasks;
    const model::Network net(base.chargers(), std::move(copy), base.power_model(),
                             base.time(), nullptr, policy);
    core::OfflineConfig config;
    config.colors = 1;
    const core::OfflineResult plan = core::schedule_offline(net, config);
    const core::EvaluationResult eval = core::evaluate_schedule(net, plan.schedule);
    EXPECT_TRUE(std::isfinite(eval.weighted_utility));
    for (std::size_t j = 0; j < eval.task_utility.size(); ++j) {
      EXPECT_TRUE(std::isfinite(eval.task_utility[j]));
      EXPECT_GE(eval.task_utility[j], 0.0);
      EXPECT_LE(eval.task_utility[j], 1.0);
    }
    if (policy.decay == model::DeadlineDecay::kHard) {
      EXPECT_EQ(eval.task_effective_energy[0], 0.0);
      EXPECT_EQ(eval.task_effective_energy[1], 0.0);
    }
  }
}

TEST(DeadlinePolicy, NegativeDeadlineSlotRejectedByValidate) {
  model::Task task;
  task.position = {1.0, 1.0};
  task.release_slot = 0;
  task.end_slot = 2;
  task.required_energy = 100.0;
  task.deadline_slot = -1;
  EXPECT_THROW(task.validate(), std::invalid_argument);
}

TEST(DeadlineScenario, GeneratorHonorsKnobsAndStaysBackwardCompatible) {
  sim::ScenarioConfig config = sim::ScenarioConfig::small_scale();
  config.tasks = 40;

  // Default decay "none": bit-identical RNG stream to the historical
  // generator — same seed, same geometry, no deadlines.
  util::Rng rng_a(7);
  const model::Network plain = sim::generate_scenario(config, rng_a);
  EXPECT_FALSE(plain.has_deadlines());
  for (const model::Task& task : plain.tasks()) {
    EXPECT_FALSE(task.has_deadline());
  }

  config.deadline_decay = "linear";
  config.deadline_beta = 4.0;
  config.deadline_fraction = 0.5;
  util::Rng rng_b(7);
  const model::Network dl = sim::generate_scenario(config, rng_b);
  EXPECT_TRUE(dl.has_deadlines());
  ASSERT_EQ(dl.task_count(), plain.task_count());
  int with = 0;
  for (std::size_t j = 0; j < dl.tasks().size(); ++j) {
    // The deadline draws ride after the base draws, so the population
    // geometry matches the deadline-free generator's.
    EXPECT_EQ(dl.tasks()[j].release_slot, plain.tasks()[j].release_slot);
    EXPECT_EQ(dl.tasks()[j].end_slot, plain.tasks()[j].end_slot);
    if (dl.tasks()[j].has_deadline()) {
      ++with;
      EXPECT_GT(dl.tasks()[j].deadline_slot, dl.tasks()[j].release_slot);
      EXPECT_LE(dl.tasks()[j].deadline_slot, dl.tasks()[j].end_slot);
    }
  }
  EXPECT_GT(with, 0);
  EXPECT_LT(with, static_cast<int>(dl.task_count()));

  config.deadline_fraction = 2.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.deadline_fraction = 0.5;
  config.deadline_decay = "sometimes";
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(DeadlineScenario, OnlineNegotiationSurvivesFullyPrunedChargers) {
  // Regression: on a paper-scale deadline instance, a charger whose every
  // coverable task is deadline-dropped at some slot contributes no stage
  // policies and stays silent, yet its neighbors used to wait on an
  // `active`-only participation test for a value that never came — the
  // stage deadlocked and the round cap threw "online negotiation failed to
  // converge". This exact population (paper preset, 10 chargers, 30 tasks,
  // seed 11, linear beta 4, fraction 0.8) reproduced the hang end to end.
  sim::ScenarioConfig config = sim::ScenarioConfig::paper_default();
  config.chargers = 10;
  config.tasks = 30;
  config.deadline_decay = "linear";
  config.deadline_beta = 4.0;
  config.deadline_fraction = 0.8;
  util::Rng rng(11);
  const model::Network net = sim::generate_scenario(config, rng);
  ASSERT_TRUE(net.has_deadlines());

  dist::OnlineConfig online;
  online.colors = 4;
  online.samples = 16;
  dist::OnlineResult result;
  ASSERT_NO_THROW(result = dist::run_online(net, online));
  EXPECT_GE(result.evaluation.weighted_utility, 0.0);

  // The negotiated schedule must agree with what the serve daemon replays,
  // which shares this code path; a second run is deterministic.
  const dist::OnlineResult again = dist::run_online(net, online);
  EXPECT_EQ(result.evaluation.weighted_utility, again.evaluation.weighted_utility);
}

}  // namespace
}  // namespace haste
