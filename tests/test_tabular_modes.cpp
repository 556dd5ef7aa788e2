// Differential tests for the TabularGreedy evaluation modes. Offline: the
// library's batched scheduler, which rebuilds every marginal from scratch each
// stage, must be bit-identical — same schedules, same planned utilities — to
// the per-policy reference and to the incremental reference, whose
// per-(task, sample) dirty tracking re-prices only the rows whose utilities
// moved, across panel shapes, tie-break settings and warm starts. Both price
// through the scalar oracle (tests/oracle/pricing.hpp). Online: the nodes'
// cached pricing must walk the exact trajectory of the fresh-marginal
// reference (tests/oracle/negotiation.hpp).
// Saturation: the batched scheduler's unpriced saturated columns must not
// change a bit against the reference, which prices every row.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/offline.hpp"
#include "dist/online.hpp"
#include "model/deadline.hpp"
#include "model/utility.hpp"
#include "offline_reference.hpp"
#include "oracle/negotiation.hpp"
#include "test_helpers.hpp"

namespace haste {
namespace {

using testing_helpers::random_network;
using testing_helpers::reference_offline;
using testing_helpers::ReferencePricing;

void expect_identical_schedules(const model::Schedule& a, const model::Schedule& b) {
  ASSERT_EQ(a.charger_count(), b.charger_count());
  ASSERT_EQ(a.horizon(), b.horizon());
  for (model::ChargerIndex i = 0; i < a.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < a.horizon(); ++k) {
      EXPECT_EQ(a.assignment(i, k), b.assignment(i, k))
          << "charger " << i << " slot " << k;
    }
  }
}

core::OfflineConfig offline_config(int colors, int samples, std::uint64_t seed,
                                   bool tiebreak) {
  core::OfflineConfig config;
  config.colors = colors;
  config.samples = samples;
  config.seed = seed;
  config.switch_avoiding_tiebreak = tiebreak;
  return config;
}

// The batched scheduler against both reference pricings on one instance.
void expect_offline_matches_references(const model::Network& net,
                                       const std::vector<core::PolicyPartition>& partitions,
                                       const core::OfflineConfig& config,
                                       std::span<const double> initial = {}) {
  const core::OfflineResult rebuild =
      core::schedule_offline_over(net, partitions, config, initial);
  const core::OfflineResult per_policy =
      reference_offline(net, partitions, config, initial, ReferencePricing::kPerPolicy);
  const core::OfflineResult incremental =
      reference_offline(net, partitions, config, initial, ReferencePricing::kIncremental);
  EXPECT_EQ(rebuild.planned_relaxed_utility, per_policy.planned_relaxed_utility);
  expect_identical_schedules(rebuild.schedule, per_policy.schedule);
  EXPECT_EQ(rebuild.row_evaluations, per_policy.row_evaluations);
  EXPECT_EQ(rebuild.marginal_evaluations, per_policy.marginal_evaluations);
  EXPECT_EQ(rebuild.planned_relaxed_utility, incremental.planned_relaxed_utility);
  expect_identical_schedules(rebuild.schedule, incremental.schedule);
  // Cached terms must actually be reused, or the incremental side is vacuous.
  EXPECT_LT(incremental.row_evaluations, per_policy.row_evaluations);
}

class TabularModeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// The core property: for every panel shape and either tie-break setting, all
// pricings walk the exact same greedy trajectory.
TEST_P(TabularModeDifferential, OfflineIncrementalMatchesRebuild) {
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 6, 14, 4);
  const auto partitions = core::build_partitions(net);
  for (const int colors : {1, 2, 4, 8}) {
    for (const int samples : {1, 16}) {
      for (const bool tiebreak : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "C=" << colors << " S=" << samples
                                          << " tiebreak=" << tiebreak);
        expect_offline_matches_references(
            net, partitions, offline_config(colors, samples, GetParam(), tiebreak));
      }
    }
  }
}

// Warm starts (online re-planning) seed the engine with nonzero energies.
TEST_P(TabularModeDifferential, OfflineWithInitialEnergyMatches) {
  util::Rng rng(GetParam() + 1000);
  const model::Network net = random_network(rng, 5, 12, 4);
  const auto partitions = core::build_partitions(net);
  std::vector<double> initial(static_cast<std::size_t>(net.task_count()));
  for (double& e : initial) e = rng.uniform(0.0, 2000.0);
  expect_offline_matches_references(net, partitions, offline_config(4, 16, GetParam(), true),
                                    initial);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TabularModeDifferential,
                         ::testing::Range<std::uint64_t>(1, 21));

// The batched scheduler prices a partition column only while its task is
// below its required energy in the sample; a saturated column's term is
// written as +0.0 without pricing. This sweep pins that skip against the
// per-policy reference, which prices every row: the three built-in shapes
// (whose terms the skip relies on being exactly +0.0) and one kCustom shape
// (which must keep full pricing), under every deadline decay (deadline
// discounts scale row deltas by a factor in [0, 1]), from a cold start and
// from warm starts that put each task exactly at its required energy, one
// ulp below it, above it, or at 0. A task one ulp below crosses saturation
// within the first commit that reaches it (e < E <= e + d), so a skip that
// tested e + d instead of e would drop a positive term and fail here.
class SaturationSkip : public ::testing::TestWithParam<std::uint64_t> {};

/// `base` with the given shape and deadline decay; ~70% of its tasks get a
/// deadline release + U{1..duration} when the decay is active. Weights are
/// redrawn around `base`'s 1/m, which is a power of two for m = 16: a
/// multiply by a power of two is exact, so such weights would hide where a
/// term's weight multiply rounds.
model::Network saturation_instance(const model::Network& base, util::Rng& rng,
                                   std::shared_ptr<const model::UtilityShape> shape,
                                   model::DeadlinePolicy policy) {
  std::vector<model::Task> tasks = base.tasks();
  for (model::Task& task : tasks) task.weight *= rng.uniform(0.6, 1.4);
  if (policy.active()) {
    for (model::Task& task : tasks) {
      const auto duration = task.end_slot - task.release_slot;
      const auto grace = static_cast<model::SlotIndex>(rng.uniform_int(1, duration));
      if (rng.uniform() < 0.7) task.deadline_slot = task.release_slot + grace;
    }
  }
  return model::Network(base.chargers(), std::move(tasks), base.power_model(), base.time(),
                        std::move(shape), policy);
}

/// Per task, one of: exactly E, one ulp below E, 1.5 E, or 0.
std::vector<double> saturation_warm_start(const model::Network& net, util::Rng& rng) {
  std::vector<double> initial;
  for (const model::Task& task : net.tasks()) {
    const double required = task.required_energy;
    switch (rng.uniform_int(0, 3)) {
      case 0: initial.push_back(required); break;
      case 1: initial.push_back(std::nextafter(required, 0.0)); break;
      case 2: initial.push_back(1.5 * required); break;
      default: initial.push_back(0.0); break;
    }
  }
  return initial;
}

TEST_P(SaturationSkip, BatchedMatchesFullPricingAcrossShapesAndDeadlines) {
  util::Rng rng(GetParam());
  const model::Network base = random_network(rng, 6, 16, 5);
  const std::vector<std::shared_ptr<const model::UtilityShape>> shapes = {
      std::make_shared<model::LinearBoundedShape>(),
      std::make_shared<model::SqrtBoundedShape>(),
      std::make_shared<model::LogBoundedShape>(),
      std::make_shared<testing_helpers::PowShape>()};
  const std::vector<model::DeadlinePolicy> policies = {
      {},
      {model::DeadlineDecay::kLinear, 2.0},
      {model::DeadlineDecay::kExp, 3.0},
      {model::DeadlineDecay::kHard, 0.0}};
  for (const auto& shape : shapes) {
    for (const model::DeadlinePolicy& policy : policies) {
      const model::Network net = saturation_instance(base, rng, shape, policy);
      const auto partitions = core::build_partitions(net);
      const std::vector<double> warm = saturation_warm_start(net, rng);
      for (const bool warm_start : {false, true}) {
        for (const int colors : {1, 4}) {
          SCOPED_TRACE(::testing::Message()
                       << "shape=" << shape->name() << " decay="
                       << static_cast<int>(policy.decay) << " warm=" << warm_start
                       << " C=" << colors);
          core::OfflineConfig config = offline_config(colors, 16, GetParam(), true);
          // Zero-gain commits turn the selection skip off; half the seeds
          // cover them.
          config.commit_zero_marginal = GetParam() % 2 == 0;
          const std::span<const double> initial =
              warm_start ? std::span<const double>(warm) : std::span<const double>();
          const core::OfflineResult batched =
              core::schedule_offline_over(net, partitions, config, initial);
          // Every visit's batched marginals against the reference's, which
          // price every row.
          std::vector<std::string> mismatches;
          const core::OfflineResult reference =
              reference_offline(net, partitions, config, initial, ReferencePricing::kPerPolicy,
                                testing_helpers::batched_pricing_check(mismatches));
          EXPECT_TRUE(mismatches.empty()) << mismatches.front();
          EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.planned_relaxed_utility),
                    std::bit_cast<std::uint64_t>(reference.planned_relaxed_utility));
          expect_identical_schedules(batched.schedule, reference.schedule);
          // The counters keep counting every logical evaluation, skipped or
          // not: the reference, which skips nothing, reports the same.
          EXPECT_EQ(batched.row_evaluations, reference.row_evaluations);
          EXPECT_EQ(batched.marginal_evaluations, reference.marginal_evaluations);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaturationSkip, ::testing::Range<std::uint64_t>(1, 9));

class OnlineModeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// The distributed negotiation (elections and the sequential token protocol)
// must price like the fresh-marginal reference: remote UPDATEs dirty exactly
// the columns whose utilities moved, and the session's persistent fleet
// walks the trajectory of a fleet built afresh for every re-plan.
TEST_P(OnlineModeDifferential, NegotiationIncrementalMatchesRebuild) {
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 5, 12, 4);
  for (const dist::OnlineStrategy strategy :
       {dist::OnlineStrategy::kHaste, dist::OnlineStrategy::kHasteSequential}) {
    dist::OnlineConfig config;
    config.strategy = strategy;
    config.colors = 2;
    config.samples = 8;
    config.seed = GetParam();
    const oracle::CheckedRun reference = oracle::run_online_checked(net, config);
    const dist::OnlineResult result = dist::run_online(net, config);
    EXPECT_TRUE(reference.mismatches.empty()) << reference.mismatches.front();
    EXPECT_EQ(result.evaluation.weighted_utility, reference.result.evaluation.weighted_utility);
    EXPECT_EQ(result.messages, reference.result.messages);
    EXPECT_EQ(result.rounds, reference.result.rounds);
    expect_identical_schedules(result.schedule, reference.result.schedule);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineModeDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace haste
