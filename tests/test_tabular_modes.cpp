// Differential tests for the TabularGreedy evaluation modes. Offline: the
// library's batched scheduler, which rebuilds every marginal from scratch each
// stage, must be bit-identical — same schedules, same planned utilities — to
// the per-policy reference and to the incremental reference, whose
// per-(task, sample) dirty tracking re-prices only the rows whose utilities
// moved, across panel shapes, tie-break settings and warm starts. Online: the
// nodes' incremental mode must walk the exact trajectory of their rebuild mode.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/offline.hpp"
#include "dist/online.hpp"
#include "offline_reference.hpp"
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

class OnlineModeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// The distributed negotiation (elections and the sequential token protocol)
// must also be mode-agnostic: remote UPDATEs dirty exactly the rows whose
// utilities moved, so re-negotiation reproduces the rebuild marginals.
TEST_P(OnlineModeDifferential, NegotiationIncrementalMatchesRebuild) {
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 5, 12, 4);
  for (const dist::OnlineStrategy strategy :
       {dist::OnlineStrategy::kHaste, dist::OnlineStrategy::kHasteSequential}) {
    dist::OnlineConfig rebuild;
    rebuild.strategy = strategy;
    rebuild.colors = 2;
    rebuild.samples = 8;
    rebuild.seed = GetParam();
    rebuild.mode = core::TabularMode::kRebuild;
    dist::OnlineConfig incremental = rebuild;
    incremental.mode = core::TabularMode::kIncremental;
    const dist::OnlineResult a = dist::run_online(net, rebuild);
    const dist::OnlineResult b = dist::run_online(net, incremental);
    EXPECT_EQ(a.evaluation.weighted_utility, b.evaluation.weighted_utility);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.rounds, b.rounds);
    expect_identical_schedules(a.schedule, b.schedule);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineModeDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace haste
