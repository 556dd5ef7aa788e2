// Differential test suite: cross-checks between independent implementations
// of the same quantities, swept over many random instances. These are the
// library's strongest correctness guards — every pairing computes one value
// two different ways.
#include <gtest/gtest.h>

#include "baseline/brute_force.hpp"
#include "core/bounds.hpp"
#include "core/evaluate.hpp"
#include "core/global_greedy.hpp"
#include "core/local_search.hpp"
#include "core/offline.hpp"
#include "oracle/submodular.hpp"
#include "dist/online.hpp"
#include "io/scenario_io.hpp"
#include "test_helpers.hpp"

namespace haste {
namespace {

using testing_helpers::random_network;

class DifferentialSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  model::Network make_network() {
    util::Rng rng(GetParam());
    const int n = static_cast<int>(rng.uniform_int(2, 5));
    const int m = static_cast<int>(rng.uniform_int(3, 10));
    return random_network(rng, n, m, 4);
  }
};

TEST_P(DifferentialSweep, EngineValueMatchesReferenceObjectiveAfterGreedy) {
  // Incremental MarginalEngine accumulation vs from-scratch HasteRObjective
  // on the set the greedy actually selected.
  const model::Network net = make_network();
  const auto partitions = core::build_partitions(net);
  const core::HasteRObjective f(net, partitions);

  core::OfflineConfig config;
  config.colors = 1;
  config.switch_avoiding_tiebreak = false;
  const core::OfflineResult result =
      core::schedule_offline_over(net, partitions, config, {});

  // Reconstruct the selected element set from the schedule.
  std::vector<core::ElementId> chosen;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const model::SlotAssignment a =
        result.schedule.assignment(partitions[p].charger, partitions[p].slot);
    if (!a.has_value()) continue;
    for (std::size_t q = 0; q < partitions[p].policies.size(); ++q) {
      if (partitions[p].policies[q].orientation == *a) {
        chosen.push_back(f.elements_by_partition()[p][q]);
        break;
      }
    }
  }
  EXPECT_NEAR(result.planned_relaxed_utility, f.value(chosen), 1e-9);
}

TEST_P(DifferentialSweep, EvaluatorZeroRhoMatchesRelaxedObjective) {
  // Playing a (policy-witness) schedule with rho = 0 must deliver at least
  // the planner's relaxed count, and exactly match when no persistence slot
  // adds bonus coverage; we check the one-sided inequality plus consistency
  // of the two relaxed evaluations inside EvaluationResult.
  util::Rng rng(GetParam() * 3 + 1);
  std::vector<model::Charger> chargers;
  std::vector<model::Task> tasks;
  {
    const model::Network base = make_network();
    chargers = base.chargers();
    tasks = base.tasks();
  }
  model::TimeGrid time;
  time.rho = 0.0;
  const model::Network net(chargers, tasks, testing_helpers::tiny_power(), time);
  core::OfflineConfig config;
  config.colors = 1;
  const core::OfflineResult result = core::schedule_offline(net, config);
  const core::EvaluationResult eval = core::evaluate_schedule(net, result.schedule);
  EXPECT_NEAR(eval.weighted_utility, eval.relaxed_weighted_utility, 1e-9);
  EXPECT_GE(eval.weighted_utility, result.planned_relaxed_utility - 1e-9);
}

TEST_P(DifferentialSweep, LocalSearchObjectiveMatchesReference) {
  // ObjectiveState's incremental accounting vs HasteRObjective on the final
  // selection.
  const model::Network net = make_network();
  const auto partitions = core::build_partitions(net);
  const core::HasteRObjective f(net, partitions);
  const core::GlobalGreedyResult greedy = core::schedule_global_greedy(net);
  const core::LocalSearchResult improved =
      core::improve_schedule(net, partitions, greedy.schedule);

  std::vector<core::ElementId> chosen;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const model::SlotAssignment a =
        improved.schedule.assignment(partitions[p].charger, partitions[p].slot);
    if (!a.has_value()) continue;
    for (std::size_t q = 0; q < partitions[p].policies.size(); ++q) {
      if (partitions[p].policies[q].orientation == *a) {
        chosen.push_back(f.elements_by_partition()[p][q]);
        break;
      }
    }
  }
  EXPECT_NEAR(improved.relaxed_utility, f.value(chosen), 1e-9);
}

TEST_P(DifferentialSweep, SerializationPreservesEveryAlgorithmOutcome) {
  const model::Network net = make_network();
  const model::Network restored = io::network_from_json(io::network_to_json(net));
  core::OfflineConfig config;
  config.colors = 2;
  config.samples = 4;
  const double a =
      core::evaluate_schedule(net, core::schedule_offline(net, config).schedule)
          .weighted_utility;
  const double b =
      core::evaluate_schedule(restored, core::schedule_offline(restored, config).schedule)
          .weighted_utility;
  EXPECT_NEAR(a, b, 1e-9);
}

TEST_P(DifferentialSweep, OrderingChain) {
  // The full dominance chain on one instance (relaxed values):
  //   bound >= OPT >= improved >= global-greedy-as-planned
  // and OPT >= offline-greedy-as-planned.
  const model::Network net = make_network();
  const baseline::BruteForceResult opt = baseline::optimal_relaxed(net, 3'000'000);
  if (!opt.exhausted) GTEST_SKIP() << "instance too large for exact search";
  const core::UpperBounds bounds = core::relaxed_upper_bounds(net);
  const core::GlobalGreedyResult global = core::schedule_global_greedy(net);
  const auto partitions = core::build_partitions(net);
  const core::LocalSearchResult improved =
      core::improve_schedule(net, partitions, global.schedule);
  core::OfflineConfig config;
  config.colors = 1;
  const core::OfflineResult local = core::schedule_offline(net, config);

  EXPECT_GE(bounds.combined, opt.relaxed_utility - 1e-9);
  EXPECT_GE(opt.relaxed_utility, improved.relaxed_utility - 1e-9);
  EXPECT_GE(improved.relaxed_utility, global.planned_relaxed_utility - 1e-9);
  EXPECT_GE(opt.relaxed_utility, local.planned_relaxed_utility - 1e-9);
  // And both greedy families carry the 1/2 guarantee.
  EXPECT_GE(global.planned_relaxed_utility, 0.5 * opt.relaxed_utility - 1e-9);
  EXPECT_GE(local.planned_relaxed_utility, 0.5 * opt.relaxed_utility - 1e-9);
}

TEST_P(DifferentialSweep, OnlineDeliveriesAreBroadcastsTimesDegrees) {
  // The bus's two counters must be consistent: every broadcast is delivered
  // to exactly its sender's (alive) neighbor count. We check the aggregate
  // inequality deliveries <= broadcasts * max_degree.
  const model::Network net = make_network();
  dist::OnlineConfig config;
  config.colors = 1;
  const dist::OnlineResult result = dist::run_online(net, config);
  std::size_t max_degree = 0;
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    max_degree = std::max(max_degree, net.neighbors(i).size());
  }
  EXPECT_LE(result.deliveries, result.messages * max_degree);
  if (max_degree == 0) {
    EXPECT_EQ(result.deliveries, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99, 110));

}  // namespace
}  // namespace haste
