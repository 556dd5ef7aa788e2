// Differential tests for the data-oriented kernel layer (core/kernels) and
// its integration into the marginal engine, the coverage table and the
// schedulers: every batched path must be bit-identical to the scalar
// definitions in tests/oracle/pricing.hpp — per weighted utility, per row
// term, per marginal, per coverage entry, and for whole schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/global_greedy.hpp"
#include "core/kernels.hpp"
#include "core/offline.hpp"
#include "geom/angle.hpp"
#include "model/network.hpp"
#include "model/utility.hpp"
#include "offline_reference.hpp"
#include "oracle/global_greedy.hpp"
#include "oracle/pricing.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace haste {
namespace {

using testing_helpers::PowShape;
using testing_helpers::random_network;

/// Rebuilds `net` with a different utility shape (same chargers, tasks,
/// power model, and time grid).
model::Network with_shape(const model::Network& net,
                          std::shared_ptr<const model::UtilityShape> shape) {
  return model::Network(std::vector<model::Charger>(net.chargers().begin(),
                                                    net.chargers().end()),
                        std::vector<model::Task>(net.tasks().begin(), net.tasks().end()),
                        net.power_model(), net.time(), std::move(shape));
}

std::vector<std::shared_ptr<const model::UtilityShape>> all_shapes() {
  return {std::make_shared<model::LinearBoundedShape>(),
          std::make_shared<model::SqrtBoundedShape>(),
          std::make_shared<model::LogBoundedShape>(),
          std::make_shared<PowShape>()};
}

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

TEST(UtilityTable, WeightedUtilityBitIdenticalAcrossShapes) {
  util::Rng rng(31);
  const model::Network base = random_network(rng, 4, 12);
  for (const auto& shape : all_shapes()) {
    const model::Network net = with_shape(base, shape);
    const auto table = core::kernels::UtilityTable::from(net);
    EXPECT_EQ(table.fast(), shape->kind() != model::UtilityShapeKind::kCustom);
    for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
      const double required =
          net.tasks()[static_cast<std::size_t>(j)].required_energy;
      // Sweep the interesting regimes: negative (depleted), zero, interior,
      // exactly saturated, oversaturated.
      for (const double x : {-3.0, 0.0, 0.25 * required, 0.999 * required, required,
                             std::nextafter(required, 2.0 * required), 10.0 * required}) {
        EXPECT_EQ(table.weighted_utility(j, x), net.weighted_task_utility(j, x))
            << shape->name() << " task " << j << " x " << x;
      }
      for (int i = 0; i < 50; ++i) {
        const double x = rng.uniform(-required, 2.0 * required);
        EXPECT_EQ(table.weighted_utility(j, x), net.weighted_task_utility(j, x))
            << shape->name() << " task " << j << " x " << x;
      }
    }
  }
}

TEST(Kernels, RowTermsMatchScalarFold) {
  util::Rng rng(37);
  const model::Network base = random_network(rng, 4, 16);
  for (const auto& shape : all_shapes()) {
    const model::Network net = with_shape(base, shape);
    const auto table = core::kernels::UtilityTable::from(net);
    const auto m = static_cast<std::size_t>(net.task_count());
    // A randomized energy state and a row batch longer than the kernel's
    // internal block (so the blockwise path runs more than one block),
    // including repeated tasks like real policy rows have.
    std::vector<double> energy(m);
    for (auto& e : energy) e = rng.uniform(0.0, 5000.0);
    const std::size_t rows = 300;
    std::vector<model::TaskIndex> tasks(rows);
    std::vector<double> delta(rows);
    for (std::size_t t = 0; t < rows; ++t) {
      tasks[t] = static_cast<model::TaskIndex>(rng.uniform_int(0, static_cast<int>(m) - 1));
      delta[t] = rng.uniform(0.0, 2000.0);
    }
    const core::kernels::RowView view{tasks, delta, {}, {}};
    std::vector<double> out(rows, -1.0);
    core::kernels::row_terms(table, energy.data(), view, out.data());
    double expected_sum = 0.0;
    for (std::size_t t = 0; t < rows; ++t) {
      const auto j = static_cast<std::size_t>(tasks[t]);
      const double before = net.weighted_task_utility(tasks[t], energy[j]);
      const double after = net.weighted_task_utility(tasks[t], energy[j] + delta[t]);
      EXPECT_EQ(out[t], after - before) << shape->name() << " row " << t;
      expected_sum += after - before;
    }
    EXPECT_EQ(core::kernels::row_term_sum(table, energy.data(), view), expected_sum)
        << shape->name();
  }
}

TEST(Kernels, RowViewWeightColumnsAreEquivalent) {
  // The pre-gathered weight/required columns must change nothing but the
  // gather count.
  util::Rng rng(41);
  const model::Network net = random_network(rng, 3, 10);
  const auto table = core::kernels::UtilityTable::from(net);
  const auto m = static_cast<std::size_t>(net.task_count());
  std::vector<double> energy(m);
  for (auto& e : energy) e = rng.uniform(0.0, 4000.0);
  std::vector<model::TaskIndex> tasks;
  std::vector<double> delta;
  std::vector<double> weight;
  std::vector<double> required;
  for (int t = 0; t < 150; ++t) {
    const auto j = static_cast<model::TaskIndex>(rng.uniform_int(0, static_cast<int>(m) - 1));
    tasks.push_back(j);
    delta.push_back(rng.uniform(0.0, 3000.0));
    weight.push_back(net.tasks()[static_cast<std::size_t>(j)].weight);
    required.push_back(net.tasks()[static_cast<std::size_t>(j)].required_energy);
  }
  const core::kernels::RowView gathered{tasks, delta, {}, {}};
  const core::kernels::RowView columns{tasks, delta, weight, required};
  std::vector<double> out_gathered(tasks.size());
  std::vector<double> out_columns(tasks.size());
  core::kernels::row_terms(table, energy.data(), gathered, out_gathered.data());
  core::kernels::row_terms(table, energy.data(), columns, out_columns.data());
  EXPECT_EQ(out_gathered, out_columns);
  EXPECT_EQ(core::kernels::row_term_sum(table, energy.data(), gathered),
            core::kernels::row_term_sum(table, energy.data(), columns));
}

TEST(Kernels, EngineMarginalsBitIdenticalOnAndOff) {
  // The engine's marginals, commit gains, expected value and version bumps
  // against the scalar definitions read off the same ledger.
  util::Rng rng(43);
  for (const auto& shape : all_shapes()) {
    const model::Network net = with_shape(random_network(rng, 5, 20, 5), shape);
    const auto partitions = core::build_partitions(net);
    ASSERT_FALSE(partitions.empty());
    const core::MarginalEngine::Config config{3, 6, 99};
    core::MarginalEngine engine(net, config);
    oracle::ScalarPricing scalar(net);
    // Interleave marginals and commits; every observable must stay bitwise
    // equal to the scalar definition.
    util::Rng walk(7);
    for (int step = 0; step < 60; ++step) {
      const auto p = static_cast<std::size_t>(
          walk.uniform_int(0, static_cast<int>(partitions.size()) - 1));
      const core::PolicyPartition& partition = partitions[p];
      const auto q = static_cast<std::size_t>(
          walk.uniform_int(0, static_cast<int>(partition.policies.size()) - 1));
      const int c = walk.uniform_int(0, config.colors - 1);
      const double expected =
          scalar.marginal(engine, partition.charger, partition.slot,
                          partition.policy_tasks(q), partition.policy_energy(q), c);
      ASSERT_EQ(engine.marginal(partition.charger, partition.slot,
                                partition.policy_rows(q), c),
                expected)
          << shape->name() << " step " << step;
      if (step % 3 == 0) {
        const auto cells = static_cast<std::size_t>(config.samples * net.task_count());
        std::vector<double> before(cells);
        std::vector<std::uint64_t> versions(cells);
        for (int sample = 0; sample < config.samples; ++sample) {
          for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
            const auto at = static_cast<std::size_t>(sample * net.task_count() + j);
            before[at] = engine.energy(sample, j);
            versions[at] = engine.sample_version(sample, j);
          }
        }
        ASSERT_EQ(engine.commit(partition.charger, partition.slot,
                                partition.policy_tasks(q), partition.policy_energy(q), c),
                  expected)
            << shape->name() << " step " << step;
        // A (task, sample) version moves exactly when the task's utility
        // did: the bump decides cache certification in the negotiation.
        for (int sample = 0; sample < config.samples; ++sample) {
          for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
            const auto at = static_cast<std::size_t>(sample * net.task_count() + j);
            const bool moved = net.weighted_task_utility(j, engine.energy(sample, j)) !=
                               net.weighted_task_utility(j, before[at]);
            ASSERT_EQ(engine.sample_version(sample, j), versions[at] + (moved ? 1 : 0))
                << shape->name() << " step " << step << " sample " << sample << " task " << j;
          }
        }
      }
      ASSERT_EQ(engine.expected_value(), scalar.expected_value(engine));
    }
    // commit() prices its gain without counting an oracle call.
    EXPECT_EQ(engine.stats().marginals, scalar.marginals());
  }
}

TEST(Kernels, BatchedRowTermsMatchScalarRowTerm) {
  util::Rng rng(47);
  const model::Network net = random_network(rng, 4, 15);
  const auto partitions = core::build_partitions(net);
  ASSERT_FALSE(partitions.empty());
  const core::MarginalEngine::Config config{2, 4, 5};
  core::MarginalEngine engine(net, config);
  oracle::ScalarPricing scalar(net);
  // Seed some state so energies differ per sample-color history.
  engine.commit(partitions[0].charger, partitions[0].slot,
                partitions[0].policy_tasks(0), partitions[0].policy_energy(0), 0);
  const auto table = core::kernels::UtilityTable::from(net);
  std::vector<double> energy(static_cast<std::size_t>(net.task_count()));
  for (const auto& partition : partitions) {
    for (std::size_t q = 0; q < partition.policies.size(); ++q) {
      const auto rows = partition.policy_rows(q);
      for (int s = 0; s < engine.samples(); ++s) {
        for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
          energy[static_cast<std::size_t>(j)] = engine.energy(s, j);
        }
        std::vector<double> batched(rows.size());
        core::kernels::row_terms(table, energy.data(), rows, batched.data());
        for (std::size_t t = 0; t < rows.size(); ++t) {
          const double expected = scalar.row_term(engine, s, rows.tasks[t], rows.delta[t]);
          ASSERT_EQ(batched[t], expected) << "sample " << s << " row " << t;
          ASSERT_EQ(engine.row_term(s, rows.tasks[t], rows.delta[t]), expected)
              << "sample " << s << " row " << t;
        }
      }
    }
  }
}

TEST(Kernels, NetworkCoverageBitIdenticalOnAndOff) {
  // Narrow receiving sectors so the batched sector classification actually
  // carries the coverage decision.
  util::Rng rng(53);
  const model::Network net = random_network(rng, 8, 40, 4, geom::kPi / 3.0);
  const std::vector<double> table = oracle::coverage_table(net);
  const auto m = static_cast<std::size_t>(net.task_count());
  std::size_t covered = 0;
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    std::vector<model::TaskIndex> expected;
    for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
      const double power = table[static_cast<std::size_t>(i) * m + static_cast<std::size_t>(j)];
      ASSERT_EQ(net.potential_power(i, j), power) << "charger " << i << " task " << j;
      if (power > 0.0) expected.push_back(j);
    }
    const auto cover = net.coverable_tasks(i);
    ASSERT_EQ(std::vector<model::TaskIndex>(cover.begin(), cover.end()), expected)
        << "charger " << i;
    covered += expected.size();
  }
  // Some pairs on each side of the sector test, or the check is vacuous.
  EXPECT_GT(covered, 0u);
  EXPECT_LT(covered, table.size());
}

class KernelScheduleDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelScheduleDifferential, OfflineSchedulesBitIdenticalOnAndOff) {
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 6, 24, 5);
  const auto partitions = core::build_partitions(net);
  core::OfflineConfig config;
  config.colors = 3;
  config.samples = 6;
  config.seed = GetParam();
  std::vector<std::string> mismatches;
  const core::OfflineResult reference =
      testing_helpers::reference_offline(net, partitions, config, {},
                                         testing_helpers::ReferencePricing::kPerPolicy,
                                         testing_helpers::batched_pricing_check(mismatches));
  const core::OfflineResult library = core::schedule_offline_over(net, partitions, config, {});
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(library.planned_relaxed_utility),
            std::bit_cast<std::uint64_t>(reference.planned_relaxed_utility));
  // Same counter totals, not just the same answer: the batched path must
  // account for exactly the rows the per-policy reference priced.
  EXPECT_EQ(library.row_evaluations, reference.row_evaluations);
  EXPECT_EQ(library.marginal_evaluations, reference.marginal_evaluations);
  expect_identical_schedules(library.schedule, reference.schedule);
}

TEST_P(KernelScheduleDifferential, GlobalGreedySchedulesBitIdenticalOnAndOff) {
  util::Rng rng(GetParam() + 1000);
  const model::Network net = random_network(rng, 6, 24, 5);
  const auto partitions = core::build_partitions(net);
  // The library's lazy greedy against its scalar-priced twin, whose every
  // evaluation is held against the engine's marginal on the same ledger.
  std::vector<std::string> mismatches;
  const core::GlobalGreedyResult scalar = oracle::lazy_global_greedy(
      net, partitions, {},
      [&](const core::MarginalEngine& ledger, const core::PolicyPartition& partition,
          std::size_t q, double gain) {
        const double engine_gain =
            ledger.marginal(partition.charger, partition.slot, partition.policy_rows(q), 0);
        if (std::bit_cast<std::uint64_t>(engine_gain) != std::bit_cast<std::uint64_t>(gain)) {
          mismatches.push_back("charger " + std::to_string(partition.charger) + " slot " +
                               std::to_string(partition.slot) + " policy " +
                               std::to_string(q));
        }
      });
  const core::GlobalGreedyResult library =
      core::schedule_global_greedy_over(net, partitions, {});
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(library.planned_relaxed_utility),
            std::bit_cast<std::uint64_t>(scalar.planned_relaxed_utility));
  EXPECT_EQ(library.evaluations, scalar.evaluations);
  expect_identical_schedules(library.schedule, scalar.schedule);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelScheduleDifferential,
                         ::testing::Values(1u, 2u, 3u, 17u, 101u));

}  // namespace
}  // namespace haste
