// Differential tests for the data-oriented kernel layer (core/kernels) and
// its integration into the marginal engine and the schedulers: every batched
// path must be bit-identical to the scalar reference — per weighted utility,
// per row term, per marginal, and for whole schedules with the kernels
// toggled on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "core/global_greedy.hpp"
#include "core/kernels.hpp"
#include "core/offline.hpp"
#include "geom/angle.hpp"
#include "model/network.hpp"
#include "model/utility.hpp"
#include "oracle/global_greedy.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

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
  if (!util::kernels_compiled()) GTEST_SKIP() << "kernels compiled out";
  util::Rng rng(43);
  for (const auto& shape : all_shapes()) {
    const model::Network net = with_shape(random_network(rng, 5, 20, 5), shape);
    const auto partitions = core::build_partitions(net);
    ASSERT_FALSE(partitions.empty());
    const core::MarginalEngine::Config config{3, 6, 99};
    std::unique_ptr<core::MarginalEngine> scalar;
    std::unique_ptr<core::MarginalEngine> kernel;
    {
      util::ScopedKernelToggle off(false);
      scalar = std::make_unique<core::MarginalEngine>(net, config);
    }
    {
      util::ScopedKernelToggle on(true);
      kernel = std::make_unique<core::MarginalEngine>(net, config);
    }
    EXPECT_FALSE(scalar->using_kernels());
    EXPECT_TRUE(kernel->using_kernels());
    // Interleave marginals and commits; every observable must stay bitwise
    // equal between the two engines.
    util::Rng walk(7);
    for (int step = 0; step < 60; ++step) {
      const auto p = static_cast<std::size_t>(
          walk.uniform_int(0, static_cast<int>(partitions.size()) - 1));
      const core::PolicyPartition& partition = partitions[p];
      const auto q = static_cast<std::size_t>(
          walk.uniform_int(0, static_cast<int>(partition.policies.size()) - 1));
      const int c = walk.uniform_int(0, config.colors - 1);
      ASSERT_EQ(scalar->marginal(partition.charger, partition.slot,
                                 partition.policy_rows(q), c),
                kernel->marginal(partition.charger, partition.slot,
                                 partition.policy_rows(q), c))
          << shape->name() << " step " << step;
      if (step % 3 == 0) {
        ASSERT_EQ(scalar->commit(partition.charger, partition.slot,
                                 partition.policy_tasks(q), partition.policy_energy(q), c),
                  kernel->commit(partition.charger, partition.slot,
                                 partition.policy_tasks(q), partition.policy_energy(q), c))
            << shape->name() << " step " << step;
        // Version counters must agree too: the utility-filtered bump decides
        // cache certification in both schedulers.
        for (int sample = 0; sample < config.samples; ++sample) {
          for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
            ASSERT_EQ(scalar->sample_version(sample, j), kernel->sample_version(sample, j));
          }
        }
      }
      ASSERT_EQ(scalar->expected_value(), kernel->expected_value());
    }
  }
}

TEST(Kernels, BatchedRowTermsMatchScalarRowTerm) {
  if (!util::kernels_compiled()) GTEST_SKIP() << "kernels compiled out";
  util::Rng rng(47);
  const model::Network net = random_network(rng, 4, 15);
  const auto partitions = core::build_partitions(net);
  ASSERT_FALSE(partitions.empty());
  const core::MarginalEngine::Config config{2, 4, 5};
  util::ScopedKernelToggle on(true);
  core::MarginalEngine engine(net, config);
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
          ASSERT_EQ(batched[t], engine.row_term(s, rows.tasks[t], rows.delta[t]))
              << "sample " << s << " row " << t;
        }
      }
    }
  }
}

TEST(Kernels, NetworkCoverageBitIdenticalOnAndOff) {
  if (!util::kernels_compiled()) GTEST_SKIP() << "kernels compiled out";
  util::Rng rng_a(53);
  util::Rng rng_b(53);
  // Narrow receiving sectors so the batched sector classification actually
  // carries the coverage decision.
  std::unique_ptr<model::Network> scalar;
  std::unique_ptr<model::Network> kernel;
  {
    util::ScopedKernelToggle off(false);
    scalar = std::make_unique<model::Network>(
        random_network(rng_a, 8, 40, 4, geom::kPi / 3.0));
  }
  {
    util::ScopedKernelToggle on(true);
    kernel = std::make_unique<model::Network>(
        random_network(rng_b, 8, 40, 4, geom::kPi / 3.0));
  }
  ASSERT_EQ(scalar->charger_count(), kernel->charger_count());
  ASSERT_EQ(scalar->task_count(), kernel->task_count());
  for (model::ChargerIndex i = 0; i < scalar->charger_count(); ++i) {
    const auto scalar_cover = scalar->coverable_tasks(i);
    const auto kernel_cover = kernel->coverable_tasks(i);
    ASSERT_EQ(std::vector<model::TaskIndex>(scalar_cover.begin(), scalar_cover.end()),
              std::vector<model::TaskIndex>(kernel_cover.begin(), kernel_cover.end()))
        << "charger " << i;
    for (model::TaskIndex j = 0; j < scalar->task_count(); ++j) {
      ASSERT_EQ(scalar->potential_power(i, j), kernel->potential_power(i, j))
          << "charger " << i << " task " << j;
    }
  }
}

class KernelScheduleDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelScheduleDifferential, OfflineSchedulesBitIdenticalOnAndOff) {
  if (!util::kernels_compiled()) GTEST_SKIP() << "kernels compiled out";
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 6, 24, 5);
  const auto partitions = core::build_partitions(net);
  core::OfflineConfig config;
  config.colors = 3;
  config.samples = 6;
  config.seed = GetParam();
  core::OfflineResult off;
  core::OfflineResult on;
  {
    util::ScopedKernelToggle toggle(false);
    off = core::schedule_offline_over(net, partitions, config, {});
  }
  {
    util::ScopedKernelToggle toggle(true);
    on = core::schedule_offline_over(net, partitions, config, {});
  }
  EXPECT_EQ(off.planned_relaxed_utility, on.planned_relaxed_utility);
  // Same counter totals, not just the same answer: the batched kernel path
  // must account for exactly the rows the per-policy scalar path priced.
  EXPECT_EQ(off.row_evaluations, on.row_evaluations);
  EXPECT_EQ(off.marginal_evaluations, on.marginal_evaluations);
  expect_identical_schedules(off.schedule, on.schedule);
}

TEST_P(KernelScheduleDifferential, GlobalGreedySchedulesBitIdenticalOnAndOff) {
  if (!util::kernels_compiled()) GTEST_SKIP() << "kernels compiled out";
  util::Rng rng(GetParam() + 1000);
  const model::Network net = random_network(rng, 6, 24, 5);
  const auto partitions = core::build_partitions(net);
  // The library's lazy greedy and the eager reference, each with the kernel
  // path off and on.
  const auto run_lazy = [&] { return core::schedule_global_greedy_over(net, partitions, {}); };
  const auto run_eager = [&] { return oracle::eager_global_greedy(net, partitions); };
  for (const auto& run : {std::function<core::GlobalGreedyResult()>(run_lazy),
                          std::function<core::GlobalGreedyResult()>(run_eager)}) {
    core::GlobalGreedyResult off;
    core::GlobalGreedyResult on;
    {
      util::ScopedKernelToggle toggle(false);
      off = run();
    }
    {
      util::ScopedKernelToggle toggle(true);
      on = run();
    }
    EXPECT_EQ(off.planned_relaxed_utility, on.planned_relaxed_utility);
    EXPECT_EQ(off.evaluations, on.evaluations);
    expect_identical_schedules(off.schedule, on.schedule);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelScheduleDifferential,
                         ::testing::Values(1u, 2u, 3u, 17u, 101u));

}  // namespace
}  // namespace haste
