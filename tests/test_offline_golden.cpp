// Golden offline battery: pins what fixed offline TabularGreedy runs
// produce, so any rewrite of Algorithm 2's hot path (the ground-set build,
// the per-(partition, color) pricing, the commits) must reproduce the
// reference implementation exactly:
//
//  * the ground set of build_partitions — partition, policy and row counts
//    and an FNV-1a over every (charger, slot, orientation, task, energy);
//  * the executed schedule (FNV-1a of its JSON);
//  * the bits of planned_relaxed_utility and of the evaluated weighted
//    utility.
//
// Row- and marginal-evaluation counts are deliberately not pinned: they
// measure oracle work, not results. ctest re-runs the suite with the kernel
// path forced each way (HASTE_KERNELS=0/1), and a sanitized duplicate runs
// it under ASan/UBSan.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core/offline.hpp"
#include "io/scenario_io.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace haste {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t b = 0; b < size; ++b) {
    hash ^= bytes[b];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

template <typename T>
std::uint64_t fnv1a_value(const T& value, std::uint64_t hash) {
  return fnv1a(&value, sizeof(value), hash);
}

std::uint64_t fnv1a_text(const std::string& text, std::uint64_t hash = kFnvBasis) {
  return fnv1a(text.data(), text.size(), hash);
}

struct GroundSet {
  std::size_t partitions = 0;
  std::size_t policies = 0;
  std::size_t rows = 0;
  std::uint64_t fnv = 0;  ///< over (charger, slot, orientation, tasks, energies)

  friend bool operator==(const GroundSet&, const GroundSet&) = default;
};

GroundSet ground_set_of(const std::vector<core::PolicyPartition>& partitions) {
  GroundSet ground;
  ground.partitions = partitions.size();
  std::uint64_t hash = kFnvBasis;
  for (const core::PolicyPartition& partition : partitions) {
    hash = fnv1a_value(partition.charger, hash);
    hash = fnv1a_value(partition.slot, hash);
    for (std::size_t q = 0; q < partition.policies.size(); ++q) {
      ++ground.policies;
      hash = fnv1a_value(std::bit_cast<std::uint64_t>(partition.policies[q].orientation),
                         hash);
      const auto tasks = partition.policy_tasks(q);
      const auto energy = partition.policy_energy(q);
      ground.rows += tasks.size();
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        hash = fnv1a_value(tasks[t], hash);
        hash = fnv1a_value(std::bit_cast<std::uint64_t>(energy[t]), hash);
      }
    }
  }
  ground.fnv = hash;
  return ground;
}

struct Golden {
  GroundSet ground;
  std::uint64_t schedule_fnv = 0;   ///< over io::schedule_to_json(...).dump()
  std::uint64_t planned_bits = 0;   ///< planned_relaxed_utility
  std::uint64_t utility_bits = 0;   ///< evaluate_schedule(...).weighted_utility

  friend bool operator==(const Golden&, const Golden&) = default;
};

/// The golden as a C++ initializer, printed on mismatch.
std::string describe(const Golden& g) {
  std::ostringstream out;
  out << "{{" << g.ground.partitions << "u, " << g.ground.policies << "u, " << g.ground.rows
      << "u, 0x" << std::hex << g.ground.fnv << "ULL}, 0x" << g.schedule_fnv << "ULL, 0x"
      << g.planned_bits << "ULL, 0x" << g.utility_bits << "ULL}";
  return out.str();
}

Golden golden_of(const model::Network& net,
                 const std::vector<core::PolicyPartition>& partitions,
                 const core::OfflineConfig& config,
                 std::span<const double> initial_energy = {}) {
  const core::OfflineResult result =
      core::schedule_offline_over(net, partitions, config, initial_energy);
  Golden golden;
  golden.ground = ground_set_of(partitions);
  golden.schedule_fnv = fnv1a_text(io::schedule_to_json(result.schedule).dump());
  golden.planned_bits = std::bit_cast<std::uint64_t>(result.planned_relaxed_utility);
  golden.utility_bits = std::bit_cast<std::uint64_t>(
      core::evaluate_schedule(net, result.schedule).weighted_utility);
  return golden;
}

void expect_golden(const Golden& actual, const Golden& expected) {
  EXPECT_TRUE(actual == expected) << "actual " << describe(actual) << "\nexpected "
                                  << describe(expected);
}

model::Network paper(int chargers, int tasks, std::uint64_t seed) {
  sim::ScenarioConfig config = sim::ScenarioConfig::paper_default();
  config.chargers = chargers;
  config.tasks = tasks;
  util::Rng rng(seed);
  return sim::generate_scenario(config, rng);
}

core::OfflineConfig panel(int colors, int samples, std::uint64_t seed) {
  core::OfflineConfig config;
  config.colors = colors;
  config.samples = samples;
  config.seed = seed;
  return config;
}

TEST(OfflineGolden, PaperPanel) {
  const model::Network net = paper(50, 200, 21);
  expect_golden(golden_of(net, core::build_partitions(net), panel(4, 16, 1)),
                {{7174u, 28742u, 64460u, 0xd6b4ea668c04539aULL},
                 0x829d33b468cb909ULL, 0x3fe86ceb557e4acdULL, 0x3fe84cee444565ceULL});
}

TEST(OfflineGolden, PaperLocallyGreedy) {
  // C = 1: the plain locally greedy algorithm, one trivial panel sample.
  const model::Network net = paper(50, 200, 22);
  expect_golden(golden_of(net, core::build_partitions(net), panel(1, 16, 2)),
                {{6957u, 26715u, 65648u, 0x2aee35cf0b44b521ULL},
                 0x9c4f288c80a87b29ULL, 0x3fe946960ec5248eULL, 0x3fe941f3c90f7addULL});
}

TEST(OfflineGolden, TwiceThePaperScale) {
  const model::Network net = paper(100, 400, 23);
  expect_golden(golden_of(net, core::build_partitions(net), panel(4, 16, 3)),
                {{15751u, 107829u, 356134u, 0xed38528a93b3bfafULL},
                 0x292fd5833cdf723cULL, 0x3febb8561e9c70adULL, 0x3febac1cbbb0ed3fULL});
}

TEST(OfflineGolden, NonPowerOfTwoColorReduction) {
  // C = 3 reduces panel hashes with a division instead of a mask.
  const model::Network net = paper(50, 200, 24);
  expect_golden(golden_of(net, core::build_partitions(net), panel(3, 7, 4)),
                {{7289u, 24524u, 55837u, 0xfdbde2c75b82a5a2ULL},
                 0x8d32126097eb01d8ULL, 0x3fe6eecea5f7313aULL, 0x3fe6d36722690fb2ULL});
}

TEST(OfflineGolden, DeadlineInstances) {
  // Linear and exponential decay discount tardy rows; hard mode drops them
  // (and every row of a deadline-infeasible task) before they enter the
  // ground set.
  struct Case {
    const char* decay;
    Golden expected;
  };
  const Case cases[] = {
      {"linear",
       {{6349u, 23140u, 47464u, 0x26df285515cb2ec7ULL},
        0xdb8a1007a4d8c33bULL, 0x3fe6bfb006bf31a0ULL, 0x3fe6941b73d24e37ULL}},
      {"exp",
       {{7209u, 31008u, 73940u, 0x35b02b9c4d9d8d80ULL},
        0x1ec32b105cbe784eULL, 0x3fe71c2c7ee3dda8ULL, 0x3fe6ec72412b92a2ULL}},
      {"hard",
       {{6211u, 21070u, 40800u, 0x28d4c4641603e864ULL},
        0xd5e3ec1d6866d1ULL, 0x3fe40d427b4888a1ULL, 0x3fe3e972a62c39dbULL}},
  };
  for (const Case& c : cases) {
    sim::ScenarioConfig scenario = sim::ScenarioConfig::paper_default();
    scenario.deadline_decay = c.decay;
    scenario.deadline_beta = 6.0;
    scenario.deadline_fraction = 0.7;
    util::Rng rng(25);
    const model::Network net = sim::generate_scenario(scenario, rng);
    SCOPED_TRACE(c.decay);
    expect_golden(golden_of(net, core::build_partitions(net), panel(4, 16, 5)), c.expected);
  }
}

TEST(OfflineGolden, WarmStartInitialEnergy) {
  // Online re-planning seeds the engine with harvested energy.
  const model::Network net = paper(50, 200, 26);
  util::Rng rng(126);
  std::vector<double> initial(static_cast<std::size_t>(net.task_count()));
  for (double& energy : initial) energy = rng.uniform(0.0, 8'000.0);
  expect_golden(golden_of(net, core::build_partitions(net), panel(4, 16, 6), initial),
                {{7111u, 24630u, 53269u, 0x7f6b62d06880a982ULL},
                 0x87757fa45c09e2d0ULL, 0x3feadbe3e1bf0510ULL, 0x3fe6ddbd061d56f3ULL});
}

TEST(OfflineGolden, TieBreakOffAndZeroMarginalCommits) {
  const model::Network net = paper(50, 200, 27);
  const std::vector<core::PolicyPartition> partitions = core::build_partitions(net);
  core::OfflineConfig no_tiebreak = panel(4, 16, 7);
  no_tiebreak.switch_avoiding_tiebreak = false;
  expect_golden(golden_of(net, partitions, no_tiebreak),
                {{7259u, 30030u, 67241u, 0x62109d1c8196b7beULL},
                 0x88ef54018cac130ULL, 0x3fe8ce6f7457a4faULL, 0x3fe8ba5154256242ULL});
  core::OfflineConfig zero_commits = panel(4, 16, 7);
  zero_commits.commit_zero_marginal = true;
  expect_golden(golden_of(net, partitions, zero_commits),
                {{7259u, 30030u, 67241u, 0x62109d1c8196b7beULL},
                 0x1b5f796f7850cafcULL, 0x3fe8ce6f7457a4faULL, 0x3fe8b38acbb344ccULL});
}

TEST(OfflineGolden, ReplanGroundSetFromLaterSlotAndCandidates) {
  // The online re-plan shape: a ground set over [first_slot, horizon) built
  // from the released tasks only, priced on top of harvested energy.
  const model::Network net = paper(50, 200, 28);
  const model::SlotIndex first_slot = 30;
  std::vector<model::TaskIndex> released;
  for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
    if (net.tasks()[static_cast<std::size_t>(j)].release_slot <= first_slot) {
      released.push_back(j);
    }
  }
  ASSERT_FALSE(released.empty());
  ASSERT_LT(released.size(), static_cast<std::size_t>(net.task_count()));
  std::vector<double> initial(static_cast<std::size_t>(net.task_count()), 0.0);
  for (const model::TaskIndex j : released) {
    initial[static_cast<std::size_t>(j)] = 1'000.0 + 10.0 * static_cast<double>(j);
  }
  expect_golden(golden_of(net, core::build_partitions(net, first_slot, released),
                          panel(4, 16, 8), initial),
                {{4572u, 12144u, 22156u, 0x11a6438f976ea285ULL},
                 0x3b400a99d4c79270ULL, 0x3fd87b858204f37bULL, 0x3fe0461971620a20ULL});
}

TEST(OfflineGolden, SmallInstancePanelShapes) {
  // Twenty small random instances under every panel shape and tie-break
  // setting, plus a warm start each, folded into one digest of schedules
  // and planned-utility bits.
  std::uint64_t hash = kFnvBasis;
  std::size_t policies = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    const model::Network net = testing_helpers::random_network(rng, 6, 14, 4);
    const std::vector<core::PolicyPartition> partitions = core::build_partitions(net);
    for (const core::PolicyPartition& partition : partitions) {
      policies += partition.policies.size();
    }
    for (const int colors : {1, 2, 4, 8}) {
      for (const int samples : {1, 16}) {
        for (const bool tiebreak : {false, true}) {
          core::OfflineConfig config = panel(colors, samples, seed);
          config.switch_avoiding_tiebreak = tiebreak;
          const core::OfflineResult result =
              core::schedule_offline_over(net, partitions, config, {});
          hash = fnv1a_text(io::schedule_to_json(result.schedule).dump(), hash);
          hash = fnv1a_value(std::bit_cast<std::uint64_t>(result.planned_relaxed_utility),
                             hash);
        }
      }
    }
    // Plus one warm start per instance at the paper's panel.
    std::vector<double> initial(static_cast<std::size_t>(net.task_count()));
    for (double& energy : initial) energy = rng.uniform(0.0, 2'000.0);
    const core::OfflineResult warm =
        core::schedule_offline_over(net, partitions, panel(4, 16, seed), initial);
    hash = fnv1a_text(io::schedule_to_json(warm.schedule).dump(), hash);
    hash = fnv1a_value(std::bit_cast<std::uint64_t>(warm.planned_relaxed_utility), hash);
  }
  EXPECT_EQ(policies, 2861u);
  EXPECT_EQ(hash, 0x267f48d2e60627e6ULL) << std::hex << hash;
}

}  // namespace
}  // namespace haste
