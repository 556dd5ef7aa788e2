// Ground-set properties of build_partitions:
//
//  * every partition equals the per-slot reference, make_slot_policies over
//    the charger's dominant sets at that slot — orientations, CSR rows and
//    energy bits — and its column index is consistent with its rows;
//  * a (charger, slot) whose reference has no policy emits no partition;
//  * consecutive partitions of a charger share one body whenever, at the
//    later slot, none of the charger's covered rows is released, ends, or
//    is at or past its deadline.
//
// The checks run on a copy of the ground set whose original was destroyed
// first, so the shared bodies must own their rows. A sanitized duplicate
// runs the suite under ASan/UBSan.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dominant_sets.hpp"
#include "core/objective.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace haste {
namespace {

using core::PolicyPartition;
using model::ChargerIndex;
using model::SlotIndex;
using model::TaskIndex;

/// What one ground set exercised, for the tests' non-vacuity checks.
struct Coverage {
  std::size_t partitions = 0;
  std::size_t shared = 0;  ///< consecutive same-charger pairs sharing a body
  std::size_t tardy = 0;   ///< partitions holding a row at or past its deadline
};

/// True when charger `i`'s partition at slot `k` may differ from its slot
/// k - 1 partition: one of the tasks of `dominant` is released or ends at
/// `k`, or is active at `k` and at or past its deadline.
bool rows_change_at(const model::Network& net, const std::vector<core::DominantTaskSet>& dominant,
                    SlotIndex k) {
  for (const core::DominantTaskSet& set : dominant) {
    for (const TaskIndex j : set.tasks) {
      const model::Task& task = net.tasks()[static_cast<std::size_t>(j)];
      if (task.release_slot == k || task.end_slot == k) return true;
      if (net.has_deadlines() && task.active(k) &&
          (net.deadline_infeasible(j) || k >= task.deadline_slot)) {
        return true;
      }
    }
  }
  return false;
}

bool tardy_at(const model::Network& net, std::span<const TaskIndex> tasks, SlotIndex k) {
  for (const TaskIndex j : tasks) {
    if (net.tardiness_factor(j, k) != 1.0) return true;
  }
  return false;
}

/// Checks `partitions` = build_partitions(net, first_slot[, candidates])
/// against the per-slot reference; `per_charger[i]` is the candidate list
/// the build used for charger i.
Coverage expect_reference_ground_set(const model::Network& net, SlotIndex first_slot,
                                     const std::vector<std::vector<TaskIndex>>& per_charger,
                                     const std::vector<PolicyPartition>& partitions) {
  Coverage coverage;
  coverage.partitions = partitions.size();
  const ChargerIndex n = net.charger_count();
  std::vector<std::vector<core::DominantTaskSet>> dominant;
  for (ChargerIndex i = 0; i < n; ++i) {
    dominant.push_back(
        core::extract_dominant_sets(net, i, per_charger[static_cast<std::size_t>(i)]));
  }
  // previous[i]: charger i's partition at the previous slot, null when absent.
  std::vector<const PolicyPartition*> previous(static_cast<std::size_t>(n), nullptr);
  core::SlotPolicies reference;
  std::size_t next = 0;
  for (SlotIndex k = first_slot; k < net.horizon(); ++k) {
    for (ChargerIndex i = 0; i < n; ++i) {
      SCOPED_TRACE("charger " + std::to_string(i) + " slot " + std::to_string(k));
      core::make_slot_policies(net, i, dominant[static_cast<std::size_t>(i)], k, reference);
      const PolicyPartition* prev = previous[static_cast<std::size_t>(i)];
      previous[static_cast<std::size_t>(i)] = nullptr;
      if (reference.size() == 0) {
        // Absent: the next emitted partition belongs to a later (i, k).
        if (next < partitions.size()) {
          EXPECT_FALSE(partitions[next].charger == i && partitions[next].slot == k);
        }
        continue;
      }
      if (next >= partitions.size()) {
        ADD_FAILURE() << "ground set ends before a slot with policies";
        return coverage;
      }
      const PolicyPartition& partition = partitions[next++];
      if (partition.charger != i || partition.slot != k) {
        ADD_FAILURE() << "found partition (" << partition.charger << ", " << partition.slot
                      << ") instead";
        return coverage;
      }
      previous[static_cast<std::size_t>(i)] = &partition;
      EXPECT_NE(partition.body, nullptr);
      EXPECT_EQ(partition.policies.size(), reference.size());
      EXPECT_EQ(partition.row_offsets.size(), reference.row_offsets.size());
      EXPECT_EQ(partition.flat_tasks.size(), reference.tasks.size());
      if (partition.policies.size() != reference.size() ||
          partition.flat_tasks.size() != reference.tasks.size()) {
        return coverage;
      }
      for (std::size_t q = 0; q < reference.size(); ++q) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(partition.policies[q].orientation),
                  std::bit_cast<std::uint64_t>(reference.orientation[q]));
        EXPECT_EQ(partition.row_offsets[q + 1], reference.row_offsets[q + 1]);
      }
      for (std::size_t t = 0; t < reference.tasks.size(); ++t) {
        EXPECT_EQ(partition.flat_tasks[t], reference.tasks[t]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(partition.flat_energy[t]),
                  std::bit_cast<std::uint64_t>(reference.energy[t]));
        // The column a row maps to carries the row's task and delta bits and
        // the task's weight and required energy.
        const auto col = static_cast<std::size_t>(partition.flat_col[t]);
        if (col >= partition.col_task.size()) {
          ADD_FAILURE() << "row " << t << " maps past the columns";
          return coverage;
        }
        const model::Task& task = net.tasks()[static_cast<std::size_t>(reference.tasks[t])];
        EXPECT_EQ(partition.col_task[col], reference.tasks[t]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(partition.col_delta[col]),
                  std::bit_cast<std::uint64_t>(reference.energy[t]));
        EXPECT_EQ(partition.col_weight[col], task.weight);
        EXPECT_EQ(partition.col_required[col], task.required_energy);
      }
      if (tardy_at(net, partition.flat_tasks, k)) ++coverage.tardy;
      if (prev != nullptr && !rows_change_at(net, dominant[static_cast<std::size_t>(i)], k)) {
        EXPECT_EQ(partition.body, prev->body) << "unchanged rows, yet a second body";
        if (partition.body == prev->body) ++coverage.shared;
      }
    }
  }
  EXPECT_EQ(next, partitions.size()) << "partitions past the last reference slot";
  return coverage;
}

/// Builds the ground set — over every covering task, or over `candidates`
/// only (the online re-plan shape) — copies it, destroys the original, and
/// checks the copy.
Coverage check(const model::Network& net, SlotIndex first_slot,
               const std::vector<TaskIndex>* candidates = nullptr) {
  std::vector<PolicyPartition> copy;
  {
    const std::vector<PolicyPartition> built =
        candidates == nullptr ? core::build_partitions(net, first_slot)
                              : core::build_partitions(net, first_slot, *candidates);
    copy = built;
  }
  std::vector<std::vector<TaskIndex>> per_charger(
      static_cast<std::size_t>(net.charger_count()));
  for (ChargerIndex i = 0; i < net.charger_count(); ++i) {
    auto& list = per_charger[static_cast<std::size_t>(i)];
    if (candidates == nullptr) {
      const auto covering = net.coverable_tasks(i);
      list.assign(covering.begin(), covering.end());
      continue;
    }
    for (const TaskIndex j : *candidates) {
      if (net.potential_power(i, j) > 0.0) list.push_back(j);
    }
  }
  return expect_reference_ground_set(net, first_slot, per_charger, copy);
}

/// The tasks released by `slot`: a re-plan's candidates.
std::vector<TaskIndex> released_by(const model::Network& net, SlotIndex slot) {
  std::vector<TaskIndex> released;
  for (TaskIndex j = 0; j < net.task_count(); ++j) {
    if (net.tasks()[static_cast<std::size_t>(j)].release_slot <= slot) released.push_back(j);
  }
  return released;
}

/// Rebuilds `base` with a deadline on ~70% of its tasks, inside each window.
model::Network with_deadlines(const model::Network& base, util::Rng& rng,
                              model::DeadlinePolicy policy) {
  std::vector<model::Task> tasks = base.tasks();
  for (model::Task& task : tasks) {
    if (rng.uniform() < 0.7) {
      task.deadline_slot = task.release_slot + static_cast<SlotIndex>(rng.uniform_int(
                                                   0, task.end_slot - task.release_slot));
    }
  }
  return model::Network(base.chargers(), std::move(tasks), base.power_model(), base.time(),
                        nullptr, policy);
}

model::Network preset(int chargers, int tasks, std::uint64_t seed,
                      const std::string& decay = "none") {
  sim::ScenarioConfig config = sim::ScenarioConfig::paper_default();
  config.chargers = chargers;
  config.tasks = tasks;
  if (decay != "none") {
    config.deadline_decay = decay;
    config.deadline_beta = 6.0;
    config.deadline_fraction = 0.7;
  }
  util::Rng rng(seed);
  return sim::generate_scenario(config, rng);
}

TEST(GroundSet, RandomSmallInstancesMatchPerSlotReference) {
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const int n = static_cast<int>(rng.uniform_int(3, 8));
    const int m = static_cast<int>(rng.uniform_int(8, 24));
    const int slots = static_cast<int>(rng.uniform_int(4, 12));
    const model::Network net = testing_helpers::random_network(rng, n, m, slots);
    const Coverage full = check(net, 0);
    total.partitions += full.partitions;
    total.shared += full.shared;
    // The re-plan shape: from a later slot, over the tasks released by then.
    const SlotIndex first_slot = static_cast<SlotIndex>(rng.uniform_int(1, slots));
    const std::vector<TaskIndex> released = released_by(net, first_slot);
    check(net, first_slot, &released);
    check(net, first_slot);
  }
  EXPECT_GT(total.partitions, 500u);
  EXPECT_GT(total.shared, 0u);
}

TEST(GroundSet, RandomDeadlineInstancesMatchPerSlotReference) {
  Coverage total;
  const model::DeadlinePolicy policies[] = {
      model::DeadlinePolicy{model::DeadlineDecay::kLinear, 2.0},
      model::DeadlinePolicy{model::DeadlineDecay::kExp, 3.0},
      model::DeadlinePolicy{model::DeadlineDecay::kHard, 0.0},
  };
  for (std::uint64_t seed = 1; seed <= 21; ++seed) {
    const model::DeadlinePolicy& policy = policies[seed % 3];
    SCOPED_TRACE("seed " + std::to_string(seed) + " decay " +
                 model::DeadlinePolicy::decay_name(policy.decay));
    util::Rng rng(100 + seed);
    const model::Network base = testing_helpers::random_network(rng, 5, 16, 10);
    const model::Network net = with_deadlines(base, rng, policy);
    const Coverage full = check(net, 0);
    total.partitions += full.partitions;
    total.shared += full.shared;
    total.tardy += full.tardy;
    check(net, 3);
  }
  EXPECT_GT(total.shared, 0u);
  EXPECT_GT(total.tardy, 0u);
}

TEST(GroundSet, PaperAndDoublePresetsShareMostBodies) {
  for (const auto& [chargers, tasks] : {std::pair{50, 200}, std::pair{100, 400}}) {
    SCOPED_TRACE(std::to_string(chargers) + "/" + std::to_string(tasks));
    const model::Network net = preset(chargers, tasks, 31);
    const Coverage coverage = check(net, 0);
    // Tasks stay active for many slots, so most partitions repeat their
    // charger's previous-slot body.
    EXPECT_GT(2 * coverage.shared, coverage.partitions);
  }
}

TEST(GroundSet, DeadlinePresetsMatchPerSlotReference) {
  for (const char* decay : {"linear", "exp", "hard"}) {
    SCOPED_TRACE(decay);
    const model::Network net = preset(50, 200, 32, decay);
    ASSERT_TRUE(net.has_deadlines());
    const Coverage coverage = check(net, 0);
    EXPECT_GT(coverage.shared, 0u);
    if (std::string(decay) != "hard") {
      EXPECT_GT(coverage.tardy, 0u);
    }
  }
}

TEST(GroundSet, ReplanFromLaterSlotOverReleasedTasks) {
  const model::Network net = preset(50, 200, 33, "linear");
  for (const SlotIndex first_slot : {1, 30, 90}) {
    SCOPED_TRACE("first slot " + std::to_string(first_slot));
    const std::vector<TaskIndex> released = released_by(net, first_slot);
    const Coverage coverage = check(net, first_slot, &released);
    EXPECT_GT(coverage.partitions, 0u);
  }
}

}  // namespace
}  // namespace haste
