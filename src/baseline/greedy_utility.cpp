#include "baseline/greedy_utility.hpp"

#include <span>
#include <vector>

#include "core/dominant_sets.hpp"
#include "core/objective.hpp"

namespace haste::baseline {

model::Schedule schedule_greedy_utility_over(const model::Network& net,
                                             const std::vector<model::TaskIndex>& candidates,
                                             model::SlotIndex first_slot,
                                             std::span<const double> initial_energy) {
  const model::ChargerIndex n = net.charger_count();
  model::Schedule schedule(n, net.horizon());

  for (model::ChargerIndex i = 0; i < n; ++i) {
    const std::vector<core::DominantTaskSet> dominant =
        core::extract_dominant_sets(net, i, candidates);
    if (dominant.empty()) continue;

    // The charger's private view of task energies: only its own deliveries.
    std::vector<double> energy(static_cast<std::size_t>(net.task_count()), 0.0);
    if (!initial_energy.empty()) {
      energy.assign(initial_energy.begin(), initial_energy.end());
    }

    core::SlotPolicies policies;
    for (model::SlotIndex k = first_slot; k < net.horizon(); ++k) {
      core::make_slot_policies(net, i, dominant, k, policies);
      int best = -1;
      double best_gain = 0.0;
      for (std::size_t q = 0; q < policies.size(); ++q) {
        const std::span<const model::TaskIndex> tasks = policies.policy_tasks(q);
        const std::span<const double> delta = policies.policy_energy(q);
        double gain = 0.0;
        for (std::size_t t = 0; t < tasks.size(); ++t) {
          const auto j = static_cast<std::size_t>(tasks[t]);
          gain += net.weighted_task_utility(tasks[t], energy[j] + delta[t]) -
                  net.weighted_task_utility(tasks[t], energy[j]);
        }
        if (gain > best_gain) {
          best_gain = gain;
          best = static_cast<int>(q);
        }
      }
      if (best >= 0) {
        const auto q = static_cast<std::size_t>(best);
        schedule.assign(i, k, policies.orientation[q]);
        const std::span<const model::TaskIndex> tasks = policies.policy_tasks(q);
        const std::span<const double> delta = policies.policy_energy(q);
        for (std::size_t t = 0; t < tasks.size(); ++t) {
          energy[static_cast<std::size_t>(tasks[t])] += delta[t];
        }
      }
    }
  }
  return schedule;
}

model::Schedule schedule_greedy_utility(const model::Network& net) {
  std::vector<model::TaskIndex> all(static_cast<std::size_t>(net.task_count()));
  for (std::size_t j = 0; j < all.size(); ++j) all[j] = static_cast<model::TaskIndex>(j);
  return schedule_greedy_utility_over(net, all, 0, {});
}

}  // namespace haste::baseline
