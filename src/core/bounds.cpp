#include "core/bounds.hpp"

#include <algorithm>

#include "core/objective.hpp"

namespace haste::core {

UpperBounds relaxed_upper_bounds(const model::Network& net) {
  UpperBounds bounds;
  const double slot_seconds = net.time().slot_seconds;
  const auto m = static_cast<std::size_t>(net.task_count());

  // Saturation bound: per-task best case.
  std::vector<double> max_energy(m, 0.0);
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    for (model::TaskIndex j : net.coverable_tasks(i)) {
      const model::Task& task = net.tasks()[static_cast<std::size_t>(j)];
      max_energy[static_cast<std::size_t>(j)] +=
          net.potential_power(i, j) * slot_seconds *
          static_cast<double>(task.duration_slots());
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    bounds.saturation_bound +=
        net.weighted_task_utility(static_cast<model::TaskIndex>(j), max_energy[j]);
  }

  // Linear policy bound: sum over partitions of the best linearized gain.
  // For concave U with U(0) = 0, the average slope U(x) / x is nonincreasing,
  // so for every x >= eps:  U(x) <= (U(eps) / eps) * x.  We take eps nine
  // orders of magnitude below the task's requirement — far below any real
  // slot delivery — and inflate marginally for rounding, which keeps the
  // bound valid for every shape the library ships without assuming a closed
  // form for the initial slope.
  const auto initial_slope = [&](model::TaskIndex j) {
    const model::Task& task = net.tasks()[static_cast<std::size_t>(j)];
    const double eps = task.required_energy * 1e-9;
    return net.weighted_task_utility(j, eps) / eps * (1.0 + 1e-9);
  };
  std::vector<double> slope(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    slope[j] = initial_slope(static_cast<model::TaskIndex>(j));
  }

  const std::vector<PolicyPartition> partitions = build_partitions(net);
  for (const PolicyPartition& partition : partitions) {
    double best = 0.0;
    for (std::size_t q = 0; q < partition.policies.size(); ++q) {
      const auto tasks = partition.policy_tasks(q);
      const auto energy = partition.policy_energy(q);
      double gain = 0.0;
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        gain += slope[static_cast<std::size_t>(tasks[t])] * energy[t];
      }
      best = std::max(best, gain);
    }
    bounds.linear_policy_bound += best;
  }

  bounds.combined = std::min({bounds.saturation_bound, bounds.linear_policy_bound,
                              net.utility_upper_bound()});
  return bounds;
}

}  // namespace haste::core
