#include "core/evaluate.hpp"

#include <algorithm>
#include <optional>

#include "geom/arc.hpp"

namespace haste::core {

namespace {

/// Shared slot-playback loop. Calls
/// `deposit(slot, task, joules_real, joules_relaxed)` for every
/// (charger, slot, task) power contribution; the slot lets deadline-aware
/// callers apply the per-(task, slot) tardiness discount.
template <typename Deposit>
int play_schedule(const model::Network& net, const model::Schedule& schedule,
                  model::SlotIndex slots, Deposit&& deposit) {
  const model::ChargerIndex n = net.charger_count();
  const double slot_seconds = net.time().slot_seconds;
  int switches = 0;

  // Per charger: coverage arcs of its coverable tasks, computed once, and the
  // positions (ascending) of the coverable tasks its current orientation
  // covers. An orientation changes only when the charger switches, so that
  // is the only time the positions are recomputed; the deposits below keep
  // their set and their order.
  std::vector<std::vector<geom::Arc>> arcs(static_cast<std::size_t>(n));
  for (model::ChargerIndex i = 0; i < n; ++i) {
    const auto tasks = net.coverable_tasks(i);
    arcs[static_cast<std::size_t>(i)].reserve(tasks.size());
    for (model::TaskIndex j : tasks) {
      arcs[static_cast<std::size_t>(i)].push_back(net.coverage_arc(i, j));
    }
  }
  std::vector<std::vector<std::size_t>> covered(static_cast<std::size_t>(n));

  std::vector<std::optional<double>> current(static_cast<std::size_t>(n));
  for (model::SlotIndex k = 0; k < slots; ++k) {
    for (model::ChargerIndex i = 0; i < n; ++i) {
      auto& orientation = current[static_cast<std::size_t>(i)];
      if (schedule.disabled_at(i, k)) {  // failed charger: permanently silent
        orientation.reset();
        continue;
      }
      const model::SlotAssignment assigned = schedule.assignment(i, k);
      bool switching = false;
      if (assigned.has_value()) {
        switching = !orientation.has_value() || *orientation != *assigned;
        orientation = assigned;
      }
      auto& charger_covered = covered[static_cast<std::size_t>(i)];
      if (switching) {
        ++switches;
        const auto& charger_arcs = arcs[static_cast<std::size_t>(i)];
        charger_covered.clear();
        for (std::size_t t = 0; t < charger_arcs.size(); ++t) {
          if (charger_arcs[t].contains(*orientation)) charger_covered.push_back(t);
        }
      }
      if (!orientation.has_value()) continue;  // Phi: silent

      const double real_seconds = net.time().effective_seconds(switching);
      const auto tasks = net.coverable_tasks(i);
      for (const std::size_t t : charger_covered) {
        const model::TaskIndex j = tasks[t];
        if (!net.tasks()[static_cast<std::size_t>(j)].active(k)) continue;
        const double watts = net.potential_power(i, j);
        deposit(k, j, watts * real_seconds, watts * slot_seconds);
      }
    }
  }
  return switches;
}

}  // namespace

EvaluationResult evaluate_schedule(const model::Network& net,
                                   const model::Schedule& schedule) {
  const auto m = static_cast<std::size_t>(net.task_count());
  const bool deadlines = net.has_deadlines();
  EvaluationResult result;
  result.task_energy.assign(m, 0.0);
  result.task_effective_energy.assign(m, 0.0);
  std::vector<double> relaxed_energy(m, 0.0);

  result.switches = play_schedule(
      net, schedule, schedule.horizon(),
      [&](model::SlotIndex k, model::TaskIndex j, double joules_real,
          double joules_relaxed) {
        const auto idx = static_cast<std::size_t>(j);
        result.task_energy[idx] += joules_real;
        if (deadlines) {
          // Tardy harvest counts at the discounted rate; factor == 1 skips
          // the multiply so deadline-free deposits keep their exact bits.
          const double factor = net.tardiness_factor(j, k);
          if (factor == 0.0) return;
          if (factor != 1.0) {
            joules_real *= factor;
            joules_relaxed *= factor;
          }
        }
        result.task_effective_energy[idx] += joules_real;
        relaxed_energy[idx] += joules_relaxed;
      });

  result.task_utility.assign(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    const model::Task& task = net.tasks()[j];
    result.task_utility[j] = model::task_utility(
        net.utility_shape(), result.task_effective_energy[j], task.required_energy);
    result.weighted_utility += task.weight * result.task_utility[j];
    result.relaxed_weighted_utility +=
        net.weighted_task_utility(static_cast<model::TaskIndex>(j), relaxed_energy[j]);
  }
  return result;
}

std::vector<double> prefix_task_energy(const model::Network& net,
                                       const model::Schedule& schedule,
                                       model::SlotIndex slots) {
  std::vector<double> energy(static_cast<std::size_t>(net.task_count()), 0.0);
  const bool deadlines = net.has_deadlines();
  slots = std::min(slots, schedule.horizon());
  play_schedule(net, schedule, slots,
                [&](model::SlotIndex k, model::TaskIndex j, double joules_real,
                    double) {
                  if (deadlines) {
                    const double factor = net.tardiness_factor(j, k);
                    if (factor == 0.0) return;
                    if (factor != 1.0) joules_real *= factor;
                  }
                  energy[static_cast<std::size_t>(j)] += joules_real;
                });
  return energy;
}

}  // namespace haste::core
