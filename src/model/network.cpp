#include "model/network.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "geom/angle.hpp"
#include "geom/kernel.hpp"

namespace haste::model {

Network::Network(std::vector<Charger> chargers, std::vector<Task> tasks, PowerModel power,
                 TimeGrid time, std::shared_ptr<const UtilityShape> shape,
                 DeadlinePolicy deadline)
    : chargers_(std::move(chargers)),
      tasks_(std::move(tasks)),
      power_(power),
      time_(time),
      shape_(shape != nullptr ? std::move(shape)
                              : std::make_shared<const LinearBoundedShape>()),
      deadline_(deadline) {
  power_.validate();
  time_.validate();
  for (const Task& task : tasks_) task.validate();

  const auto n = static_cast<std::size_t>(charger_count());
  const auto m = static_cast<std::size_t>(task_count());

  horizon_ = 0;
  for (const Task& task : tasks_) horizon_ = std::max(horizon_, task.end_slot);

  coverable_.assign(n, {});
  potential_power_.assign(n, {});
  potential_flat_.assign(n * m, 0.0);
  // The n*m coverage sweep tests every charger against every task's
  // receiving sector. Classify all charger positions per task with one
  // SectorKernel batch (column-major bitmap, covered[j * n + i]), then run an
  // i-major fill computing power only for covered pairs. SectorKernel's
  // bit-compatibility contract plus reusing range_power/incidence_gain
  // verbatim keeps every entry identical to PowerModel::potential_power.
  std::vector<geom::Vec2> positions;
  positions.reserve(n);
  for (const Charger& charger : chargers_) positions.push_back(charger.position);
  std::vector<std::uint8_t> covered(m * n, 0);
  for (std::size_t j = 0; j < m; ++j) {
    const geom::SectorKernel receiving(
        power_.receiving_sector(tasks_[j].position, tasks_[j].orientation));
    receiving.classify(positions, covered.data() + j * n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (covered[j * n + i] == 0) continue;  // potential_power would be 0
      const double p =
          power_.range_power(geom::distance(chargers_[i].position, tasks_[j].position)) *
          power_.incidence_gain(chargers_[i].position, tasks_[j].position,
                                tasks_[j].orientation);
      if (p > 0.0) {
        coverable_[i].push_back(static_cast<TaskIndex>(j));
        potential_power_[i].push_back(p);
        potential_flat_[i * m + j] = p;
      }
    }
  }

  // Two chargers are neighbors iff they share a coverable task.
  std::vector<std::vector<ChargerIndex>> chargers_of_task(m);
  for (std::size_t i = 0; i < n; ++i) {
    for (TaskIndex j : coverable_[i]) {
      chargers_of_task[static_cast<std::size_t>(j)].push_back(static_cast<ChargerIndex>(i));
    }
  }
  neighbors_.assign(n, {});
  for (const auto& group : chargers_of_task) {
    for (ChargerIndex a : group) {
      for (ChargerIndex b : group) {
        if (a != b) neighbors_[static_cast<std::size_t>(a)].push_back(b);
      }
    }
  }
  for (auto& list : neighbors_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  for (const Task& task : tasks_) {
    if (deadline_.active() && task.has_deadline()) {
      has_deadlines_ = true;
      break;
    }
  }

  // Hard mode prunes provably-infeasible tasks up front: with every covering
  // charger aimed straight at task j for its whole pre-deadline active
  // window, the harvest is at most feasible_slots * sum_i P(i, j) * T_s. If
  // even that optimistic bound falls short of E_j, no schedule can complete
  // the task by its deadline. Hard mode treats such a task as not worth
  // serving at all — its partial pre-deadline credit is deliberately
  // forfeited (the device's requirement cannot be met in time) so the
  // scheduler spends that capacity on tasks that can still finish.
  // tardiness_factor reports 0 for every slot of the task, the partition
  // builders drop its rows, and the evaluator applies the same factor, so
  // planned and evaluated utilities stay consistent.
  if (has_deadlines_ && deadline_.decay == DeadlineDecay::kHard) {
    deadline_infeasible_.assign(m, 0);
    for (std::size_t j = 0; j < m; ++j) {
      const Task& task = tasks_[j];
      if (!task.has_deadline()) continue;
      const SlotIndex window_end = std::min(task.end_slot, task.deadline_slot);
      const SlotIndex feasible_slots =
          window_end > task.release_slot ? window_end - task.release_slot : 0;
      double total_power = 0.0;
      for (std::size_t i = 0; i < n; ++i) total_power += potential_flat_[i * m + j];
      const double bound =
          static_cast<double>(feasible_slots) * total_power * time_.slot_seconds;
      if (bound < task.required_energy) deadline_infeasible_[j] = 1;
    }
  }
}

std::span<const TaskIndex> Network::coverable_tasks(ChargerIndex i) const {
  return coverable_.at(static_cast<std::size_t>(i));
}

double Network::potential_power(ChargerIndex i, TaskIndex j) const {
  const auto m = static_cast<std::size_t>(task_count());
  return potential_flat_.at(static_cast<std::size_t>(i) * m + static_cast<std::size_t>(j));
}

geom::Arc Network::coverage_arc(ChargerIndex i, TaskIndex j) const {
  const geom::Vec2 delta =
      tasks_.at(static_cast<std::size_t>(j)).position -
      chargers_.at(static_cast<std::size_t>(i)).position;
  return geom::Arc::centered(delta.angle(), power_.charging_angle);
}

std::span<const ChargerIndex> Network::neighbors(ChargerIndex i) const {
  return neighbors_.at(static_cast<std::size_t>(i));
}

double Network::power(ChargerIndex i, double theta, TaskIndex j) const {
  const Charger& charger = chargers_.at(static_cast<std::size_t>(i));
  const Task& task = tasks_.at(static_cast<std::size_t>(j));
  return power_.power(charger.position, theta, task.position, task.orientation);
}

double Network::weighted_task_utility(TaskIndex j, double harvested_energy) const {
  const Task& task = tasks_.at(static_cast<std::size_t>(j));
  return task.weight * task_utility(*shape_, harvested_energy, task.required_energy);
}

double Network::utility_upper_bound() const {
  double sum = 0.0;
  for (const Task& task : tasks_) sum += task.weight;
  return sum;
}

}  // namespace haste::model
