#include "core/local_search.hpp"

#include <algorithm>
#include <vector>

namespace haste::core {

namespace {

/// Tracks per-task relaxed energy and the weighted utility total, supporting
/// incremental add/remove of policy contributions.
class ObjectiveState {
 public:
  explicit ObjectiveState(const model::Network& net)
      : net_(&net), energy_(static_cast<std::size_t>(net.task_count()), 0.0) {}

  void add(const kernels::RowView& policy, int sign) {
    for (std::size_t t = 0; t < policy.size(); ++t) {
      const auto j = static_cast<std::size_t>(policy.tasks[t]);
      energy_[j] = std::max(0.0, energy_[j] + sign * policy.delta[t]);
    }
  }

  /// Objective delta of applying `sign * policy` without committing.
  double delta(const kernels::RowView& policy, int sign) const {
    double d = 0.0;
    for (std::size_t t = 0; t < policy.size(); ++t) {
      const auto j = static_cast<std::size_t>(policy.tasks[t]);
      const double before = energy_[j];
      const double after = std::max(0.0, before + sign * policy.delta[t]);
      d += net_->weighted_task_utility(static_cast<model::TaskIndex>(j), after) -
           net_->weighted_task_utility(static_cast<model::TaskIndex>(j), before);
    }
    return d;
  }

  double total() const {
    double sum = 0.0;
    for (std::size_t j = 0; j < energy_.size(); ++j) {
      sum += net_->weighted_task_utility(static_cast<model::TaskIndex>(j), energy_[j]);
    }
    return sum;
  }

 private:
  const model::Network* net_;
  std::vector<double> energy_;
};

}  // namespace

LocalSearchResult improve_schedule(const model::Network& net,
                                   const std::vector<PolicyPartition>& partitions,
                                   const model::Schedule& schedule,
                                   const LocalSearchConfig& config) {
  // Recover the per-partition selection from the schedule by matching the
  // assigned orientation against the partition's policy witnesses.
  std::vector<int> selection(partitions.size(), -1);
  ObjectiveState state(net);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const model::SlotAssignment assigned =
        schedule.assignment(partitions[p].charger, partitions[p].slot);
    if (!assigned.has_value()) continue;
    for (std::size_t q = 0; q < partitions[p].policies.size(); ++q) {
      if (partitions[p].policies[q].orientation == *assigned) {
        selection[p] = static_cast<int>(q);
        state.add(partitions[p].policy_rows(q), +1);
        break;
      }
    }
  }

  LocalSearchResult result;
  result.initial_relaxed_utility = state.total();

  for (int pass = 0; pass < config.max_passes; ++pass) {
    const double before_pass = state.total();
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      const int current = selection[p];
      // Remove the current choice, then pick the best replacement (possibly
      // none, possibly the same one back; ties prefer the current choice to
      // avoid churn and pointless switching).
      if (current >= 0) {
        state.add(partitions[p].policy_rows(static_cast<std::size_t>(current)), -1);
      }
      int best = -1;
      double best_delta = config.min_gain;  // only strictly positive picks
      for (std::size_t q = 0; q < partitions[p].policies.size(); ++q) {
        const double d = state.delta(partitions[p].policy_rows(q), +1);
        const bool better =
            d > best_delta + config.min_gain ||
            (static_cast<int>(q) == current && d >= best_delta - config.min_gain);
        if (better) {
          best = static_cast<int>(q);
          best_delta = d;
        }
      }
      if (best >= 0) {
        state.add(partitions[p].policy_rows(static_cast<std::size_t>(best)), +1);
      }
      if (best != current) ++result.swaps;
      selection[p] = best;
    }
    ++result.passes;
    if (state.total() - before_pass <= config.min_gain) break;
  }

  result.schedule = model::Schedule(net.charger_count(), net.horizon());
  // Preserve assignments that were not part of the ground set (defensive:
  // none are produced by the library's schedulers).
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
      const model::SlotAssignment a = schedule.assignment(i, k);
      if (a.has_value()) result.schedule.assign(i, k, *a);
    }
  }
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    if (selection[p] >= 0) {
      result.schedule.assign(partitions[p].charger, partitions[p].slot,
                             partitions[p].policies[static_cast<std::size_t>(selection[p])]
                                 .orientation);
    } else {
      result.schedule.clear(partitions[p].charger, partitions[p].slot);
    }
  }
  result.relaxed_utility = state.total();
  return result;
}

}  // namespace haste::core
