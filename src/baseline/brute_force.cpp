#include "baseline/brute_force.hpp"

#include <algorithm>
#include <vector>

#include "core/objective.hpp"

namespace haste::baseline {

namespace {

class Search {
 public:
  Search(const model::Network& net, std::vector<core::PolicyPartition> partitions,
         std::uint64_t node_budget)
      : net_(net), partitions_(std::move(partitions)), node_budget_(node_budget) {
    const auto m = static_cast<std::size_t>(net.task_count());
    const std::size_t p_count = partitions_.size();

    // remaining_[p * m + j]: the most energy task j can still collect from
    // partitions p, p+1, ..., end (each contributing its best policy for j).
    remaining_.assign((p_count + 1) * m, 0.0);
    for (std::size_t p = p_count; p-- > 0;) {
      for (std::size_t j = 0; j < m; ++j) {
        remaining_[p * m + j] = remaining_[(p + 1) * m + j];
      }
      const core::PolicyPartition& partition = partitions_[p];
      for (std::size_t t = 0; t < partition.flat_tasks.size(); ++t) {
        const auto j = static_cast<std::size_t>(partition.flat_tasks[t]);
        // A partition can run at most one policy, so the per-partition
        // best-case contribution to j is the max over its policies.
        // We conservatively take max(previous, this delivery).
        remaining_[p * m + j] =
            std::max(remaining_[p * m + j],
                     remaining_[(p + 1) * m + j] + partition.flat_energy[t]);
      }
    }

    energy_.assign(m, 0.0);
    utility_.assign(m, 0.0);
    choice_.assign(p_count, -1);
    best_choice_ = choice_;
  }

  BruteForceResult run() {
    dfs(0, 0.0);
    BruteForceResult result;
    result.relaxed_utility = best_value_;
    result.nodes_explored = nodes_;
    result.exhausted = !budget_hit_;
    result.schedule = model::Schedule(net_.charger_count(), net_.horizon());
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      if (best_choice_[p] >= 0) {
        result.schedule.assign(
            partitions_[p].charger, partitions_[p].slot,
            partitions_[p].policies[static_cast<std::size_t>(best_choice_[p])].orientation);
      }
    }
    return result;
  }

 private:
  double upper_bound(std::size_t p, double current) const {
    const auto m = static_cast<std::size_t>(net_.task_count());
    double bound = current;
    const double* rem = remaining_.data() + p * m;
    for (std::size_t j = 0; j < m; ++j) {
      if (rem[j] <= 0.0) continue;
      bound += net_.weighted_task_utility(static_cast<model::TaskIndex>(j),
                                          energy_[j] + rem[j]) -
               utility_[j];
    }
    return bound;
  }

  void dfs(std::size_t p, double current) {
    ++nodes_;
    if (nodes_ > node_budget_) {
      budget_hit_ = true;
      return;
    }
    if (current > best_value_) {
      best_value_ = current;
      best_choice_ = choice_;
    }
    if (p == partitions_.size() || budget_hit_) return;
    if (upper_bound(p, current) <= best_value_ + 1e-12) return;  // prune

    const core::PolicyPartition& partition = partitions_[p];
    // Try the policy with the best immediate gain first for a strong
    // incumbent, then the rest, then "no policy".
    std::vector<std::pair<double, int>> order;
    order.reserve(partition.policies.size());
    for (std::size_t q = 0; q < partition.policies.size(); ++q) {
      order.emplace_back(immediate_gain(partition.policy_rows(q)), static_cast<int>(q));
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    for (const auto& [gain, q] : order) {
      const std::vector<Saved> saved =
          apply(partition.policy_rows(static_cast<std::size_t>(q)));
      choice_[p] = q;
      dfs(p + 1, current + gain);
      choice_[p] = -1;
      undo(saved);
      if (budget_hit_) return;
    }
    dfs(p + 1, current);  // leave this partition empty
  }

  double immediate_gain(const core::kernels::RowView& policy) const {
    double gain = 0.0;
    for (std::size_t t = 0; t < policy.size(); ++t) {
      const auto j = static_cast<std::size_t>(policy.tasks[t]);
      gain += net_.weighted_task_utility(static_cast<model::TaskIndex>(j),
                                         energy_[j] + policy.delta[t]) -
              utility_[j];
    }
    return gain;
  }

  // Exact backtracking: snapshot the touched tasks' state instead of
  // re-subtracting, so floating-point state is restored bit-for-bit.
  struct Saved {
    std::size_t task;
    double energy;
    double utility;
  };

  std::vector<Saved> apply(const core::kernels::RowView& policy) {
    std::vector<Saved> saved;
    saved.reserve(policy.size());
    for (std::size_t t = 0; t < policy.size(); ++t) {
      const auto j = static_cast<std::size_t>(policy.tasks[t]);
      saved.push_back({j, energy_[j], utility_[j]});
      energy_[j] += policy.delta[t];
      utility_[j] =
          net_.weighted_task_utility(static_cast<model::TaskIndex>(j), energy_[j]);
    }
    return saved;
  }

  void undo(const std::vector<Saved>& saved) {
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
      energy_[it->task] = it->energy;
      utility_[it->task] = it->utility;
    }
  }

  const model::Network& net_;
  std::vector<core::PolicyPartition> partitions_;
  std::uint64_t node_budget_;
  std::vector<double> remaining_;
  std::vector<double> energy_;
  std::vector<double> utility_;  // cached weighted utility at energy_
  std::vector<int> choice_;
  std::vector<int> best_choice_;
  double best_value_ = 0.0;
  std::uint64_t nodes_ = 0;
  bool budget_hit_ = false;
};

}  // namespace

BruteForceResult optimal_relaxed(const model::Network& net, std::uint64_t node_budget) {
  return Search(net, core::build_partitions(net), node_budget).run();
}

}  // namespace haste::baseline
