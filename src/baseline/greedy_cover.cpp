#include "baseline/greedy_cover.hpp"

#include <optional>
#include <vector>

#include "core/dominant_sets.hpp"
#include "core/objective.hpp"

namespace haste::baseline {

model::Schedule schedule_greedy_cover_over(const model::Network& net,
                                           const std::vector<model::TaskIndex>& candidates,
                                           model::SlotIndex first_slot) {
  const model::ChargerIndex n = net.charger_count();
  model::Schedule schedule(n, net.horizon());

  for (model::ChargerIndex i = 0; i < n; ++i) {
    const std::vector<core::DominantTaskSet> dominant =
        core::extract_dominant_sets(net, i, candidates);
    if (dominant.empty()) continue;

    std::optional<double> previous;
    core::SlotPolicies policies;
    for (model::SlotIndex k = first_slot; k < net.horizon(); ++k) {
      core::make_slot_policies(net, i, dominant, k, policies);
      int best = -1;
      std::size_t best_cover = 0;
      bool best_is_previous = false;
      for (std::size_t q = 0; q < policies.size(); ++q) {
        const std::size_t cover = policies.policy_tasks(q).size();
        const bool is_previous = previous.has_value() && policies.orientation[q] == *previous;
        if (cover > best_cover || (cover == best_cover && is_previous && !best_is_previous)) {
          best_cover = cover;
          best = static_cast<int>(q);
          best_is_previous = is_previous;
        }
      }
      if (best >= 0) {
        schedule.assign(i, k, policies.orientation[static_cast<std::size_t>(best)]);
        previous = policies.orientation[static_cast<std::size_t>(best)];
      }
    }
  }
  return schedule;
}

model::Schedule schedule_greedy_cover(const model::Network& net) {
  std::vector<model::TaskIndex> all(static_cast<std::size_t>(net.task_count()));
  for (std::size_t j = 0; j < all.size(); ++j) all[j] = static_cast<model::TaskIndex>(j);
  return schedule_greedy_cover_over(net, all, 0);
}

}  // namespace haste::baseline
