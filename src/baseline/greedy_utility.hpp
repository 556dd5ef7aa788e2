// GreedyUtility baseline (Section 7.2): each charger, independently of all
// other chargers, picks per slot the dominant-set orientation that maximizes
// the charging utility increment — computed against its *own* deliveries
// only, i.e. ignoring the scheduling policies of its neighbors.
#pragma once

#include "model/network.hpp"
#include "model/schedule.hpp"

namespace haste::baseline {

/// Runs GreedyUtility over the full horizon with global task knowledge.
model::Schedule schedule_greedy_utility(const model::Network& net);

/// Restricted variant for the online simulator: considers only `candidates`
/// (released tasks), plans slots [first_slot, horizon), and starts each task
/// from the given already-harvested energy. `initial_energy` may be empty;
/// otherwise it has one entry per task, or std::invalid_argument is thrown.
model::Schedule schedule_greedy_utility_over(const model::Network& net,
                                             const std::vector<model::TaskIndex>& candidates,
                                             model::SlotIndex first_slot,
                                             std::span<const double> initial_energy);

}  // namespace haste::baseline
