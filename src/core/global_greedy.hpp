// Global (matroid) greedy — an alternative offline scheduler to Algorithm
// 2's locally greedy core.
//
// Instead of visiting (charger, slot) partitions in a fixed order, global
// greedy repeatedly adds the element with the best marginal gain over the
// *whole* remaining ground set, until no partition admits a positive gain.
// For monotone submodular objectives under a matroid constraint this also
// carries the classical 1/2 guarantee, and in practice it is slightly
// stronger than locally greedy because early high-value picks steer later
// ones.
//
// Evaluation is Minoux's lazy greedy: every heap entry carries the gain it
// was last evaluated at and the commit count at that time. A popped entry
// from an older epoch is re-evaluated, which submodularity (marginals only
// shrink) makes sound. If the refreshed gain still strictly beats the new
// heap top, the entry commits at once instead of being re-queued, since
// nothing commits before it would pop straight back. The initial heap build
// is evaluated in parallel (all marginals are independent before the first
// commit).
//
// On deadline-driven instances (Network::has_deadlines()) exact gain ties
// break EDF-first: among equal marginals, the element whose policy serves
// the earliest task deadline commits first. Deadline-free instances keep the
// historical lower-element-id tie order (the urgency key is the kNoDeadline
// sentinel everywhere, so the clause is inert).
#pragma once

#include "core/objective.hpp"
#include "model/network.hpp"
#include "model/schedule.hpp"

namespace haste::core {

/// Result: schedule plus the achieved relaxed objective.
struct GlobalGreedyResult {
  model::Schedule schedule;
  double planned_relaxed_utility = 0.0;
  std::uint64_t evaluations = 0;  ///< full marginal (oracle) evaluations
};

/// Runs global greedy over the full horizon.
GlobalGreedyResult schedule_global_greedy(const model::Network& net);

/// Runs global greedy over a precomputed ground set with initial energies
/// (empty, or one entry per task; any other size throws
/// std::invalid_argument).
GlobalGreedyResult schedule_global_greedy_over(
    const model::Network& net, const std::vector<PolicyPartition>& partitions,
    std::span<const double> initial_energy);

}  // namespace haste::core
