// Centralized offline scheduler — Algorithm 2 of the paper (TabularGreedy
// tailored to HASTE).
//
// For each color c in [C] and each (charger, slot) partition in slot-major
// order, greedily add the S-C tuple maximizing the expected sampled utility;
// finally draw one color per partition and execute the matching selections.
// Each (partition, color) visit prices every policy of the partition in one
// batched MarginalEngine::partition_marginals call.
// C = 1 is exactly the locally greedy algorithm (1/2 approximation of
// HASTE-R); C -> infinity approaches 1 - 1/e; switching delay costs at most a
// (1 - rho) factor (Theorem 5.1).
#pragma once

#include <cstdint>

#include "core/objective.hpp"
#include "model/network.hpp"
#include "model/schedule.hpp"

namespace haste::core {

/// Tuning knobs of the offline scheduler.
struct OfflineConfig {
  int colors = 4;              ///< C; 1 = plain locally greedy
  int samples = 16;            ///< color-panel size for estimating F(Q)
  std::uint64_t seed = 1;      ///< seeds the color panel and final sampling
  bool switch_avoiding_tiebreak = true;  ///< prefer keeping yesterday's angle on ties
  bool commit_zero_marginal = false;     ///< add argmax tuples even at zero gain
                                         ///< (pure TabularGreedy; causes useless switches)
};

/// Result of the offline scheduler: the schedule plus the planner's internal
/// estimate of the relaxed objective (useful for diagnostics).
struct OfflineResult {
  model::Schedule schedule;
  double planned_relaxed_utility = 0.0;  ///< F(Q) estimate after the greedy
  /// Engine effort counters for the run (see MarginalEngine::Stats): the
  /// per-(row, sample) utility-delta evaluations and the full oracle calls.
  /// Every policy is priced once per color stage: one oracle call per
  /// (policy, color) and one row evaluation per (row, matching sample).
  std::uint64_t row_evaluations = 0;
  std::uint64_t marginal_evaluations = 0;
};

/// Runs Algorithm 2 on the full horizon.
OfflineResult schedule_offline(const model::Network& net, const OfflineConfig& config = {});

/// Runs Algorithm 2 over a precomputed ground set (the online scheduler
/// reuses this for its "what would the centralized planner do" reference),
/// with per-task initial energies for re-planning. `initial_energy` may be
/// empty (all zeros). The schedule returned covers [0, net.horizon()); only
/// slots present in `partitions` receive assignments.
OfflineResult schedule_offline_over(const model::Network& net,
                                    const std::vector<PolicyPartition>& partitions,
                                    const OfflineConfig& config,
                                    std::span<const double> initial_energy);

}  // namespace haste::core
