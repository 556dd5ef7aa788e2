// Reference form of the global matroid greedy (core/global_greedy.hpp):
// eager evaluation. Every popped heap entry is re-evaluated before it is
// trusted, so no entry ever commits on a stale gain. The library's lazy
// greedy must reach the same planned utility with at most as many
// evaluations.
//
// Eager commits a popped entry whose fresh gain is within 1e-15 of its
// cached bound instead of re-queueing it, so among floating-point-tied
// maxima it may pick a different member than the lazy heap order. Compare
// schedules only on instances without such ties.
#pragma once

#include <span>
#include <vector>

#include "core/global_greedy.hpp"

namespace haste::oracle {

/// Eager global greedy over `partitions`, on top of `initial_energy` (empty,
/// or one entry per task). `evaluations` counts every marginal evaluated.
core::GlobalGreedyResult eager_global_greedy(
    const model::Network& net, const std::vector<core::PolicyPartition>& partitions,
    std::span<const double> initial_energy = {});

/// Eager global greedy over the full horizon.
core::GlobalGreedyResult eager_global_greedy(const model::Network& net);

}  // namespace haste::oracle
