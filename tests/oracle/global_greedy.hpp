// Reference forms of the global matroid greedy (core/global_greedy.hpp),
// priced through the scalar pricing oracle (oracle/pricing.hpp):
//
//  * eager evaluation: every popped heap entry is re-evaluated before it is
//    trusted, so no entry ever commits on a stale gain. The library's lazy
//    greedy must reach the same planned utility.
//  * lazy evaluation: the library's own algorithm (stale-epoch refresh and
//    the commit-without-re-queue shortcut) with scalar pricing. The library
//    must match it bit for bit, evaluation count included.
//
// Eager commits a popped entry whose fresh gain is within 1e-15 of its
// cached bound instead of re-queueing it, so among floating-point-tied
// maxima it may pick a different member than the lazy heap order. Compare
// schedules only on instances without such ties.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/global_greedy.hpp"

namespace haste::oracle {

/// Called at every evaluation with the ledger the gain of `policy` of
/// `partition` was priced against, so that a differential can hold the
/// library's pricing against it.
using EvaluationProbe =
    std::function<void(const core::MarginalEngine& ledger, const core::PolicyPartition&,
                       std::size_t policy, double gain)>;

/// Eager global greedy over `partitions`, on top of `initial_energy` (empty,
/// or one entry per task). `evaluations` counts every marginal evaluated.
core::GlobalGreedyResult eager_global_greedy(
    const model::Network& net, const std::vector<core::PolicyPartition>& partitions,
    std::span<const double> initial_energy = {}, const EvaluationProbe& probe = {});

/// Lazy global greedy over `partitions`, as core::schedule_global_greedy_over
/// runs it.
core::GlobalGreedyResult lazy_global_greedy(
    const model::Network& net, const std::vector<core::PolicyPartition>& partitions,
    std::span<const double> initial_energy = {}, const EvaluationProbe& probe = {});

/// Eager global greedy over the full horizon.
core::GlobalGreedyResult eager_global_greedy(const model::Network& net);

}  // namespace haste::oracle
