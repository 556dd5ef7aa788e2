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
// Three evaluation strategies, cheapest first:
//
//  * kIncremental (default) — task-level dirty tracking with per-row term
//    caching. The engine bumps a version counter per task on every
//    utility-changing commit; a heap entry whose policy's tasks are all
//    untouched since its evaluation holds an EXACT gain (a marginal depends
//    on engine state only through those tasks' utilities) and commits with
//    zero re-evaluation. Staleness is detected by scanning the policy's task
//    versions at pop time, which costs one pass over the rows but avoids any
//    per-commit fan-out over the elements sharing a task. A dirty entry is
//    not re-evaluated either: each element caches its per-row utility terms with
//    the task version they were computed at, so a refresh recomputes only
//    the rows whose task actually moved and re-sums the row chain in row
//    order — bit-identical to a full evaluation, at a fraction of the work.
//    After the initial heap build the marginal oracle is never called again;
//    `evaluations` stays at the ground-set size and the partial work is
//    reported as `row_corrections`.
//  * kLazy — Minoux's accelerated greedy: one global epoch; every popped
//    entry from an older epoch is re-evaluated, which submodularity
//    (marginals only shrink) makes sound but is pessimistic when the commit
//    touched disjoint tasks.
//  * kEager — re-evaluates every popped entry; the reference for the other
//    two and the differential tests.
//
// Incremental and lazy return bit-identical schedules (eager matches too,
// except that it may resolve equal-gain ties differently: it commits a
// popped entry whose fresh gain is within 1e-15 of its cached bound instead
// of re-queueing it). Evaluation counts are ordered incremental <= lazy <=
// eager. The initial heap build is evaluated in parallel (all marginals are
// independent before the first commit).
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

/// Marginal-evaluation strategy of the global greedy scheduler.
enum class GreedyMode {
  kEager,        ///< re-evaluate every popped entry
  kLazy,         ///< global-epoch lazy evaluation (Minoux)
  kIncremental,  ///< per-task version tracking; exact cached gains
};

/// Tuning knobs of the global greedy scheduler (single color / C = 1).
struct GlobalGreedyConfig {
  GreedyMode mode = GreedyMode::kIncremental;
};

/// Result: schedule plus the achieved relaxed objective.
struct GlobalGreedyResult {
  model::Schedule schedule;
  double planned_relaxed_utility = 0.0;
  std::uint64_t evaluations = 0;  ///< full marginal (oracle) evaluations
  /// Individual policy rows recomputed by kIncremental's partial refreshes;
  /// the other modes always run full evaluations and leave this at 0.
  std::uint64_t row_corrections = 0;
};

/// Runs global greedy over the full horizon.
GlobalGreedyResult schedule_global_greedy(const model::Network& net,
                                          const GlobalGreedyConfig& config = {});

/// Runs global greedy over a precomputed ground set with initial energies
/// (empty, or one entry per task; any other size throws
/// std::invalid_argument).
GlobalGreedyResult schedule_global_greedy_over(
    const model::Network& net, const std::vector<PolicyPartition>& partitions,
    const GlobalGreedyConfig& config, std::span<const double> initial_energy);

}  // namespace haste::core
