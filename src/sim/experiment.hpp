// Uniform interface for running any scheduler on a network and collecting
// the metrics the paper's figures report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "model/network.hpp"
#include "model/schedule.hpp"

namespace haste::sim {

/// Every scheduler the evaluation compares.
enum class Algorithm {
  kOfflineHaste,          ///< Algorithm 2 (centralized TabularGreedy)
  kOfflineGreedyUtility,  ///< GreedyUtility with global task knowledge
  kOfflineGreedyCover,    ///< GreedyCover with global task knowledge
  kOfflineRandom,         ///< random dominant-set orientations (floor)
  kOfflineGlobalGreedy,   ///< global lazy matroid greedy (extension)
  kOfflineImproved,       ///< global greedy + local-search refinement (extension)
  kOfflineOptimalRelaxed, ///< exact branch-and-bound OPT of HASTE-R
  kOnlineHaste,           ///< Algorithm 3 (distributed negotiation)
  kOnlineHasteSequential, ///< ordered token protocol (extension)
  kOnlineGreedyUtility,   ///< GreedyUtility re-run per arrival (tau delay)
  kOnlineGreedyCover,     ///< GreedyCover re-run per arrival (tau delay)
};

/// Parses "offline-haste", "online-haste", "greedy-utility", ... ;
/// throws std::invalid_argument on unknown names.
Algorithm parse_algorithm(const std::string& name);

/// Display name of an algorithm.
std::string algorithm_name(Algorithm algorithm);

/// Scheduler knobs shared by the HASTE variants.
struct AlgoParams {
  int colors = 4;
  int samples = 16;
  std::uint64_t seed = 1;
  std::uint64_t brute_force_budget = 5'000'000;  ///< kOfflineOptimalRelaxed only
};

/// Metrics of one run.
struct RunMetrics {
  double weighted_utility = 0.0;   ///< the paper's overall charging utility
  double normalized_utility = 0.0; ///< weighted / sum of weights, in [0, 1]
  double relaxed_utility = 0.0;    ///< same schedule with rho = 0
  std::vector<double> task_utility;///< per-task U_j
  int switches = 0;
  std::uint64_t messages = 0;      ///< online only: broadcasts
  std::uint64_t deliveries = 0;    ///< online only: per-neighbor receptions
  std::uint64_t rounds = 0;        ///< online only
  std::uint64_t negotiations = 0;  ///< online only
  bool exact = true;               ///< kOfflineOptimalRelaxed: search exhausted
};

/// Runs one algorithm on a network. When `schedule` is non-null it receives
/// the schedule the metrics evaluate (the executed one for online runs).
RunMetrics run_algorithm(const model::Network& net, Algorithm algorithm,
                         const AlgoParams& params = {}, model::Schedule* schedule = nullptr);

}  // namespace haste::sim
