#include "sim/experiment.hpp"

#include <stdexcept>

#include "baseline/brute_force.hpp"
#include "baseline/greedy_cover.hpp"
#include "baseline/greedy_utility.hpp"
#include "baseline/random_orient.hpp"
#include "core/evaluate.hpp"
#include "core/global_greedy.hpp"
#include "core/local_search.hpp"
#include "core/offline.hpp"
#include "dist/online.hpp"

namespace haste::sim {

Algorithm parse_algorithm(const std::string& name) {
  if (name == "offline-haste") return Algorithm::kOfflineHaste;
  if (name == "offline-greedy-utility") return Algorithm::kOfflineGreedyUtility;
  if (name == "offline-greedy-cover") return Algorithm::kOfflineGreedyCover;
  if (name == "offline-random") return Algorithm::kOfflineRandom;
  if (name == "offline-global-greedy") return Algorithm::kOfflineGlobalGreedy;
  if (name == "offline-improved") return Algorithm::kOfflineImproved;
  if (name == "offline-optimal") return Algorithm::kOfflineOptimalRelaxed;
  if (name == "online-haste") return Algorithm::kOnlineHaste;
  if (name == "online-haste-seq") return Algorithm::kOnlineHasteSequential;
  if (name == "online-greedy-utility") return Algorithm::kOnlineGreedyUtility;
  if (name == "online-greedy-cover") return Algorithm::kOnlineGreedyCover;
  throw std::invalid_argument("unknown algorithm: " + name);
}

std::string algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kOfflineHaste: return "offline-haste";
    case Algorithm::kOfflineGreedyUtility: return "offline-greedy-utility";
    case Algorithm::kOfflineGreedyCover: return "offline-greedy-cover";
    case Algorithm::kOfflineRandom: return "offline-random";
    case Algorithm::kOfflineGlobalGreedy: return "offline-global-greedy";
    case Algorithm::kOfflineImproved: return "offline-improved";
    case Algorithm::kOfflineOptimalRelaxed: return "offline-optimal";
    case Algorithm::kOnlineHaste: return "online-haste";
    case Algorithm::kOnlineHasteSequential: return "online-haste-seq";
    case Algorithm::kOnlineGreedyUtility: return "online-greedy-utility";
    case Algorithm::kOnlineGreedyCover: return "online-greedy-cover";
  }
  return "?";
}

namespace {

RunMetrics from_evaluation(const model::Network& net,
                           const core::EvaluationResult& evaluation) {
  RunMetrics metrics;
  metrics.weighted_utility = evaluation.weighted_utility;
  const double bound = net.utility_upper_bound();
  metrics.normalized_utility = bound > 0.0 ? evaluation.weighted_utility / bound : 0.0;
  metrics.relaxed_utility = evaluation.relaxed_weighted_utility;
  metrics.task_utility = evaluation.task_utility;
  metrics.switches = evaluation.switches;
  return metrics;
}

}  // namespace

RunMetrics run_algorithm(const model::Network& net, Algorithm algorithm,
                         const AlgoParams& params) {
  switch (algorithm) {
    case Algorithm::kOfflineHaste: {
      const core::OfflineResult result = core::schedule_offline(
          net, core::OfflineConfig{params.colors, params.samples, params.seed,
                                   /*switch_avoiding_tiebreak=*/true,
                                   /*commit_zero_marginal=*/false});
      return from_evaluation(net, core::evaluate_schedule(net, result.schedule));
    }
    case Algorithm::kOfflineGreedyUtility:
      return from_evaluation(
          net, core::evaluate_schedule(net, baseline::schedule_greedy_utility(net)));
    case Algorithm::kOfflineGreedyCover:
      return from_evaluation(
          net, core::evaluate_schedule(net, baseline::schedule_greedy_cover(net)));
    case Algorithm::kOfflineRandom:
      return from_evaluation(
          net, core::evaluate_schedule(net, baseline::schedule_random(net, params.seed)));
    case Algorithm::kOfflineGlobalGreedy:
      return from_evaluation(
          net, core::evaluate_schedule(net, core::schedule_global_greedy(net).schedule));
    case Algorithm::kOfflineImproved: {
      const core::GlobalGreedyResult greedy = core::schedule_global_greedy(net);
      const auto partitions = core::build_partitions(net);
      const core::LocalSearchResult improved =
          core::improve_schedule(net, partitions, greedy.schedule);
      return from_evaluation(net, core::evaluate_schedule(net, improved.schedule));
    }
    case Algorithm::kOfflineOptimalRelaxed: {
      const baseline::BruteForceResult result =
          baseline::optimal_relaxed(net, params.brute_force_budget);
      RunMetrics metrics =
          from_evaluation(net, core::evaluate_schedule(net, result.schedule));
      // For the optimum we report the *relaxed* objective as the headline
      // number (the paper's OPT curve has no switching delay).
      metrics.weighted_utility = result.relaxed_utility;
      const double bound = net.utility_upper_bound();
      metrics.normalized_utility = bound > 0.0 ? result.relaxed_utility / bound : 0.0;
      metrics.exact = result.exhausted;
      return metrics;
    }
    case Algorithm::kOnlineHaste:
    case Algorithm::kOnlineHasteSequential:
    case Algorithm::kOnlineGreedyUtility:
    case Algorithm::kOnlineGreedyCover: {
      dist::OnlineConfig config;
      config.colors = params.colors;
      config.samples = params.samples;
      config.seed = params.seed;
      config.mode = params.mode;
      switch (algorithm) {
        case Algorithm::kOnlineHaste:
          config.strategy = dist::OnlineStrategy::kHaste;
          break;
        case Algorithm::kOnlineHasteSequential:
          config.strategy = dist::OnlineStrategy::kHasteSequential;
          break;
        case Algorithm::kOnlineGreedyUtility:
          config.strategy = dist::OnlineStrategy::kGreedyUtility;
          break;
        default:
          config.strategy = dist::OnlineStrategy::kGreedyCover;
          break;
      }
      const dist::OnlineResult result = dist::run_online(net, config);
      RunMetrics metrics = from_evaluation(net, result.evaluation);
      metrics.messages = result.messages;
      metrics.deliveries = result.deliveries;
      metrics.rounds = result.rounds;
      metrics.negotiations = result.negotiations;
      return metrics;
    }
  }
  throw std::logic_error("unreachable algorithm case");
}

}  // namespace haste::sim
