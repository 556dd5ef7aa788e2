// Reference forms of offline TabularGreedy (Algorithm 2) for differential
// tests. Both run the textbook loop — every (partition, color) visit prices
// each policy on its own through the scalar pricing oracle
// (tests/oracle/pricing.hpp) and commits the winner into the ledger — that
// core::schedule_offline_over runs batched (partition_marginals +
// commit_energy, a from-scratch rebuild of every marginal each stage). They
// differ only in how one policy's marginal is priced:
//
//  * kPerPolicy — one oracle marginal per policy per visit.
//  * kIncremental — the dirty-tracking form: one term cache per
//    (charger, task, sample) holding the term, the row delta it was priced
//    for and the task's (task, sample) version at the time. A row reuses the
//    cached term when both still match, across the policies of a partition
//    and across the charger's slots and stages, and is re-priced otherwise.
//    This leans on the engine's contract that an unchanged version means an
//    exact cached term, which the distributed nodes rely on too.
//
// Both report the oracle's row-term count as row_evaluations and its
// marginal count as marginal_evaluations (kIncremental prices row by row,
// so its marginal count is 0). The per-policy counts equal the library
// scheduler's, and both references must agree with it bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "core/offline.hpp"
#include "oracle/pricing.hpp"

namespace haste::testing_helpers {

enum class ReferencePricing { kPerPolicy, kIncremental };

/// Called at every (partition, color) visit with the ledger the visit priced
/// against and the reference's marginal of each policy of the partition, so
/// that a differential can hold the library's pricing against them.
using VisitProbe =
    std::function<void(const core::MarginalEngine& ledger, const core::PolicyPartition&,
                       int color, std::span<const double> marginals)>;

inline core::OfflineResult reference_offline(
    const model::Network& net, const std::vector<core::PolicyPartition>& partitions,
    const core::OfflineConfig& config, std::span<const double> initial_energy = {},
    ReferencePricing pricing = ReferencePricing::kPerPolicy, const VisitProbe& probe = {}) {
  constexpr double kTieSlack = 1e-12;  // the scheduler's switch-avoiding tie band
  constexpr std::uint64_t kUnpriced = std::numeric_limits<std::uint64_t>::max();
  core::MarginalEngine ledger(
      net, core::MarginalEngine::Config{config.colors, config.samples, config.seed},
      initial_energy);
  oracle::ScalarPricing oracle(net);
  const auto colors = static_cast<std::size_t>(ledger.colors());
  const auto samples = static_cast<std::size_t>(ledger.samples());
  struct CachedTerm {
    double delta = 0.0;
    double term = 0.0;
    std::uint64_t version = kUnpriced;
  };
  const auto tasks = static_cast<std::size_t>(net.task_count());
  std::vector<CachedTerm> cache(
      pricing == ReferencePricing::kIncremental
          ? static_cast<std::size_t>(net.charger_count()) * tasks * samples
          : 0);
  const auto incremental_marginal = [&](const core::PolicyPartition& partition,
                                        std::size_t q, int c) {
    double total = 0.0;
    for (std::size_t s = 0; s < samples; ++s) {
      const int sample = static_cast<int>(s);
      if (core::MarginalEngine::panel_color(ledger.seed(), sample, partition.charger,
                                            partition.slot, ledger.colors()) != c) {
        continue;
      }
      double inner = 0.0;
      const auto begin = static_cast<std::size_t>(partition.row_offsets[q]);
      const auto end = static_cast<std::size_t>(partition.row_offsets[q + 1]);
      for (std::size_t r = begin; r < end; ++r) {
        const model::TaskIndex j = partition.flat_tasks[r];
        const double delta = partition.flat_energy[r];
        const std::uint64_t version = ledger.sample_version(sample, j);
        CachedTerm& entry =
            cache[(static_cast<std::size_t>(partition.charger) * tasks +
                   static_cast<std::size_t>(j)) *
                      samples +
                  s];
        if (entry.version != version || entry.delta != delta) {
          entry = CachedTerm{delta, oracle.row_term(ledger, sample, j, delta), version};
        }
        inner += entry.term;
      }
      total += inner;
    }
    return total / static_cast<double>(samples);
  };
  std::vector<int> selections(partitions.size() * colors, -1);
  std::vector<double> previous(static_cast<std::size_t>(net.charger_count()) * colors,
                               std::numeric_limits<double>::quiet_NaN());
  std::vector<double> marginals;
  for (std::size_t c = 0; c < colors; ++c) {
    const int color = static_cast<int>(c);
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      const core::PolicyPartition& partition = partitions[p];
      marginals.clear();
      for (std::size_t q = 0; q < partition.policies.size(); ++q) {
        marginals.push_back(pricing == ReferencePricing::kIncremental
                                ? incremental_marginal(partition, q, color)
                                : oracle.marginal(ledger, partition.charger, partition.slot,
                                                  partition.policy_tasks(q),
                                                  partition.policy_energy(q), color));
      }
      if (probe) probe(ledger, partition, color, marginals);
      double& prev = previous[static_cast<std::size_t>(partition.charger) * colors + c];
      int best = -1;
      double best_marginal = 0.0;
      bool best_is_previous = false;
      for (std::size_t q = 0; q < partition.policies.size(); ++q) {
        const double m = marginals[q];
        const bool is_previous =
            config.switch_avoiding_tiebreak && partition.policies[q].orientation == prev;
        const bool better = m > best_marginal * (1.0 + kTieSlack) + kTieSlack ||
                            (is_previous && !best_is_previous &&
                             m >= best_marginal * (1.0 - kTieSlack) - kTieSlack);
        if (best < 0 ? (m > 0.0 || config.commit_zero_marginal) : better) {
          best = static_cast<int>(q);
          best_marginal = m;
          best_is_previous = is_previous;
        }
      }
      if (best < 0) continue;
      const auto bq = static_cast<std::size_t>(best);
      ledger.commit_no_gain(partition.charger, partition.slot, partition.policy_tasks(bq),
                            partition.policy_energy(bq), color);
      selections[p * colors + c] = best;
      prev = partition.policies[bq].orientation;
    }
  }
  core::OfflineResult result;
  result.planned_relaxed_utility = oracle.expected_value(ledger);
  result.row_evaluations = oracle.row_terms();
  result.marginal_evaluations = oracle.marginals();
  result.schedule = model::Schedule(net.charger_count(), net.horizon());
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const core::PolicyPartition& partition = partitions[p];
    const auto c = static_cast<std::size_t>(core::MarginalEngine::final_color(
        config.seed, partition.charger, partition.slot, ledger.colors()));
    const int chosen = selections[p * colors + c];
    if (chosen >= 0) {
      result.schedule.assign(
          partition.charger, partition.slot,
          partition.policies[static_cast<std::size_t>(chosen)].orientation);
    }
  }
  return result;
}

}  // namespace haste::testing_helpers
