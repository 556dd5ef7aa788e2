#include "core/offline.hpp"

#include <limits>
#include <vector>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace haste::core {

namespace {

/// Marginals within this relative slack are considered tied for the
/// switch-avoiding tie-break.
constexpr double kTieSlack = 1e-12;

}  // namespace

OfflineResult schedule_offline_over(const model::Network& net,
                                    const std::vector<PolicyPartition>& partitions,
                                    const OfflineConfig& config,
                                    std::span<const double> initial_energy) {
  MarginalEngine engine(net,
                        MarginalEngine::Config{config.colors, config.samples, config.seed},
                        initial_energy);
  const int colors = engine.colors();
  const int samples = engine.samples();

  HASTE_OBS_SPAN(schedule_span, "offline.schedule");
  schedule_span.arg("chargers", util::Json(net.charger_count()));
  schedule_span.arg("tasks", util::Json(net.task_count()));
  schedule_span.arg("partitions", util::Json(static_cast<std::int64_t>(partitions.size())));
  schedule_span.arg("colors", util::Json(colors));

  // selections[p * colors + c] = index of the chosen policy of partition p
  // for color c, or -1 when nothing was added.
  std::vector<int> selections(partitions.size() * static_cast<std::size_t>(colors), -1);

  // Previous selected orientation per (charger, color), updated as we walk
  // partitions in slot-major order; drives the switch-avoiding tie-break.
  // NaN marks "no previous orientation" — it compares unequal to every real
  // orientation, so the is_previous test needs no presence flag.
  std::vector<double> previous_orientation(
      static_cast<std::size_t>(net.charger_count()) * static_cast<std::size_t>(colors),
      std::numeric_limits<double>::quiet_NaN());

  // Every partition is visited once per color stage, so its (pure) panel
  // colors are hashed once up front: panel[p * samples + s] = color of
  // sample s.
  std::vector<int> panel(partitions.size() * static_cast<std::size_t>(samples));
  util::parallel_for(partitions.size(), [&](std::size_t p) {
    int* colors_of = panel.data() + p * static_cast<std::size_t>(samples);
    for (int s = 0; s < samples; ++s) {
      colors_of[s] = MarginalEngine::panel_color(engine.seed(), s, partitions[p].charger,
                                                 partitions[p].slot, colors);
    }
  });
  std::vector<double> marginals;  // one partition's marginals, reused

  for (int c = 0; c < colors; ++c) {
    // One span per color stage: coarse enough to stay invisible in the
    // per-partition hot loop, fine enough to see the stage skew per trace.
    HASTE_OBS_SPAN(color_span, "offline.color");
    color_span.arg("color", util::Json(c));
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      const PolicyPartition& partition = partitions[p];
      double& prev = previous_orientation[static_cast<std::size_t>(partition.charger) *
                                              static_cast<std::size_t>(colors) +
                                          static_cast<std::size_t>(c)];
      const std::span<const int> sample_colors(
          panel.data() + p * static_cast<std::size_t>(samples),
          static_cast<std::size_t>(samples));
      marginals.resize(partition.policies.size());
      engine.partition_marginals(partition, c, sample_colors, marginals.data());
      int best = -1;
      double best_marginal = 0.0;
      bool best_is_previous = false;
      for (std::size_t q = 0; q < partition.policies.size(); ++q) {
        const double m = marginals[q];
        const bool is_previous =
            config.switch_avoiding_tiebreak && partition.policies[q].orientation == prev;
        const bool better =
            m > best_marginal * (1.0 + kTieSlack) + kTieSlack ||
            (is_previous && !best_is_previous && m >= best_marginal * (1.0 - kTieSlack) - kTieSlack);
        if (best < 0 ? (m > 0.0 || config.commit_zero_marginal) : better) {
          // First acceptable candidate, or strictly better / tie-preferred.
          best = static_cast<int>(q);
          best_marginal = m;
          best_is_previous = is_previous;
        }
      }
      if (best >= 0) {
        const auto bq = static_cast<std::size_t>(best);
        // `best_marginal` is the exact gain commit() would recompute, and no
        // offline reader consults the version counters, so only the energy
        // accumulation remains to be done.
        engine.commit_energy(sample_colors, c, partition.policy_tasks(bq),
                             partition.policy_energy(bq));
        selections[p * static_cast<std::size_t>(colors) + static_cast<std::size_t>(c)] =
            best;
        prev = partition.policies[bq].orientation;
      }
    }
  }

  OfflineResult result;
  result.planned_relaxed_utility = engine.expected_value();
  result.schedule = model::Schedule(net.charger_count(), net.horizon());
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const PolicyPartition& partition = partitions[p];
    const int c = MarginalEngine::final_color(config.seed, partition.charger,
                                              partition.slot, colors);
    const int chosen =
        selections[p * static_cast<std::size_t>(colors) + static_cast<std::size_t>(c)];
    if (chosen >= 0) {
      result.schedule.assign(partition.charger, partition.slot,
                             partition.policies[static_cast<std::size_t>(chosen)].orientation);
    }
  }
  const MarginalEngine::Stats stats = engine.stats();
  result.row_evaluations = stats.row_terms;
  result.marginal_evaluations = stats.marginals;
  // Mirror the engine's evaluation counts into the registry so profiles of
  // any caller (CLI, benches, shard workers) see them without plumbing.
  HASTE_OBS_COUNTER_ADD("offline.row_evals", stats.row_terms);
  HASTE_OBS_COUNTER_ADD("offline.marginal_evals", stats.marginals);
  HASTE_OBS_COUNTER_ADD("offline.commits", stats.commits);
  HASTE_OBS_COUNTER_ADD("offline.schedules", 1);
  return result;
}

OfflineResult schedule_offline(const model::Network& net, const OfflineConfig& config) {
  const std::vector<PolicyPartition> partitions = build_partitions(net);
  return schedule_offline_over(net, partitions, config, {});
}

}  // namespace haste::core
