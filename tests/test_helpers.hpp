// Shared helpers for building small random HASTE instances in tests.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "geom/angle.hpp"
#include "model/network.hpp"
#include "model/utility.hpp"
#include "util/rng.hpp"

namespace haste::testing_helpers {

/// A compact power model for test instances: short range, 60-degree charging
/// sector, omnidirectional devices unless narrowed.
inline model::PowerModel tiny_power(double receiving_angle = geom::kTwoPi) {
  model::PowerModel power;
  power.alpha = 100.0;
  power.beta = 1.0;
  power.radius = 12.0;
  power.charging_angle = geom::kPi / 3;
  power.receiving_angle = receiving_angle;
  return power;
}

/// A random instance with `n` chargers and `m` tasks in a 10x10 field,
/// horizon <= `max_slots`, energies scaled so that tasks need a handful of
/// slot-deliveries to saturate (keeps utilities strictly inside (0, 1), the
/// interesting regime for submodularity).
inline model::Network random_network(util::Rng& rng, int n, int m, int max_slots = 4,
                                     double receiving_angle = geom::kTwoPi,
                                     model::TimeGrid time = model::TimeGrid{}) {
  std::vector<model::Charger> chargers;
  for (int i = 0; i < n; ++i) {
    chargers.push_back(model::Charger{{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}});
  }
  std::vector<model::Task> tasks;
  for (int j = 0; j < m; ++j) {
    model::Task task;
    task.position = {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
    task.orientation = rng.uniform(0.0, geom::kTwoPi);
    task.release_slot = static_cast<model::SlotIndex>(rng.uniform_int(0, max_slots - 1));
    task.end_slot = task.release_slot +
                    static_cast<model::SlotIndex>(rng.uniform_int(1, max_slots));
    // ~1-4 close-range slot deliveries to saturate (alpha=100, beta=1,
    // T_s=60s: one adjacent-delivery is ~60 * 100 / (d+1)^2 J).
    task.required_energy = rng.uniform(500.0, 4000.0);
    task.weight = 1.0 / static_cast<double>(m);
    tasks.push_back(task);
  }
  return model::Network(std::move(chargers), std::move(tasks),
                        tiny_power(receiving_angle), time);
}

/// A concave bounded shape the kernel layer cannot identify: it reports
/// kCustom, so every batched path falls back to value() and prices every
/// row.
class PowShape final : public model::UtilityShape {
 public:
  double value(double r) const override {
    if (r <= 0.0) return 0.0;
    return std::min(1.0, std::pow(r, 0.7));
  }
  std::string name() const override { return "pow"; }
};

/// Policy `q` of `partition` as an owned core::Policy (the message payload
/// form), for tests that hand single policies to the engine.
inline core::Policy owned_policy(const core::PolicyPartition& partition, std::size_t q) {
  const auto tasks = partition.policy_tasks(q);
  const auto energy = partition.policy_energy(q);
  return core::Policy{partition.policies[q].orientation,
                      {tasks.begin(), tasks.end()},
                      {energy.begin(), energy.end()}};
}

/// A visit probe for reference_offline (offline_reference.hpp): prices each
/// visited partition with the library's batched
/// MarginalEngine::partition_marginals on the reference's ledger and records
/// every policy whose marginal differs from the reference's in any bit.
inline auto batched_pricing_check(std::vector<std::string>& mismatches) {
  return [&mismatches](const core::MarginalEngine& ledger,
                       const core::PolicyPartition& partition, int color,
                       std::span<const double> expected) {
    std::vector<int> matching;
    for (int s = 0; s < ledger.samples(); ++s) {
      if (core::MarginalEngine::panel_color(ledger.seed(), s, partition.charger,
                                            partition.slot, ledger.colors()) == color) {
        matching.push_back(s);
      }
    }
    std::vector<double> batched(expected.size());
    ledger.partition_marginals(partition, matching, batched.data());
    for (std::size_t q = 0; q < expected.size(); ++q) {
      if (std::bit_cast<std::uint64_t>(batched[q]) != std::bit_cast<std::uint64_t>(expected[q])) {
        mismatches.push_back("charger " + std::to_string(partition.charger) + " slot " +
                             std::to_string(partition.slot) + " color " +
                             std::to_string(color) + " policy " + std::to_string(q));
      }
    }
  };
}

}  // namespace haste::testing_helpers
