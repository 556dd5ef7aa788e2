// The scalar definitions behind the library's pricing, for differential
// tests: the marginal oracle that Algorithms 2 and 3 price policies with,
// and the coverage table every scheduler reads.
//
// ScalarPricing folds Network::weighted_task_utility over a ledger's
// per-sample energies (core::MarginalEngine::energy), in the engine's row
// and sample order, and counts its evaluations the way the engine does: one
// row term per (row, sample) priced and one marginal per oracle call. The
// library prices through the data-oriented kernel layer (core/kernels: the
// SoA utility table, the blockwise row terms, the partition column sweep).
// This module uses none of it and reads the ledger only as an energy store,
// so a differential that compares the two checks the kernels against the
// definition bit for bit.
//
// coverage_table computes Network's potential powers pair by pair with
// PowerModel::potential_power instead of the batched sector classifier.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/objective.hpp"
#include "model/network.hpp"

namespace haste::oracle {

/// Scalar pricing against a ledger, with the engine's evaluation counters.
class ScalarPricing {
 public:
  explicit ScalarPricing(const model::Network& net) : net_(&net) {}

  /// u_j(e + delta) - u_j(e) with e = ledger.energy(s, j): one row term.
  double row_term(const core::MarginalEngine& ledger, int s, model::TaskIndex j,
                  double delta);

  /// The gain of the rows (tasks, slot_energy) of charger `i` at slot `k`
  /// under color `c`: for each panel sample whose color is `c`, ascending,
  /// the row-order sum of the row terms; the sum of those, divided by the
  /// panel size. One marginal.
  double marginal(const core::MarginalEngine& ledger, model::ChargerIndex i,
                  model::SlotIndex k, std::span<const model::TaskIndex> tasks,
                  std::span<const double> slot_energy, int c);

  /// F(Q): the panel average of the total weighted utility of the ledger's
  /// energies. Not an evaluation.
  double expected_value(const core::MarginalEngine& ledger) const;

  std::uint64_t row_terms() const { return row_terms_; }
  std::uint64_t marginals() const { return marginals_; }

 private:
  const model::Network* net_;
  std::uint64_t row_terms_ = 0;
  std::uint64_t marginals_ = 0;
};

/// PowerModel::potential_power of every (charger i, task j) pair at
/// [i * task_count + j].
std::vector<double> coverage_table(const model::Network& net);

}  // namespace haste::oracle
