#include "oracle/pricing.hpp"

namespace haste::oracle {

double ScalarPricing::row_term(const core::MarginalEngine& ledger, int s,
                               model::TaskIndex j, double delta) {
  ++row_terms_;
  const double before = ledger.energy(s, j);
  return net_->weighted_task_utility(j, before + delta) -
         net_->weighted_task_utility(j, before);
}

double ScalarPricing::marginal(const core::MarginalEngine& ledger, model::ChargerIndex i,
                               model::SlotIndex k, std::span<const model::TaskIndex> tasks,
                               std::span<const double> slot_energy, int c) {
  ++marginals_;
  double total = 0.0;
  for (int s = 0; s < ledger.samples(); ++s) {
    if (core::MarginalEngine::panel_color(ledger.seed(), s, i, k, ledger.colors()) != c) {
      continue;
    }
    double gain = 0.0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      gain += row_term(ledger, s, tasks[t], slot_energy[t]);
    }
    total += gain;
  }
  return total / static_cast<double>(ledger.samples());
}

double ScalarPricing::expected_value(const core::MarginalEngine& ledger) const {
  double total = 0.0;
  for (int s = 0; s < ledger.samples(); ++s) {
    for (model::TaskIndex j = 0; j < net_->task_count(); ++j) {
      total += net_->weighted_task_utility(j, ledger.energy(s, j));
    }
  }
  return total / static_cast<double>(ledger.samples());
}

std::vector<double> coverage_table(const model::Network& net) {
  std::vector<double> table;
  table.reserve(static_cast<std::size_t>(net.charger_count()) *
                static_cast<std::size_t>(net.task_count()));
  for (const model::Charger& charger : net.chargers()) {
    for (const model::Task& task : net.tasks()) {
      table.push_back(net.power_model().potential_power(charger.position, task));
    }
  }
  return table;
}

}  // namespace haste::oracle
