#include "predict/predictor.hpp"

#include <cmath>

#include "obs/metrics.hpp"

namespace haste::predict {

namespace {

// EWMA weight for the per-task negotiated value trend the shortfall test
// compares against. Fixed: the trend is a coarse baseline, not a knob.
constexpr double kValueAlpha = 0.2;

}  // namespace

Predictor::Predictor(const model::Network& net, const PredictorConfig& config)
    : config_(config),
      model_(net, config.grid, config.discount),
      cadence_(config),
      hits_counter_(obs::MetricsRegistry::instance().counter("predict.hits")),
      misses_counter_(obs::MetricsRegistry::instance().counter("predict.misses")),
      batched_counter_(obs::MetricsRegistry::instance().counter("predict.batched")),
      skipped_counter_(
          obs::MetricsRegistry::instance().counter("online.replans_skipped")),
      error_hist_(
          obs::MetricsRegistry::instance().histogram("predict.error_abs")) {}

CadenceAction Predictor::on_arrival(model::SlotIndex slot,
                                    const std::vector<model::TaskIndex>& tasks) {
  const ArrivalObservation obs =
      model_.observe(slot, tasks, config_.hot_rate, config_.min_confidence);
  if (obs.confidence > 0.0) {
    error_hist_.record(std::abs(obs.observed - obs.expected));
  }

  // Per-task prediction ledger: a task whose cell was already hot when it
  // arrived was predicted; anything else is a miss. Recorded regardless of
  // the cadence decision so the hit rate measures the model, not the leash.
  const auto hot = static_cast<std::uint64_t>(
      obs.observed * obs.hot_fraction + 0.5);
  const auto cold = static_cast<std::uint64_t>(tasks.size()) - hot;
  stats_.hits += hot;
  stats_.misses += cold;
  if (hot > 0) hits_counter_.add(hot);
  if (cold > 0) misses_counter_.add(cold);

  const CadenceAction action = cadence_.decide(slot, obs);
  if (action == CadenceAction::kBatch) cadence_.add_pressure(cold);
  if (action != CadenceAction::kReplanNow && !tasks.empty()) {
    stats_.batched += tasks.size();
    batched_counter_.add(tasks.size());
  }
  return action;
}

void Predictor::note_skipped() {
  ++stats_.replans_skipped;
  skipped_counter_.add(1);
}

void Predictor::on_replan(model::SlotIndex slot, double plan_value,
                          std::size_t known_tasks) {
  bool held = true;
  if (std::isfinite(plan_value) && known_tasks > 0) {
    const double per_task = plan_value / static_cast<double>(known_tasks);
    if (value_primed_ && per_task < config_.shortfall_factor * value_ewma_) {
      held = false;  // utility shortfall: the plan under-delivered vs trend
    }
    value_ewma_ = value_primed_
                      ? (1.0 - kValueAlpha) * value_ewma_ + kValueAlpha * per_task
                      : per_task;
    value_primed_ = true;
  }
  cadence_.on_replan(slot, held);
}

}  // namespace haste::predict
