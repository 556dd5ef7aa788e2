// Predictor facade: the one object the online session talks to.
//
// Composes the ArrivalModel (what will arrive where) with the
// CadenceController (what to do about it) and owns the subsystem's
// telemetry. The predict.* counters are protocol-level instruments that the
// predict-sweep validation chain requires. A plain Stats copy is kept
// alongside so tests and the sweep driver can read per-run numbers without
// diffing the global registry.
#pragma once

#include <cstdint>
#include <vector>

#include "model/network.hpp"
#include "predict/arrival.hpp"
#include "predict/cadence.hpp"

namespace haste::obs {
class Counter;
class Histogram;
}  // namespace haste::obs

namespace haste::predict {

/// Per-run predictor telemetry (also mirrored into the global predict.*
/// counters). Hits/misses classify individual arriving tasks by whether the
/// model had already declared their cell hot; batched counts deferred tasks;
/// replans_skipped counts arrival events that did not trigger a negotiation.
struct PredictorStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t batched = 0;
  std::uint64_t replans_skipped = 0;

  friend bool operator==(const PredictorStats&, const PredictorStats&) = default;
};

class Predictor {
 public:
  Predictor(const model::Network& net, const PredictorConfig& config);

  /// Classifies one arrival batch and decides its fate. Always observes the
  /// batch (the model keeps learning even while reactive). The caller owns
  /// the pending set; on kBatch/kSkip it should defer the tasks and count
  /// the skipped re-plan via `note_skipped()`.
  CadenceAction on_arrival(model::SlotIndex slot,
                           const std::vector<model::TaskIndex>& tasks);

  /// The caller deferred an arrival batch (kBatch or kSkip).
  void note_skipped();

  /// A charger failed: unpredicted disruption, drop straight back to
  /// reactive cadence. The caller flushes its pending set and re-plans.
  void on_failure() { cadence_.escalate(); }

  /// A re-plan finished at `slot` with negotiated expected value
  /// `plan_value` over `known_tasks` tasks (NaN when the strategy does not
  /// negotiate — the shortfall test is then skipped). Updates the trust
  /// level: escalate while predictions hold, reset on a utility shortfall.
  void on_replan(model::SlotIndex slot, double plan_value, std::size_t known_tasks);

  const PredictorStats& stats() const { return stats_; }
  const PredictorConfig& config() const { return config_; }
  int level() const { return cadence_.level(); }

 private:
  PredictorConfig config_;
  ArrivalModel model_;
  CadenceController cadence_;
  PredictorStats stats_;
  double value_ewma_ = 0.0;
  bool value_primed_ = false;

  obs::Counter& hits_counter_;
  obs::Counter& misses_counter_;
  obs::Counter& batched_counter_;
  obs::Counter& skipped_counter_;
  obs::Histogram& error_hist_;
};

}  // namespace haste::predict
