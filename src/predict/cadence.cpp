#include "predict/cadence.hpp"

#include <algorithm>
#include <cstdint>

namespace haste::predict {

CadenceAction CadenceController::decide(model::SlotIndex slot,
                                        const ArrivalObservation& obs) {
  if (level_ <= 0) return CadenceAction::kReplanNow;

  // Rate surprise: the batch is far larger than the learned rates predicted
  // for the elapsed window. Only a confident model can be surprised — an
  // unconfident one is still reactive through the level gate anyway, and
  // the +1 slack keeps singleton arrivals from tripping a near-zero rate.
  if (obs.confidence >= config_.min_confidence &&
      obs.observed > config_.surprise_factor * (obs.expected + 1.0)) {
    level_ = 0;
    return CadenceAction::kReplanNow;
  }

  // Cadence pressure: too much un-predicted backlog, or the leash between
  // re-plans ran out. Both scale with the trust level.
  const auto task_budget =
      static_cast<std::uint64_t>(config_.batch_tasks) * static_cast<std::uint64_t>(level_);
  // 64-bit: a config's batch_slots may be any int.
  const std::int64_t slot_budget = std::int64_t{config_.batch_slots} * level_;
  const auto non_hot = static_cast<std::uint64_t>(
      obs.observed * (1.0 - obs.hot_fraction) + 0.5);
  if (pressure_ + non_hot >= task_budget) return CadenceAction::kReplanNow;
  if (replanned_once_ && std::int64_t{slot} - last_replan_slot_ >= slot_budget) {
    return CadenceAction::kReplanNow;
  }

  return obs.hot_fraction >= 1.0 ? CadenceAction::kSkip : CadenceAction::kBatch;
}

void CadenceController::on_replan(model::SlotIndex slot, bool held) {
  last_replan_slot_ = slot;
  replanned_once_ = true;
  pressure_ = 0;
  if (held) {
    level_ = std::min(level_ + 1, std::max(0, config_.max_level));
  } else {
    level_ = 0;
  }
}

}  // namespace haste::predict
