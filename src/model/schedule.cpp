#include "model/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace haste::model {

namespace {

constexpr double kUnassigned = std::numeric_limits<double>::quiet_NaN();

}  // namespace

Schedule::Schedule(ChargerIndex chargers, SlotIndex horizon) : horizon_(horizon) {
  if (chargers < 0 || horizon < 0) {
    throw std::invalid_argument("Schedule: negative dimensions");
  }
  angles_.assign(static_cast<std::size_t>(chargers) * static_cast<std::size_t>(horizon),
                 kUnassigned);
  disabled_from_.assign(static_cast<std::size_t>(chargers), horizon);
}

void Schedule::out_of_range(ChargerIndex i, SlotIndex k) {
  throw std::out_of_range("Schedule: index (" + std::to_string(i) + ", " +
                          std::to_string(k) + ") out of range");
}

void Schedule::assign(ChargerIndex i, SlotIndex k, double theta) {
  const std::size_t at = cell(i, k);
  if (std::isnan(theta)) throw std::invalid_argument("Schedule: orientation is NaN");
  angles_[at] = theta;
}

void Schedule::clear(ChargerIndex i, SlotIndex k) { angles_[cell(i, k)] = kUnassigned; }

SlotAssignment Schedule::resolved_orientation(ChargerIndex i, SlotIndex k) const {
  if (disabled_at(i, k)) return std::nullopt;
  const std::size_t row = cell(i, 0);
  for (SlotIndex s = k; s >= 0; --s) {
    const double angle = angles_[row + static_cast<std::size_t>(s)];
    if (!std::isnan(angle)) return angle;
  }
  return std::nullopt;
}

bool Schedule::switches_at(ChargerIndex i, SlotIndex k) const {
  if (disabled_at(i, k)) return false;
  const SlotAssignment current = assignment(i, k);
  if (!current.has_value()) return false;  // persisting costs nothing
  if (k == 0) return true;                 // coming out of Phi
  const SlotAssignment previous = resolved_orientation(i, k - 1);
  if (!previous.has_value()) return true;  // coming out of Phi
  return *previous != *current;
}

void Schedule::disable_from(ChargerIndex i, SlotIndex k) {
  if (k < 0) k = 0;
  if (i < 0 || i >= charger_count()) {
    throw std::out_of_range("Schedule: disable_from charger out of range");
  }
  auto& from = disabled_from_[static_cast<std::size_t>(i)];
  from = std::min(from, k);
}

int Schedule::total_switches() const {
  int count = 0;
  for (ChargerIndex i = 0; i < charger_count(); ++i) {
    for (SlotIndex k = 0; k < horizon_; ++k) {
      if (switches_at(i, k)) ++count;
    }
  }
  return count;
}

}  // namespace haste::model
