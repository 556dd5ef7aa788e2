// Orientation schedules: the decision variable theta_{i,k} of HASTE.
//
// A slot entry is either an angle (the charger points there for the slot,
// possibly paying the switching delay first) or unassigned. Unassigned slots
// use *orientation persistence*: the charger silently keeps its previous
// orientation (still charging whatever that orientation covers); a charger
// that was never assigned idles (the paper's Phi state, emitting nothing).
#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "model/charger.hpp"
#include "model/task.hpp"

namespace haste::model {

/// Per-slot orientation assignment; nullopt = unassigned (persist previous).
using SlotAssignment = std::optional<double>;

/// A full schedule: orientation per charger per slot.
class Schedule {
 public:
  Schedule() = default;

  /// Creates an all-unassigned schedule for `chargers` chargers over
  /// `horizon` slots.
  Schedule(ChargerIndex chargers, SlotIndex horizon);

  /// Number of chargers.
  ChargerIndex charger_count() const {
    return static_cast<ChargerIndex>(disabled_from_.size());
  }

  /// Number of slots.
  SlotIndex horizon() const { return horizon_; }

  /// Assigns charger `i` to angle `theta` in slot `k`; a NaN angle throws
  /// std::invalid_argument.
  void assign(ChargerIndex i, SlotIndex k, double theta);

  /// Clears the assignment of charger `i` in slot `k`.
  void clear(ChargerIndex i, SlotIndex k);

  /// Raw assignment (nullopt if unassigned).
  SlotAssignment assignment(ChargerIndex i, SlotIndex k) const {
    const double angle = angles_[cell(i, k)];
    return std::isnan(angle) ? std::nullopt : SlotAssignment(angle);
  }

  /// The orientation the charger actually holds in slot `k` after resolving
  /// persistence: the most recent assignment at or before `k`, or nullopt if
  /// the charger has never been assigned (idle / Phi).
  SlotAssignment resolved_orientation(ChargerIndex i, SlotIndex k) const;

  /// True if the charger switches (pays rho) at the start of slot `k`:
  /// slot `k` is assigned an angle different from the resolved orientation of
  /// slot `k-1` (a charger coming out of idle also switches, matching the
  /// paper's theta_i(0) = Phi convention). Disabled slots never switch.
  bool switches_at(ChargerIndex i, SlotIndex k) const;

  /// Total number of switch events across all chargers and slots.
  int total_switches() const;

  /// Marks charger `i` as permanently off (failed) from slot `k` onward: it
  /// emits nothing there regardless of assignments or persistence. Used by
  /// the online simulator's failure injection. Calling again with an earlier
  /// slot widens the outage; later slots are ignored.
  void disable_from(ChargerIndex i, SlotIndex k);

  /// True if charger `i` is off in slot `k` due to disable_from.
  bool disabled_at(ChargerIndex i, SlotIndex k) const {
    cell(i, k);  // bounds check
    return k >= disabled_from_[static_cast<std::size_t>(i)];
  }

 private:
  /// Index of (i, k) in angles_; throws std::out_of_range outside the
  /// schedule.
  std::size_t cell(ChargerIndex i, SlotIndex k) const {
    if (i < 0 || i >= charger_count() || k < 0 || k >= horizon_) out_of_range(i, k);
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(horizon_) +
           static_cast<std::size_t>(k);
  }
  [[noreturn]] static void out_of_range(ChargerIndex i, SlotIndex k);

  // [i * horizon_ + k]: the assigned angle, NaN when unassigned. Eight bytes
  // a cell where an optional takes sixteen: every online result and serve
  // session holds a schedule.
  std::vector<double> angles_;
  std::vector<SlotIndex> disabled_from_;  // per charger; horizon_ = never
  SlotIndex horizon_ = 0;
};

}  // namespace haste::model
