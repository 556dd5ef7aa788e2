// Control messages of the distributed online algorithm (Section 6.1), as
// the oracle's bus carries them:
//
//   msg(ID, TIM, COL, CMD, dF*_i(Q_i), e^{k*}_i)
//
// VALUE messages announce a charger's best marginal for the current
// (slot, color) stage; UPDATE messages announce a committed scheduling
// policy so neighbors can refresh their local views. The library posts
// these on a dist::Board and only counts their wire size (dist::wire_bytes);
// the oracle builds each one, so its byte count is independent.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "model/charger.hpp"
#include "model/task.hpp"

namespace haste::oracle {

/// CMD field of a control message.
enum class Command {
  kValue,   ///< announcement of the current best marginal (paper: CMD = NULL)
  kUpdate,  ///< committed selection (paper: CMD = UPD)
  kHello,   ///< coverable-task announcement at plan start (the paper's
            ///< "exchange the information of dominant task sets" step)
};

/// The policy payload e^{k*}_i: enough for a neighbor to update its local
/// energy view — which tasks the sender will serve in the slot and the
/// energy each receives per slot.
struct PolicyAnnouncement {
  double orientation = 0.0;
  std::vector<model::TaskIndex> tasks;
  std::vector<double> slot_energy;  ///< J per slot, aligned with `tasks`
};

/// A control message exchanged between neighboring chargers.
struct Message {
  model::ChargerIndex sender = -1;  ///< ID
  model::SlotIndex slot = 0;        ///< TIM
  int color = 0;                    ///< COL
  Command command = Command::kValue;
  double marginal = 0.0;            ///< dF*_i(Q_i)
  PolicyAnnouncement policy;        ///< e^{k*}_i

  /// Approximate wire size in bytes (for communication-cost accounting):
  /// fixed header plus 12 bytes per task entry.
  std::size_t wire_size() const;

  /// One-line rendering for debug logs.
  std::string describe() const;
};

}  // namespace haste::oracle
