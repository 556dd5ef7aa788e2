// Deadline-driven charging: tardiness decay policy (ROADMAP scenario
// diversity item (a); PAPERS.md "Deadline-Driven Multi-node Mobile
// Charging").
//
// A task with deadline t_e = deadline_slot earns full value for energy
// harvested in slots k < t_e. Energy in a tardy slot k >= t_e is discounted
// by a factor g(L) of the lateness L = k - t_e + 1 (so the first tardy slot
// has L = 1). The discount is applied to the *energy*, not the utility:
// effective_energy = sum_k g_j(k) * harvested_j(k), and the concave utility
// shape is evaluated on effective energy. Because g_j(k) is a per-(task,
// slot) constant, every slot's contribution stays linear in orientation
// time and the relaxed objective keeps the submodularity the HASTE proof
// needs — the greedy/kernel/online machinery consumes pre-discounted rows
// unchanged.
//
// This header is the single source of truth for the decay arithmetic:
// Network::tardiness_factor and the partition builders both call
// factor()/slot_factor() so the bits agree everywhere.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

#include "model/task.hpp"

namespace haste::model {

/// How tardy energy decays.
enum class DeadlineDecay {
  kNone,    ///< deadlines inert: factor 1 everywhere (the base objective)
  kLinear,  ///< g(L) = max(0, 1 - L / beta)
  kExp,     ///< g(L) = exp(-L / beta)
  kHard,    ///< g(L) = 0: tardy energy is worthless; infeasible tasks pruned
};

/// Network-wide deadline decay policy. `beta` is the tightness scale in
/// slots: larger beta = gentler decay. beta -> +infinity reproduces the
/// base (deadline-free) objective exactly (IEEE: L/inf == 0, so the linear
/// factor is 1 - 0 and the exponential factor is exp(-0), both exactly
/// 1.0). A NaN or non-positive beta degrades to hard semantics (factor 0
/// for every tardy slot) rather than emitting NaN into the objective.
struct DeadlinePolicy {
  DeadlineDecay decay = DeadlineDecay::kNone;
  double beta = 8.0;

  /// True when the policy can discount anything.
  constexpr bool active() const { return decay != DeadlineDecay::kNone; }

  /// Decay factor for lateness L >= 1. Monotone non-increasing in L.
  double factor(SlotIndex lateness) const {
    switch (decay) {
      case DeadlineDecay::kNone:
        return 1.0;
      case DeadlineDecay::kHard:
        return 0.0;
      case DeadlineDecay::kLinear: {
        if (!(beta > 0.0)) return 0.0;  // NaN and <= 0 act as hard
        const double f = 1.0 - static_cast<double>(lateness) / beta;
        return f > 0.0 ? f : 0.0;
      }
      case DeadlineDecay::kExp: {
        if (!(beta > 0.0)) return 0.0;
        return std::exp(-static_cast<double>(lateness) / beta);
      }
    }
    return 1.0;
  }

  /// Discount for energy harvested in slot `k` by a task with the given
  /// deadline. Exactly 1.0 (no arithmetic) for deadline-free tasks and
  /// pre-deadline slots, so those rows are bit-identical to the base
  /// objective's.
  double slot_factor(SlotIndex k, SlotIndex deadline) const {
    if (deadline == Task::kNoDeadline || k < deadline) return 1.0;
    return factor(k - deadline + 1);
  }

  static std::string decay_name(DeadlineDecay decay) {
    switch (decay) {
      case DeadlineDecay::kNone: return "none";
      case DeadlineDecay::kLinear: return "linear";
      case DeadlineDecay::kExp: return "exp";
      case DeadlineDecay::kHard: return "hard";
    }
    return "none";
  }

  static DeadlineDecay parse_decay(const std::string& name) {
    if (name == "none") return DeadlineDecay::kNone;
    if (name == "linear") return DeadlineDecay::kLinear;
    if (name == "exp") return DeadlineDecay::kExp;
    if (name == "hard") return DeadlineDecay::kHard;
    throw std::invalid_argument("unknown deadline decay: " + name);
  }
};

}  // namespace haste::model
