// JSON (de)serialization for problem instances and schedules.
//
// The on-disk format is a single JSON object:
//
// {
//   "power":    {"alpha", "beta", "radius", "charging_angle_deg",
//                "receiving_angle_deg", "gain_profile"},
//   "time":     {"slot_seconds", "rho", "tau"},
//   "utility":  "linear" | "sqrt" | "log",
//   "chargers": [{"x", "y"}, ...],
//   "tasks":    [{"x", "y", "facing_deg", "release_slot", "end_slot",
//                 "required_energy_j", "weight"}, ...]
// }
//
// Schedules serialize as {"horizon", "chargers", "assignments":
// [{"charger", "slot", "orientation_rad", "orientation_deg"}, ...],
// "disabled": [{"charger", "from_slot"}, ...]}. orientation_rad is the
// authoritative bit-exact value (the loader prefers it and falls back to
// the legacy degree field): dominant-set witness orientations sit exactly
// on a closed cone boundary, so the lossy deg<->rad conversion can flip a
// task's coverage and change what a loaded schedule harvests.
#pragma once

#include <cstdint>
#include <string>

#include "model/network.hpp"
#include "model/schedule.hpp"
#include "util/json.hpp"

namespace haste::io {

/// The most charger-slot cells (chargers x horizon, counting at least one
/// charger) an input may span. The schedule and the negotiation's per-slot
/// state grow with it, so both parsers reject a larger input, naming the
/// fields, before allocating any of it. Paper-scale 100/400 instances span
/// ~18k cells.
inline constexpr std::int64_t kMaxScheduleCells = std::int64_t{1} << 20;

/// The largest color panel an online config may ask for: S samples, and C
/// colors (a color beyond S matches no sample). Each re-plan's ledger holds
/// 16 bytes per (sample, task), each charger node 4 bytes per (slot,
/// sample) and 16 per (slot, color). The paper's panel is C = 4, S = 16.
inline constexpr int kMaxPanelSamples = 64;

/// The largest arrival-model lattice side G an online config may ask for:
/// the model keeps G x G cell rates of 8 bytes and indexes them in int.
/// The predictor's default is G = 8.
inline constexpr int kMaxPredictorGrid = 1024;

/// Serializes a problem instance.
util::Json network_to_json(const model::Network& net);

/// Parses a problem instance; throws util::JsonError / std::invalid_argument
/// on malformed input or one above kMaxScheduleCells.
model::Network network_from_json(const util::Json& json);

/// Serializes / parses a schedule. Parsing validates charger/slot bounds
/// against the stored dimensions and the dimensions against
/// kMaxScheduleCells.
util::Json schedule_to_json(const model::Schedule& schedule);
model::Schedule schedule_from_json(const util::Json& json);

/// File convenience wrappers.
void save_network(const std::string& path, const model::Network& net);
model::Network load_network(const std::string& path);
void save_schedule(const std::string& path, const model::Schedule& schedule);
model::Schedule load_schedule(const std::string& path);

}  // namespace haste::io
