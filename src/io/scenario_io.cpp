#include "io/scenario_io.hpp"

#include <algorithm>
#include <stdexcept>

#include "geom/angle.hpp"

namespace haste::io {

using util::Json;

namespace {

/// Throws when `chargers` x `horizon` spans more than kMaxScheduleCells.
void check_cells(std::int64_t chargers, std::int64_t horizon, const std::string& fields) {
  if (std::max<std::int64_t>(chargers, 1) * horizon > kMaxScheduleCells) {
    throw std::invalid_argument(fields + " = " + std::to_string(chargers) + " x " +
                                std::to_string(horizon) + " exceeds the limit of " +
                                std::to_string(kMaxScheduleCells) + " charger-slot cells");
  }
}

}  // namespace

Json network_to_json(const model::Network& net) {
  Json root = Json::object();

  Json power = Json::object();
  const model::PowerModel& pm = net.power_model();
  power.set("alpha", pm.alpha);
  power.set("beta", pm.beta);
  power.set("radius", pm.radius);
  power.set("charging_angle_deg", geom::rad_to_deg(pm.charging_angle));
  power.set("receiving_angle_deg", geom::rad_to_deg(pm.receiving_angle));
  power.set("gain_profile", model::gain_profile_name(pm.gain_profile));
  root.set("power", std::move(power));

  Json time = Json::object();
  time.set("slot_seconds", net.time().slot_seconds);
  time.set("rho", net.time().rho);
  time.set("tau", static_cast<int>(net.time().tau));
  root.set("time", std::move(time));

  root.set("utility", net.utility_shape().name());

  // Deadline policy: emitted only when set, so deadline-free scenarios keep
  // the historical file shape (and stay loadable by older readers).
  if (net.deadline_policy().decay != model::DeadlineDecay::kNone) {
    Json deadline = Json::object();
    deadline.set("decay",
                 model::DeadlinePolicy::decay_name(net.deadline_policy().decay));
    deadline.set("beta", net.deadline_policy().beta);
    root.set("deadline", std::move(deadline));
  }

  Json chargers = Json::array();
  for (const model::Charger& charger : net.chargers()) {
    Json entry = Json::object();
    entry.set("x", charger.position.x);
    entry.set("y", charger.position.y);
    chargers.push_back(std::move(entry));
  }
  root.set("chargers", std::move(chargers));

  Json tasks = Json::array();
  for (const model::Task& task : net.tasks()) {
    Json entry = Json::object();
    entry.set("x", task.position.x);
    entry.set("y", task.position.y);
    entry.set("facing_deg", geom::rad_to_deg(task.orientation));
    entry.set("release_slot", static_cast<int>(task.release_slot));
    entry.set("end_slot", static_cast<int>(task.end_slot));
    entry.set("required_energy_j", task.required_energy);
    entry.set("weight", task.weight);
    if (task.has_deadline()) {
      entry.set("deadline_slot", static_cast<int>(task.deadline_slot));
    }
    tasks.push_back(std::move(entry));
  }
  root.set("tasks", std::move(tasks));
  return root;
}

model::Network network_from_json(const Json& json) {
  model::PowerModel power;
  const Json& pj = json.at("power");
  power.alpha = pj.at("alpha").as_number();
  power.beta = pj.at("beta").as_number();
  power.radius = pj.at("radius").as_number();
  power.charging_angle = geom::deg_to_rad(pj.at("charging_angle_deg").as_number());
  power.receiving_angle = geom::deg_to_rad(pj.at("receiving_angle_deg").as_number());
  power.gain_profile =
      model::parse_gain_profile(pj.string_or("gain_profile", "uniform").c_str());

  model::TimeGrid time;
  const Json& tj = json.at("time");
  time.slot_seconds = tj.at("slot_seconds").as_number();
  time.rho = tj.at("rho").as_number();
  time.tau = util::index_from(tj.at("tau"), "tau");

  std::vector<model::Charger> chargers;
  const Json& cj = json.at("chargers");
  for (std::size_t i = 0; i < cj.size(); ++i) {
    chargers.push_back(model::Charger{
        {cj.at(i).at("x").as_number(), cj.at(i).at("y").as_number()}});
  }

  std::vector<model::Task> tasks;
  const Json& kj = json.at("tasks");
  for (std::size_t j = 0; j < kj.size(); ++j) {
    const Json& entry = kj.at(j);
    model::Task task;
    task.position = {entry.at("x").as_number(), entry.at("y").as_number()};
    task.orientation = geom::deg_to_rad(entry.at("facing_deg").as_number());
    task.release_slot = util::index_from(entry.at("release_slot"), "release_slot");
    task.end_slot = util::index_from(entry.at("end_slot"), "end_slot");
    task.required_energy = entry.at("required_energy_j").as_number();
    task.weight = entry.number_or("weight", 1.0);
    if (entry.contains("deadline_slot")) {
      task.deadline_slot = util::index_from(entry.at("deadline_slot"), "deadline_slot");
    }
    tasks.push_back(task);
  }
  std::int64_t horizon = 0;  // as model::Network derives it
  for (const model::Task& task : tasks) horizon = std::max<std::int64_t>(horizon, task.end_slot);
  check_cells(static_cast<std::int64_t>(chargers.size()), horizon,
              "chargers x the largest task end_slot");

  model::DeadlinePolicy deadline;
  if (json.contains("deadline")) {
    const Json& dj = json.at("deadline");
    deadline.decay = model::DeadlinePolicy::parse_decay(dj.string_or("decay", "none"));
    deadline.beta = dj.number_or("beta", deadline.beta);
  }

  return model::Network(std::move(chargers), std::move(tasks), power, time,
                        model::make_utility_shape(json.string_or("utility", "linear")),
                        deadline);
}

Json schedule_to_json(const model::Schedule& schedule) {
  Json root = Json::object();
  root.set("chargers", static_cast<int>(schedule.charger_count()));
  root.set("horizon", static_cast<int>(schedule.horizon()));

  std::size_t assigned = 0;
  for (model::ChargerIndex i = 0; i < schedule.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < schedule.horizon(); ++k) {
      if (schedule.assignment(i, k).has_value()) ++assigned;
    }
  }
  Json assignments = Json::array();
  assignments.reserve(assigned);
  Json disabled = Json::array();
  for (model::ChargerIndex i = 0; i < schedule.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < schedule.horizon(); ++k) {
      const model::SlotAssignment a = schedule.assignment(i, k);
      if (a.has_value()) {
        // orientation_rad is the exact double (decimal text round-trips
        // bit-for-bit); orientation_deg stays for human readability. The
        // deg->rad conversion moves ~25% of values by an ulp, and dominant-set
        // witnesses place a task exactly on the closed cone boundary, where
        // one ulp flips coverage — a loaded schedule must evaluate
        // bit-identically to the one that was saved.
        assignments.push_back(Json::object({{"charger", static_cast<int>(i)},
                                            {"orientation_deg", geom::rad_to_deg(*a)},
                                            {"orientation_rad", *a},
                                            {"slot", static_cast<int>(k)}}));
      }
      if (schedule.disabled_at(i, k)) {
        Json entry = Json::object();
        entry.set("charger", static_cast<int>(i));
        entry.set("from_slot", static_cast<int>(k));
        disabled.push_back(std::move(entry));
        break;  // only the first disabled slot matters (permanent outage)
      }
    }
  }
  root.set("assignments", std::move(assignments));
  root.set("disabled", std::move(disabled));
  return root;
}

model::Schedule schedule_from_json(const Json& json) {
  const model::ChargerIndex chargers = util::index_from(json.at("chargers"), "chargers");
  const model::SlotIndex horizon = util::index_from(json.at("horizon"), "horizon");
  check_cells(chargers, horizon, "chargers x horizon");
  model::Schedule schedule(chargers, horizon);
  const Json& assignments = json.at("assignments");
  for (std::size_t idx = 0; idx < assignments.size(); ++idx) {
    const Json& entry = assignments.at(idx);
    // Prefer the exact radian field; fall back to the legacy degree-only
    // form for schedules written before orientation_rad existed.
    const double theta = entry.contains("orientation_rad")
                             ? entry.at("orientation_rad").as_number()
                             : geom::deg_to_rad(entry.at("orientation_deg").as_number());
    schedule.assign(util::index_from(entry.at("charger"), "charger"),
                    util::index_from(entry.at("slot"), "slot"), theta);
  }
  if (json.contains("disabled")) {
    const Json& disabled = json.at("disabled");
    for (std::size_t idx = 0; idx < disabled.size(); ++idx) {
      const Json& entry = disabled.at(idx);
      schedule.disable_from(util::index_from(entry.at("charger"), "charger"),
                            util::index_from(entry.at("from_slot"), "from_slot"));
    }
  }
  return schedule;
}

void save_network(const std::string& path, const model::Network& net) {
  util::save_json_file(path, network_to_json(net));
}

model::Network load_network(const std::string& path) {
  return network_from_json(util::load_json_file(path));
}

void save_schedule(const std::string& path, const model::Schedule& schedule) {
  util::save_json_file(path, schedule_to_json(schedule));
}

model::Schedule load_schedule(const std::string& path) {
  return schedule_from_json(util::load_json_file(path));
}

}  // namespace haste::io
