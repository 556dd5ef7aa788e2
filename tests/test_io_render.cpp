// Tests for io/scenario_io.hpp and sim/render.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluate.hpp"
#include "core/offline.hpp"
#include "geom/angle.hpp"
#include "io/scenario_io.hpp"
#include "model/deadline.hpp"
#include "sim/render.hpp"
#include "test_helpers.hpp"
#include "testbed/topologies.hpp"

namespace haste::io {
namespace {

using testing_helpers::random_network;

TEST(ScenarioIo, NetworkRoundTripPreservesEverything) {
  util::Rng rng(1);
  const model::Network original = random_network(rng, 4, 9, 4, geom::kPi / 2);
  const model::Network restored = network_from_json(network_to_json(original));

  ASSERT_EQ(restored.charger_count(), original.charger_count());
  ASSERT_EQ(restored.task_count(), original.task_count());
  EXPECT_EQ(restored.horizon(), original.horizon());
  EXPECT_DOUBLE_EQ(restored.power_model().alpha, original.power_model().alpha);
  EXPECT_DOUBLE_EQ(restored.power_model().beta, original.power_model().beta);
  EXPECT_NEAR(restored.power_model().receiving_angle,
              original.power_model().receiving_angle, 1e-12);
  EXPECT_DOUBLE_EQ(restored.time().slot_seconds, original.time().slot_seconds);
  EXPECT_EQ(restored.time().tau, original.time().tau);
  EXPECT_EQ(restored.utility_shape().name(), original.utility_shape().name());
  for (model::TaskIndex j = 0; j < original.task_count(); ++j) {
    const model::Task& a = original.tasks()[static_cast<std::size_t>(j)];
    const model::Task& b = restored.tasks()[static_cast<std::size_t>(j)];
    EXPECT_DOUBLE_EQ(a.position.x, b.position.x);
    EXPECT_NEAR(a.orientation, b.orientation, 1e-12);
    EXPECT_EQ(a.release_slot, b.release_slot);
    EXPECT_EQ(a.end_slot, b.end_slot);
    EXPECT_DOUBLE_EQ(a.required_energy, b.required_energy);
    EXPECT_DOUBLE_EQ(a.weight, b.weight);
  }
}

TEST(ScenarioIo, RoundTripPreservesSchedulingOutcome) {
  // The acid test: scheduling the restored instance gives the same utility.
  util::Rng rng(2);
  const model::Network original = random_network(rng, 3, 8, 4);
  const model::Network restored = network_from_json(network_to_json(original));
  core::OfflineConfig config;
  config.colors = 1;
  const double a =
      core::evaluate_schedule(original, core::schedule_offline(original, config).schedule)
          .weighted_utility;
  const double b =
      core::evaluate_schedule(restored, core::schedule_offline(restored, config).schedule)
          .weighted_utility;
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(ScenarioIo, GainProfileSurvives) {
  util::Rng rng(3);
  std::vector<model::Charger> chargers;
  std::vector<model::Task> tasks;
  {
    const model::Network base = random_network(rng, 2, 4);
    chargers = base.chargers();
    tasks = base.tasks();
  }
  model::PowerModel power = testing_helpers::tiny_power();
  power.gain_profile = model::ReceivingGainProfile::kCosine;
  const model::Network net(chargers, tasks, power, model::TimeGrid{});
  const model::Network restored = network_from_json(network_to_json(net));
  EXPECT_EQ(restored.power_model().gain_profile, model::ReceivingGainProfile::kCosine);
}

TEST(ScenarioIo, ScheduleRoundTripIncludingOutages) {
  model::Schedule schedule(3, 5);
  schedule.assign(0, 0, 0.25);
  schedule.assign(0, 3, 1.75);
  schedule.assign(2, 1, 3.0);
  schedule.disable_from(1, 2);
  const model::Schedule restored = schedule_from_json(schedule_to_json(schedule));
  EXPECT_EQ(restored.charger_count(), 3);
  EXPECT_EQ(restored.horizon(), 5);
  for (model::ChargerIndex i = 0; i < 3; ++i) {
    for (model::SlotIndex k = 0; k < 5; ++k) {
      EXPECT_EQ(restored.assignment(i, k).has_value(),
                schedule.assignment(i, k).has_value());
      if (schedule.assignment(i, k).has_value()) {
        EXPECT_NEAR(*restored.assignment(i, k), *schedule.assignment(i, k), 1e-12);
      }
      EXPECT_EQ(restored.disabled_at(i, k), schedule.disabled_at(i, k));
    }
  }
}

TEST(ScenarioIo, ScheduleOrientationsRoundTripBitExactly) {
  // Dominant-set witness orientations place a task exactly on the closed
  // cone boundary, so an ulp of orientation drift flips its coverage. The
  // legacy degree-only serialization moved ~25% of radian values by an ulp
  // (rad -> deg -> rad is not the identity); orientation_rad pins the exact
  // bits. 0.003703701 is one such lossy value: deg_to_rad(rad_to_deg(x))
  // != x for it, which is what this test would fail on without the field.
  const double lossy = 0.003703701;
  ASSERT_NE(geom::deg_to_rad(geom::rad_to_deg(lossy)), lossy)
      << "constant no longer exercises the lossy path; pick another";
  model::Schedule schedule(1, 2);
  schedule.assign(0, 0, lossy);
  schedule.assign(0, 1, 2.0 * lossy);
  const model::Schedule restored = schedule_from_json(schedule_to_json(schedule));
  EXPECT_EQ(*restored.assignment(0, 0), lossy);
  EXPECT_EQ(*restored.assignment(0, 1), 2.0 * lossy);

  // Degree-only documents (written before orientation_rad existed) still
  // load through the legacy conversion.
  util::Json json = schedule_to_json(schedule);
  util::Json stripped = util::Json::array();
  for (std::size_t idx = 0; idx < json.at("assignments").size(); ++idx) {
    util::Json entry = util::Json::object();
    const util::Json& original = json.at("assignments").at(idx);
    entry.set("charger", original.at("charger"));
    entry.set("slot", original.at("slot"));
    entry.set("orientation_deg", original.at("orientation_deg"));
    stripped.push_back(std::move(entry));
  }
  json.set("assignments", std::move(stripped));
  const model::Schedule legacy = schedule_from_json(json);
  EXPECT_NEAR(*legacy.assignment(0, 0), lossy, 1e-12);
}

TEST(ScenarioIo, FileHelpers) {
  const std::string path = ::testing::TempDir() + "haste_net_test.json";
  const model::Network net = testbed::topology1();
  save_network(path, net);
  const model::Network loaded = load_network(path);
  EXPECT_EQ(loaded.charger_count(), net.charger_count());
  EXPECT_EQ(loaded.task_count(), net.task_count());
  std::remove(path.c_str());
}

TEST(ScenarioIo, MissingFieldsThrow) {
  EXPECT_THROW(network_from_json(util::Json::parse("{}")), util::JsonError);
  EXPECT_THROW(schedule_from_json(util::Json::parse("{\"chargers\": 2}")),
               util::JsonError);
}

/// `text` with the first integer value of `"field":` after `anchor`
/// replaced by `value`.
std::string with_field(std::string text, const std::string& anchor, const std::string& field,
                       const std::string& value) {
  const std::string key = "\"" + field + "\":";
  const std::size_t at = text.find(key, text.find(anchor));
  EXPECT_NE(at, std::string::npos) << field;
  const std::size_t begin = at + key.size();
  const std::size_t end = text.find_first_not_of("-0123456789", begin);
  return text.replace(begin, end - begin, value);
}

TEST(ScenarioIo, IndicesOutsideInt32AreRejectedNotNarrowed) {
  // Narrowed to 32 bits, 2^32 + k is k: "end_slot": 4294967306 would load as
  // 10. Every slot, index and count field must reject it, naming the field.
  util::Rng rng(5);
  const model::Network base = random_network(rng, 3, 4, 4);
  std::vector<model::Task> tasks = base.tasks();
  tasks[0].deadline_slot = tasks[0].end_slot;
  const model::Network net(base.chargers(), tasks, base.power_model(), base.time(), nullptr,
                           model::DeadlinePolicy{model::DeadlineDecay::kLinear, 4.0});
  const std::string scenario = network_to_json(net).dump();
  model::Schedule schedule(3, 5);
  schedule.assign(0, 1, 0.5);
  schedule.disable_from(2, 3);
  const std::string plan = schedule_to_json(schedule).dump();

  struct Case {
    bool scenario;
    const char* anchor;
    const char* field;
  };
  const Case cases[] = {
      {true, "\"time\"", "tau"},
      {true, "\"tasks\"", "release_slot"},
      {true, "\"tasks\"", "end_slot"},
      {true, "\"tasks\"", "deadline_slot"},
      {false, "{", "chargers"},
      {false, "{", "horizon"},
      {false, "\"assignments\"", "charger"},
      {false, "\"assignments\"", "slot"},
      {false, "\"disabled\"", "charger"},
      {false, "\"disabled\"", "from_slot"},
  };
  for (const Case& c : cases) {
    for (const char* value : {"4294967306", "4294967296", "-4294967295"}) {
      SCOPED_TRACE(std::string(c.anchor) + " " + c.field + " = " + value);
      const util::Json json =
          util::Json::parse(with_field(c.scenario ? scenario : plan, c.anchor, c.field, value));
      try {
        if (c.scenario) {
          network_from_json(json);
        } else {
          schedule_from_json(json);
        }
        ADD_FAILURE() << "loaded";
      } catch (const util::JsonError& error) {
        EXPECT_NE(std::string(error.what()).find(std::string(c.field) + " " + value),
                  std::string::npos)
            << error.what();
      }
    }
  }
  // The unmodified texts load.
  EXPECT_NO_THROW(network_from_json(util::Json::parse(scenario)));
  EXPECT_NO_THROW(schedule_from_json(util::Json::parse(plan)));
}

TEST(ScenarioIo, ScheduleAboveTheCellLimitIsRejected) {
  // Just past the limit, so a regressed check costs a modest allocation.
  // Without chargers a schedule allocates no slots, and the limit still
  // counts one charger's row.
  const std::string plan = schedule_to_json(model::Schedule(0, 3)).dump();
  const auto load = [&](std::int64_t chargers, std::int64_t horizon) {
    return schedule_from_json(util::Json::parse(
        with_field(with_field(plan, "{", "chargers", std::to_string(chargers)), "{",
                   "horizon", std::to_string(horizon))));
  };
  EXPECT_EQ(load(0, kMaxScheduleCells).horizon(), kMaxScheduleCells);
  for (const auto& [chargers, horizon] :
       {std::pair<std::int64_t, std::int64_t>{0, kMaxScheduleCells + 1},
        {2, kMaxScheduleCells / 2 + 1}}) {
    SCOPED_TRACE(std::to_string(chargers) + " x " + std::to_string(horizon));
    try {
      load(chargers, horizon);
      ADD_FAILURE() << "loaded";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("horizon"), std::string::npos) << message;
      EXPECT_NE(message.find(std::to_string(kMaxScheduleCells)), std::string::npos) << message;
    }
  }
}

}  // namespace
}  // namespace haste::io

namespace haste::sim {
namespace {

TEST(Render, ContainsChargersAndTasks) {
  const model::Network net = testbed::topology1();
  const std::string picture = render_field(net, nullptr, 0, 40, 12);
  EXPECT_NE(picture.find('+'), std::string::npos);  // idle chargers
  EXPECT_NE(picture.find('T'), std::string::npos);  // tasks active at slot 0
  // 12 lines of 40 characters plus newlines.
  EXPECT_EQ(picture.size(), 12u * 41u);
}

TEST(Render, OrientationGlyphsAppearWithASchedule) {
  const model::Network net = testbed::topology1();
  const core::OfflineResult result = core::schedule_offline(net, {1, 1, 1, true, false});
  const std::string picture = render_field(net, &result.schedule, 1, 40, 12);
  const bool has_arrow = picture.find('>') != std::string::npos ||
                         picture.find('<') != std::string::npos ||
                         picture.find('^') != std::string::npos ||
                         picture.find('v') != std::string::npos;
  EXPECT_TRUE(has_arrow);
}

TEST(Render, DisabledChargerRendersAsX) {
  const model::Network net = testbed::topology1();
  model::Schedule schedule(net.charger_count(), net.horizon());
  schedule.disable_from(0, 0);
  const std::string picture = render_field(net, &schedule, 0, 40, 12);
  EXPECT_NE(picture.find('x'), std::string::npos);
}

TEST(Render, HandlesDegenerateGeometry) {
  // All entities at the same point must not crash or divide by zero.
  std::vector<model::Charger> chargers = {{{1.0, 1.0}}};
  model::Task task;
  task.position = {1.0, 1.0};
  task.orientation = 0.0;
  task.release_slot = 0;
  task.end_slot = 1;
  task.required_energy = 1.0;
  const model::Network net(chargers, {task}, testing_helpers::tiny_power(),
                           model::TimeGrid{});
  EXPECT_NO_THROW(render_field(net, nullptr, 0, 10, 5));
}

TEST(Render, ClampsTinyDimensions) {
  const model::Network net = testbed::topology1();
  const std::string picture = render_field(net, nullptr, 0, 1, 1);
  EXPECT_FALSE(picture.empty());
}

}  // namespace
}  // namespace haste::sim
