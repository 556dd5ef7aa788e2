// Tests for model/task.hpp, model/timegrid.hpp, and model/schedule.hpp.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "model/schedule.hpp"
#include "model/task.hpp"
#include "model/timegrid.hpp"

namespace haste::model {
namespace {

Task valid_task() {
  Task task;
  task.position = {1.0, 2.0};
  task.orientation = 0.5;
  task.release_slot = 2;
  task.end_slot = 6;
  task.required_energy = 100.0;
  task.weight = 0.125;
  return task;
}

TEST(Task, ActiveRangeIsHalfOpen) {
  const Task task = valid_task();
  EXPECT_FALSE(task.active(1));
  EXPECT_TRUE(task.active(2));
  EXPECT_TRUE(task.active(5));
  EXPECT_FALSE(task.active(6));
  EXPECT_EQ(task.duration_slots(), 4);
}

TEST(Task, ValidateAcceptsGood) { EXPECT_NO_THROW(valid_task().validate()); }

TEST(Task, ValidateRejectsEmptyDuration) {
  Task task = valid_task();
  task.end_slot = task.release_slot;
  EXPECT_THROW(task.validate(), std::invalid_argument);
}

TEST(Task, ValidateRejectsNonPositiveEnergy) {
  Task task = valid_task();
  task.required_energy = 0.0;
  EXPECT_THROW(task.validate(), std::invalid_argument);
  task.required_energy = -5.0;
  EXPECT_THROW(task.validate(), std::invalid_argument);
}

TEST(Task, ValidateRejectsNegativeWeight) {
  Task task = valid_task();
  task.weight = -0.1;
  EXPECT_THROW(task.validate(), std::invalid_argument);
}

TEST(Task, DescribeMentionsFields) {
  const std::string text = valid_task().describe();
  EXPECT_NE(text.find("E=100"), std::string::npos);
}

TEST(TimeGrid, EffectiveSecondsAppliesRho) {
  TimeGrid grid;
  grid.slot_seconds = 60.0;
  grid.rho = 1.0 / 12.0;
  EXPECT_DOUBLE_EQ(grid.effective_seconds(false), 60.0);
  EXPECT_DOUBLE_EQ(grid.effective_seconds(true), 55.0);
}

TEST(TimeGrid, ValidateRejectsBadRho) {
  TimeGrid grid;
  grid.rho = 1.5;
  EXPECT_THROW(grid.validate(), std::invalid_argument);
  grid.rho = -0.1;
  EXPECT_THROW(grid.validate(), std::invalid_argument);
}

TEST(TimeGrid, ValidateRejectsBadSlotAndTau) {
  TimeGrid grid;
  grid.slot_seconds = 0.0;
  EXPECT_THROW(grid.validate(), std::invalid_argument);
  grid = TimeGrid{};
  grid.tau = -1;
  EXPECT_THROW(grid.validate(), std::invalid_argument);
}

TEST(Schedule, DimensionsAndDefaults) {
  const Schedule s(3, 5);
  EXPECT_EQ(s.charger_count(), 3);
  EXPECT_EQ(s.horizon(), 5);
  for (ChargerIndex i = 0; i < 3; ++i) {
    for (SlotIndex k = 0; k < 5; ++k) {
      EXPECT_FALSE(s.assignment(i, k).has_value());
    }
  }
}

TEST(Schedule, AssignClearRoundTrip) {
  Schedule s(2, 4);
  s.assign(1, 2, 1.5);
  EXPECT_TRUE(s.assignment(1, 2).has_value());
  EXPECT_DOUBLE_EQ(*s.assignment(1, 2), 1.5);
  s.clear(1, 2);
  EXPECT_FALSE(s.assignment(1, 2).has_value());
  // An unassigned slot is stored as NaN, so a NaN angle is rejected; any
  // other angle keeps its bits.
  EXPECT_THROW(s.assign(1, 2, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_FALSE(s.assignment(1, 2).has_value());
  s.assign(0, 3, -0.0);
  EXPECT_TRUE(std::signbit(*s.assignment(0, 3)));
}

TEST(Schedule, BoundsChecked) {
  Schedule s(2, 4);
  EXPECT_THROW(s.assign(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(s.assign(0, 4, 1.0), std::out_of_range);
  EXPECT_THROW((void)s.assignment(-1, 0), std::out_of_range);
}

TEST(Schedule, ResolvedOrientationPersists) {
  Schedule s(1, 6);
  s.assign(0, 1, 2.0);
  s.assign(0, 4, 3.0);
  EXPECT_FALSE(s.resolved_orientation(0, 0).has_value());  // before any assignment
  EXPECT_DOUBLE_EQ(*s.resolved_orientation(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(*s.resolved_orientation(0, 2), 2.0);    // persists
  EXPECT_DOUBLE_EQ(*s.resolved_orientation(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(*s.resolved_orientation(0, 4), 3.0);
  EXPECT_DOUBLE_EQ(*s.resolved_orientation(0, 5), 3.0);
}

TEST(Schedule, SwitchAccounting) {
  Schedule s(1, 6);
  s.assign(0, 0, 1.0);  // out of Phi: switch
  s.assign(0, 1, 1.0);  // same angle: no switch
  s.assign(0, 3, 2.0);  // after persistence at 1.0: switch
  // slot 2 unassigned: persists, no switch; slot 4-5 unassigned.
  EXPECT_TRUE(s.switches_at(0, 0));
  EXPECT_FALSE(s.switches_at(0, 1));
  EXPECT_FALSE(s.switches_at(0, 2));
  EXPECT_TRUE(s.switches_at(0, 3));
  EXPECT_FALSE(s.switches_at(0, 4));
  EXPECT_EQ(s.total_switches(), 2);
}

TEST(Schedule, FirstAssignmentAfterIdleIsASwitch) {
  Schedule s(1, 4);
  s.assign(0, 2, 1.0);
  EXPECT_TRUE(s.switches_at(0, 2));
  EXPECT_EQ(s.total_switches(), 1);
}

TEST(Schedule, NegativeDimensionsRejected) {
  EXPECT_THROW(Schedule(-1, 3), std::invalid_argument);
  EXPECT_THROW(Schedule(2, -3), std::invalid_argument);
}

}  // namespace
}  // namespace haste::model
