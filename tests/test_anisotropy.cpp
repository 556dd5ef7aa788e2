// Tests for the anisotropic receiving extension (model/anisotropy.hpp and
// its integration into PowerModel / the schedulers).
#include "model/anisotropy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/evaluate.hpp"
#include "core/offline.hpp"
#include "oracle/submodular.hpp"
#include "geom/angle.hpp"
#include "test_helpers.hpp"

namespace haste::model {
namespace {

using geom::kPi;

TEST(ReceivingGain, UniformIsAlwaysOne) {
  for (double delta : {0.0, 0.5, kPi / 2, kPi}) {
    EXPECT_DOUBLE_EQ(receiving_gain(ReceivingGainProfile::kUniform, delta), 1.0);
  }
}

TEST(ReceivingGain, CosineLaw) {
  EXPECT_DOUBLE_EQ(receiving_gain(ReceivingGainProfile::kCosine, 0.0), 1.0);
  EXPECT_NEAR(receiving_gain(ReceivingGainProfile::kCosine, kPi / 3), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(receiving_gain(ReceivingGainProfile::kCosine, kPi), 0.0);  // clamped
}

TEST(ReceivingGain, CosineSquaredIsSharper) {
  for (double delta = 0.05; delta < kPi / 2; delta += 0.1) {
    EXPECT_LT(receiving_gain(ReceivingGainProfile::kCosineSquared, delta),
              receiving_gain(ReceivingGainProfile::kCosine, delta));
  }
  EXPECT_DOUBLE_EQ(receiving_gain(ReceivingGainProfile::kCosineSquared, 0.0), 1.0);
}

TEST(ReceivingGain, MonotoneNonIncreasingInDelta) {
  for (ReceivingGainProfile profile :
       {ReceivingGainProfile::kCosine, ReceivingGainProfile::kCosineSquared}) {
    double previous = 2.0;
    for (double delta = 0.0; delta <= kPi; delta += 0.05) {
      const double g = receiving_gain(profile, delta);
      EXPECT_LE(g, previous + 1e-12);
      EXPECT_GE(g, 0.0);
      EXPECT_LE(g, 1.0);
      previous = g;
    }
  }
}

TEST(ReceivingGain, ParseAndNames) {
  EXPECT_EQ(parse_gain_profile("uniform"), ReceivingGainProfile::kUniform);
  EXPECT_EQ(parse_gain_profile("cosine"), ReceivingGainProfile::kCosine);
  EXPECT_EQ(parse_gain_profile("cosine2"), ReceivingGainProfile::kCosineSquared);
  EXPECT_THROW(parse_gain_profile("isotropic"), std::invalid_argument);
  EXPECT_STREQ(gain_profile_name(ReceivingGainProfile::kCosine), "cosine");
}

TEST(PowerModelAnisotropy, BoresightKeepsFullPower) {
  PowerModel power = testing_helpers::tiny_power();
  power.gain_profile = ReceivingGainProfile::kCosine;
  // Device at origin facing +x; charger straight ahead on the boresight.
  Task task;
  task.position = {0.0, 0.0};
  task.orientation = 0.0;
  task.release_slot = 0;
  task.end_slot = 1;
  task.required_energy = 1.0;
  EXPECT_DOUBLE_EQ(power.potential_power({10.0, 0.0}, task),
                   power.range_power(10.0));
}

TEST(PowerModelAnisotropy, OffBoresightScalesByCosine) {
  PowerModel power = testing_helpers::tiny_power();  // omnidirectional sector
  power.gain_profile = ReceivingGainProfile::kCosine;
  Task task;
  task.position = {0.0, 0.0};
  task.orientation = 0.0;
  task.release_slot = 0;
  task.end_slot = 1;
  task.required_energy = 1.0;
  // Charger at 60 degrees off the facing: gain = cos(60 deg) = 0.5.
  const geom::Vec2 charger = 10.0 * geom::unit_vector(kPi / 3);
  EXPECT_NEAR(power.potential_power(charger, task), 0.5 * power.range_power(10.0),
              1e-12);
}

TEST(PowerModelAnisotropy, GatedPowerAlsoScales) {
  PowerModel power = testing_helpers::tiny_power();
  power.gain_profile = ReceivingGainProfile::kCosineSquared;
  const geom::Vec2 device{0.0, 0.0};
  const geom::Vec2 charger = 5.0 * geom::unit_vector(kPi / 4);
  // Charger faces the device; device faces +x, incidence 45 degrees.
  const double theta = (device - charger).angle();
  const double expected = power.range_power(5.0) * 0.5;  // cos^2(45 deg)
  EXPECT_NEAR(power.power(charger, theta, device, 0.0), expected, 1e-12);
}

TEST(PowerModelAnisotropy, NeverIncreasesDeliveredPower) {
  util::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    PowerModel uniform = testing_helpers::tiny_power(geom::kPi);
    PowerModel cosine = uniform;
    cosine.gain_profile = ReceivingGainProfile::kCosine;
    Task task;
    task.position = {rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    task.orientation = rng.uniform(0.0, geom::kTwoPi);
    task.release_slot = 0;
    task.end_slot = 1;
    task.required_energy = 1.0;
    const geom::Vec2 charger{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    EXPECT_LE(cosine.potential_power(charger, task),
              uniform.potential_power(charger, task) + 1e-12);
  }
}

TEST(PowerModelAnisotropy, SubmodularityPreserved) {
  // Lemma 4.2 must survive the extension: the gain only rescales per-(i,j)
  // power, and the proof never uses equal powers.
  util::Rng rng(4);
  std::vector<Charger> chargers;
  std::vector<Task> tasks;
  {
    const Network base = testing_helpers::random_network(rng, 3, 6);
    chargers = base.chargers();
    tasks = base.tasks();
  }
  PowerModel power = testing_helpers::tiny_power();
  power.gain_profile = ReceivingGainProfile::kCosine;
  const Network net(chargers, tasks, power, TimeGrid{});
  const auto partitions = core::build_partitions(net);
  const core::HasteRObjective f(net, partitions);
  util::Rng check(5);
  EXPECT_LE(core::max_submodularity_violation(f, check, 300), 1e-10);
  EXPECT_LE(core::max_monotonicity_violation(f, check, 300), 1e-10);
}

TEST(PowerModelAnisotropy, SchedulerStillWorksEndToEnd) {
  util::Rng rng(6);
  std::vector<Charger> chargers;
  std::vector<Task> tasks;
  {
    const Network base = testing_helpers::random_network(rng, 3, 8);
    chargers = base.chargers();
    tasks = base.tasks();
  }
  PowerModel power = testing_helpers::tiny_power();
  power.gain_profile = ReceivingGainProfile::kCosineSquared;
  const Network net(chargers, tasks, power, TimeGrid{});
  const core::OfflineResult result = core::schedule_offline(net, {1, 1, 1, true, false});
  const core::EvaluationResult eval = core::evaluate_schedule(net, result.schedule);
  EXPECT_GE(eval.weighted_utility, 0.0);
  EXPECT_LE(eval.weighted_utility, net.utility_upper_bound() + 1e-12);
  // Evaluation at least matches the plan (relaxed, persistence is a bonus).
  EXPECT_GE(eval.relaxed_weighted_utility, result.planned_relaxed_utility - 1e-9);
}

}  // namespace
}  // namespace haste::model
