// Property/fuzz tests for the shard wire protocol (sim/shard.hpp JSON
// round-trips). The protocol's bit-exactness claim — merged sharded results
// equal the in-process path — rests on every field surviving
// serialize -> dump -> parse -> deserialize unchanged, including the values
// JSON is notoriously lossy about: u64s above 2^53, subnormal doubles, and
// the sign of zero. The fuzz here is Rng-driven with fixed seeds, so a
// failure reproduces deterministically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "sim/shard.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace haste::sim {
namespace {

using util::Json;
using util::Rng;

/// Bit-level double equality: distinguishes -0.0 from 0.0 and compares NaN
/// payloads, which operator== cannot.
bool same_bits(double a, double b) {
  std::uint64_t ia = 0;
  std::uint64_t ib = 0;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  return ia == ib;
}

#define EXPECT_SAME_BITS(a, b) \
  EXPECT_TRUE(same_bits((a), (b))) << #a " = " << (a) << " vs " << (b)

/// The adversarial doubles every numeric field is fuzzed with: exact powers,
/// shortest-round-trip stress values, the smallest subnormal, both zeros,
/// and the extremes of the finite range.
const std::vector<double>& nasty_doubles() {
  static const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.1,                                       // classic non-representable
      1.0 / 3.0,
      5e-324,                                    // min subnormal
      -5e-324,
      std::numeric_limits<double>::denorm_min() * 977.0,  // mid-subnormal
      std::numeric_limits<double>::min(),        // smallest normal
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      9007199254740993.0,                        // 2^53 + 2 (not representable as 2^53+1)
      1.7976931348623155e308,
      2.2250738585072011e-308,                   // the infamous slow-parse subnormal
  };
  return values;
}

double random_finite_double(Rng& rng) {
  for (;;) {
    std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) return value;  // NaN/Inf are not valid JSON
  }
}

double pick_double(Rng& rng) {
  const auto& nasty = nasty_doubles();
  if (rng.uniform() < 0.5) return nasty[rng.uniform_index(nasty.size())];
  return random_finite_double(rng);
}

/// u64s clustered around the JSON-double cliff (2^53) and the type's edges.
std::uint64_t pick_u64(Rng& rng) {
  switch (rng.uniform_index(6)) {
    case 0: return (1ULL << 53) + rng.uniform_index(5) - 2;  // 2^53 +/- 2
    case 1: return std::numeric_limits<std::uint64_t>::max() - rng.uniform_index(3);
    case 2: return 0;
    case 3: return (1ULL << 63) + rng.uniform_index(3);
    default: return rng();
  }
}

RunMetrics random_metrics(Rng& rng) {
  RunMetrics metrics;
  metrics.weighted_utility = pick_double(rng);
  metrics.normalized_utility = pick_double(rng);
  metrics.relaxed_utility = pick_double(rng);
  const std::size_t tasks = rng.uniform_index(5);  // 0..4 — empty lists included
  for (std::size_t j = 0; j < tasks; ++j) metrics.task_utility.push_back(pick_double(rng));
  metrics.switches = static_cast<int>(rng.uniform_index(1000));
  metrics.messages = pick_u64(rng);
  metrics.deliveries = pick_u64(rng);
  metrics.rounds = pick_u64(rng);
  metrics.negotiations = pick_u64(rng);
  metrics.exact = rng.uniform() < 0.5;
  return metrics;
}

void expect_metrics_roundtrip(const RunMetrics& metrics) {
  const RunMetrics back =
      metrics_from_json(Json::parse(metrics_to_json(metrics).dump()));
  EXPECT_SAME_BITS(back.weighted_utility, metrics.weighted_utility);
  EXPECT_SAME_BITS(back.normalized_utility, metrics.normalized_utility);
  EXPECT_SAME_BITS(back.relaxed_utility, metrics.relaxed_utility);
  ASSERT_EQ(back.task_utility.size(), metrics.task_utility.size());
  for (std::size_t j = 0; j < metrics.task_utility.size(); ++j) {
    EXPECT_SAME_BITS(back.task_utility[j], metrics.task_utility[j]);
  }
  EXPECT_EQ(back.switches, metrics.switches);
  EXPECT_EQ(back.messages, metrics.messages);
  EXPECT_EQ(back.deliveries, metrics.deliveries);
  EXPECT_EQ(back.rounds, metrics.rounds);
  EXPECT_EQ(back.negotiations, metrics.negotiations);
  EXPECT_EQ(back.exact, metrics.exact);
}

TEST(ShardWireFuzz, MetricsRoundTripIsBitExact) {
  Rng rng(20260805);
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    expect_metrics_roundtrip(random_metrics(rng));
  }
}

TEST(ShardWire, U64CountersSurviveTheDoubleCliff) {
  // The values a naive "counters as JSON numbers" protocol silently rounds.
  const std::vector<std::uint64_t> cliff_values = {
      (1ULL << 53) - 1, (1ULL << 53), (1ULL << 53) + 1, (1ULL << 63),
      std::numeric_limits<std::uint64_t>::max() - 1,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t value : cliff_values) {
    RunMetrics metrics;
    metrics.messages = value;
    metrics.deliveries = value ^ 1;
    const RunMetrics back =
        metrics_from_json(Json::parse(metrics_to_json(metrics).dump()));
    EXPECT_EQ(back.messages, value);
    EXPECT_EQ(back.deliveries, value ^ 1);
  }
}

TEST(ShardWire, SubnormalAndNegativeZeroUtilitiesSurvive) {
  RunMetrics metrics;
  metrics.weighted_utility = 5e-324;   // min subnormal
  metrics.normalized_utility = -0.0;   // sign of zero must not be dropped
  metrics.relaxed_utility = -5e-324;
  metrics.task_utility = {-0.0, 5e-324, 2.2250738585072011e-308};
  const RunMetrics back =
      metrics_from_json(Json::parse(metrics_to_json(metrics).dump()));
  EXPECT_SAME_BITS(back.weighted_utility, 5e-324);
  EXPECT_SAME_BITS(back.normalized_utility, -0.0);
  EXPECT_TRUE(std::signbit(back.normalized_utility));
  EXPECT_SAME_BITS(back.relaxed_utility, -5e-324);
  ASSERT_EQ(back.task_utility.size(), 3u);
  EXPECT_TRUE(std::signbit(back.task_utility[0]));
  EXPECT_SAME_BITS(back.task_utility[1], 5e-324);
  EXPECT_SAME_BITS(back.task_utility[2], 2.2250738585072011e-308);
}

TEST(ShardWire, MalformedU64StringsAreRejected) {
  RunMetrics metrics;
  Json json = metrics_to_json(metrics);
  // Trailing junk after the digits: rejected by the consumed-length check.
  for (const char* bad : {"12x", "0x10", "1 2", "12.5"}) {
    json.set("messages", Json(std::string(bad)));
    EXPECT_THROW(metrics_from_json(json), util::JsonError) << "accepted: " << bad;
  }
  // Empty string (stoull: invalid_argument) and 2^64 (stoull: out_of_range)
  // must also fail loudly rather than wrap or default.
  for (const char* bad : {"", "18446744073709551616"}) {
    json.set("messages", Json(std::string(bad)));
    EXPECT_ANY_THROW(metrics_from_json(json)) << "accepted: " << bad;
  }
}

ScenarioConfig random_config(Rng& rng) {
  ScenarioConfig config;
  config.field_width = pick_double(rng);
  config.field_height = pick_double(rng);
  config.chargers = static_cast<int>(rng.uniform_index(500));
  config.tasks = static_cast<int>(rng.uniform_index(500));
  config.power.alpha = pick_double(rng);
  config.power.beta = pick_double(rng);
  config.power.radius = pick_double(rng);
  config.power.charging_angle = pick_double(rng);
  config.power.receiving_angle = pick_double(rng);
  config.time.slot_seconds = pick_double(rng);
  config.time.rho = pick_double(rng);
  config.energy_min_j = pick_double(rng);
  config.energy_max_j = pick_double(rng);
  config.duration_min_slots = static_cast<int>(rng.uniform_index(200));
  config.duration_max_slots = static_cast<int>(rng.uniform_index(200));
  config.release_window_slots = static_cast<int>(rng.uniform_index(200));
  config.arrivals = rng.uniform() < 0.5 ? ArrivalProcess::kUniformWindow
                                        : ArrivalProcess::kPoisson;
  config.poisson_rate_per_slot = pick_double(rng);
  config.task_weight = pick_double(rng);
  config.task_placement =
      rng.uniform() < 0.5 ? Placement::kUniform : Placement::kGaussian;
  config.gaussian_sigma_x = pick_double(rng);
  config.gaussian_sigma_y = pick_double(rng);
  config.utility_shape = std::vector<std::string>{"linear", "sqrt", "log"}[rng.uniform_index(3)];
  return config;
}

TEST(ShardWireFuzz, ScenarioConfigRoundTripIsBitExact) {
  Rng rng(77001);
  for (int round = 0; round < 100; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const ScenarioConfig config = random_config(rng);
    const ScenarioConfig back =
        scenario_config_from_json(Json::parse(scenario_config_to_json(config).dump()));
    EXPECT_SAME_BITS(back.field_width, config.field_width);
    EXPECT_SAME_BITS(back.field_height, config.field_height);
    EXPECT_EQ(back.chargers, config.chargers);
    EXPECT_EQ(back.tasks, config.tasks);
    EXPECT_SAME_BITS(back.power.alpha, config.power.alpha);
    EXPECT_SAME_BITS(back.power.beta, config.power.beta);
    EXPECT_SAME_BITS(back.power.radius, config.power.radius);
    EXPECT_SAME_BITS(back.power.charging_angle, config.power.charging_angle);
    EXPECT_SAME_BITS(back.power.receiving_angle, config.power.receiving_angle);
    EXPECT_EQ(back.power.gain_profile, config.power.gain_profile);
    EXPECT_SAME_BITS(back.time.slot_seconds, config.time.slot_seconds);
    EXPECT_SAME_BITS(back.time.rho, config.time.rho);
    EXPECT_EQ(back.time.tau, config.time.tau);
    EXPECT_SAME_BITS(back.energy_min_j, config.energy_min_j);
    EXPECT_SAME_BITS(back.energy_max_j, config.energy_max_j);
    EXPECT_EQ(back.duration_min_slots, config.duration_min_slots);
    EXPECT_EQ(back.duration_max_slots, config.duration_max_slots);
    EXPECT_EQ(back.release_window_slots, config.release_window_slots);
    EXPECT_EQ(back.arrivals, config.arrivals);
    EXPECT_SAME_BITS(back.poisson_rate_per_slot, config.poisson_rate_per_slot);
    EXPECT_SAME_BITS(back.task_weight, config.task_weight);
    EXPECT_EQ(back.task_placement, config.task_placement);
    EXPECT_SAME_BITS(back.gaussian_sigma_x, config.gaussian_sigma_x);
    EXPECT_SAME_BITS(back.gaussian_sigma_y, config.gaussian_sigma_y);
    EXPECT_EQ(back.utility_shape, config.utility_shape);
  }
}

Variant random_variant(Rng& rng) {
  static const std::vector<Algorithm> algorithms = {
      Algorithm::kOfflineHaste,          Algorithm::kOfflineGreedyUtility,
      Algorithm::kOfflineGreedyCover,    Algorithm::kOfflineRandom,
      Algorithm::kOfflineGlobalGreedy,   Algorithm::kOfflineImproved,
      Algorithm::kOfflineOptimalRelaxed, Algorithm::kOnlineHaste,
      Algorithm::kOnlineHasteSequential, Algorithm::kOnlineGreedyUtility,
      Algorithm::kOnlineGreedyCover,
  };
  Variant variant;
  variant.label = "fuzz-" + std::to_string(rng());  // u64-sized labels too
  variant.algorithm = algorithms[rng.uniform_index(algorithms.size())];
  variant.params.colors = static_cast<int>(rng.uniform_index(16)) + 1;
  variant.params.samples = static_cast<int>(rng.uniform_index(64)) + 1;
  variant.params.seed = pick_u64(rng);
  variant.params.brute_force_budget = pick_u64(rng);
  return variant;
}

TEST(ShardWireFuzz, ShardSpecRoundTripIsBitExact) {
  Rng rng(424242);
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ShardSpec spec;
    spec.shard_id = static_cast<int>(rng.uniform_index(10000));
    spec.x_index = static_cast<int>(rng.uniform_index(64));
    spec.trial_begin = static_cast<int>(rng.uniform_index(1000));
    spec.trial_end = spec.trial_begin + static_cast<int>(rng.uniform_index(1000));
    spec.base_seed = pick_u64(rng);
    spec.config = random_config(rng);
    const std::size_t variant_count = rng.uniform_index(4);  // 0 included
    for (std::size_t v = 0; v < variant_count; ++v) {
      spec.variants.push_back(random_variant(rng));
    }

    const ShardSpec back = shard_spec_from_json(Json::parse(shard_spec_to_json(spec).dump()));
    EXPECT_EQ(back.shard_id, spec.shard_id);
    EXPECT_EQ(back.x_index, spec.x_index);
    EXPECT_EQ(back.trial_begin, spec.trial_begin);
    EXPECT_EQ(back.trial_end, spec.trial_end);
    EXPECT_EQ(back.base_seed, spec.base_seed);  // u64, possibly 2^64-1
    ASSERT_EQ(back.variants.size(), spec.variants.size());
    for (std::size_t v = 0; v < spec.variants.size(); ++v) {
      EXPECT_EQ(back.variants[v].label, spec.variants[v].label);
      EXPECT_EQ(back.variants[v].algorithm, spec.variants[v].algorithm);
      EXPECT_EQ(back.variants[v].params.colors, spec.variants[v].params.colors);
      EXPECT_EQ(back.variants[v].params.samples, spec.variants[v].params.samples);
      EXPECT_EQ(back.variants[v].params.seed, spec.variants[v].params.seed);
      EXPECT_EQ(back.variants[v].params.brute_force_budget,
                spec.variants[v].params.brute_force_budget);
    }
    EXPECT_SAME_BITS(back.config.field_width, spec.config.field_width);
    EXPECT_EQ(back.config.utility_shape, spec.config.utility_shape);
  }
}

TEST(ShardWire, EmptyVariantListRoundTrips) {
  ShardSpec spec;
  spec.shard_id = 7;
  spec.base_seed = std::numeric_limits<std::uint64_t>::max();
  spec.config = ScenarioConfig::small_scale();
  spec.variants.clear();
  const ShardSpec back = shard_spec_from_json(Json::parse(shard_spec_to_json(spec).dump()));
  EXPECT_EQ(back.shard_id, 7);
  EXPECT_EQ(back.base_seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(back.variants.empty());
}

TEST(ShardWire, EmptyTaskUtilityListRoundTrips) {
  RunMetrics metrics;
  metrics.task_utility.clear();
  const RunMetrics back =
      metrics_from_json(Json::parse(metrics_to_json(metrics).dump()));
  EXPECT_TRUE(back.task_utility.empty());
}

}  // namespace
}  // namespace haste::sim
