// Golden negotiation battery: pins what fixed online runs produce, so any
// rewrite of the negotiation's hot path (node state, bus, engine commits)
// must reproduce the reference implementation exactly:
//
//  * the Fig. 16 accounting — broadcasts, deliveries, wire bytes, rounds,
//    negotiations — and every NegotiationRecord's trigger, slots, fleet size,
//    messages and rounds;
//  * the executed schedule (FNV-1a of its JSON) and the weighted-utility bits;
//  * the predictor ledger of predictor-on sessions.
//
// Each case runs under both node TabularModes and with node reuse on and off;
// all four must hit the same golden. Row-evaluation counts are deliberately
// not pinned: they measure oracle work, not results.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dist/node.hpp"
#include "dist/online.hpp"
#include "io/scenario_io.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace haste {
namespace {

std::uint64_t fnv1a(const std::string& text, std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const unsigned char byte : text) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Golden {
  std::uint64_t messages = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t message_bytes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t negotiations = 0;
  std::size_t records = 0;
  std::uint64_t records_fnv = 0;   ///< over every record's fields but row_evals
  std::uint64_t schedule_fnv = 0;  ///< over io::schedule_to_json(...).dump()
  std::uint64_t utility_bits = 0;  ///< evaluation.weighted_utility
  predict::PredictorStats predictor;

  friend bool operator==(const Golden&, const Golden&) = default;
};

Golden golden_of(const dist::OnlineResult& result) {
  Golden golden;
  golden.messages = result.messages;
  golden.deliveries = result.deliveries;
  golden.message_bytes = result.message_bytes;
  golden.rounds = result.rounds;
  golden.negotiations = result.negotiations;
  golden.records = result.log.size();
  std::ostringstream records;
  for (const dist::NegotiationRecord& record : result.log) {
    records << static_cast<int>(record.trigger) << ' ' << record.event_slot << ' '
            << record.plan_start << ' ' << record.known_tasks << ' '
            << record.alive_chargers << ' ' << record.messages << ' ' << record.rounds
            << ';';
  }
  golden.records_fnv = fnv1a(records.str());
  golden.schedule_fnv = fnv1a(io::schedule_to_json(result.schedule).dump());
  golden.utility_bits = std::bit_cast<std::uint64_t>(result.evaluation.weighted_utility);
  golden.predictor = result.predictor;
  return golden;
}

/// The golden as a C++ initializer, printed on mismatch.
std::string describe(const Golden& g) {
  std::ostringstream out;
  out << "{" << g.messages << "u, " << g.deliveries << "u, " << g.message_bytes << "u, "
      << g.rounds << "u, " << g.negotiations << "u, " << g.records << "u, 0x" << std::hex
      << g.records_fnv << "ULL, 0x" << g.schedule_fnv << "ULL, 0x" << g.utility_bits
      << "ULL, {" << std::dec << g.predictor.hits << "u, " << g.predictor.misses << "u, "
      << g.predictor.batched << "u, " << g.predictor.replans_skipped << "u}}";
  return out.str();
}

/// Runs `config` on `net` under both node TabularModes and with node reuse
/// on and off, and requires every run to produce `expected`.
void expect_golden(const model::Network& net, dist::OnlineConfig config,
                   const Golden& expected) {
  for (const core::TabularMode mode :
       {core::TabularMode::kIncremental, core::TabularMode::kRebuild}) {
    for (const bool reuse : {true, false}) {
      config.mode = mode;
      config.reuse_nodes = reuse;
      const Golden actual = golden_of(dist::run_online(net, config));
      EXPECT_EQ(actual, expected)
          << "mode " << (mode == core::TabularMode::kRebuild ? "rebuild" : "incremental")
          << ", reuse " << reuse << ": actual " << describe(actual);
    }
  }
}

/// A scaled-down paper instance: the paper's charger density, power model
/// and 1/m weights on a 25 m field, so a run re-plans a dozen times in
/// milliseconds.
sim::ScenarioConfig scaled_paper() {
  sim::ScenarioConfig config = sim::ScenarioConfig::paper_default();
  config.field_width = 25.0;
  config.field_height = 25.0;
  config.chargers = 12;
  config.tasks = 40;
  config.duration_min_slots = 4;
  config.duration_max_slots = 24;
  config.release_window_slots = 16;
  return config;
}

model::Network make(const sim::ScenarioConfig& config, std::uint64_t seed) {
  util::Rng rng(seed);
  return sim::generate_scenario(config, rng);
}

TEST(NegotiationGolden, ReactiveHastePaperPanel) {
  const model::Network net = make(scaled_paper(), 11);
  dist::OnlineConfig config;  // kHaste, C = 4, S = 16
  config.seed = 3;
  expect_golden(net, config,
                {27548u, 138251u, 948904u, 4666u, 16u, 16u, 0x5cfd9f59fbff0a6ULL,
                 0x71b8b6896fbd4846ULL, 0x3fd19637bd485a00ULL, {0u, 0u, 0u, 0u}});
}

TEST(NegotiationGolden, ReactiveHasteSmallPanel) {
  const model::Network net = make(scaled_paper(), 12);
  dist::OnlineConfig config;
  config.colors = 2;
  config.samples = 4;
  config.seed = 9;
  expect_golden(net, config,
                {15038u, 75502u, 505810u, 2446u, 15u, 15u, 0xf39772209e1fbb35ULL,
                 0xd5ac098d41fd1f42ULL, 0x3fd1ed0af116d615ULL, {0u, 0u, 0u, 0u}});
}

TEST(NegotiationGolden, SequentialTokenProtocol) {
  const model::Network net = make(scaled_paper(), 13);
  dist::OnlineConfig config;
  config.strategy = dist::OnlineStrategy::kHasteSequential;
  config.seed = 5;
  expect_golden(net, config,
                {9256u, 78039u, 484436u, 628u, 17u, 17u, 0xd03bcd2a0d0a1c8ULL,
                 0x68c0ae7227157e2dULL, 0x3fd824768ca680c0ULL, {0u, 0u, 0u, 0u}});
}

TEST(NegotiationGolden, ChargerFailures) {
  const model::Network net = make(scaled_paper(), 14);
  for (const dist::OnlineStrategy strategy :
       {dist::OnlineStrategy::kHaste, dist::OnlineStrategy::kHasteSequential}) {
    dist::OnlineConfig config;
    config.strategy = strategy;
    config.seed = 7;
    config.failures = {{3, 4}, {8, 9}, {3, 12}};  // the repeat is a no-op
    const Golden expected =
        strategy == dist::OnlineStrategy::kHaste
            ? Golden{24200u, 97446u, 816796u, 4604u, 18u, 18u, 0x545d9149840b461aULL,
                     0xa1a9fe8ab02fbdbaULL, 0x3fcba9d8be458f47ULL, {0u, 0u, 0u, 0u}}
            : Golden{7208u, 28415u, 327880u, 648u, 18u, 18u, 0xbd348748f3b0d7cbULL,
                     0x14d00b1878427363ULL, 0x3fcc4b6df9c492fdULL, {0u, 0u, 0u, 0u}};
    SCOPED_TRACE(strategy == dist::OnlineStrategy::kHaste ? "haste" : "sequential");
    expect_golden(net, config, expected);
  }
}

TEST(NegotiationGolden, DeadlineInstances) {
  // Linear decay discounts tardy rows; hard mode drops them, so whole
  // neighbors can sit a stage out (the participation rule the nodes mirror).
  for (const char* decay : {"linear", "hard"}) {
    sim::ScenarioConfig scenario = scaled_paper();
    scenario.deadline_decay = decay;
    scenario.deadline_beta = 3.0;
    scenario.deadline_fraction = 0.7;
    const model::Network net = make(scenario, 15);
    dist::OnlineConfig config;
    config.seed = 2;
    const Golden expected =
        std::string(decay) == "linear"
            ? Golden{17114u, 91354u, 583426u, 3084u, 15u, 15u, 0x789a5e65664cef25ULL,
                     0xb5022b3f211cd1a4ULL, 0x3fccdb7c5d91c298ULL, {0u, 0u, 0u, 0u}}
            : Golden{11821u, 67067u, 392645u, 2341u, 15u, 15u, 0xade2ebf2206dae9fULL,
                     0xdd8c6acf461979a2ULL, 0x3fbed8f10e79d747ULL, {0u, 0u, 0u, 0u}};
    SCOPED_TRACE(decay);
    expect_golden(net, config, expected);
  }
}

TEST(NegotiationGolden, PredictorSessions) {
  // Bursty hotspot traffic with two charger failures, like the serve
  // workloads. The predictor's shortfall test reads the fleet's summed
  // local_expected_value, so these goldens also pin every node's engine
  // energies, not just the tasks it can cover.
  sim::ScenarioConfig scenario = scaled_paper();
  scenario.burst_factor = 4.0;
  scenario.hotspot_fraction = 0.6;
  scenario.release_window_slots = 24;
  const model::Network net = make(scenario, 16);
  for (const bool tuned : {false, true}) {
    dist::OnlineConfig config;
    config.seed = 4;
    config.failures = {{2, 6}, {9, 14}};
    config.predictor.enabled = true;
    if (tuned) {  // lenient gates: cells turn hot and re-plans get deferred
      config.predictor.max_level = 3;
      config.predictor.hot_rate = 0.05;
      config.predictor.min_confidence = 2.0;
    }
    const Golden expected =
        tuned ? Golden{12607u, 84064u, 425351u, 2361u, 7u, 7u, 0xbc977001777ee51dULL,
                       0x687250bc868bde88ULL, 0x3fd4ae222c8eecefULL, {8u, 32u, 5u, 4u}}
              : Golden{12607u, 84064u, 425351u, 2361u, 7u, 7u, 0xbc977001777ee51dULL,
                       0x687250bc868bde88ULL, 0x3fd4ae222c8eecefULL, {0u, 40u, 5u, 4u}};
    SCOPED_TRACE(tuned ? "tuned predictor" : "default predictor");
    expect_golden(net, config, expected);
  }
}

TEST(NegotiationGolden, NodeEngineEnergiesFollowEveryRemoteCommit) {
  // A node's expected value sums the utility of EVERY task, including those
  // it cannot cover, so remote UPDATEs must accumulate all of their energy.
  // Every charger commits in turn and every node hears every UPDATE, also
  // from chargers far outside its neighborhood; the final per-node values
  // are pinned bit for bit.
  const model::Network net = make(scaled_paper(), 17);
  const core::MarginalEngine::Config engine{2, 8, 17};
  std::vector<model::TaskIndex> known(static_cast<std::size_t>(net.task_count()));
  for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
    known[static_cast<std::size_t>(j)] = j;
  }
  for (const core::TabularMode mode :
       {core::TabularMode::kIncremental, core::TabularMode::kRebuild}) {
    std::vector<std::unique_ptr<dist::ChargerNode>> nodes;
    for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
      nodes.push_back(std::make_unique<dist::ChargerNode>(net, i, engine, mode));
    }
    for (const auto& node : nodes) node->begin_plan(known, {});
    for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
      for (int c = 0; c < engine.colors; ++c) {
        for (const auto& node : nodes) {
          if (!node->begin_stage(k, c)) continue;
          const auto update = node->force_commit();
          if (!update) continue;
          for (const auto& other : nodes) {
            if (other->id() != node->id()) other->receive(*update);
          }
        }
      }
    }
    std::vector<std::uint64_t> bits;
    for (const auto& node : nodes) {
      bits.push_back(std::bit_cast<std::uint64_t>(node->local_expected_value()));
    }
    EXPECT_EQ(bits, std::vector<std::uint64_t>(bits.size(), 0x3fd6631dceaf5a00ULL))
        << std::hex << bits.front();
  }
}

}  // namespace
}  // namespace haste
