// Tests for dist/node.hpp — the per-charger negotiation state machine, with
// emphasis on its cached pricing: the per-(column, sample) term cache and the
// cross-plan caches must answer exactly like the fresh-marginal reference
// pricer (tests/oracle/negotiation.hpp) at every observable point, including
// after remote commits dirty its columns and across consecutive plans of a
// reused node.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/node.hpp"
#include "oracle/negotiation.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

namespace haste {
namespace {

using testing_helpers::random_network;

std::vector<model::TaskIndex> all_tasks(const model::Network& net) {
  std::vector<model::TaskIndex> tasks(static_cast<std::size_t>(net.task_count()));
  for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
    tasks[static_cast<std::size_t>(j)] = j;
  }
  return tasks;
}

// Drives one charger through every stage of a plan while a second charger
// commits into the same ledger before each of its decisions, and checks
// every announced marginal and every committed policy against the
// fresh-marginal pricer, bit for bit: the node must re-price exactly the
// columns the remote commits dirtied.
TEST(ChargerNodeModes, TwinNodesAgreeAcrossRemoteCommits) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 3, 10, 3);
    const core::MarginalEngine::Config config{2, 8, seed};
    core::MarginalEngine ledger(net, config);
    dist::ChargerNode node(net, 0);
    dist::ChargerNode remote(net, 1);
    oracle::NodePricer pricer(net, 0);

    const std::vector<model::TaskIndex> known = all_tasks(net);
    node.begin_plan(known, ledger);
    remote.begin_plan(known, ledger);
    pricer.begin_plan(known, ledger.colors());

    int commits_heard = 0;
    for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
      const bool participates = node.load_slot(k) != dist::SlotState::kIdle;
      const bool remote_participates = remote.load_slot(k) != dist::SlotState::kIdle;
      for (int c = 0; c < 2; ++c) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " slot " << k << " color " << c);
        const oracle::NodePricer::Choice announced = pricer.choose(ledger, k, c);
        ASSERT_EQ(participates, announced.participates);
        if (participates) {
          node.begin_stage(c);
          EXPECT_EQ(node.value(), announced.positive ? announced.marginal : 0.0);
        }

        // A neighbor commits into the ledger and the node hears the UPDATE.
        if (remote_participates) {
          remote.begin_stage(c);
          if (remote.force_commit()) {
            if (participates && !node.decided()) node.reprice();
            ++commits_heard;
          }
        }

        if (participates) {
          const oracle::NodePricer::Choice expected = pricer.choose(ledger, k, c);
          ASSERT_EQ(node.force_commit(), expected.positive);
          if (expected.positive) {
            const dist::ChargerNode::Update commit = node.last_update();
            EXPECT_EQ(commit.marginal, expected.marginal);
            EXPECT_EQ(commit.orientation, expected.policy.orientation);
            EXPECT_TRUE(std::ranges::equal(commit.tasks, expected.policy.tasks));
            EXPECT_TRUE(std::ranges::equal(commit.slot_energy, expected.policy.slot_energy));
            pricer.committed(c, commit.orientation);
          }
        }
      }
    }
    EXPECT_GT(commits_heard, 0) << "seed " << seed;
  }
}

// A node with no coverable work must stay passive.
TEST(ChargerNodeModes, NodeWithoutWorkStaysPassive) {
  util::Rng rng(4);
  const model::Network net = random_network(rng, 2, 6, 3);
  core::MarginalEngine ledger(net, core::MarginalEngine::Config{2, 4, 4});
  dist::ChargerNode node(net, 0);
  EXPECT_TRUE(node.begin_plan({}, ledger).empty());
  EXPECT_FALSE(node.has_work());
  EXPECT_EQ(node.load_slot(0), dist::SlotState::kIdle);
  EXPECT_TRUE(node.decided());
  EXPECT_FALSE(node.force_commit());
}

/// A small paper-preset field, optionally with deadlines on 70% of its
/// tasks, dense enough that most chargers have neighbors.
model::Network fleet_network(std::uint64_t seed, const char* decay) {
  sim::ScenarioConfig config = sim::ScenarioConfig::paper_default();
  config.field_width = 18.0;
  config.field_height = 18.0;
  config.chargers = 7;
  config.tasks = 24;
  config.duration_min_slots = 3;
  config.duration_max_slots = 9;
  config.release_window_slots = 6;
  config.deadline_decay = decay;
  config.deadline_beta = 2.0;
  config.deadline_fraction = 0.7;
  util::Rng rng(seed);
  return sim::generate_scenario(config, rng);
}

/// One plan of the sequence: the known tasks, the harvested energies and
/// the first slot the plan governs.
struct Plan {
  std::vector<model::TaskIndex> known;
  std::vector<double> harvested;
  model::SlotIndex plan_start = 0;
};

/// Four consecutive plans: the known set grows, then repeats verbatim, then
/// grows to every task. Harvested energies start at zero; each later plan
/// keeps some tasks' energies bit for bit (the node's cross-plan term cache
/// hits), moves others, and puts some exactly at their required energy.
std::vector<Plan> plan_sequence(const model::Network& net, util::Rng& rng) {
  const std::vector<model::TaskIndex> everything = all_tasks(net);
  const auto prefix = [&](std::size_t count) {
    return std::vector<model::TaskIndex>(everything.begin(),
                                         everything.begin() + static_cast<std::ptrdiff_t>(count));
  };
  const std::size_t m = everything.size();
  std::vector<Plan> plans;
  plans.push_back({prefix(m / 3), std::vector<double>(m, 0.0), 0});
  std::vector<double> energy(m, 0.0);
  const std::pair<std::size_t, model::SlotIndex> later[] = {
      {2 * m / 3, 1}, {2 * m / 3, 1}, {m, 2}};
  for (const auto& [count, start] : later) {
    for (std::size_t j = 0; j < m; ++j) {
      const double draw = rng.uniform();
      if (draw < 0.4) continue;  // unchanged since the previous plan
      const double required = net.tasks()[j].required_energy;
      energy[j] = draw < 0.55 ? required : rng.uniform(0.0, 0.8 * required);
    }
    plans.push_back({prefix(count), energy, start});
  }
  return plans;
}

std::string first_mismatch(const std::vector<std::string>& mismatches) {
  return mismatches.empty() ? "" : mismatches.front();
}

// The node differential: a fleet of production nodes runs consecutive plans
// under both protocols, and every VALUE marginal and UPDATE policy must match
// the fresh-marginal pricer bit for bit. A fleet kept alive across the plans
// (the online session's) and a fleet built afresh for each plan must send
// identical messages and write identical schedules.
TEST(ChargerNodeFleet, ConsecutivePlansMatchFreshMarginalPricer) {
  std::size_t updates = 0;
  for (const char* decay : {"none", "linear", "hard"}) {
    for (const std::uint64_t seed : {31u, 32u, 33u}) {
      const model::Network net = fleet_network(seed, decay);
      util::Rng rng(seed * 7 + 1);
      const std::vector<Plan> plans = plan_sequence(net, rng);
      const std::vector<bool> alive(static_cast<std::size_t>(net.charger_count()), true);
      for (const oracle::Protocol protocol :
           {oracle::Protocol::kElection, oracle::Protocol::kToken}) {
        std::vector<std::unique_ptr<dist::ChargerNode>> kept;
        std::vector<dist::ChargerNode*> kept_fleet;
        for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
          kept.push_back(std::make_unique<dist::ChargerNode>(net, i));
          kept_fleet.push_back(kept.back().get());
        }
        const core::MarginalEngine::Config panel{2, 8, seed};
        model::Schedule kept_schedule(net.charger_count(), net.horizon());
        model::Schedule fresh_schedule(net.charger_count(), net.horizon());
        for (std::size_t p = 0; p < plans.size(); ++p) {
          SCOPED_TRACE(::testing::Message()
                       << "decay " << decay << " seed " << seed << " protocol "
                       << (protocol == oracle::Protocol::kElection ? "election" : "token")
                       << " plan " << p);
          const Plan& plan = plans[p];
          core::MarginalEngine kept_ledger(net, panel, plan.harvested);
          const oracle::PlanCheck kept_check =
              oracle::negotiate_checked(net, protocol, panel.colors, kept_fleet, alive,
                                        plan.known, kept_ledger, plan.plan_start,
                                        kept_schedule);

          std::vector<std::unique_ptr<dist::ChargerNode>> fresh;
          std::vector<dist::ChargerNode*> fresh_fleet;
          for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
            fresh.push_back(std::make_unique<dist::ChargerNode>(net, i));
            fresh_fleet.push_back(fresh.back().get());
          }
          core::MarginalEngine fresh_ledger(net, panel, plan.harvested);
          const oracle::PlanCheck fresh_check =
              oracle::negotiate_checked(net, protocol, panel.colors, fresh_fleet, alive,
                                        plan.known, fresh_ledger, plan.plan_start,
                                        fresh_schedule);

          EXPECT_TRUE(kept_check.mismatches.empty())
              << kept_check.mismatches.size() << " mismatches, first: "
              << first_mismatch(kept_check.mismatches);
          EXPECT_TRUE(fresh_check.mismatches.empty())
              << fresh_check.mismatches.size() << " mismatches, first: "
              << first_mismatch(fresh_check.mismatches);
          ASSERT_EQ(kept_check.transcript.size(), fresh_check.transcript.size());
          for (std::size_t t = 0; t < kept_check.transcript.size(); ++t) {
            ASSERT_TRUE(oracle::same_message(kept_check.transcript[t], fresh_check.transcript[t]))
                << "message " << t << ": " << kept_check.transcript[t].describe() << " vs "
                << fresh_check.transcript[t].describe();
            if (kept_check.transcript[t].command == oracle::Command::kUpdate) ++updates;
          }
          EXPECT_EQ(kept_check.rounds, fresh_check.rounds);
          EXPECT_EQ(kept_ledger.expected_value(), fresh_ledger.expected_value());
          for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
            for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
              ASSERT_EQ(kept_schedule.assignment(i, k), fresh_schedule.assignment(i, k))
                  << "charger " << i << " slot " << k;
            }
          }
        }
      }
    }
  }
  // The battery must actually negotiate.
  EXPECT_GT(updates, 100u);
}

}  // namespace
}  // namespace haste
