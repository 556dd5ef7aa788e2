// Tests for dist/node.hpp — the per-charger negotiation state machine, with
// emphasis on the marginal caches: the incremental per-(row, sample) term
// cache must answer exactly like the rebuild (version-sum stamped) path at
// every observable point, including after remote commits dirty its rows.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "dist/node.hpp"
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

// Drives an incremental-mode and a rebuild-mode twin of the same charger
// through identical stage sequences, interleaving remote commits from a
// second charger, and checks every announced marginal and every committed
// policy agree bit for bit. Each twin prices against its own ledger, shared
// with its own copy of the remote charger.
TEST(ChargerNodeModes, TwinNodesAgreeAcrossRemoteCommits) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    const model::Network net = random_network(rng, 3, 10, 3);
    const core::MarginalEngine::Config config{2, 8, seed};
    core::MarginalEngine ledger_a(net, config);
    core::MarginalEngine ledger_b(net, config);
    dist::ChargerNode incremental(net, 0, core::TabularMode::kIncremental);
    dist::ChargerNode rebuild(net, 0, core::TabularMode::kRebuild);
    dist::ChargerNode remote_a(net, 1, core::TabularMode::kIncremental);
    dist::ChargerNode remote_b(net, 1, core::TabularMode::kIncremental);

    const std::vector<model::TaskIndex> known = all_tasks(net);
    incremental.begin_plan(known, ledger_a);
    remote_a.begin_plan(known, ledger_a);
    rebuild.begin_plan(known, ledger_b);
    remote_b.begin_plan(known, ledger_b);

    for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
      for (int c = 0; c < 2; ++c) {
        const bool participates = incremental.begin_stage(k, c);
        ASSERT_EQ(participates, rebuild.begin_stage(k, c));
        const bool remote_works = remote_a.begin_stage(k, c);
        ASSERT_EQ(remote_works, remote_b.begin_stage(k, c));

        if (participates) {
          const auto value_a = incremental.make_value_message();
          const auto value_b = rebuild.make_value_message();
          ASSERT_EQ(value_a.has_value(), value_b.has_value());
          if (value_a) EXPECT_EQ(value_a->marginal, value_b->marginal);
        }

        // A neighbor commits into each ledger and each twin hears the
        // UPDATE; the incremental twin must re-price only the dirtied rows
        // yet answer exactly like the from-scratch twin.
        if (remote_works) {
          const auto update_a = remote_a.force_commit();
          const auto update_b = remote_b.force_commit();
          ASSERT_EQ(update_a.has_value(), update_b.has_value());
          if (update_a) {
            EXPECT_EQ(update_a->policy.tasks, update_b->policy.tasks);
            incremental.receive(*update_a);
            rebuild.receive(*update_b);
          }
        }

        if (participates) {
          const auto commit_a = incremental.force_commit();
          const auto commit_b = rebuild.force_commit();
          ASSERT_EQ(commit_a.has_value(), commit_b.has_value());
          if (commit_a) {
            EXPECT_EQ(commit_a->marginal, commit_b->marginal);
            EXPECT_EQ(commit_a->policy.orientation, commit_b->policy.orientation);
            EXPECT_EQ(commit_a->policy.tasks, commit_b->policy.tasks);
          }
        }
      }
    }

    model::Schedule schedule_a(net.charger_count(), net.horizon());
    model::Schedule schedule_b(net.charger_count(), net.horizon());
    incremental.write_schedule(schedule_a, 0);
    rebuild.write_schedule(schedule_b, 0);
    for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
      EXPECT_EQ(schedule_a.assignment(0, k), schedule_b.assignment(0, k)) << "slot " << k;
    }
    EXPECT_EQ(ledger_a.expected_value(), ledger_b.expected_value());
  }
}

// A node with no coverable work must stay passive in both modes.
TEST(ChargerNodeModes, NodeWithoutWorkStaysPassive) {
  util::Rng rng(4);
  const model::Network net = random_network(rng, 2, 6, 3);
  core::MarginalEngine ledger(net, core::MarginalEngine::Config{2, 4, 4});
  dist::ChargerNode node(net, 0, core::TabularMode::kIncremental);
  node.begin_plan({}, ledger);
  EXPECT_FALSE(node.has_work());
  EXPECT_FALSE(node.begin_stage(0, 0));
  EXPECT_TRUE(node.decided());
  EXPECT_EQ(node.make_value_message(), std::nullopt);
}

}  // namespace
}  // namespace haste
