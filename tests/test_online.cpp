// Tests for dist/online.hpp (Algorithm 3) and its equivalence/competitive
// properties against the centralized algorithms.
#include "dist/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "baseline/brute_force.hpp"
#include "core/evaluate.hpp"
#include "core/offline.hpp"
#include "io/scenario_io.hpp"
#include "model/deadline.hpp"
#include "model/utility.hpp"
#include "obs/metrics.hpp"
#include "oracle/negotiation.hpp"
#include "serve/client.hpp"
#include "test_helpers.hpp"

namespace haste::dist {
namespace {

using testing_helpers::random_network;

model::TimeGrid grid(double rho, model::SlotIndex tau) {
  model::TimeGrid time;
  time.slot_seconds = 60.0;
  time.rho = rho;
  time.tau = tau;
  return time;
}

/// Builds a random network where all tasks are released at slot 0 (a single
/// arrival batch) so the online and offline settings coincide when tau = 0.
model::Network single_batch_network(util::Rng& rng, int n, int m, double rho,
                                    model::SlotIndex tau) {
  std::vector<model::Charger> chargers;
  std::vector<model::Task> tasks;
  {
    const model::Network base = random_network(rng, n, m, 4);
    chargers = base.chargers();
    tasks = base.tasks();
  }
  for (model::Task& task : tasks) {
    const model::SlotIndex duration = task.duration_slots();
    task.release_slot = 0;
    task.end_slot = duration;
  }
  return model::Network(chargers, tasks, testing_helpers::tiny_power(), grid(rho, tau));
}

TEST(Online, RunsAndProducesBoundedUtility) {
  util::Rng rng(1);
  const model::Network net = random_network(rng, 4, 10, 5);
  OnlineConfig config;
  config.colors = 1;
  const OnlineResult result = run_online(net, config);
  EXPECT_GE(result.evaluation.weighted_utility, 0.0);
  EXPECT_LE(result.evaluation.weighted_utility, net.utility_upper_bound() + 1e-12);
  EXPECT_GT(result.negotiations, 0u);
  EXPECT_GT(result.messages, 0u);
  EXPECT_GT(result.rounds, 0u);
}

TEST(Online, DeterministicGivenSeed) {
  util::Rng rng(2);
  const model::Network net = random_network(rng, 4, 8, 4);
  OnlineConfig config;
  config.colors = 4;
  config.samples = 8;
  config.seed = 55;
  const OnlineResult a = run_online(net, config);
  const OnlineResult b = run_online(net, config);
  EXPECT_EQ(a.evaluation.weighted_utility, b.evaluation.weighted_utility);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Online, SingleBatchZeroTauMatchesOfflineValueClosely) {
  // The paper's equivalence argument: with tau = 0 and all tasks known at
  // slot 0, the distributed negotiation realizes a locally greedy run of the
  // same ground set (in max-marginal order instead of charger order; both
  // orders carry the same 1/2 guarantee). The achieved utility should be in
  // the same ballpark; we check a generous two-sided band plus the hard
  // guarantee against the exact relaxed optimum.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const model::Network net = single_batch_network(rng, 3, 6, 0.0, 0);
    OnlineConfig config;
    config.colors = 1;
    const OnlineResult online = run_online(net, config);

    core::OfflineConfig offline_config;
    offline_config.colors = 1;
    const core::OfflineResult offline = core::schedule_offline(net, offline_config);
    const double offline_value =
        core::evaluate_schedule(net, offline.schedule).weighted_utility;

    EXPECT_GE(online.evaluation.weighted_utility, 0.5 * offline_value - 1e-9)
        << "seed " << seed;

    const baseline::BruteForceResult opt = baseline::optimal_relaxed(net, 2'000'000);
    if (opt.exhausted) {
      // rho = 0, tau = 0, single batch: the 1/2 locally-greedy guarantee
      // applies directly against the relaxed optimum.
      EXPECT_GE(online.evaluation.weighted_utility, 0.5 * opt.relaxed_utility - 1e-9)
          << "seed " << seed;
    }
  }
}

TEST(Online, SingleChargerMatchesOfflineExactly) {
  // With one charger there is no negotiation ambiguity: same greedy, same
  // schedule value.
  util::Rng rng(9);
  const model::Network net = single_batch_network(rng, 1, 5, 0.0, 0);
  OnlineConfig config;
  config.colors = 1;
  const OnlineResult online = run_online(net, config);
  core::OfflineConfig offline_config;
  offline_config.colors = 1;
  const core::OfflineResult offline = core::schedule_offline(net, offline_config);
  EXPECT_NEAR(online.evaluation.weighted_utility,
              core::evaluate_schedule(net, offline.schedule).weighted_utility, 1e-9);
}

TEST(Online, ReschedulingDelayOnlyHurts) {
  // Larger tau postpones every reaction; on average utility must not
  // improve. Check the aggregate over several instances to ride out noise.
  double total_tau0 = 0.0;
  double total_tau2 = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    const model::Network tau0_net = single_batch_network(rng, 3, 8, 0.0, 0);
    const model::Network tau2_net(tau0_net.chargers(), tau0_net.tasks(),
                                  tau0_net.power_model(), grid(0.0, 2));
    OnlineConfig config;
    config.colors = 1;
    total_tau0 += run_online(tau0_net, config).evaluation.weighted_utility;
    total_tau2 += run_online(tau2_net, config).evaluation.weighted_utility;
  }
  EXPECT_GE(total_tau0, total_tau2 - 1e-9);
}

TEST(Online, StaggeredArrivalsTriggerMultipleNegotiations) {
  util::Rng rng(10);
  const model::Network net = random_network(rng, 3, 10, 5);
  // Count distinct release slots with room to re-plan.
  std::set<model::SlotIndex> release_slots;
  for (const model::Task& task : net.tasks()) {
    if (task.release_slot + net.time().tau < net.horizon()) {
      release_slots.insert(task.release_slot);
    }
  }
  OnlineConfig config;
  config.colors = 1;
  const OnlineResult result = run_online(net, config);
  EXPECT_EQ(result.negotiations, release_slots.size());
}

TEST(Online, NoTasksMeansSilence) {
  const model::Network net({model::Charger{{0.0, 0.0}}}, {},
                           testing_helpers::tiny_power(), grid(0.1, 1));
  const OnlineResult result = run_online(net);
  EXPECT_EQ(result.messages, 0u);
  EXPECT_DOUBLE_EQ(result.evaluation.weighted_utility, 0.0);
}

TEST(Online, BaselineStrategiesRun) {
  util::Rng rng(11);
  const model::Network net = random_network(rng, 3, 8, 4);
  for (OnlineStrategy strategy :
       {OnlineStrategy::kGreedyUtility, OnlineStrategy::kGreedyCover}) {
    OnlineConfig config;
    config.strategy = strategy;
    const OnlineResult result = run_online(net, config);
    EXPECT_GE(result.evaluation.weighted_utility, 0.0);
    EXPECT_LE(result.evaluation.weighted_utility, net.utility_upper_bound() + 1e-12);
    // Baselines negotiate nothing.
    EXPECT_EQ(result.messages, 0u);
  }
}

TEST(Online, HasteBeatsBaselinesOnAverage) {
  double haste = 0.0;
  double greedy_utility = 0.0;
  double greedy_cover = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed + 100);
    const model::Network net = random_network(rng, 4, 12, 4);
    OnlineConfig config;
    config.colors = 1;
    haste += run_online(net, config).evaluation.weighted_utility;
    config.strategy = OnlineStrategy::kGreedyUtility;
    greedy_utility += run_online(net, config).evaluation.weighted_utility;
    config.strategy = OnlineStrategy::kGreedyCover;
    greedy_cover += run_online(net, config).evaluation.weighted_utility;
  }
  EXPECT_GE(haste, greedy_utility - 0.05);
  EXPECT_GE(haste, greedy_cover - 0.05);
}

TEST(Online, NodeReuseIsBitIdenticalAndCheaper) {
  // The session keeps each ChargerNode alive across re-plans, so unchanged
  // columns skip their re-pricing row_term and an unchanged known-task set
  // skips dominant re-extraction. The acceptance contract: bit-identical
  // schedules to fresh nodes per re-plan (checked message by message against
  // the fresh-marginal pricer), with strictly fewer row_term evaluations
  // whenever there is more than one re-plan.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed + 200);
    const model::Network net = random_network(rng, 4, 12, 5);

    OnlineConfig config;
    config.colors = 2;
    config.samples = 8;
    const OnlineResult reuse = run_online(net, config);
    const oracle::CheckedRun checked = oracle::run_online_checked(net, config);
    const OnlineResult& fresh = checked.result;

    EXPECT_TRUE(checked.mismatches.empty()) << checked.mismatches.front();
    EXPECT_EQ(reuse.evaluation.weighted_utility, fresh.evaluation.weighted_utility)
        << "seed " << seed;
    EXPECT_EQ(reuse.messages, fresh.messages) << "seed " << seed;
    EXPECT_EQ(reuse.deliveries, fresh.deliveries) << "seed " << seed;
    EXPECT_EQ(reuse.message_bytes, fresh.message_bytes) << "seed " << seed;
    EXPECT_EQ(reuse.rounds, fresh.rounds) << "seed " << seed;
    ASSERT_EQ(reuse.schedule.charger_count(), fresh.schedule.charger_count());
    ASSERT_EQ(reuse.schedule.horizon(), fresh.schedule.horizon());
    for (int i = 0; i < reuse.schedule.charger_count(); ++i) {
      for (model::SlotIndex k = 0; k < reuse.schedule.horizon(); ++k) {
        ASSERT_EQ(reuse.schedule.assignment(i, k), fresh.schedule.assignment(i, k))
            << "seed " << seed << " charger " << i << " slot " << k;
      }
    }

    // The row_evals ledger must be populated and consistent on both paths.
    auto logged_row_evals = [](const OnlineResult& result) {
      std::uint64_t total = 0;
      for (const NegotiationRecord& record : result.log) total += record.row_evals;
      return total;
    };
    EXPECT_EQ(logged_row_evals(reuse), reuse.row_evaluations) << "seed " << seed;
    EXPECT_EQ(logged_row_evals(fresh), fresh.row_evaluations) << "seed " << seed;
    EXPECT_GT(fresh.row_evaluations, 0u) << "seed " << seed;

    if (reuse.negotiations >= 2) {
      // Columns re-priced in re-plan r >= 2 whose base energy is unchanged
      // are exactly the savings; any multi-re-plan run has some.
      EXPECT_LT(reuse.row_evaluations, fresh.row_evaluations) << "seed " << seed;
    } else {
      EXPECT_EQ(reuse.row_evaluations, fresh.row_evaluations) << "seed " << seed;
    }
  }
}

/// `base` with `shape` and `policy`; with an active policy ~70% of the tasks
/// get a deadline within their window. Weights are redrawn around 1/m so
/// they are not powers of two.
model::Network saturation_network(const model::Network& base, util::Rng& rng,
                                  std::shared_ptr<const model::UtilityShape> shape,
                                  model::DeadlinePolicy policy) {
  std::vector<model::Task> tasks = base.tasks();
  for (model::Task& task : tasks) {
    task.weight *= rng.uniform(0.6, 1.4);
    const auto duration = task.end_slot - task.release_slot;
    const auto grace = static_cast<model::SlotIndex>(rng.uniform_int(1, duration));
    if (policy.active() && rng.uniform() < 0.7) task.deadline_slot = task.release_slot + grace;
  }
  return model::Network(base.chargers(), std::move(tasks), base.power_model(), base.time(),
                        std::move(shape), policy);
}

std::uint64_t dead_slots_counted() {
  return obs::MetricsRegistry::instance().counter("online.slots.dead").value();
}

// Dead (charger, slot)s and live slots that price unsaturated rows only,
// against the checked run, which drives every participant, dead or live,
// through its stages so the fresh scalar pricer checks each dead charger's
// VALUE of 0, and makes every delivery on its bus. On every built-in shape
// and a kCustom one, without and with linear, exp and hard deadlines, both
// protocols must write the same schedule and count the same Fig. 16 traffic.
TEST(OnlineSaturation, CheckedRunMatchesSession) {
  const std::vector<std::shared_ptr<const model::UtilityShape>> shapes = {
      std::make_shared<model::LinearBoundedShape>(),
      std::make_shared<model::SqrtBoundedShape>(),
      std::make_shared<model::LogBoundedShape>(),
      std::make_shared<testing_helpers::PowShape>()};
  const std::vector<model::DeadlinePolicy> policies = {
      {},
      {model::DeadlineDecay::kLinear, 2.0},
      {model::DeadlineDecay::kExp, 3.0},
      {model::DeadlineDecay::kHard, 0.0}};
  for (const std::uint64_t seed : {51u, 52u, 53u}) {
    util::Rng rng(seed);
    const model::Network base = random_network(rng, 6, 16, 6);
    for (const auto& shape : shapes) {
      const bool custom = shape->kind() == model::UtilityShapeKind::kCustom;
      std::uint64_t dead = 0;
      for (const model::DeadlinePolicy& policy : policies) {
        const model::Network net = saturation_network(base, rng, shape, policy);
        for (const OnlineStrategy strategy :
             {OnlineStrategy::kHaste, OnlineStrategy::kHasteSequential}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " " << shape->name() << " decay "
                       << static_cast<int>(policy.decay) << " "
                       << (strategy == OnlineStrategy::kHaste ? "election" : "token"));
          OnlineConfig config;
          config.strategy = strategy;
          config.seed = seed;  // the paper's panel, C = 4 and S = 16
          const std::uint64_t dead_before = dead_slots_counted();
          const OnlineResult session = run_online(net, config);
          dead += dead_slots_counted() - dead_before;
          const oracle::CheckedRun checked = oracle::run_online_checked(net, config);
          const OnlineResult& reference = checked.result;
          EXPECT_TRUE(checked.mismatches.empty())
              << checked.mismatches.size() << " mismatches, first: "
              << checked.mismatches.front();
          EXPECT_EQ(io::schedule_to_json(session.schedule).dump(),
                    io::schedule_to_json(reference.schedule).dump());
          EXPECT_EQ(session.messages, reference.messages);
          EXPECT_EQ(session.deliveries, reference.deliveries);
          EXPECT_EQ(session.message_bytes, reference.message_bytes);
          EXPECT_EQ(session.rounds, reference.rounds);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(session.evaluation.weighted_utility),
                    std::bit_cast<std::uint64_t>(reference.evaluation.weighted_utility));
        }
      }
      // The dead path ran on every built-in shape, and never on kCustom.
      if (custom) {
        EXPECT_EQ(dead, 0u) << "seed " << seed;
      } else {
        EXPECT_GT(dead, 0u) << "seed " << seed << " " << shape->name();
      }
    }
  }
}

// --- OnlineSession: the streaming (push-event) form of run_online ------------

TEST(OnlineSession, StreamingEventsMatchRunOnlineBitForBit) {
  // run_online is a thin event-queue wrapper over OnlineSession, so pushing
  // the same event sequence by hand must reproduce the result bit for bit —
  // the invariant the haste_serve daemon's correctness rests on. Exercised
  // with failures so the arrival/failure merge order is pinned too.
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    util::Rng rng(400 + trial);
    const model::Network net = random_network(rng, 4, 8, 5);
    OnlineConfig config;
    config.colors = 2;
    config.samples = 4;
    config.seed = 77 + trial;
    config.failures = {{static_cast<model::ChargerIndex>(trial % 4),
                        static_cast<model::SlotIndex>(2)}};
    const OnlineResult reference = run_online(net, config);

    const auto events = serve::build_replay_events(net, config.failures);
    const OnlineResult streamed = serve::replay_locally(net, config, events);

    EXPECT_EQ(io::schedule_to_json(streamed.schedule).dump(),
              io::schedule_to_json(reference.schedule).dump());
    EXPECT_EQ(streamed.evaluation.weighted_utility,
              reference.evaluation.weighted_utility);
    EXPECT_EQ(streamed.evaluation.relaxed_weighted_utility,
              reference.evaluation.relaxed_weighted_utility);
    EXPECT_EQ(streamed.messages, reference.messages);
    EXPECT_EQ(streamed.deliveries, reference.deliveries);
    EXPECT_EQ(streamed.message_bytes, reference.message_bytes);
    EXPECT_EQ(streamed.rounds, reference.rounds);
    EXPECT_EQ(streamed.negotiations, reference.negotiations);
    EXPECT_EQ(streamed.row_evaluations, reference.row_evaluations);
    EXPECT_EQ(streamed.log.size(), reference.log.size());
  }
}

TEST(OnlineSession, ValidatesEventOrderAndIndices) {
  util::Rng rng(401);
  const model::Network net = random_network(rng, 2, 4, 4);
  OnlineSession session(net, OnlineConfig{});

  session.on_arrival(2, {0});
  EXPECT_THROW(session.on_arrival(1, {1}), std::invalid_argument);  // regression
  EXPECT_THROW(session.on_arrival(2, {0}), std::invalid_argument);  // duplicate
  EXPECT_THROW(session.on_arrival(2, {99}), std::invalid_argument);  // range
  EXPECT_THROW(session.on_failure(99, 2), std::invalid_argument);    // range

  (void)session.finish();
  EXPECT_TRUE(session.finished());
  EXPECT_THROW(session.on_arrival(3, {1}), std::logic_error);
  EXPECT_THROW(session.finish(), std::logic_error);
}

TEST(OnlineSession, TaskRepeatedWithinOneBatchIsRejected) {
  // A batch naming a task twice would release it twice: it is rejected,
  // or known_tasks would count the task twice and negotiate over both.
  util::Rng rng(403);
  const model::Network net = random_network(rng, 3, 6, 4);
  OnlineConfig config;
  config.colors = 2;
  config.samples = 4;
  OnlineSession session(net, config);
  EXPECT_THROW(session.on_arrival(1, {2, 0, 2}), std::invalid_argument);
  EXPECT_EQ(session.known_tasks(), 0u);  // rejected before any state changed

  // The same batch without the repeat is then accepted and re-plans like a
  // session that never saw the bad batch.
  const NegotiationRecord* record = session.on_arrival(1, {2, 0});
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(session.known_tasks(), 2u);
  OnlineSession fresh(net, config);
  const NegotiationRecord* reference = fresh.on_arrival(1, {2, 0});
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(record->known_tasks, 2u);
  EXPECT_EQ(record->messages, reference->messages);
  EXPECT_EQ(record->rounds, reference->rounds);
}

TEST(OnlineSession, RepeatedFailureOfADeadChargerIsANoOp) {
  util::Rng rng(402);
  const model::Network net = random_network(rng, 3, 5, 4);
  OnlineConfig config;
  config.colors = 2;
  config.samples = 4;
  OnlineSession session(net, config);
  session.on_arrival(0, {0, 1, 2, 3, 4});
  EXPECT_EQ(session.alive_chargers(), 3u);
  session.on_failure(1, 1);
  EXPECT_EQ(session.alive_chargers(), 2u);
  EXPECT_EQ(session.on_failure(1, 2), nullptr);  // already dead: no re-plan
  EXPECT_EQ(session.alive_chargers(), 2u);
  const OnlineResult result = session.finish();
  EXPECT_GE(result.evaluation.weighted_utility, 0.0);
}

TEST(Online, CompetitiveAgainstRelaxedOptimum) {
  // Theorem 6.1 (conservatively): online HASTE with C = 1 achieves at least
  // 1/2 * (1 - rho) * 1/2 of the relaxed optimum when every task lasts at
  // least 2*tau slots. Our instances satisfy the duration condition by
  // construction.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed + 50);
    std::vector<model::Charger> chargers;
    std::vector<model::Task> tasks;
    {
      const model::Network base = random_network(rng, 3, 5, 3);
      chargers = base.chargers();
      tasks = base.tasks();
    }
    for (model::Task& task : tasks) {
      task.end_slot = task.release_slot + std::max<model::SlotIndex>(
                                              2, task.duration_slots());
    }
    const model::Network net(chargers, tasks, testing_helpers::tiny_power(),
                             grid(1.0 / 12.0, 1));
    const baseline::BruteForceResult opt = baseline::optimal_relaxed(net, 2'000'000);
    if (!opt.exhausted || opt.relaxed_utility <= 0.0) continue;
    OnlineConfig config;
    config.colors = 1;
    const OnlineResult online = run_online(net, config);
    const double bound = 0.25 * (1.0 - net.time().rho) * opt.relaxed_utility;
    EXPECT_GE(online.evaluation.weighted_utility, bound - 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace haste::dist
