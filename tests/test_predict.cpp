// Predictive-scheduler battery (src/predict/ + its dist/serve threading).
//
// Differentials: the predictor-off online driver against fresh nodes per
// re-plan priced by the scalar oracle (the reactive path must stay
// bit-identical to a predictor-free build), the enabled-but-leashed
// degenerate case (max_level = 0) against predictor-off on the FULL result —
// schedule bits, utility doubles, and every NegotiationRecord counter
// including row_evals — and a serve::Session replay against the local
// OnlineSession under a predictor-enabled config.
//
// Properties: arrival-model rate learning and geometric decay, the
// confidence gate on hot cells, cadence escalation / surprise reset /
// pressure release, the generator's burst/hotspot knobs leaving the base
// geometry untouched pass by pass, and the effectiveness contract on bursty
// traffic (>= 30% fewer negotiations at <= 2% mean utility loss).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dist/online.hpp"
#include "io/scenario_io.hpp"
#include "oracle/negotiation.hpp"
#include "predict/arrival.hpp"
#include "predict/cadence.hpp"
#include "predict/predictor.hpp"
#include "serve/client.hpp"
#include "serve/session.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace haste {
namespace {

using testing_helpers::random_network;

void expect_equal_schedules(const model::Schedule& a, const model::Schedule& b) {
  ASSERT_EQ(a.charger_count(), b.charger_count());
  ASSERT_EQ(a.horizon(), b.horizon());
  for (model::ChargerIndex i = 0; i < a.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < a.horizon(); ++k) {
      const model::SlotAssignment x = a.assignment(i, k);
      const model::SlotAssignment y = b.assignment(i, k);
      ASSERT_EQ(x.has_value(), y.has_value()) << "charger " << i << " slot " << k;
      if (x.has_value()) {
        ASSERT_EQ(*x, *y) << "charger " << i << " slot " << k;
      }
    }
  }
}

/// Full-result bit-identity: schedule, exact utility doubles, every run
/// counter, and the complete per-negotiation telemetry log. The predictor
/// ledger itself is deliberately NOT compared — an enabled-but-leashed
/// predictor still observes arrivals (that's its job), it just must not
/// change anything the scheduler does.
void expect_equal_results(const dist::OnlineResult& a, const dist::OnlineResult& b,
                          bool compare_row_evals = true) {
  expect_equal_schedules(a.schedule, b.schedule);
  EXPECT_EQ(a.evaluation.weighted_utility, b.evaluation.weighted_utility);
  EXPECT_EQ(a.evaluation.relaxed_weighted_utility, b.evaluation.relaxed_weighted_utility);
  EXPECT_EQ(a.evaluation.switches, b.evaluation.switches);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.message_bytes, b.message_bytes);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.negotiations, b.negotiations);
  if (compare_row_evals) EXPECT_EQ(a.row_evaluations, b.row_evaluations);
  EXPECT_EQ(a.replans_skipped, b.replans_skipped);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t r = 0; r < a.log.size(); ++r) {
    EXPECT_EQ(a.log[r].trigger, b.log[r].trigger) << "record " << r;
    EXPECT_EQ(a.log[r].event_slot, b.log[r].event_slot) << "record " << r;
    EXPECT_EQ(a.log[r].plan_start, b.log[r].plan_start) << "record " << r;
    EXPECT_EQ(a.log[r].known_tasks, b.log[r].known_tasks) << "record " << r;
    EXPECT_EQ(a.log[r].alive_chargers, b.log[r].alive_chargers) << "record " << r;
    EXPECT_EQ(a.log[r].messages, b.log[r].messages) << "record " << r;
    EXPECT_EQ(a.log[r].rounds, b.log[r].rounds) << "record " << r;
    if (compare_row_evals) {
      EXPECT_EQ(a.log[r].row_evals, b.log[r].row_evals) << "record " << r;
    }
  }
}

/// A bursty, hotspot-drifting instance in the regime the predictor targets:
/// long task durations (deferring a re-plan by a few slots costs little)
/// with arrivals piled onto periodic epochs.
model::Network bursty_network(sim::ScenarioConfig config, std::uint64_t seed) {
  config.burst_factor = 4.0;
  config.hotspot_fraction = 0.6;
  util::Rng rng(seed);
  return sim::generate_scenario(config, rng);
}

sim::ScenarioConfig small_bursty_config() {
  sim::ScenarioConfig config = sim::ScenarioConfig::small_scale();
  config.tasks = 16;
  config.release_window_slots = 12;
  return config;
}

/// The config family of the predict-sweep calibration: lenient gates so the
/// model declares cells hot within a short run.
predict::PredictorConfig tuned_predictor(int max_level) {
  predict::PredictorConfig predictor;
  predictor.enabled = max_level >= 0;
  predictor.max_level = std::max(0, max_level);
  predictor.hot_rate = 0.05;
  predictor.min_confidence = 2.0;
  return predictor;
}

// ---------------------------------------------------------------------------
// Arrival model
// ---------------------------------------------------------------------------

TEST(ArrivalModel, LearnsRatesAndDecaysGeometrically) {
  // 4 tasks pinned to one corner of a 10x10 field: all land in one cell of a
  // 2x2 lattice. One arrival per slot for 4 slots = rate 1 in that cell.
  util::Rng rng(11);
  model::Network net = random_network(rng, 2, 4);
  {
    std::vector<model::Task> tasks = net.tasks();
    for (model::Task& task : tasks) task.position = {1.0, 1.0};
    net = model::Network(net.chargers(), std::move(tasks), net.power_model(), net.time());
  }
  predict::ArrivalModel model(net, /*grid=*/2, /*discount=*/1.0);
  EXPECT_EQ(model.cell_count(), 4);
  EXPECT_EQ(model.total_rate(), 0.0);

  for (model::TaskIndex j = 0; j < 4; ++j) {
    model.observe(j, {j}, /*hot_rate=*/0.5, /*min_confidence=*/3.0);
  }
  const int cell = model.cell_of_task(0);
  EXPECT_EQ(model.cell_of_task(1), cell);
  // 3 elapsed slots observed after priming, 4 arrivals folded in.
  EXPECT_NEAR(model.confidence(), 3.0, 1e-12);
  EXPECT_NEAR(model.cell_rate(cell), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(model.total_rate(), 4.0 / 3.0, 1e-12);

  // An empty observation far in the future decays the counts but also grows
  // the window: with discount 1 the rate dilutes as mass / slots.
  model.observe(9, {}, 0.5, 3.0);
  EXPECT_NEAR(model.confidence(), 9.0, 1e-12);
  EXPECT_NEAR(model.cell_rate(cell), 4.0 / 9.0, 1e-12);
}

TEST(ArrivalModel, DiscountForgetsOldBursts) {
  util::Rng rng(12);
  const model::Network net = random_network(rng, 2, 6);
  predict::ArrivalModel sticky(net, 4, 1.0);
  predict::ArrivalModel forgetful(net, 4, 0.5);
  const std::vector<model::TaskIndex> burst = {0, 1, 2, 3, 4, 5};
  sticky.observe(0, burst, 0.5, 1.0);
  forgetful.observe(0, burst, 0.5, 1.0);
  sticky.observe(20, {}, 0.5, 1.0);
  forgetful.observe(20, {}, 0.5, 1.0);
  // With d = 0.5 the 20-slot-old burst is worth 6 * 2^-20 counts against an
  // O(1) window (the geometric series converges to 2), so the learned rate
  // collapses; the un-discounted model still averages it over the window.
  EXPECT_GT(sticky.total_rate(), 0.25);
  EXPECT_LT(forgetful.total_rate(), 1e-4);
}

TEST(ArrivalModel, ConfidenceGatesHotCells) {
  util::Rng rng(13);
  model::Network net = random_network(rng, 2, 4);
  {
    std::vector<model::Task> tasks = net.tasks();
    for (model::Task& task : tasks) task.position = {9.0, 9.0};
    net = model::Network(net.chargers(), std::move(tasks), net.power_model(), net.time());
  }
  predict::ArrivalModel model(net, 2, 1.0);
  const double hot_rate = 0.5;
  const double min_confidence = 4.0;

  // Two slots of heavy arrivals: the rate clears hot_rate immediately, but
  // the model has only watched 1 effective slot — not hot yet.
  model.observe(0, {0, 1}, hot_rate, min_confidence);
  model.observe(1, {2, 3}, hot_rate, min_confidence);
  EXPECT_GE(model.cell_rate(model.cell_of_task(0)), hot_rate);
  EXPECT_FALSE(model.task_hot(0, hot_rate, min_confidence));

  // Advancing the clock past min_confidence slots flips the gate open
  // (rate 4/5 still clears 0.5).
  model.observe(5, {}, hot_rate, min_confidence);
  EXPECT_TRUE(model.task_hot(0, hot_rate, min_confidence));
  // A far-future observation dilutes the rate below hot_rate: cold again.
  model.observe(40, {}, hot_rate, min_confidence);
  EXPECT_FALSE(model.task_hot(0, hot_rate, min_confidence));
}

// ---------------------------------------------------------------------------
// Cadence controller
// ---------------------------------------------------------------------------

predict::ArrivalObservation obs(double expected, double observed,
                                double hot_fraction, double confidence) {
  predict::ArrivalObservation o;
  o.expected = expected;
  o.observed = observed;
  o.hot_fraction = hot_fraction;
  o.confidence = confidence;
  return o;
}

TEST(Cadence, LevelZeroIsAlwaysReactive) {
  predict::PredictorConfig config;
  config.max_level = 0;
  predict::CadenceController cadence(config);
  EXPECT_EQ(cadence.decide(0, obs(0.0, 5.0, 1.0, 100.0)),
            predict::CadenceAction::kReplanNow);
  cadence.on_replan(0, /*held=*/true);
  EXPECT_EQ(cadence.level(), 0);  // max_level caps escalation at reactive
  EXPECT_EQ(cadence.decide(1, obs(5.0, 5.0, 1.0, 100.0)),
            predict::CadenceAction::kReplanNow);
}

TEST(Cadence, EscalatesWhileHeldAndDefersPredictedTraffic) {
  predict::PredictorConfig config;
  config.max_level = 4;
  config.batch_slots = 4;
  config.batch_tasks = 8;
  predict::CadenceController cadence(config);

  cadence.on_replan(0, true);
  EXPECT_EQ(cadence.level(), 1);
  // Fully predicted batch, inside both budgets: skip without pressure.
  EXPECT_EQ(cadence.decide(1, obs(2.0, 2.0, 1.0, 10.0)),
            predict::CadenceAction::kSkip);
  // Half-predicted batch: defer but accumulate pressure.
  EXPECT_EQ(cadence.decide(2, obs(2.0, 2.0, 0.5, 10.0)),
            predict::CadenceAction::kBatch);
  cadence.add_pressure(1);
  EXPECT_EQ(cadence.pressure(), 1u);

  // The slot leash at level 1 is batch_slots * 1 = 4 slots after the last
  // re-plan: an event at slot 4 forces a re-plan even with zero pressure.
  EXPECT_EQ(cadence.decide(4, obs(1.0, 1.0, 1.0, 10.0)),
            predict::CadenceAction::kReplanNow);

  cadence.on_replan(4, true);
  EXPECT_EQ(cadence.level(), 2);
  EXPECT_EQ(cadence.pressure(), 0u);  // the re-plan drained the backlog
  // Level 2 doubles the leash: slot 4 + 7 < 4 + 8 stays deferred.
  EXPECT_EQ(cadence.decide(11, obs(1.0, 1.0, 1.0, 10.0)),
            predict::CadenceAction::kSkip);

  // Pressure rule: batch_tasks * level = 16 cold tasks force a re-plan.
  cadence.add_pressure(16);
  EXPECT_EQ(cadence.decide(12, obs(1.0, 1.0, 1.0, 10.0)),
            predict::CadenceAction::kReplanNow);
}

TEST(Cadence, SurpriseAndShortfallResetTrust) {
  predict::PredictorConfig config;
  config.max_level = 4;
  config.surprise_factor = 3.0;
  config.min_confidence = 4.0;
  predict::CadenceController cadence(config);
  cadence.on_replan(0, true);
  cadence.on_replan(1, true);
  EXPECT_EQ(cadence.level(), 2);

  // An unconfident model cannot be surprised — the batch defers.
  EXPECT_NE(cadence.decide(2, obs(0.5, 10.0, 0.0, 1.0)),
            predict::CadenceAction::kReplanNow);
  // A confident one is: 10 > 3 * (0.5 + 1) resets straight to reactive.
  EXPECT_EQ(cadence.decide(3, obs(0.5, 10.0, 0.0, 10.0)),
            predict::CadenceAction::kReplanNow);
  EXPECT_EQ(cadence.level(), 0);

  cadence.on_replan(3, true);
  EXPECT_EQ(cadence.level(), 1);
  // A re-plan whose predictions did NOT hold resets instead of escalating.
  cadence.on_replan(4, false);
  EXPECT_EQ(cadence.level(), 0);

  cadence.on_replan(5, true);
  cadence.escalate();  // failure path
  EXPECT_EQ(cadence.level(), 0);
}

// ---------------------------------------------------------------------------
// Online-driver differentials
// ---------------------------------------------------------------------------

TEST(OnlinePredict, DisabledPredictorBitIdenticalAcrossKernelsAndReuse) {
  // The reactive path must not depend on the predictor's existence: with
  // predictor.enabled = false (the default), the session prices every stage
  // exactly like the scalar pricing oracle, and its node reuse leaves every
  // bit unchanged. The cross-build half of the contract (identical to a
  // pre-predictor checkout) follows because this path never constructs a
  // predict:: object.
  const model::Network net = bursty_network(small_bursty_config(), 21);
  dist::OnlineConfig config;
  config.colors = 2;
  config.samples = 4;
  const dist::OnlineResult result = dist::run_online(net, config);
  EXPECT_EQ(result.replans_skipped, 0u);
  EXPECT_EQ(result.predictor, predict::PredictorStats{});
  // A fresh fleet per re-plan, every VALUE and UPDATE checked against the
  // scalar-priced NodePricer: identical bits and message ledger, but the
  // persistent column store legitimately SKIPS re-pricing row_terms for
  // columns whose base energy is unchanged — row-eval counts are exempt by
  // contract.
  const oracle::CheckedRun fresh = oracle::run_online_checked(net, config);
  EXPECT_TRUE(fresh.mismatches.empty()) << fresh.mismatches.front();
  expect_equal_results(result, fresh.result, /*compare_row_evals=*/false);
  EXPECT_LE(result.row_evaluations, fresh.result.row_evaluations);
}

TEST(OnlinePredict, LevelZeroNoPrewarmIsFullPassThrough) {
  // The enabled-but-leashed degenerate case: max_level = 0 keeps every
  // cadence decision at kReplanNow, so the ONLY difference from
  // predictor-off is that the model watches the arrivals. The full result —
  // including per-negotiation row_evals — must be bit-identical.
  const model::Network net = bursty_network(small_bursty_config(), 22);
  dist::OnlineConfig reactive;
  reactive.colors = 2;
  reactive.samples = 4;
  reactive.failures = {{1, 6}};

  dist::OnlineConfig leashed = reactive;
  leashed.predictor = tuned_predictor(0);

  const dist::OnlineResult a = dist::run_online(net, reactive);
  const dist::OnlineResult b = dist::run_online(net, leashed);
  expect_equal_results(a, b);
  // The leashed predictor still ran its ledger — every task classified.
  EXPECT_EQ(b.predictor.hits + b.predictor.misses,
            static_cast<std::uint64_t>(net.task_count()));
  EXPECT_EQ(b.predictor.replans_skipped, 0u);
}

TEST(OnlinePredict, BurstyTrafficCutsNegotiationsWithinUtilityBudget) {
  // The effectiveness contract on the calibrated regime (long durations,
  // bursty hotspot arrivals): across trials the predictor cuts negotiations
  // by >= 30% while giving up <= 2% of the mean normalized utility.
  sim::ScenarioConfig scenario = sim::ScenarioConfig::paper_default();
  scenario.chargers = 8;
  scenario.tasks = 30;
  scenario.release_window_slots = 24;

  dist::OnlineConfig reactive;
  dist::OnlineConfig predictive;
  predictive.predictor = tuned_predictor(2);

  double reactive_utility = 0.0, predictive_utility = 0.0;
  std::uint64_t reactive_negotiations = 0, predictive_negotiations = 0;
  std::uint64_t skipped = 0, classified = 0;
  const int kTrials = 5;
  for (int t = 0; t < kTrials; ++t) {
    const model::Network net =
        bursty_network(scenario, util::Rng::stream_seed(31, static_cast<std::uint64_t>(t)));
    const double upper = net.utility_upper_bound();
    const dist::OnlineResult r = dist::run_online(net, reactive);
    const dist::OnlineResult p = dist::run_online(net, predictive);
    reactive_utility += r.evaluation.weighted_utility / upper;
    predictive_utility += p.evaluation.weighted_utility / upper;
    reactive_negotiations += r.negotiations;
    predictive_negotiations += p.negotiations;
    skipped += p.replans_skipped;
    classified += p.predictor.hits + p.predictor.misses;
    EXPECT_EQ(p.replans_skipped, p.predictor.replans_skipped) << "trial " << t;
  }
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(classified, static_cast<std::uint64_t>(scenario.tasks) * kTrials);
  EXPECT_LE(static_cast<double>(predictive_negotiations),
            0.7 * static_cast<double>(reactive_negotiations))
      << predictive_negotiations << " vs " << reactive_negotiations;
  EXPECT_GE(predictive_utility, 0.98 * reactive_utility)
      << predictive_utility / kTrials << " vs " << reactive_utility / kTrials;
}

// ---------------------------------------------------------------------------
// Serve threading
// ---------------------------------------------------------------------------

TEST(ServePredict, ConfigJsonRoundTripsEveryPredictorKnob) {
  dist::OnlineConfig config;
  config.predictor.enabled = true;
  config.predictor.grid = 5;
  config.predictor.discount = 0.75;
  config.predictor.hot_rate = 0.125;
  config.predictor.min_confidence = 1.5;
  config.predictor.surprise_factor = 2.5;
  config.predictor.max_level = 3;
  config.predictor.batch_slots = 6;
  config.predictor.batch_tasks = 12;
  config.predictor.shortfall_factor = 0.375;

  const dist::OnlineConfig back =
      serve::online_config_from_json(serve::online_config_to_json(config));
  EXPECT_EQ(back.predictor.enabled, config.predictor.enabled);
  EXPECT_EQ(back.predictor.grid, config.predictor.grid);
  EXPECT_EQ(back.predictor.discount, config.predictor.discount);
  EXPECT_EQ(back.predictor.hot_rate, config.predictor.hot_rate);
  EXPECT_EQ(back.predictor.min_confidence, config.predictor.min_confidence);
  EXPECT_EQ(back.predictor.surprise_factor, config.predictor.surprise_factor);
  EXPECT_EQ(back.predictor.max_level, config.predictor.max_level);
  EXPECT_EQ(back.predictor.batch_slots, config.predictor.batch_slots);
  EXPECT_EQ(back.predictor.batch_tasks, config.predictor.batch_tasks);
  EXPECT_EQ(back.predictor.shortfall_factor, config.predictor.shortfall_factor);
}

/// Drives one serve::Session through an event replay (no sockets — the
/// Session is pure computation) and returns the final "result" reply.
util::Json replay_session(const model::Network& net, const dist::OnlineConfig& config,
                          const std::vector<serve::ReplayEvent>& events) {
  serve::Session session;
  util::Json open = util::Json::object();
  open.set("op", "open");
  open.set("scenario", io::network_to_json(net));
  open.set("config", serve::online_config_to_json(config));
  serve::Reply reply = session.handle_line(open.dump());
  EXPECT_TRUE(util::Json::parse(reply.line).bool_or("ok", false)) << reply.line;

  for (const serve::ReplayEvent& event : events) {
    util::Json request = util::Json::object();
    if (event.is_failure) {
      request.set("op", "fail");
      request.set("charger", static_cast<int>(event.charger));
      request.set("slot", static_cast<int>(event.slot));
    } else {
      request.set("op", "arrive");
      request.set("slot", static_cast<int>(event.slot));
      util::Json tasks = util::Json::array();
      for (model::TaskIndex j : event.tasks) tasks.push_back(util::Json(static_cast<int>(j)));
      request.set("tasks", std::move(tasks));
    }
    reply = session.handle_line(request.dump());
    EXPECT_TRUE(util::Json::parse(reply.line).bool_or("ok", false)) << reply.line;
  }
  util::Json finish = util::Json::object();
  finish.set("op", "finish");
  reply = session.handle_line(finish.dump());
  return util::Json::parse(reply.line);
}

TEST(ServePredict, SessionReplayMatchesLocalAndShipsLedger) {
  const model::Network net = bursty_network(small_bursty_config(), 24);
  dist::OnlineConfig config;
  config.colors = 2;
  config.samples = 4;
  config.predictor = tuned_predictor(3);
  const std::vector<serve::ReplayEvent> events = serve::build_replay_events(net);
  ASSERT_FALSE(events.empty());

  const dist::OnlineResult local = serve::replay_locally(net, config, events);
  const util::Json result = replay_session(net, config, events);
  EXPECT_EQ(serve::diff_result(result, local), "");

  // The predictor ledger travels in the result reply, u64s as decimal
  // strings per the shard wire convention.
  ASSERT_TRUE(result.contains("predictor")) << result.dump();
  const util::Json& ledger = result.at("predictor");
  EXPECT_EQ(ledger.string_or("replans_skipped", ""),
            std::to_string(local.predictor.replans_skipped));
  EXPECT_EQ(ledger.string_or("hits", ""), std::to_string(local.predictor.hits));
  EXPECT_EQ(ledger.string_or("misses", ""), std::to_string(local.predictor.misses));
  EXPECT_EQ(ledger.string_or("batched", ""), std::to_string(local.predictor.batched));
}

TEST(ServePredict, ReactiveSessionKeepsHistoricalReplyShape) {
  // A session that did not opt into prediction must not grow a ledger —
  // its result reply keeps the pre-predictor byte layout.
  const model::Network net = bursty_network(small_bursty_config(), 25);
  dist::OnlineConfig config;
  config.colors = 2;
  config.samples = 4;
  const std::vector<serve::ReplayEvent> events = serve::build_replay_events(net);
  const util::Json result = replay_session(net, config, events);
  EXPECT_EQ(serve::diff_result(result, serve::replay_locally(net, config, events)), "");
  EXPECT_FALSE(result.contains("predictor")) << result.dump();
}

// ---------------------------------------------------------------------------
// Generator knobs
// ---------------------------------------------------------------------------

TEST(ScenarioKnobs, BurstAndHotspotPassesLeaveBaseGeometryUntouched) {
  sim::ScenarioConfig base = sim::ScenarioConfig::small_scale();
  base.tasks = 30;
  base.release_window_slots = 16;

  const auto draw = [&](double burst, double hotspot) {
    sim::ScenarioConfig config = base;
    config.burst_factor = burst;
    config.hotspot_fraction = hotspot;
    util::Rng rng(77);
    return sim::generate_scenario(config, rng);
  };
  const model::Network off = draw(1.0, 0.0);
  const model::Network burst_only = draw(4.0, 0.0);
  const model::Network hotspot_only = draw(1.0, 0.6);
  const model::Network both = draw(4.0, 0.6);

  // Chargers never move: every pass happens after the charger draws.
  for (const model::Network* net : {&burst_only, &hotspot_only, &both}) {
    ASSERT_EQ(net->charger_count(), off.charger_count());
    for (std::size_t i = 0; i < off.chargers().size(); ++i) {
      EXPECT_EQ(net->chargers()[i].position.x, off.chargers()[i].position.x);
      EXPECT_EQ(net->chargers()[i].position.y, off.chargers()[i].position.y);
    }
  }

  int moved_releases = 0, moved_positions = 0;
  for (std::size_t j = 0; j < off.tasks().size(); ++j) {
    // Burst pass: releases may snap to epochs, durations and positions are
    // bit-identical to the knobs-off draw.
    const model::Task& b = burst_only.tasks()[j];
    const model::Task& o = off.tasks()[j];
    EXPECT_EQ(b.position.x, o.position.x);
    EXPECT_EQ(b.position.y, o.position.y);
    EXPECT_EQ(b.orientation, o.orientation);
    EXPECT_EQ(b.duration_slots(), o.duration_slots());
    EXPECT_EQ(b.required_energy, o.required_energy);
    if (b.release_slot != o.release_slot) {
      ++moved_releases;
      EXPECT_EQ(b.release_slot % 8, 0) << "snapped release off the epoch lattice";
    }
    // Hotspot pass: positions may move, the arrival process is untouched.
    const model::Task& h = hotspot_only.tasks()[j];
    EXPECT_EQ(h.release_slot, o.release_slot);
    EXPECT_EQ(h.end_slot, o.end_slot);
    EXPECT_EQ(h.orientation, o.orientation);
    EXPECT_EQ(h.required_energy, o.required_energy);
    if (h.position.x != o.position.x || h.position.y != o.position.y) ++moved_positions;
    // Both knobs on: the burst pass runs first and consumes the same draws
    // as burst-only, so releases match it exactly. (Positions need NOT match
    // hotspot-only: the drift center follows the snapped releases and the
    // hotspot pass starts deeper into the stream — by design.)
    const model::Task& c = both.tasks()[j];
    EXPECT_EQ(c.release_slot, b.release_slot);
    EXPECT_EQ(c.duration_slots(), o.duration_slots());
    EXPECT_EQ(c.orientation, o.orientation);
    EXPECT_EQ(c.required_energy, o.required_energy);
  }
  EXPECT_GT(moved_releases, 0);
  EXPECT_GT(moved_positions, 0);
}

}  // namespace
}  // namespace haste
