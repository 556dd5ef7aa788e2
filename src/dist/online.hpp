// Distributed online scheduling — the driver for Algorithm 3.
//
// Tasks arrive at their release slots; each arrival batch triggers a
// re-plan: chargers exchange HELLOs, negotiate every (slot, color) stage of
// the remaining horizon over the broadcast bus, and the new plan takes
// effect tau slots after the arrival (the rescheduling delay). Slots before
// that keep executing the previous plan. The same driver also runs the
// distributed baselines (GreedyUtility / GreedyCover recomputed per arrival
// with the same delay), which is how the paper's Figs. 11-15 compare them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/evaluate.hpp"
#include "core/objective.hpp"
#include "model/network.hpp"
#include "model/schedule.hpp"
#include "predict/predictor.hpp"

namespace haste::dist {

class ChargerNode;

/// Which per-charger policy rule the online driver runs.
enum class OnlineStrategy {
  kHaste,            ///< Algorithm 3 (distributed TabularGreedy negotiation)
  kHasteSequential,  ///< ordered token protocol (the global-order construction
                     ///< in Theorem 6.1's proof): chargers decide by ascending
                     ///< ID and only announce — fewer messages, no elections
  kGreedyUtility,    ///< each charger maximizes its own utility increment
  kGreedyCover,      ///< each charger maximizes covered active tasks
};

/// A charger failure to inject: the charger goes permanently silent at the
/// start of `slot` and stops participating in negotiations; survivors
/// re-plan (with the usual tau delay) to cover for it.
struct ChargerFailure {
  model::ChargerIndex charger = 0;
  model::SlotIndex slot = 0;
};

/// Online driver configuration.
struct OnlineConfig {
  OnlineStrategy strategy = OnlineStrategy::kHaste;
  int colors = 4;          ///< C (kHaste only)
  int samples = 16;        ///< color panel size (kHaste only)
  std::uint64_t seed = 1;  ///< shared seed (color panel + final sampling)
  std::vector<ChargerFailure> failures;  ///< failure injection (may be empty)
  /// How nodes evaluate stage marginals (kHaste/kHasteSequential only):
  /// kIncremental (default) reuses per-(row, sample) terms across remote
  /// commits; kRebuild is the reference path. Bit-identical results.
  core::TabularMode mode = core::TabularMode::kIncremental;
  /// Keep each charger's ChargerNode alive across re-plans
  /// (kHaste/kHasteSequential only) so its plan-level column store and
  /// dominant-set extraction carry over between negotiations: columns whose
  /// harvested base energy is unchanged since the previous plan skip their
  /// re-pricing row_term, and an unchanged known-task set skips the dominant
  /// re-extraction. Bit-identical to rebuilding the fleet per re-plan (the
  /// reference path, `false`) — asserted by the differential tests.
  bool reuse_nodes = true;
  /// Predictive cadence control (src/predict/): learn per-region arrival
  /// rates online, defer re-plans while predictions hold, and speculatively
  /// pre-provision plan columns for predicted-hot regions. Disabled by
  /// default — the reactive path is bit-identical to a predictor-free
  /// build, pinned by the online_predict_differential suite.
  predict::PredictorConfig predictor;
};

/// What caused a re-plan.
enum class ReplanTrigger {
  kArrival,  ///< new tasks released
  kFailure,  ///< a charger died
};

/// Telemetry for one re-plan (negotiation) of an online run.
struct NegotiationRecord {
  ReplanTrigger trigger = ReplanTrigger::kArrival;
  model::SlotIndex event_slot = 0;   ///< when the trigger fired
  model::SlotIndex plan_start = 0;   ///< first slot the new plan governs
  std::size_t known_tasks = 0;       ///< tasks released so far
  std::size_t alive_chargers = 0;    ///< chargers still operational
  std::uint64_t messages = 0;        ///< broadcasts spent on this re-plan
  std::uint64_t rounds = 0;          ///< negotiation rounds of this re-plan
  std::uint64_t row_evals = 0;       ///< engine row_term evaluations spent
};

/// Result of an online run.
struct OnlineResult {
  model::Schedule schedule;            ///< the executed schedule
  core::EvaluationResult evaluation;   ///< physical outcome (switching-aware)
  std::uint64_t messages = 0;          ///< broadcasts (HELLO + VALUE + UPDATE)
  std::uint64_t deliveries = 0;        ///< per-neighbor receptions (the paper's
                                       ///< message count, which grows ~n^2)
  std::uint64_t message_bytes = 0;     ///< total wire bytes
  std::uint64_t rounds = 0;            ///< synchronous negotiation rounds
  std::uint64_t negotiations = 0;      ///< re-plans triggered (arrivals/failures)
  std::uint64_t row_evaluations = 0;   ///< engine row_term evaluations, all re-plans
  std::uint64_t replans_skipped = 0;   ///< arrival events deferred by the predictor
  predict::PredictorStats predictor;   ///< predictor ledger (all-zero when off)
  std::vector<NegotiationRecord> log;  ///< per-re-plan telemetry, in time order
};

/// Incremental form of the online driver: one live scheduling session whose
/// events are pushed in by the caller instead of drained from a pre-built
/// event queue. `run_online` is a thin wrapper over this class, so a session
/// fed the same event sequence produces a bit-identical OnlineResult — the
/// invariant the `haste_serve` daemon's differential tests pin down.
///
/// Events must arrive in non-decreasing slot order, with same-slot arrivals
/// pushed before same-slot failures (the tie-break the event queue applies).
/// Each event triggers at most one re-plan, whose effect is delayed by tau
/// slots exactly as in the batch driver. Under OnlineConfig::reuse_nodes the
/// per-charger negotiation state stays warm across events — the property
/// that makes a long-lived serving session incremental rather than a replay.
class OnlineSession {
 public:
  /// Binds to `net`, which must outlive the session. `config.failures` is
  /// ignored here — failures are injected via on_failure.
  OnlineSession(const model::Network& net, const OnlineConfig& config = {});
  ~OnlineSession();
  OnlineSession(const OnlineSession&) = delete;
  OnlineSession& operator=(const OnlineSession&) = delete;

  /// Releases `tasks` at `slot` and re-plans. Returns the record of the
  /// re-plan, or nullptr when none ran (nothing known yet or the plan would
  /// start past the horizon). The pointer is valid until the next event.
  /// Throws std::invalid_argument on a slot regression, an out-of-range
  /// task index, or a task released twice (also within `tasks`), before
  /// changing any state; std::logic_error after finish().
  const NegotiationRecord* on_arrival(model::SlotIndex slot,
                                      const std::vector<model::TaskIndex>& tasks);

  /// Fails `charger` at the start of `slot`: its plan is disabled from
  /// `slot` on and survivors re-plan. A charger already dead is a no-op
  /// (nullptr). Same return/throw contract as on_arrival.
  const NegotiationRecord* on_failure(model::ChargerIndex charger,
                                      model::SlotIndex slot);

  /// Evaluates the executed schedule and returns the accumulated result.
  /// The session is consumed: further events or a second finish() throw.
  OnlineResult finish();

  std::size_t known_tasks() const { return known_.size(); }
  std::size_t alive_chargers() const;
  bool finished() const { return finished_; }
  const model::Network& network() const { return net_; }

 private:
  const NegotiationRecord* replan(model::SlotIndex event_slot, ReplanTrigger trigger);
  void check_event(model::SlotIndex slot) const;
  void flush_pending();  ///< folds the deferred arrivals into known_
  /// Speculatively prices plan columns on the persistent fleet for the
  /// deferred batch plus every unknown task in a predicted-hot cell.
  void prewarm(const std::vector<model::TaskIndex>& batch);

  const model::Network& net_;
  OnlineConfig config_;
  std::vector<model::TaskIndex> known_;
  /// Arrivals the predictor deferred; negotiated at the next re-plan.
  std::vector<model::TaskIndex> pending_;
  /// Live only when config_.predictor.enabled — the reactive path never
  /// touches it (bit-identity with predictor-free builds).
  std::unique_ptr<predict::Predictor> predictor_;
  std::vector<bool> alive_;
  /// Per-charger negotiation state under reuse_nodes (lazily constructed on
  /// the first re-plan a charger is alive for); unused otherwise.
  std::vector<std::unique_ptr<ChargerNode>> persistent_nodes_;
  /// The network's utility table, built at the first negotiated re-plan and
  /// shared by every node engine of the session.
  std::shared_ptr<const core::kernels::UtilityTable> table_;
  OnlineResult result_;
  model::SlotIndex last_event_slot_ = 0;
  bool finished_ = false;
};

/// Runs the online scenario on `net`: tasks become known at their release
/// slots, re-planning happens per distinct release slot.
OnlineResult run_online(const model::Network& net, const OnlineConfig& config = {});

}  // namespace haste::dist
