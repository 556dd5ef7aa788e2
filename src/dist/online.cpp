#include "dist/online.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "baseline/greedy_cover.hpp"
#include "baseline/greedy_utility.hpp"
#include "dist/event_queue.hpp"
#include "dist/node.hpp"
#include "obs/obs.hpp"

namespace haste::dist {

namespace {

/// Copies the assignments of `source` into `target` for every *alive*
/// charger, for slots in [first_slot, horizon): target slots are cleared
/// first so the new plan fully replaces the old one from `first_slot` on.
void splice_plan(model::Schedule& target, const model::Schedule& source,
                 model::SlotIndex first_slot, const std::vector<bool>& alive) {
  for (model::ChargerIndex i = 0; i < target.charger_count(); ++i) {
    if (!alive[static_cast<std::size_t>(i)]) continue;
    for (model::SlotIndex k = first_slot; k < target.horizon(); ++k) {
      const model::SlotAssignment a = source.assignment(i, k);
      if (a.has_value()) {
        target.assign(i, k, *a);
      } else {
        target.clear(i, k);
      }
    }
  }
}

/// Participating (charger, slot) loads of one plan: the live ones were
/// priced, the dead ones only counted (election) or skipped (token).
struct SlotTally {
  std::uint64_t live = 0;
  std::uint64_t dead = 0;
};

/// Starts every node's plan on `ledger` and counts its HELLO on `board`.
/// Returns the nodes with work, ascending ids like `nodes`.
std::vector<ChargerNode*> hello(const std::vector<ChargerNode*>& nodes,
                                const std::vector<model::TaskIndex>& known,
                                core::MarginalEngine& ledger, Board& board) {
  std::vector<ChargerNode*> workers;
  for (ChargerNode* node : nodes) {
    board.count(node->id(), node->begin_plan(known, ledger).size());
    if (node->has_work()) workers.push_back(node);
  }
  return workers;
}

/// Writes the agreed plan into `executed` from `plan_start` on and adds the
/// plan's traffic to the Fig. 16 counters. Chargers without work keep
/// (persist) their previous orientation: their rows are cleared so stale
/// plans do not execute.
void finish_plan(const std::vector<ChargerNode*>& nodes, const Board& board,
                 model::SlotIndex plan_start, model::Schedule& executed,
                 OnlineResult& result) {
  for (ChargerNode* node : nodes) {
    if (node->has_work()) {
      node->write_schedule(executed, plan_start);
    } else {
      for (model::SlotIndex k = plan_start; k < executed.horizon(); ++k) {
        executed.clear(node->id(), k);
      }
    }
  }
  result.messages += board.traffic().broadcasts;
  result.deliveries += board.traffic().deliveries;
  result.message_bytes += board.traffic().bytes;
}

/// Runs the ordered token protocol for one re-plan: each charger, in
/// ascending ID order (one token round per color), greedily selects policies
/// for all its slots and broadcasts the selections, which its successors
/// price against. Equivalent in guarantee to the election protocol (the
/// order of a locally greedy run does not affect its 1/2 bound), but with
/// one broadcast per selection instead of repeated VALUE elections.
/// `nodes` is the alive fleet in ascending id order, owned by the caller and
/// persistent across re-plans, and `ledger` the plan's energy state. A dead
/// (charger, slot) would commit nothing, so it sends nothing.
SlotTally negotiate_sequential(const model::Network& net, const OnlineConfig& config,
                               const std::vector<ChargerNode*>& nodes,
                               const std::vector<model::TaskIndex>& known,
                               core::MarginalEngine& ledger, model::SlotIndex plan_start,
                               const std::vector<bool>& alive, model::Schedule& executed,
                               OnlineResult& result) {
  Board board(net, alive);
  const std::vector<ChargerNode*> workers = hello(nodes, known, ledger, board);
  const int colors = std::max(1, config.colors);
  SlotTally tally;
  for (int c = 0; c < colors; ++c) {
    for (ChargerNode* node : workers) {  // ascending id: nodes are built in order
      ++result.rounds;                   // one token turn
      for (model::SlotIndex k = plan_start; k < net.horizon(); ++k) {
        const SlotState state = node->load_slot(k);
        if (state == SlotState::kDead) ++tally.dead;
        if (state != SlotState::kLive) continue;
        ++tally.live;
        node->begin_stage(c);
        if (node->force_commit()) board.count(node->id(), node->last_update().tasks.size());
      }
    }
  }
  finish_plan(nodes, board, plan_start, executed, result);
  return tally;
}

/// Runs the full HASTE negotiation for one re-plan. Writes the agreed plan
/// into `executed` from `plan_start` on and accumulates counters. `nodes` is
/// the alive fleet in ascending id order, owned by the caller, and `ledger`
/// the plan's energy state.
SlotTally negotiate_haste(const model::Network& net, const OnlineConfig& config,
                          const std::vector<ChargerNode*>& nodes,
                          const std::vector<model::TaskIndex>& known,
                          core::MarginalEngine& ledger, model::SlotIndex plan_start,
                          const std::vector<bool>& alive, model::Schedule& executed,
                          OnlineResult& result) {
  Board board(net, alive);
  const std::vector<ChargerNode*> workers = hello(nodes, known, ledger, board);
  // The engine's color count may have been clamped (colors < 1 -> 1).
  const int colors = std::max(1, config.colors);

  SlotTally tally;
  std::vector<ChargerNode*> participants;  // the live ones
  std::vector<model::ChargerIndex> dead;
  std::vector<ChargerNode*> undecided;
  std::vector<ChargerNode*> committers;
  // [charger]: the last round in which a neighbor of it committed.
  std::vector<std::uint64_t> touched(static_cast<std::size_t>(net.charger_count()), 0);
  std::uint64_t round = 0;
  for (model::SlotIndex k = plan_start; k < net.horizon(); ++k) {
    participants.clear();
    dead.clear();
    board.open_slot();
    for (ChargerNode* node : workers) {
      switch (node->load_slot(k)) {
        case SlotState::kIdle:
          break;
        case SlotState::kDead:
          dead.push_back(node->id());
          break;
        case SlotState::kLive:
          participants.push_back(node);
          board.enlist(node->id());
          break;
      }
    }
    tally.live += participants.size();
    tally.dead += dead.size();
    if (participants.empty() && dead.empty()) continue;
    for (ChargerNode* node : participants) node->list_slot_neighbors(board);

    for (int c = 0; c < colors; ++c) {
      // A dead charger announces 0 in the stage's first round and goes
      // passive, so no neighbor waits for it: its VALUE is only counted.
      for (const model::ChargerIndex id : dead) board.count(id, 0);
      if (participants.empty()) {
        ++result.rounds;  // the round in which the dead announced
        continue;
      }
      board.next_stage();
      for (ChargerNode* node : participants) node->begin_stage(c);
      undecided = participants;
      const std::size_t round_cap = participants.size() + 3;
      for (std::size_t stage_rounds = 0; !undecided.empty();) {
        if (++stage_rounds > round_cap) {
          throw std::logic_error("online negotiation failed to converge");
        }
        ++result.rounds;
        ++round;
        for (ChargerNode* node : undecided) {
          board.post_value(node->id(), node->value());
          board.count(node->id(), 0);
        }
        committers.clear();
        for (ChargerNode* node : undecided) {
          if (!node->try_commit(board)) continue;
          committers.push_back(node);
          board.count(node->id(), node->last_update().tasks.size());
        }
        // The UPDATEs arrive after the whole commit phase: only now do the
        // committers turn decided, and each undecided neighbor re-prices
        // once against the ledger that holds all of this round's commits.
        for (ChargerNode* node : committers) {
          board.post_decided(node->id());
          for (const model::ChargerIndex j : net.neighbors(node->id())) {
            touched[static_cast<std::size_t>(j)] = round;
          }
        }
        std::erase_if(undecided, [](const ChargerNode* node) { return node->decided(); });
        for (ChargerNode* node : undecided) {
          if (touched[static_cast<std::size_t>(node->id())] == round) node->reprice();
        }
      }
    }
  }
  finish_plan(nodes, board, plan_start, executed, result);
  return tally;
}

}  // namespace

OnlineSession::OnlineSession(const model::Network& net, const OnlineConfig& config)
    : net_(net),
      config_(config),
      alive_(static_cast<std::size_t>(net.charger_count()), true) {
  result_.schedule = model::Schedule(net.charger_count(), net.horizon());
  if (config_.predictor.enabled) {
    predictor_ = std::make_unique<predict::Predictor>(net_, config_.predictor);
  }
}

OnlineSession::~OnlineSession() = default;  // ChargerNode is complete here

std::size_t OnlineSession::alive_chargers() const {
  return static_cast<std::size_t>(std::count(alive_.begin(), alive_.end(), true));
}

void OnlineSession::check_event(model::SlotIndex slot) const {
  if (finished_) {
    throw std::logic_error("OnlineSession: event after finish()");
  }
  if (slot < last_event_slot_) {
    throw std::invalid_argument(
        "OnlineSession: event slot " + std::to_string(slot) +
        " regresses behind slot " + std::to_string(last_event_slot_));
  }
}

const NegotiationRecord* OnlineSession::on_arrival(
    model::SlotIndex slot, const std::vector<model::TaskIndex>& tasks) {
  check_event(slot);
  for (model::TaskIndex j : tasks) {
    if (j < 0 || j >= net_.task_count()) {
      throw std::invalid_argument("OnlineSession: task index " + std::to_string(j) +
                                  " out of range");
    }
    if (std::binary_search(known_.begin(), known_.end(), j) ||
        std::find(pending_.begin(), pending_.end(), j) != pending_.end()) {
      throw std::invalid_argument("OnlineSession: task " + std::to_string(j) +
                                  " released twice");
    }
  }
  std::vector<model::TaskIndex> batch(tasks);
  std::sort(batch.begin(), batch.end());
  const auto repeat = std::adjacent_find(batch.begin(), batch.end());
  if (repeat != batch.end()) {
    throw std::invalid_argument("OnlineSession: task " + std::to_string(*repeat) +
                                " released twice in one batch");
  }
  last_event_slot_ = slot;
  if (predictor_ != nullptr &&
      predictor_->on_arrival(slot, tasks) != predict::CadenceAction::kReplanNow) {
    // Deferred: the batch joins the pending set and the negotiation it would
    // have triggered is skipped.
    pending_.insert(pending_.end(), tasks.begin(), tasks.end());
    predictor_->note_skipped();
    return nullptr;
  }
  flush_pending();
  known_.insert(known_.end(), tasks.begin(), tasks.end());
  std::sort(known_.begin(), known_.end());
  return replan(slot, ReplanTrigger::kArrival);
}

const NegotiationRecord* OnlineSession::on_failure(model::ChargerIndex charger,
                                                   model::SlotIndex slot) {
  check_event(slot);
  if (charger < 0 || charger >= net_.charger_count()) {
    throw std::invalid_argument("OnlineSession: charger index " +
                                std::to_string(charger) + " out of range");
  }
  last_event_slot_ = slot;
  if (!alive_[static_cast<std::size_t>(charger)]) return nullptr;
  alive_[static_cast<std::size_t>(charger)] = false;
  result_.schedule.disable_from(charger, slot);
  if (predictor_ != nullptr) {
    // A failure is an unpredicted disruption: back to reactive cadence, and
    // any deferred arrivals join the recovery negotiation.
    predictor_->on_failure();
    flush_pending();
  }
  // Survivors re-plan to cover for the lost charger.
  return replan(slot, ReplanTrigger::kFailure);
}

OnlineResult OnlineSession::finish() {
  if (finished_) throw std::logic_error("OnlineSession: finish() called twice");
  if (!pending_.empty()) {
    // Deferred arrivals must still be scheduled: one final negotiation at
    // the last event slot (same tau delay as any re-plan).
    flush_pending();
    replan(last_event_slot_, ReplanTrigger::kArrival);
  }
  finished_ = true;
  result_.evaluation = core::evaluate_schedule(net_, result_.schedule);
  if (predictor_ != nullptr) {
    result_.predictor = predictor_->stats();
    result_.replans_skipped = result_.predictor.replans_skipped;
  }
  return std::move(result_);
}

void OnlineSession::flush_pending() {
  if (pending_.empty()) return;
  known_.insert(known_.end(), pending_.begin(), pending_.end());
  pending_.clear();
  std::sort(known_.begin(), known_.end());
}

const NegotiationRecord* OnlineSession::replan(model::SlotIndex event_slot,
                                               ReplanTrigger trigger) {
  // Re-planning is modeled as instantaneous computation whose *effect* is
  // delayed by tau slots (the rescheduling delay). Summed in 64 bits: an
  // event slot near the index limit must not wrap to a negative plan start.
  const auto plan_start = static_cast<model::SlotIndex>(std::min<std::int64_t>(
      std::int64_t{event_slot} + net_.time().tau, net_.horizon()));
  if (plan_start >= net_.horizon() || known_.empty()) return nullptr;
  ++result_.negotiations;
  const std::int64_t started_us = obs::Tracer::now_us();

  NegotiationRecord record;
  record.trigger = trigger;
  record.event_slot = event_slot;
  record.plan_start = plan_start;
  record.known_tasks = known_.size();
  record.alive_chargers = alive_chargers();
  const std::uint64_t messages_before = result_.messages;
  const std::uint64_t rounds_before = result_.rounds;
  const std::uint64_t deliveries_before = result_.deliveries;
  const std::uint64_t bytes_before = result_.message_bytes;

  // The re-plan is the serving daemon's unit of work: one span and one
  // latency histogram sample each.
  obs::Span replan_span("online.replan");
  replan_span.arg("trigger", util::Json(trigger == ReplanTrigger::kArrival
                                            ? "arrival"
                                            : "failure"));
  replan_span.arg("event_slot", util::Json(static_cast<std::int64_t>(event_slot)));
  replan_span.arg("plan_start", util::Json(static_cast<std::int64_t>(plan_start)));
  replan_span.arg("known_tasks", util::Json(static_cast<std::int64_t>(known_.size())));
  replan_span.arg("alive", util::Json(static_cast<std::int64_t>(record.alive_chargers)));

  // Energy already harvested (and committed to be harvested during the
  // rescheduling window under the old plan).
  const std::vector<double> harvested =
      core::prefix_task_energy(net_, result_.schedule, plan_start);

  const bool negotiated = config_.strategy == OnlineStrategy::kHaste ||
                          config_.strategy == OnlineStrategy::kHasteSequential;
  std::vector<ChargerNode*> fleet;  // alive nodes, ascending id
  // The plan's one energy ledger: every node prices against it and each
  // commit is applied to it once (dist/node.hpp says why that is exact).
  std::optional<core::MarginalEngine> ledger;
  if (negotiated) {
    if (table_ == nullptr) {
      table_ = std::make_shared<const core::kernels::UtilityTable>(
          core::kernels::UtilityTable::from(net_));
    }
    ledger.emplace(net_,
                   core::MarginalEngine::Config{config_.colors, config_.samples, config_.seed},
                   harvested, table_);
    persistent_nodes_.resize(static_cast<std::size_t>(net_.charger_count()));
    for (model::ChargerIndex i = 0; i < net_.charger_count(); ++i) {
      if (!alive_[static_cast<std::size_t>(i)]) continue;
      auto& slot = persistent_nodes_[static_cast<std::size_t>(i)];
      if (slot == nullptr) slot = std::make_unique<ChargerNode>(net_, i);
      fleet.push_back(slot.get());
    }
  }

  SlotTally slots;
  switch (config_.strategy) {
    case OnlineStrategy::kHaste:
      slots = negotiate_haste(net_, config_, fleet, known_, *ledger, plan_start, alive_,
                              result_.schedule, result_);
      break;
    case OnlineStrategy::kHasteSequential:
      slots = negotiate_sequential(net_, config_, fleet, known_, *ledger, plan_start, alive_,
                                   result_.schedule, result_);
      break;
    case OnlineStrategy::kGreedyUtility: {
      const model::Schedule plan = baseline::schedule_greedy_utility_over(
          net_, known_, plan_start, harvested);
      splice_plan(result_.schedule, plan, plan_start, alive_);
      break;
    }
    case OnlineStrategy::kGreedyCover: {
      const model::Schedule plan =
          baseline::schedule_greedy_cover_over(net_, known_, plan_start);
      splice_plan(result_.schedule, plan, plan_start, alive_);
      break;
    }
  }

  record.messages = result_.messages - messages_before;
  record.deliveries = result_.deliveries - deliveries_before;
  record.rounds = result_.rounds - rounds_before;
  const core::MarginalEngine::Stats plan_stats =
      ledger.has_value() ? ledger->stats() : core::MarginalEngine::Stats{};
  record.row_evals = plan_stats.row_terms;
  result_.row_evaluations += record.row_evals;
  replan_span.arg("row_evals",
                  util::Json(static_cast<std::int64_t>(record.row_evals)));
  HASTE_OBS_COUNTER_ADD("online.replans", 1);
  HASTE_OBS_COUNTER_ADD("online.row_evals", record.row_evals);
  // Counter parity with the offline/greedy schedulers, so profiles can
  // compare oracle effort across all three scheduling paths.
  HASTE_OBS_COUNTER_ADD("online.marginal_evals", plan_stats.marginals);
  HASTE_OBS_COUNTER_ADD("online.commits", plan_stats.commits);
  HASTE_OBS_COUNTER_ADD("bus.broadcasts", record.messages);
  HASTE_OBS_COUNTER_ADD("bus.deliveries", record.deliveries);
  HASTE_OBS_COUNTER_ADD("bus.bytes", result_.message_bytes - bytes_before);
  HASTE_OBS_HISTOGRAM_RECORD("online.replan.latency_us",
                             static_cast<double>(obs::Tracer::now_us() - started_us));
  if (negotiated) {
    HASTE_OBS_COUNTER_ADD("online.slots.live", slots.live);
    HASTE_OBS_COUNTER_ADD("online.slots.dead", slots.dead);
    HASTE_OBS_HISTOGRAM_RECORD("online.replan.messages", static_cast<double>(record.messages));
    HASTE_OBS_HISTOGRAM_RECORD("online.replan.deliveries",
                               static_cast<double>(record.deliveries));
    HASTE_OBS_HISTOGRAM_RECORD("online.replan.rounds", static_cast<double>(record.rounds));
  }
  if (predictor_ != nullptr) {
    // Feed the negotiated plan value back so the cadence controller can
    // escalate (predictions held) or reset on a utility shortfall. The
    // greedy strategies carry no negotiated value estimate — NaN skips the
    // shortfall test while still advancing the cadence clock.
    const double plan_value = ledger.has_value() ? ledger->expected_value()
                                                 : std::numeric_limits<double>::quiet_NaN();
    predictor_->on_replan(event_slot, plan_value, known_.size());
  }
  result_.log.push_back(record);
  return &result_.log.back();
}

OnlineResult run_online(const model::Network& net, const OnlineConfig& config) {
  OnlineSession session(net, config);

  // Arrival batches: tasks grouped by release slot; the event queue
  // sequences the batches (and injected failures, arrivals first on slot
  // ties) exactly as a live caller would push them into the session.
  std::map<model::SlotIndex, std::vector<model::TaskIndex>> batches;
  for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
    batches[net.tasks()[static_cast<std::size_t>(j)].release_slot].push_back(j);
  }

  EventQueue queue;
  for (const auto& [release_slot, batch] : batches) {
    queue.schedule(static_cast<double>(release_slot), [&, release_slot] {
      session.on_arrival(release_slot, batches.at(release_slot));
    });
  }
  for (const ChargerFailure& failure : config.failures) {
    if (failure.charger < 0 || failure.charger >= net.charger_count()) continue;
    queue.schedule(static_cast<double>(failure.slot), [&, failure] {
      session.on_failure(failure.charger, failure.slot);
    });
  }
  queue.run_all();

  return session.finish();
}

}  // namespace haste::dist
