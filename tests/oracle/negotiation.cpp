#include "oracle/negotiation.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/dominant_sets.hpp"
#include "core/evaluate.hpp"
#include "oracle/bus.hpp"

namespace haste::oracle {

namespace {

constexpr double kTieSlack = 1e-12;  // the node's switch-avoiding tie band

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) { return bits(x) == bits(y); });
}

/// "charger i slot k color c" for mismatch reports.
std::string stage_name(model::ChargerIndex i, model::SlotIndex k, int c) {
  std::ostringstream out;
  out << "charger " << i << " slot " << k << " color " << c;
  return out.str();
}

/// The UPDATE a node broadcasts for its latest commit.
Message update_message(const dist::ChargerNode& node, model::SlotIndex slot, int color) {
  const dist::ChargerNode::Update update = node.last_update();
  Message message;
  message.sender = node.id();
  message.slot = slot;
  message.color = color;
  message.command = Command::kUpdate;
  message.marginal = update.marginal;
  message.policy.orientation = update.orientation;
  message.policy.tasks.assign(update.tasks.begin(), update.tasks.end());
  message.policy.slot_energy.assign(update.slot_energy.begin(), update.slot_energy.end());
  return message;
}

/// Checks a node's commit (or its absence) against the pricer's choice.
void check_update(const NodePricer::Choice& expected, const std::optional<Message>& update,
                  const std::string& stage, std::vector<std::string>& mismatches) {
  if (update.has_value() != expected.positive) {
    mismatches.push_back(stage + ": node " + (update ? "committed" : "did not commit") +
                         ", pricer " + (expected.positive ? "has" : "has no") +
                         " positive policy");
    return;
  }
  if (!update) return;
  if (bits(update->marginal) != bits(expected.marginal)) {
    std::ostringstream out;
    out.precision(17);
    out << stage << ": UPDATE marginal " << update->marginal << ", pricer "
        << expected.marginal;
    mismatches.push_back(out.str());
  }
  if (bits(update->policy.orientation) != bits(expected.policy.orientation) ||
      update->policy.tasks != expected.policy.tasks ||
      !same_bits(update->policy.slot_energy, expected.policy.slot_energy)) {
    mismatches.push_back(stage + ": UPDATE policy differs from the pricer's choice");
  }
}

/// A node's endpoint on the oracle's bus, acting on each delivery the way a
/// receiver of the paper's protocol does. The board keeps one entry per
/// sender, so posting a VALUE or a decision once per receiver repeats an
/// identical write. Every delivered UPDATE re-prices an undecided receiver
/// of the stage, once per UPDATE.
struct Mailbox {
  dist::ChargerNode* node = nullptr;
  dist::Board* board = nullptr;
  bool in_stage = false;  ///< the node takes part in the current election stage

  void receive(const Message& message) {
    switch (message.command) {
      case Command::kHello:
        return;  // posted on the board when sent
      case Command::kValue:
        board->post_value(message.sender, message.marginal);
        return;
      case Command::kUpdate:
        board->post_decided(message.sender);
        if (in_stage && !node->decided()) node->reprice();
        return;
    }
  }
};

}  // namespace

void NodePricer::begin_plan(const std::vector<model::TaskIndex>& known, int colors) {
  dominant_ = core::extract_dominant_sets(*net_, id_, known);
  previous_.assign(static_cast<std::size_t>(colors), std::nullopt);
}

NodePricer::Choice NodePricer::choose(const core::MarginalEngine& ledger,
                                      model::SlotIndex slot, int color) {
  core::SlotPolicies policies;
  core::make_slot_policies(*net_, id_, dominant_, slot, policies);
  Choice choice;
  choice.participates = policies.size() > 0;
  const std::optional<double>& previous = previous_[static_cast<std::size_t>(color)];
  std::ptrdiff_t best = -1;
  bool best_is_previous = false;
  for (std::size_t q = 0; q < policies.size(); ++q) {
    const double m = pricing_.marginal(ledger, id_, slot, policies.policy_tasks(q),
                                       policies.policy_energy(q), color);
    const bool is_previous = previous.has_value() && policies.orientation[q] == *previous;
    const bool better =
        best < 0 ? m > 0.0
                 : m > choice.marginal * (1.0 + kTieSlack) + kTieSlack ||
                       (is_previous && !best_is_previous &&
                        m >= choice.marginal * (1.0 - kTieSlack) - kTieSlack);
    if (better) {
      best = static_cast<std::ptrdiff_t>(q);
      choice.marginal = m;
      best_is_previous = is_previous;
    }
  }
  if (best >= 0) {
    const auto q = static_cast<std::size_t>(best);
    choice.positive = true;
    choice.policy.orientation = policies.orientation[q];
    const auto tasks = policies.policy_tasks(q);
    const auto energy = policies.policy_energy(q);
    choice.policy.tasks.assign(tasks.begin(), tasks.end());
    choice.policy.slot_energy.assign(energy.begin(), energy.end());
  }
  return choice;
}

void NodePricer::committed(int color, double orientation) {
  previous_[static_cast<std::size_t>(color)] = orientation;
}

PlanCheck negotiate_checked(const model::Network& net, Protocol protocol, int colors,
                            const std::vector<dist::ChargerNode*>& nodes,
                            const std::vector<bool>& alive,
                            const std::vector<model::TaskIndex>& known,
                            core::MarginalEngine& ledger, model::SlotIndex plan_start,
                            model::Schedule& executed) {
  PlanCheck check;
  dist::Board board(net, alive);
  BroadcastBus<Mailbox> bus;
  std::vector<Mailbox> mailboxes(nodes.size());
  std::vector<NodePricer> pricers;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    mailboxes[i] = Mailbox{nodes[i], &board};
    bus.register_node(nodes[i]->id(), &mailboxes[i]);
    std::vector<model::ChargerIndex> neighbors;
    for (model::ChargerIndex j : net.neighbors(nodes[i]->id())) {
      if (alive[static_cast<std::size_t>(j)]) neighbors.push_back(j);
    }
    bus.set_neighbors(nodes[i]->id(), std::move(neighbors));
    pricers.emplace_back(net, nodes[i]->id());
  }
  const auto send = [&](Message message) {
    check.transcript.push_back(message);
    bus.broadcast(std::move(message));
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::span<const model::TaskIndex> tasks = nodes[i]->begin_plan(known, ledger);
    Message hello;
    hello.sender = nodes[i]->id();
    hello.command = Command::kHello;
    for (const model::TaskIndex j : tasks) {
      hello.policy.tasks.push_back(j);
      hello.policy.slot_energy.push_back(net.potential_power(hello.sender, j) *
                                         net.time().slot_seconds);
    }
    board.count(hello.sender, tasks.size());
    send(std::move(hello));
    pricers[i].begin_plan(known, ledger.colors());
  }
  bus.flush_round();

  std::vector<std::size_t> workers;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i]->has_work()) workers.push_back(i);
  }
  const int color_count = std::max(1, colors);

  // A commit, checked against the pricer's choice and broadcast.
  const auto committed = [&](std::size_t i, model::SlotIndex k, int c,
                             const NodePricer::Choice& expected, bool commit) {
    const std::optional<Message> update =
        commit ? std::optional<Message>(update_message(*nodes[i], k, c)) : std::nullopt;
    check_update(expected, update, stage_name(nodes[i]->id(), k, c), check.mismatches);
    if (!update) return;
    pricers[i].committed(c, update->policy.orientation);
    board.count(update->sender, update->policy.tasks.size());
    send(*update);
  };

  if (protocol == Protocol::kToken) {
    for (int c = 0; c < color_count; ++c) {
      for (const std::size_t i : workers) {
        ++check.rounds;
        for (model::SlotIndex k = plan_start; k < net.horizon(); ++k) {
          if (nodes[i]->load_slot(k) == dist::SlotState::kIdle) continue;
          nodes[i]->begin_stage(c);
          const NodePricer::Choice expected = pricers[i].choose(ledger, k, c);
          committed(i, k, c, expected, nodes[i]->force_commit());
        }
        bus.flush_round();
      }
    }
  } else {
    std::vector<std::size_t> participants;
    std::vector<NodePricer::Choice> expected(nodes.size());
    for (model::SlotIndex k = plan_start; k < net.horizon(); ++k) {
      // Every participant takes part, dead or live: a dead one is driven
      // through its stages like any other, so its VALUE of 0 is checked
      // against the pricer, sent and delivered.
      participants.clear();
      board.open_slot();
      for (const std::size_t i : workers) {
        if (nodes[i]->load_slot(k) == dist::SlotState::kIdle) continue;
        participants.push_back(i);
        board.enlist(nodes[i]->id());
      }
      for (const std::size_t i : participants) nodes[i]->list_slot_neighbors(board);
      for (int c = 0; c < color_count; ++c) {
        board.next_stage();
        for (const std::size_t i : participants) {
          nodes[i]->begin_stage(c);
          mailboxes[i].in_stage = true;
        }
        const std::size_t round_cap = participants.size() + 3;
        for (std::size_t stage_rounds = 0;; ++stage_rounds) {
          const bool undecided = std::any_of(participants.begin(), participants.end(),
                                             [&](std::size_t i) { return !nodes[i]->decided(); });
          if (!undecided) break;
          if (stage_rounds == round_cap) {
            check.mismatches.push_back("slot " + std::to_string(k) + " color " +
                                       std::to_string(c) + ": no convergence");
            break;
          }
          ++check.rounds;
          // Every commit that moves an undecided node's tasks reached it as
          // an UPDATE last round, so the ledger as it stands now is what the
          // node priced its VALUE on. Its commit later this round sees the
          // same tasks unchanged: no neighbor commits in the same round.
          for (const std::size_t i : participants) {
            if (!nodes[i]->decided()) expected[i] = pricers[i].choose(ledger, k, c);
          }
          for (const std::size_t i : participants) {
            if (nodes[i]->decided()) continue;
            Message value;
            value.sender = nodes[i]->id();
            value.slot = k;
            value.color = c;
            value.command = Command::kValue;
            value.marginal = nodes[i]->value();
            const double announced = expected[i].positive ? expected[i].marginal : 0.0;
            if (!expected[i].participates || bits(value.marginal) != bits(announced)) {
              std::ostringstream out;
              out.precision(17);
              out << stage_name(value.sender, k, c) << ": VALUE " << value.marginal
                  << ", pricer " << announced;
              check.mismatches.push_back(out.str());
            }
            board.count(value.sender, 0);
            send(std::move(value));
          }
          bus.flush_round();
          for (const std::size_t i : participants) {
            if (!nodes[i]->decided() && nodes[i]->try_commit(board)) {
              committed(i, k, c, expected[i], true);
            }
          }
          bus.flush_round();
        }
        for (const std::size_t i : participants) mailboxes[i].in_stage = false;
      }
    }
  }

  for (const std::size_t i : workers) nodes[i]->write_schedule(executed, plan_start);
  for (dist::ChargerNode* node : nodes) {
    if (node->has_work()) continue;
    for (model::SlotIndex k = plan_start; k < net.horizon(); ++k) executed.clear(node->id(), k);
  }
  check.deliveries = bus.stats().deliveries;
  check.bytes = bus.stats().bytes;
  const dist::Traffic& counted = board.traffic();
  if (counted.broadcasts != bus.stats().broadcasts || counted.deliveries != check.deliveries ||
      counted.bytes != check.bytes) {
    std::ostringstream out;
    out << "board counted " << counted.broadcasts << " broadcasts, " << counted.deliveries
        << " deliveries, " << counted.bytes << " bytes; the bus made "
        << bus.stats().broadcasts << ", " << check.deliveries << ", " << check.bytes;
    check.mismatches.push_back(out.str());
  }
  return check;
}

CheckedRun run_online_checked(const model::Network& net, const dist::OnlineConfig& config) {
  const bool negotiated = config.strategy == dist::OnlineStrategy::kHaste ||
                          config.strategy == dist::OnlineStrategy::kHasteSequential;
  if (!negotiated || config.predictor.enabled) {
    throw std::invalid_argument("run_online_checked: only predictor-off HASTE negotiations");
  }
  const Protocol protocol = config.strategy == dist::OnlineStrategy::kHaste
                                ? Protocol::kElection
                                : Protocol::kToken;
  CheckedRun run;
  dist::OnlineResult& result = run.result;
  result.schedule = model::Schedule(net.charger_count(), net.horizon());
  std::vector<bool> alive(static_cast<std::size_t>(net.charger_count()), true);

  // The events in session order: (slot, arrivals before failures, then
  // insertion order), as run_online's event queue sequences them.
  struct Event {
    model::SlotIndex slot = 0;
    bool failure = false;
    model::ChargerIndex charger = 0;
    std::vector<model::TaskIndex> tasks;
  };
  std::map<model::SlotIndex, std::vector<model::TaskIndex>> batches;
  for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
    batches[net.tasks()[static_cast<std::size_t>(j)].release_slot].push_back(j);
  }
  std::vector<Event> events;
  for (const auto& [release_slot, batch] : batches) {
    events.push_back({release_slot, false, 0, batch});
  }
  for (const dist::ChargerFailure& failure : config.failures) {
    if (failure.charger < 0 || failure.charger >= net.charger_count()) continue;
    events.push_back({failure.slot, true, failure.charger, {}});
  }
  std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.slot != b.slot ? a.slot < b.slot : !a.failure && b.failure;
  });

  std::vector<model::TaskIndex> known;
  for (const Event& event : events) {
    if (event.failure) {
      if (!alive[static_cast<std::size_t>(event.charger)]) continue;  // already dead
      alive[static_cast<std::size_t>(event.charger)] = false;
      result.schedule.disable_from(event.charger, event.slot);
    } else {
      known.insert(known.end(), event.tasks.begin(), event.tasks.end());
      std::sort(known.begin(), known.end());
    }
    const auto plan_start = static_cast<model::SlotIndex>(std::min<std::int64_t>(
        std::int64_t{event.slot} + net.time().tau, net.horizon()));
    if (plan_start >= net.horizon() || known.empty()) continue;
    ++result.negotiations;

    core::MarginalEngine ledger(
        net, core::MarginalEngine::Config{config.colors, config.samples, config.seed},
        core::prefix_task_energy(net, result.schedule, plan_start));
    std::vector<std::unique_ptr<dist::ChargerNode>> owned;
    std::vector<dist::ChargerNode*> fleet;
    for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
      if (!alive[static_cast<std::size_t>(i)]) continue;
      owned.push_back(std::make_unique<dist::ChargerNode>(net, i));
      fleet.push_back(owned.back().get());
    }
    const PlanCheck check = negotiate_checked(net, protocol, config.colors, fleet, alive,
                                              known, ledger, plan_start, result.schedule);

    dist::NegotiationRecord record;
    record.trigger = event.failure ? dist::ReplanTrigger::kFailure : dist::ReplanTrigger::kArrival;
    record.event_slot = event.slot;
    record.plan_start = plan_start;
    record.known_tasks = known.size();
    record.alive_chargers = fleet.size();
    record.messages = check.transcript.size();
    record.deliveries = check.deliveries;
    record.rounds = check.rounds;
    record.row_evals = ledger.stats().row_terms;
    result.messages += record.messages;
    result.deliveries += check.deliveries;
    result.message_bytes += check.bytes;
    result.rounds += record.rounds;
    result.row_evaluations += record.row_evals;
    result.log.push_back(record);
    for (const std::string& mismatch : check.mismatches) {
      run.mismatches.push_back("plan at slot " + std::to_string(event.slot) + ": " + mismatch);
    }
  }
  result.evaluation = core::evaluate_schedule(net, result.schedule);
  return run;
}

bool same_message(const Message& a, const Message& b) {
  return a.sender == b.sender && a.slot == b.slot && a.color == b.color &&
         a.command == b.command && bits(a.marginal) == bits(b.marginal) &&
         bits(a.policy.orientation) == bits(b.policy.orientation) &&
         a.policy.tasks == b.policy.tasks &&
         same_bits(a.policy.slot_energy, b.policy.slot_energy);
}

}  // namespace haste::oracle
