#include "dist/node.hpp"

#include <algorithm>
#include <bit>

namespace haste::dist {

namespace {

constexpr double kTieSlack = 1e-12;

}  // namespace

ChargerNode::ChargerNode(const model::Network& net, model::ChargerIndex id)
    : net_(&net), id_(id), neighbors_(net.neighbors(id)) {
  neighbor_position_.assign(static_cast<std::size_t>(net.charger_count()), -1);
  for (std::size_t p = 0; p < neighbors_.size(); ++p) {
    neighbor_position_[static_cast<std::size_t>(neighbors_[p])] = static_cast<std::int32_t>(p);
  }
  neighbor_tasks_.resize(neighbors_.size());
  neighbor_value_.assign(neighbors_.size(), 0.0);
  neighbor_heard_.assign(neighbors_.size(), 0);
  neighbor_decided_.assign(neighbors_.size(), 0);
  const auto m = static_cast<std::size_t>(net.task_count());
  term_cache_base_.assign(m, 0);
  term_cache_term_.assign(m, 0.0);
  term_cache_valid_.assign(m, 0);
}

Message ChargerNode::begin_plan(const std::vector<model::TaskIndex>& known_tasks,
                                core::MarginalEngine& ledger) {
  // Dominant sets are a pure function of (net, id, known_tasks); consecutive
  // re-plans of a reused node usually extend `known_tasks` (recompute) but
  // failure-triggered re-plans repeat it verbatim (hit).
  if (!dominant_cached_ || cached_known_ != known_tasks) {
    dominant_ = core::extract_dominant_sets(*net_, id_, known_tasks);
    cached_known_ = known_tasks;
    dominant_cached_ = true;
  }
  ledger_ = &ledger;
  const auto colors = static_cast<std::size_t>(ledger.colors());
  selections_.assign(static_cast<std::size_t>(net_->horizon()) * colors, std::nullopt);
  for (std::vector<model::TaskIndex>& tasks : neighbor_tasks_) tasks.clear();
  loaded_slot_ = -1;
  previous_orientation_.assign(colors, std::nullopt);

  // HELLO: announce which known tasks this charger can cover, with the
  // per-slot energy it would deliver (lets neighbors predict participation).
  Message hello;
  hello.sender = id_;
  hello.command = Command::kHello;
  for (model::TaskIndex j : known_tasks) {
    const double p = net_->potential_power(id_, j);
    if (p > 0.0) {
      hello.policy.tasks.push_back(j);
      hello.policy.slot_energy.push_back(p * net_->time().slot_seconds);
    }
  }

  // Plan-level column cache: one column per coverable task, shared by every
  // policy of every stage (the per-slot energy is orientation- and
  // slot-independent). All samples share the initial energies, so one
  // row_term per column is exact for the whole panel (replication), and
  // version 0 matches the ledger's untouched counters.
  plan_col_task_.clear();
  plan_col_delta_.clear();
  plan_col_of_.assign(static_cast<std::size_t>(net_->task_count()), -1);
  for (std::size_t t = 0; t < hello.policy.tasks.size(); ++t) {
    plan_col_of_[static_cast<std::size_t>(hello.policy.tasks[t])] =
        static_cast<std::ptrdiff_t>(plan_col_task_.size());
    plan_col_task_.push_back(hello.policy.tasks[t]);
    plan_col_delta_.push_back(hello.policy.slot_energy[t]);
  }
  const auto samples = static_cast<std::size_t>(ledger.samples());
  plan_terms_.assign(plan_col_task_.size() * samples, 0.0);
  plan_versions_.assign(plan_col_task_.size() * samples, 0);
  for (std::size_t col = 0; col < plan_col_task_.size(); ++col) {
    const auto j = static_cast<std::size_t>(plan_col_task_[col]);
    // row_term(0, j, delta) on a fresh ledger is a pure function of the
    // task's harvested base energy (delta never changes for a column), so
    // a bitwise-equal base since the previous plan reuses the cached term
    // — the re-plan's dominant row_term cost when energies are settled.
    const std::uint64_t base_bits =
        std::bit_cast<std::uint64_t>(ledger.energy(0, plan_col_task_[col]));
    double term;
    if (term_cache_valid_[j] != 0 && term_cache_base_[j] == base_bits) {
      term = term_cache_term_[j];
    } else {
      term = ledger.row_term(0, plan_col_task_[col], plan_col_delta_[col]);
      term_cache_base_[j] = base_bits;
      term_cache_term_[j] = term;
      term_cache_valid_[j] = 1;
    }
    for (std::size_t s = 0; s < samples; ++s) plan_terms_[col * samples + s] = term;
  }
  return hello;
}

void ChargerNode::load_slot(model::SlotIndex slot) {
  loaded_slot_ = slot;
  core::make_slot_policies(*net_, id_, dominant_, slot, slot_policies_);
  slot_colors_.resize(static_cast<std::size_t>(ledger_->samples()));
  for (int s = 0; s < ledger_->samples(); ++s) {
    slot_colors_[static_cast<std::size_t>(s)] = core::MarginalEngine::panel_color(
        ledger_->seed(), s, id_, slot, ledger_->colors());
  }
  // Row -> plan-column map for the slot's policies. Dominant-set tasks are
  // always in the HELLO coverable set, but register stragglers defensively
  // with never-priced stamps (ledger versions can be anything by now).
  slot_row_col_.clear();
  const auto samples = static_cast<std::size_t>(ledger_->samples());
  for (std::size_t row = 0; row < slot_policies_.tasks.size(); ++row) {
    const model::TaskIndex task = slot_policies_.tasks[row];
    const double delta = slot_policies_.energy[row];
    std::ptrdiff_t col = plan_col_of_[static_cast<std::size_t>(task)];
    if (col >= 0 && plan_col_delta_[static_cast<std::size_t>(col)] != delta) {
      // Tardy rows carry a deadline-discounted slot_energy that deviates
      // from the HELLO column's base delta; a column's cached terms are
      // only reusable at the delta they were priced with, so mismatched
      // rows get overflow columns keyed (task, delta). Linear scan: only
      // tardy rows reach here, and each tardy (task, slot) pair
      // contributes at most one distinct delta per plan.
      col = -1;
      for (std::size_t c = 0; c < plan_col_task_.size(); ++c) {
        if (plan_col_task_[c] == task && plan_col_delta_[c] == delta) {
          col = static_cast<std::ptrdiff_t>(c);
          break;
        }
      }
    }
    if (col < 0) {
      col = static_cast<std::ptrdiff_t>(plan_col_task_.size());
      if (plan_col_of_[static_cast<std::size_t>(task)] < 0) {
        plan_col_of_[static_cast<std::size_t>(task)] = col;
      }
      plan_col_task_.push_back(task);
      plan_col_delta_.push_back(delta);
      plan_terms_.resize(plan_terms_.size() + samples, 0.0);
      plan_versions_.resize(plan_versions_.size() + samples, ~std::uint64_t{0});
    }
    slot_row_col_.push_back(static_cast<std::size_t>(col));
  }
  slot_neighbors_.clear();
  for (std::size_t p = 0; p < neighbors_.size(); ++p) {
    const std::vector<model::TaskIndex>& tasks = neighbor_tasks_[p];
    const bool participates =
        std::any_of(tasks.begin(), tasks.end(), [&](model::TaskIndex t) {
          return net_->tasks()[static_cast<std::size_t>(t)].active(slot) &&
                 net_->tardiness_factor(t, slot) > 0.0;
        });
    if (participates) slot_neighbors_.push_back(static_cast<std::int32_t>(p));
  }
}

bool ChargerNode::begin_stage(model::SlotIndex slot, int color) {
  if (slot != loaded_slot_) load_slot(slot);
  stage_slot_ = slot;
  stage_color_ = color;
  stage_cache_.assign(slot_policies_.size(), PolicyTermCache{});
  stage_samples_.clear();
  for (int s = 0; s < ledger_->samples(); ++s) {
    if (slot_colors_[static_cast<std::size_t>(s)] == color) stage_samples_.push_back(s);
  }
  std::fill(neighbor_heard_.begin(), neighbor_heard_.end(), 0);
  std::fill(neighbor_decided_.begin(), neighbor_decided_.end(), 0);
  if (slot_policies_.size() == 0) {
    decided_ = true;
    best_policy_ = -1;
    best_marginal_ = 0.0;
    return false;
  }
  decided_ = false;
  recompute_best();
  return true;
}

double ChargerNode::refresh_policy(std::size_t q) {
  const std::span<const model::TaskIndex> tasks = slot_policies_.policy_tasks(q);
  const std::span<const double> energy = slot_policies_.policy_energy(q);
  const auto samples = static_cast<std::size_t>(ledger_->samples());
  const std::size_t* row_col =
      slot_row_col_.data() + static_cast<std::size_t>(slot_policies_.row_offsets[q]);
  double total = 0.0;
  for (std::size_t si = 0; si < stage_samples_.size(); ++si) {
    const int s = stage_samples_[si];
    double inner = 0.0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const std::size_t idx = row_col[t] * samples + static_cast<std::size_t>(s);
      const std::uint64_t version = ledger_->sample_version(s, tasks[t]);
      if (plan_versions_[idx] != version) {
        plan_terms_[idx] = ledger_->row_term(s, tasks[t], energy[t]);
        plan_versions_[idx] = version;
      }
      inner += plan_terms_[idx];
    }
    total += inner;
  }
  return total / static_cast<double>(ledger_->samples());
}

void ChargerNode::recompute_best() {
  best_policy_ = -1;
  best_marginal_ = 0.0;
  const std::optional<double>& previous =
      previous_orientation_[static_cast<std::size_t>(stage_color_)];
  bool best_is_previous = false;
  for (std::size_t q = 0; q < slot_policies_.size(); ++q) {
    PolicyTermCache& cache = stage_cache_[q];
    if (cache.valid) {
      // Lazy partition maxima: energies only grow and utilities are
      // concave, so the last refreshed marginal is an upper bound on the
      // current one. A policy whose bound cannot trigger either acceptance
      // branch below leaves the fold state untouched — skip it without
      // touching its rows.
      const double bound = cache.marginal;
      const bool can_alter =
          best_policy_ < 0
              ? bound > 0.0
              : bound >= best_marginal_ * (1.0 - kTieSlack) - kTieSlack;
      if (!can_alter) continue;
    }
    // Re-sum the shared column chain, re-pricing only the columns whose
    // (task, sample) version moved since they were last priced.
    const double m = refresh_policy(q);
    cache.marginal = m;
    cache.valid = true;
    const bool is_previous =
        previous.has_value() && slot_policies_.orientation[q] == *previous;
    bool better = false;
    if (best_policy_ < 0) {
      better = m > 0.0;
    } else if (m > best_marginal_ * (1.0 + kTieSlack) + kTieSlack) {
      better = true;
    } else if (is_previous && !best_is_previous &&
               m >= best_marginal_ * (1.0 - kTieSlack) - kTieSlack) {
      better = true;  // tie: prefer keeping the current orientation
    }
    if (better) {
      best_policy_ = static_cast<int>(q);
      best_marginal_ = m;
      best_is_previous = is_previous;
    }
  }
}

std::optional<Message> ChargerNode::make_value_message() {
  if (decided_) return std::nullopt;
  Message msg;
  msg.sender = id_;
  msg.slot = stage_slot_;
  msg.color = stage_color_;
  msg.command = Command::kValue;
  msg.marginal = best_policy_ >= 0 ? best_marginal_ : 0.0;
  if (best_policy_ < 0) {
    // Nothing worth selecting: announce zero so neighbors stop waiting, then
    // go passive for this stage.
    decided_ = true;
  }
  return msg;
}

void ChargerNode::receive(const Message& message) {
  switch (message.command) {
    case Command::kHello: {
      const std::int32_t p = neighbor_position(message.sender);
      if (p >= 0) neighbor_tasks_[static_cast<std::size_t>(p)] = message.policy.tasks;
      loaded_slot_ = -1;  // slot participation reads the announcements
      return;
    }
    case Command::kValue: {
      if (message.slot != stage_slot_ || message.color != stage_color_) return;
      const std::int32_t p = neighbor_position(message.sender);
      if (p < 0) return;
      neighbor_value_[static_cast<std::size_t>(p)] = message.marginal;
      neighbor_heard_[static_cast<std::size_t>(p)] = 1;
      if (message.marginal <= 0.0) neighbor_decided_[static_cast<std::size_t>(p)] = 1;
      return;
    }
    case Command::kUpdate: {
      // The tuple is in the ledger already; re-evaluate against it. The
      // stage check matters because UPDATEs always concern the current
      // stage, but be defensive.
      const std::int32_t p = neighbor_position(message.sender);
      if (p >= 0) neighbor_decided_[static_cast<std::size_t>(p)] = 1;
      if (!decided_ && message.slot == stage_slot_ && message.color == stage_color_) {
        recompute_best();
      }
      return;
    }
  }
}

std::optional<Message> ChargerNode::try_commit() {
  if (decided_ || best_policy_ < 0) return std::nullopt;
  for (const std::int32_t p : slot_neighbors_) {
    const auto index = static_cast<std::size_t>(p);
    if (neighbor_decided_[index] != 0) continue;
    if (neighbor_heard_[index] == 0) return std::nullopt;  // not heard yet
    const double theirs = neighbor_value_[index];
    // Tie-break by id: the lower id wins equal marginals.
    if (theirs > best_marginal_ || (theirs == best_marginal_ && neighbors_[index] < id_)) {
      return std::nullopt;
    }
  }

  // Local maximum: commit the S-C tuple.
  return commit_current();
}

std::optional<Message> ChargerNode::force_commit() {
  if (decided_) return std::nullopt;
  decided_ = true;
  if (best_policy_ < 0) return std::nullopt;
  return commit_current();
}

Message ChargerNode::commit_current() {
  const auto best = static_cast<std::size_t>(best_policy_);
  const std::span<const model::TaskIndex> tasks = slot_policies_.policy_tasks(best);
  const std::span<const double> energy = slot_policies_.policy_energy(best);
  const double orientation = slot_policies_.orientation[best];
  // best_marginal_ came from an exactly-refreshed cache (recompute_best runs
  // after every ledger change this node can see), so the realized gain is
  // already known and commit can skip re-evaluating it.
  ledger_->commit_no_gain(id_, stage_slot_, tasks, energy, stage_color_);
  selections_[static_cast<std::size_t>(stage_slot_) *
                  static_cast<std::size_t>(ledger_->colors()) +
              static_cast<std::size_t>(stage_color_)] = orientation;
  previous_orientation_[static_cast<std::size_t>(stage_color_)] = orientation;
  decided_ = true;

  Message msg;
  msg.sender = id_;
  msg.slot = stage_slot_;
  msg.color = stage_color_;
  msg.command = Command::kUpdate;
  msg.marginal = best_marginal_;
  msg.policy.orientation = orientation;
  msg.policy.tasks.assign(tasks.begin(), tasks.end());
  msg.policy.slot_energy.assign(energy.begin(), energy.end());
  return msg;
}

void ChargerNode::write_schedule(model::Schedule& schedule,
                                 model::SlotIndex first_slot) const {
  for (model::SlotIndex k = first_slot; k < schedule.horizon(); ++k) {
    schedule.clear(id_, k);
  }
  if (ledger_ == nullptr) return;  // never planned: nothing selected
  const int colors = ledger_->colors();
  for (model::SlotIndex k = first_slot; k < schedule.horizon(); ++k) {
    const int c = core::MarginalEngine::final_color(ledger_->seed(), id_, k, colors);
    const std::optional<double>& chosen =
        selections_[static_cast<std::size_t>(k) * static_cast<std::size_t>(colors) +
                    static_cast<std::size_t>(c)];
    if (chosen.has_value()) schedule.assign(id_, k, *chosen);
  }
}

}  // namespace haste::dist
