#include "dist/node.hpp"

#include <algorithm>
#include <bit>

namespace haste::dist {

namespace {

constexpr double kTieSlack = 1e-12;

}  // namespace

Board::Board(const model::Network& net, const std::vector<bool>& alive) {
  const auto n = static_cast<std::size_t>(net.charger_count());
  alive_degree_.assign(n, 0);
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    for (const model::ChargerIndex j : net.neighbors(i)) {
      if (alive[static_cast<std::size_t>(j)]) ++alive_degree_[static_cast<std::size_t>(i)];
    }
  }
  enlisted_.assign(n, 0);
  entries_.assign(n, Entry{});
}

void Board::count(model::ChargerIndex sender, std::size_t tasks) {
  ++traffic_.broadcasts;
  traffic_.deliveries += alive_degree_[static_cast<std::size_t>(sender)];
  traffic_.bytes += wire_bytes(tasks);
}

ChargerNode::ChargerNode(const model::Network& net, model::ChargerIndex id)
    : net_(&net), id_(id), neighbors_(net.neighbors(id)) {
  const auto m = static_cast<std::size_t>(net.task_count());
  term_cache_base_.assign(m, 0);
  term_cache_term_.assign(m, 0.0);
  term_cache_valid_.assign(m, 0);
}

std::span<const model::TaskIndex> ChargerNode::begin_plan(
    const std::vector<model::TaskIndex>& known_tasks, core::MarginalEngine& ledger) {
  // Dominant sets are a pure function of (net, id, known_tasks); consecutive
  // re-plans of a reused node usually extend `known_tasks` (recompute) but
  // failure-triggered re-plans repeat it verbatim (hit).
  if (!dominant_cached_ || cached_known_ != known_tasks) {
    dominant_ = core::extract_dominant_sets(*net_, id_, known_tasks);
    cached_known_ = known_tasks;
    dominant_cached_ = true;
    row_tasks_.clear();
    for (const core::DominantTaskSet& set : dominant_) {
      row_tasks_.insert(row_tasks_.end(), set.tasks.begin(), set.tasks.end());
    }
    std::sort(row_tasks_.begin(), row_tasks_.end());
    row_tasks_.erase(std::unique(row_tasks_.begin(), row_tasks_.end()), row_tasks_.end());
  }
  ledger_ = &ledger;
  const auto colors = static_cast<std::size_t>(ledger.colors());
  const auto samples = static_cast<std::size_t>(ledger.samples());
  selections_.assign(static_cast<std::size_t>(net_->horizon()) * colors, std::nullopt);
  loaded_slot_ = -1;
  previous_orientation_.assign(colors, std::nullopt);
  if (panel_.colors != ledger.colors() || panel_.samples != ledger.samples() ||
      panel_.seed != ledger.seed()) {
    panel_ = {ledger.colors(), ledger.samples(), ledger.seed()};
    panel_colors_.assign(static_cast<std::size_t>(net_->horizon()) * samples, -1);
  }

  // Plan-level column cache: one column per coverable known task (the
  // HELLO), shared by every policy of every stage (the per-slot energy is
  // orientation- and slot-independent). All samples share the initial
  // energies, so one row_term per column is exact for the whole panel
  // (replication), and version 0 matches the ledger's untouched counters.
  plan_col_task_.clear();
  plan_col_delta_.clear();
  plan_col_of_.assign(static_cast<std::size_t>(net_->task_count()), -1);
  for (const model::TaskIndex j : known_tasks) {
    const double p = net_->potential_power(id_, j);
    if (p > 0.0) {
      plan_col_of_[static_cast<std::size_t>(j)] =
          static_cast<std::ptrdiff_t>(plan_col_task_.size());
      plan_col_task_.push_back(j);
      plan_col_delta_.push_back(p * net_->time().slot_seconds);
    }
  }
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
  return plan_col_task_;
}

SlotState ChargerNode::load_slot(model::SlotIndex slot) {
  decided_ = true;
  loaded_slot_ = slot;
  slot_policies_.clear();
  bool participates = false;
  bool live = false;
  for (const model::TaskIndex j : row_tasks_) {
    if (!net_->tasks()[static_cast<std::size_t>(j)].active(slot) ||
        net_->tardiness_factor(j, slot) == 0.0) {
      continue;
    }
    participates = true;
    if (!ledger_->saturated(j)) {
      live = true;
      break;
    }
  }
  if (!live) return participates ? SlotState::kDead : SlotState::kIdle;

  core::make_slot_policies(*net_, id_, dominant_, slot, slot_policies_);
  const auto samples = static_cast<std::size_t>(ledger_->samples());
  int* colors = panel_colors_.data() + static_cast<std::size_t>(slot) * samples;
  if (colors[0] < 0) {
    for (int s = 0; s < ledger_->samples(); ++s) {
      colors[s] = core::MarginalEngine::panel_color(ledger_->seed(), s, id_, slot,
                                                    ledger_->colors());
    }
  }
  // The priced rows and their plan columns. Dominant-set tasks are always in
  // the HELLO coverable set, but register stragglers defensively with
  // never-priced stamps (ledger versions can be anything by now).
  priced_offsets_.assign(1, 0);
  priced_cols_.clear();
  for (std::size_t q = 0; q < slot_policies_.size(); ++q) {
    const auto tasks = slot_policies_.policy_tasks(q);
    const auto energy = slot_policies_.policy_energy(q);
    for (std::size_t row = 0; row < tasks.size(); ++row) {
      const model::TaskIndex task = tasks[row];
      if (ledger_->saturated(task)) continue;
      const double delta = energy[row];
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
      priced_cols_.push_back(static_cast<std::int32_t>(col));
    }
    priced_offsets_.push_back(static_cast<std::int32_t>(priced_cols_.size()));
  }
  return SlotState::kLive;
}

void ChargerNode::list_slot_neighbors(const Board& board) {
  slot_neighbors_.clear();
  for (const model::ChargerIndex j : neighbors_) {
    if (board.enlisted(j)) slot_neighbors_.push_back(j);
  }
}

void ChargerNode::begin_stage(int color) {
  stage_color_ = color;
  stage_cache_.assign(slot_policies_.size(), PolicyTermCache{});
  stage_samples_.clear();
  const auto samples = static_cast<std::size_t>(ledger_->samples());
  const int* colors = panel_colors_.data() + static_cast<std::size_t>(loaded_slot_) * samples;
  for (int s = 0; s < ledger_->samples(); ++s) {
    if (colors[s] == color) stage_samples_.push_back(s);
  }
  decided_ = false;
  reprice();
}

double ChargerNode::refresh_policy(std::size_t q) {
  const auto samples = static_cast<std::size_t>(ledger_->samples());
  const std::int32_t* first = priced_cols_.data() + priced_offsets_[q];
  const std::int32_t* last = priced_cols_.data() + priced_offsets_[q + 1];
  double total = 0.0;
  for (std::size_t si = 0; si < stage_samples_.size(); ++si) {
    const int s = stage_samples_[si];
    double inner = 0.0;
    for (const std::int32_t* col = first; col != last; ++col) {
      const auto c = static_cast<std::size_t>(*col);
      const model::TaskIndex task = plan_col_task_[c];
      const std::size_t idx = c * samples + static_cast<std::size_t>(s);
      const std::uint64_t version = ledger_->sample_version(s, task);
      if (plan_versions_[idx] != version) {
        plan_terms_[idx] = ledger_->row_term(s, task, plan_col_delta_[c]);
        plan_versions_[idx] = version;
      }
      inner += plan_terms_[idx];
    }
    total += inner;
  }
  return total / static_cast<double>(ledger_->samples());
}

void ChargerNode::reprice() {
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

double ChargerNode::value() {
  if (best_policy_ >= 0) return best_marginal_;
  // Nothing worth selecting: announce zero so neighbors stop waiting, then
  // go passive for this stage.
  decided_ = true;
  return 0.0;
}

bool ChargerNode::try_commit(const Board& board) {
  if (decided_ || best_policy_ < 0) return false;
  for (const model::ChargerIndex j : slot_neighbors_) {
    const Board::Entry& entry = board.entry(j);
    if (entry.decided == board.stage()) continue;
    if (entry.heard != board.stage()) return false;  // not heard yet
    // Tie-break by id: the lower id wins equal marginals.
    if (entry.value > best_marginal_ || (entry.value == best_marginal_ && j < id_)) {
      return false;
    }
  }
  // Local maximum: commit the S-C tuple.
  commit_current();
  return true;
}

bool ChargerNode::force_commit() {
  if (decided_) return false;
  decided_ = true;
  if (best_policy_ < 0) return false;
  commit_current();
  return true;
}

void ChargerNode::commit_current() {
  const auto best = static_cast<std::size_t>(best_policy_);
  const double orientation = slot_policies_.orientation[best];
  // best_marginal_ came from an exactly-refreshed cache (reprice runs after
  // every ledger change this node can see), so the realized gain is
  // already known and commit can skip re-evaluating it.
  ledger_->commit_no_gain(id_, loaded_slot_, slot_policies_.policy_tasks(best),
                          slot_policies_.policy_energy(best), stage_color_);
  selections_[static_cast<std::size_t>(loaded_slot_) *
                  static_cast<std::size_t>(ledger_->colors()) +
              static_cast<std::size_t>(stage_color_)] = orientation;
  previous_orientation_[static_cast<std::size_t>(stage_color_)] = orientation;
  decided_ = true;
}

ChargerNode::Update ChargerNode::last_update() const {
  const auto best = static_cast<std::size_t>(best_policy_);
  return {best_marginal_, slot_policies_.orientation[best], slot_policies_.policy_tasks(best),
          slot_policies_.policy_energy(best)};
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
