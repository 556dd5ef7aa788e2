// Per-charger state machine of the distributed online algorithm (Alg. 3).
//
// A node plans with purely local knowledge: its own dominant task sets over
// the tasks it has heard of, the coverable-task lists its neighbors announced
// (HELLO messages), the VALUE announcements of undecided neighbors, and the
// UPDATE messages of committed ones. The shared color panel is derived by
// hashing the common seed (see MarginalEngine::panel_color), so no randomness
// is exchanged.
//
// The negotiation for one (slot, color) stage proceeds in synchronous rounds
// driven by the orchestrator (dist/online.cpp):
//   1. every undecided participant broadcasts its best marginal (VALUE);
//   2. a node whose (marginal, id) beats every undecided participating
//      neighbor commits: it adds the S-C tuple locally and broadcasts UPDATE;
//   3. receivers of UPDATE apply the remote commit and recompute.
// Marginals only shrink as commits accumulate (submodularity), so acting on
// a one-round-old neighbor value is safe — exactly the argument the paper
// uses to order the asynchronous executions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/objective.hpp"
#include "dist/protocol.hpp"
#include "model/network.hpp"
#include "model/schedule.hpp"

namespace haste::dist {

/// One charger participating in the distributed negotiation.
class ChargerNode {
 public:
  /// `mode` picks how stage marginals are evaluated: kIncremental keeps a
  /// term cache shared by all stage policies, keyed by (distinct stage task,
  /// relevant sample) and refreshed lazily via the engine's per-(task,
  /// sample) versions — plus per-policy upper bounds for lazy partition
  /// maxima — so a re-negotiation after a remote UPDATE touches only the
  /// dirtied columns of the policies still in contention; kRebuild keeps the
  /// whole-policy marginal cache stamped with the aggregate version sum (the
  /// reference path). The two are bit-identical. `table` is the network's
  /// utility table, shared by every node of a session (null = build one).
  ChargerNode(const model::Network& net, model::ChargerIndex id,
              core::MarginalEngine::Config engine_config,
              core::TabularMode mode = core::TabularMode::kIncremental,
              std::shared_ptr<const core::kernels::UtilityTable> table = nullptr);

  model::ChargerIndex id() const { return id_; }

  /// Starts a new plan over `known_tasks` (the tasks released so far) with
  /// the given per-task already-harvested energies (may be empty = zeros).
  /// Returns the HELLO message announcing this node's coverable tasks.
  Message begin_plan(const std::vector<model::TaskIndex>& known_tasks,
                     std::span<const double> initial_energy);

  /// True if this node can cover at least one known task (otherwise it takes
  /// no part in the negotiation).
  bool has_work() const { return !dominant_.empty(); }

  /// Prepares the (slot, color) stage. Returns true if the node participates
  /// (has at least one policy with active tasks in the slot).
  bool begin_stage(model::SlotIndex slot, int color);

  /// True once this node has committed or gone passive for the stage.
  bool decided() const { return decided_; }

  /// The VALUE broadcast for this round; nullopt once decided. A node whose
  /// best marginal is not positive announces 0 and goes passive.
  std::optional<Message> make_value_message();

  /// Handles a received message (HELLO, VALUE, or UPDATE). An UPDATE is
  /// folded into the local engine straight from the message's spans, with
  /// version tracking limited to the tasks this node can cover.
  void receive(const Message& message);

  /// Attempts to commit; returns the UPDATE broadcast on success.
  std::optional<Message> try_commit();

  /// Commits the current best unconditionally (no neighbor comparison):
  /// the sequential/ordered protocol of Theorem 6.1's proof, where chargers
  /// decide in a fixed global order and only announce. Returns the UPDATE
  /// broadcast, or nullopt when no policy has positive marginal.
  std::optional<Message> force_commit();

  /// Writes this node's sampled selections (final color per slot, hashed
  /// from `seed`) into `schedule` for slots in [first_slot, horizon),
  /// clearing those slots first.
  void write_schedule(model::Schedule& schedule, model::SlotIndex first_slot) const;

  /// The planner's local expected utility estimate (diagnostics).
  double local_expected_value() const;

  /// Speculative pre-provisioning (predictive scheduling): prices the
  /// initial plan-column term of each coverable task in `tasks` at the
  /// zero-harvest base and deposits it into the cross-plan term cache, so a
  /// later begin_plan over those tasks hits the cache instead of paying a
  /// cold row_term. Entries already priced are never overwritten (they are
  /// exact for their own base), and a speculative entry is consulted only
  /// when the task's actual base energy is bitwise 0.0 — a wrong guess
  /// costs nothing but the speculation. Terms are computed through the
  /// network objective, which is bit-identical to the engine's row_term by
  /// the UtilityTable contract, so hits never change schedule bits — only
  /// row_eval counts. No-op under kRebuild (no term cache).
  void prewarm_columns(const std::vector<model::TaskIndex>& tasks);

  /// Evaluation counters of the current plan's engine (zeroed at every
  /// begin_plan, since the engine is rebuilt per plan); all-zero before the
  /// first plan. Lets the online driver charge row_term work to re-plans.
  core::MarginalEngine::Stats engine_stats() const {
    return engine_.has_value() ? engine_->stats() : core::MarginalEngine::Stats{};
  }

 private:
  /// Builds the per-(plan, slot) state that the slot's C color stages share:
  /// the stage policies, their row -> plan-column map, and the neighbors
  /// that take part at the slot.
  void load_slot(model::SlotIndex slot);
  void recompute_best();
  double refresh_policy(std::size_t q);  ///< lazily refreshed marginal (kIncremental)
  Message commit_current();  ///< commits best_policy_ and builds the UPDATE
  /// Position of charger `j` in neighbors_, or -1 when it is no neighbor.
  std::int32_t neighbor_position(model::ChargerIndex j) const {
    return j >= 0 && static_cast<std::size_t>(j) < neighbor_position_.size()
               ? neighbor_position_[static_cast<std::size_t>(j)]
               : -1;
  }

  const model::Network* net_;
  model::ChargerIndex id_;
  core::MarginalEngine::Config engine_config_;
  core::TabularMode mode_;
  std::shared_ptr<const core::kernels::UtilityTable> table_;

  std::vector<core::DominantTaskSet> dominant_;
  std::optional<core::MarginalEngine> engine_;

  // The neighborhood, fixed for the node's life: Network::neighbors(id_) in
  // ascending id order. A neighbor's position p in it indexes every
  // per-neighbor array below.
  std::span<const model::ChargerIndex> neighbors_;
  std::vector<std::int32_t> neighbor_position_;  // [charger] -> p, or -1

  // Per plan: the coverable known tasks each neighbor announced in its HELLO
  // (empty = silent or dead), and this node's own coverable set as a task
  // mask — the only tasks whose engine versions its marginals read.
  std::vector<std::vector<model::TaskIndex>> neighbor_tasks_;  // [p]
  std::vector<std::uint8_t> coverable_;                         // [task]

  // Per (plan, slot), shared by the slot's color stages; loaded_slot_ is the
  // slot they describe (-1: none loaded this plan).
  model::SlotIndex loaded_slot_ = -1;
  core::SlotPolicies slot_policies_;
  std::vector<std::size_t> slot_row_col_;  // [row] -> plan column (kIncremental)
  std::vector<int> slot_colors_;           // [s]: this node's panel color at the slot
  // Positions p of the neighbors with a policy at the slot: a neighbor takes
  // part iff some task it announced is active AND not dropped by the
  // deadline discount (zero tardiness factor = hard-tardy or infeasible),
  // mirroring the row-construction rule in make_slot_policies. Waiting on an
  // `active`-only basis deadlocked the stage on deadline instances — a
  // fully-pruned neighbor never speaks, everyone else kept waiting for its
  // value, and the round cap fired.
  std::vector<std::int32_t> slot_neighbors_;

  // Stage state.
  model::SlotIndex stage_slot_ = 0;
  int stage_color_ = 0;
  // Panel samples whose color at (id_, stage_slot_) matches stage_color_ —
  // the only samples a stage marginal depends on (ascending, so lazy
  // refreshes re-sum in the engine's evaluation order).
  std::vector<int> stage_samples_;
  // Per stage policy: the last exactly-computed marginal. Under kRebuild the
  // value is stamped with the engine's task-version sum at evaluation time
  // (versions only grow and a marginal depends on the engine state only
  // through those tasks' energies, so an unchanged stamp certifies the
  // cached value is exact). Under kIncremental the value doubles as an upper
  // bound for lazy partition maxima (marginals only shrink), and the actual
  // pricing lives in the shared plan columns below.
  struct PolicyTermCache {
    double marginal = 0.0;
    std::uint64_t stamp = 0;
    bool valid = false;
  };
  std::vector<PolicyTermCache> stage_cache_;
  int best_policy_ = -1;
  double best_marginal_ = 0.0;
  bool decided_ = true;
  std::vector<double> neighbor_value_;          // [p]: latest VALUE this stage
  std::vector<std::uint8_t> neighbor_heard_;    // [p]: a VALUE arrived this stage
  std::vector<std::uint8_t> neighbor_decided_;  // [p]: committed or passive

  // kIncremental pricing, shared across policies AND stages of one plan: the
  // per-slot energy a task would receive is orientation- and
  // slot-independent, so every policy of every stage covering task j prices
  // the same utility-delta term. Terms are keyed by (distinct coverable
  // task, sample) — a "column" — and stamped with the engine's (task,
  // sample) version; a term priced in one stage stays fresh for later stages
  // until a commit actually moves that task's utility in that sample, and a
  // remote UPDATE re-prices only the columns it dirtied, once, for all
  // policies at once.
  std::vector<model::TaskIndex> plan_col_task_;  // distinct coverable tasks
  std::vector<double> plan_col_delta_;           // shared per-slot energy per column
  std::vector<std::ptrdiff_t> plan_col_of_;      // [task] -> column, or -1
  std::vector<double> plan_terms_;               // [col * samples + s]
  std::vector<std::uint64_t> plan_versions_;     // same layout as `plan_terms_`

  // Selections Q_i restricted to this node: the orientation committed per
  // (slot, color), at [slot * colors + color].
  std::vector<std::optional<double>> selections_;

  // Last committed orientation per color (switch-avoiding tie-break).
  std::vector<std::optional<double>> previous_orientation_;

  // Cross-plan reuse caches, effective when the same node object serves
  // consecutive re-plans (OnlineConfig::reuse_nodes). Both memoize pure
  // functions, so hitting them is bit-identical to recomputing:
  //   - dominant sets depend only on (net, id, known_tasks);
  //   - a column's initial term row_term(0, task, delta) depends only on the
  //     task's harvested base energy (delta is fixed per column — the
  //     orientation- and slot-independent per-slot energy).
  std::vector<model::TaskIndex> cached_known_;  // known_tasks of dominant_
  bool dominant_cached_ = false;
  std::vector<std::uint64_t> term_cache_base_;  // [task]: bit pattern of base
  std::vector<double> term_cache_term_;         // [task]: cached initial term
  std::vector<char> term_cache_valid_;          // [task]
};

}  // namespace haste::dist
