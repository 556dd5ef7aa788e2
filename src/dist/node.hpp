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
//      neighbor commits: it adds the S-C tuple and broadcasts UPDATE;
//   3. receivers of UPDATE mark the sender decided and recompute.
// Marginals only shrink as commits accumulate (submodularity), so acting on
// a one-round-old neighbor value is safe — exactly the argument the paper
// uses to order the asynchronous executions.
//
// Every node of a plan prices against one shared energy ledger (a
// MarginalEngine owned by the caller), and commit_current is its only
// writer. That is exact, not an approximation of per-node views: a node
// prices only tasks it can cover, every charger that covers such a task is
// its neighbor, and two neighbors never commit in the same round (nor two
// chargers in the same token turn), so for each of those tasks the ledger
// holds exactly the commits the node made or heard of in UPDATEs, summed in
// the same order a private copy would sum them.
#pragma once

#include <cstdint>
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
  /// Stage marginals are priced through a term cache shared by all stage
  /// policies, keyed by (distinct stage task, relevant sample) and refreshed
  /// lazily via the ledger's per-(task, sample) versions, plus per-policy
  /// upper bounds for lazy partition maxima. A re-negotiation after a remote
  /// UPDATE therefore touches only the dirtied columns of the policies still
  /// in contention, and every marginal is exact.
  ChargerNode(const model::Network& net, model::ChargerIndex id);

  model::ChargerIndex id() const { return id_; }

  /// Starts a new plan over `known_tasks` (the tasks released so far),
  /// pricing against `ledger`: the plan's shared energy state, holding the
  /// already-harvested energies and no commits yet. The node reads and
  /// commits to it until write_schedule and never after, so the ledger only
  /// has to outlive the plan. Returns the HELLO message announcing this
  /// node's coverable tasks.
  Message begin_plan(const std::vector<model::TaskIndex>& known_tasks,
                     core::MarginalEngine& ledger);

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

  /// Handles a received message (HELLO, VALUE, or UPDATE). The committer
  /// already applied an UPDATE's tuple to the ledger, so receiving one only
  /// marks the sender decided and re-prices the stage.
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

 private:
  /// Builds the per-(plan, slot) state that the slot's C color stages share:
  /// the stage policies, their row -> plan-column map, and the neighbors
  /// that take part at the slot.
  void load_slot(model::SlotIndex slot);
  void recompute_best();
  double refresh_policy(std::size_t q);  ///< lazily refreshed marginal
  Message commit_current();  ///< commits best_policy_ and builds the UPDATE
  /// Position of charger `j` in neighbors_, or -1 when it is no neighbor.
  std::int32_t neighbor_position(model::ChargerIndex j) const {
    return j >= 0 && static_cast<std::size_t>(j) < neighbor_position_.size()
               ? neighbor_position_[static_cast<std::size_t>(j)]
               : -1;
  }

  const model::Network* net_;
  model::ChargerIndex id_;

  std::vector<core::DominantTaskSet> dominant_;
  core::MarginalEngine* ledger_ = nullptr;  // the current plan's, see begin_plan

  // The neighborhood, fixed for the node's life: Network::neighbors(id_) in
  // ascending id order. A neighbor's position p in it indexes every
  // per-neighbor array below.
  std::span<const model::ChargerIndex> neighbors_;
  std::vector<std::int32_t> neighbor_position_;  // [charger] -> p, or -1

  // Per plan: the coverable known tasks each neighbor announced in its HELLO
  // (empty = silent or dead).
  std::vector<std::vector<model::TaskIndex>> neighbor_tasks_;  // [p]

  // Per (plan, slot), shared by the slot's color stages; loaded_slot_ is the
  // slot they describe (-1: none loaded this plan).
  model::SlotIndex loaded_slot_ = -1;
  core::SlotPolicies slot_policies_;
  std::vector<std::size_t> slot_row_col_;  // [row] -> plan column
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
  // refreshes re-sum in the ledger's evaluation order).
  std::vector<int> stage_samples_;
  // Per stage policy: the last exactly-computed marginal. It doubles as an
  // upper bound for lazy partition maxima (marginals only shrink); the
  // actual pricing lives in the shared plan columns below.
  struct PolicyTermCache {
    double marginal = 0.0;
    bool valid = false;
  };
  std::vector<PolicyTermCache> stage_cache_;
  int best_policy_ = -1;
  double best_marginal_ = 0.0;
  bool decided_ = true;
  std::vector<double> neighbor_value_;          // [p]: latest VALUE this stage
  std::vector<std::uint8_t> neighbor_heard_;    // [p]: a VALUE arrived this stage
  std::vector<std::uint8_t> neighbor_decided_;  // [p]: committed or passive

  // Column pricing, shared across policies AND stages of one plan: the
  // per-slot energy a task would receive is orientation- and
  // slot-independent, so every policy of every stage covering task j prices
  // the same utility-delta term. Terms are keyed by (distinct coverable
  // task, sample) — a "column" — and stamped with the ledger's (task,
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

  // Cross-plan caches: the session keeps each node across re-plans. Both
  // memoize pure functions, so hitting them is bit-identical to recomputing:
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
