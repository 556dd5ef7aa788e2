// Per-charger state machine of the distributed online algorithm (Alg. 3),
// and the board its elections run on.
//
// A node plans with purely local knowledge: its own dominant task sets over
// the tasks it has heard of, the coverable-task lists its neighbors announced
// (HELLO), the VALUE announcements of undecided neighbors, and the commits
// (UPDATEs) of decided ones. The shared color panel is derived by hashing the
// common seed (see MarginalEngine::panel_color), so no randomness is
// exchanged.
//
// The negotiation for one (slot, color) stage proceeds in synchronous rounds
// driven by the orchestrator (dist/online.cpp):
//   1. every undecided participant announces its best marginal (VALUE);
//   2. a node whose (marginal, id) beats every undecided participating
//      neighbor commits: it adds the S-C tuple (UPDATE);
//   3. the committers' neighbors mark them decided and re-price.
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
//
// Messages are posted on a Board instead of delivered (DESIGN §3.22). A
// broadcast reaches every alive neighbor of its sender at once, and a
// receiver only ever reads the latest VALUE and the decided flag of each
// neighbor, so one entry per sender serves all its receivers. The Fig. 16
// counters are kept by counting: each broadcast makes as many deliveries as
// its sender has alive neighbors.
//
// A charger whose rows at a slot all belong to tasks saturated in every
// panel sample is dead there (DESIGN §3.23): each of its stage marginals is
// exactly +0.0, so it would announce a VALUE of 0 in the stage's first round
// and go passive. It is neither loaded nor priced, and its VALUEs are only
// counted.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/objective.hpp"
#include "model/network.hpp"
#include "model/schedule.hpp"

namespace haste::dist {

/// Wire size of one control message msg(ID, TIM, COL, CMD, dF*_i(Q_i),
/// e^{k*}_i) carrying `tasks` task entries: sender(4) + slot(4) + color(2) +
/// command(1) + marginal(8) + orientation(8) + count(2), plus id(4) +
/// energy(8) per entry. A VALUE carries none, an UPDATE its policy's rows,
/// and a HELLO its sender's coverable known tasks.
constexpr std::uint64_t wire_bytes(std::size_t tasks) {
  return 29 + 12 * static_cast<std::uint64_t>(tasks);
}

/// Broadcasts of one plan and what delivering them would cost.
struct Traffic {
  std::uint64_t broadcasts = 0;  ///< HELLO + VALUE + UPDATE
  std::uint64_t deliveries = 0;  ///< per-neighbor receptions
  std::uint64_t bytes = 0;       ///< sum of wire sizes of broadcasts
};

/// What a charger does at one slot of a plan (ChargerNode::load_slot).
enum class SlotState {
  kIdle,  ///< no policy at the slot: takes no part
  kDead,  ///< every row's task is saturated: announces 0, prices nothing
  kLive,  ///< prices the slot's policies in its C color stages
};

/// The medium of one plan over the chargers alive for it: which chargers
/// take part in the loaded slot's elections, and per stage each one's latest
/// VALUE and whether it is decided.
class Board {
 public:
  /// One packed entry per charger. A stamp equal to the board's stage means
  /// "this stage", so opening a stage resets nothing.
  struct Entry {
    double value = 0.0;          ///< latest VALUE
    std::uint32_t heard = 0;     ///< stage of that VALUE
    std::uint32_t decided = 0;   ///< stage in which the charger decided
  };

  Board(const model::Network& net, const std::vector<bool>& alive);

  /// Counts one broadcast from `sender` carrying `tasks` task entries.
  void count(model::ChargerIndex sender, std::size_t tasks);
  const Traffic& traffic() const { return traffic_; }

  /// Opens the next slot: no charger is enlisted in it yet.
  void open_slot() { ++slot_; }
  /// Enlists `charger` in the open slot's elections: its neighbors wait for
  /// its VALUE or decision. Only a charger that loaded the slot may be.
  void enlist(model::ChargerIndex charger) {
    enlisted_[static_cast<std::size_t>(charger)] = slot_;
  }
  bool enlisted(model::ChargerIndex charger) const {
    return enlisted_[static_cast<std::size_t>(charger)] == slot_;
  }

  /// Opens the next (slot, color) stage.
  void next_stage() { ++stage_; }
  std::uint32_t stage() const { return stage_; }

  /// VALUE of `sender` for this stage; a non-positive one also decides it
  /// (a passive node).
  void post_value(model::ChargerIndex sender, double marginal) {
    Entry& entry = entries_[static_cast<std::size_t>(sender)];
    entry.value = marginal;
    entry.heard = stage_;
    if (marginal <= 0.0) entry.decided = stage_;
  }
  /// `sender`'s UPDATE arrived: it is decided for the rest of the stage.
  void post_decided(model::ChargerIndex sender) {
    entries_[static_cast<std::size_t>(sender)].decided = stage_;
  }
  const Entry& entry(model::ChargerIndex charger) const {
    return entries_[static_cast<std::size_t>(charger)];
  }

 private:
  std::vector<std::uint32_t> alive_degree_;  // [charger]: alive neighbors
  std::vector<std::uint32_t> enlisted_;      // [charger]: slot of its enlistment
  std::vector<Entry> entries_;               // [charger]
  std::uint32_t slot_ = 0;
  std::uint32_t stage_ = 0;
  Traffic traffic_;
};

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
  /// has to outlive the plan. Returns the node's HELLO, the known tasks it
  /// can cover, valid until the next load_slot.
  std::span<const model::TaskIndex> begin_plan(const std::vector<model::TaskIndex>& known_tasks,
                                               core::MarginalEngine& ledger);

  /// True if this node can cover at least one known task (otherwise it takes
  /// no part in the negotiation).
  bool has_work() const { return !dominant_.empty(); }

  /// Decides what the node does at `slot` against the ledger as it stands,
  /// and leaves the node decided. Idle: none of its dominant-set tasks is
  /// active there with a non-zero tardiness factor (the row rule of
  /// make_slot_policies), so it has no policy. Dead: every such task is
  /// saturated in every sample (MarginalEngine::saturated); nothing is
  /// loaded. Live: loads the policies its C color stages share, and prices
  /// only the rows whose task is not saturated, since a saturated row only
  /// adds +0.0 to a fold whose partial sums are never -0.0. Commits and
  /// UPDATEs keep every row. This is the one place that tells the three
  /// apart.
  SlotState load_slot(model::SlotIndex slot);

  /// Lists the neighbors enlisted on `board` (opened at the same slot): the
  /// ones whose VALUE or decision try_commit waits for.
  void list_slot_neighbors(const Board& board);

  /// Starts the stage of `color` at the loaded slot, where the node must
  /// take part, and prices it. A dead node prices nothing and announces 0.
  void begin_stage(int color);

  /// True once this node has committed or gone passive for the stage.
  bool decided() const { return decided_; }

  /// The marginal this round's VALUE announces. A node whose best marginal
  /// is not positive announces 0 and goes passive.
  double value();

  /// Commits if this node's VALUE beats the VALUE of every undecided slot
  /// neighbor on `board` (the lower id wins equal marginals). Returns true
  /// when it committed, i.e. broadcasts an UPDATE.
  bool try_commit(const Board& board);

  /// Re-prices the stage after neighbors committed into the ledger. Once
  /// per round is exact however many of them committed (DESIGN §3.22).
  void reprice();

  /// Commits the current best unconditionally (no neighbor comparison):
  /// the sequential/ordered protocol of Theorem 6.1's proof, where chargers
  /// decide in a fixed global order and only announce. Returns true when it
  /// committed, false when no policy has a positive marginal.
  bool force_commit();

  /// The UPDATE of this stage's commit: the committed policy's rows and
  /// marginal. Valid until the next begin_stage or load_slot.
  struct Update {
    double marginal = 0.0;
    double orientation = 0.0;
    std::span<const model::TaskIndex> tasks;
    std::span<const double> slot_energy;
  };
  Update last_update() const;

  /// Writes this node's sampled selections (final color per slot, hashed
  /// from `seed`) into `schedule` for slots in [first_slot, horizon),
  /// clearing those slots first.
  void write_schedule(model::Schedule& schedule, model::SlotIndex first_slot) const;

 private:
  double refresh_policy(std::size_t q);  ///< lazily refreshed marginal
  void commit_current();                 ///< commits best_policy_ to the ledger

  const model::Network* net_;
  model::ChargerIndex id_;

  std::vector<core::DominantTaskSet> dominant_;
  std::vector<model::TaskIndex> row_tasks_;  // distinct tasks of dominant_, ascending
  core::MarginalEngine* ledger_ = nullptr;   // the current plan's, see begin_plan

  // The neighborhood, fixed for the node's life: Network::neighbors(id_) in
  // ascending id order.
  std::span<const model::ChargerIndex> neighbors_;

  // Per (plan, slot), shared by the slot's color stages; loaded_slot_ is the
  // slot they describe (-1: none loaded this plan). The policies are empty
  // unless the slot is live.
  model::SlotIndex loaded_slot_ = -1;
  core::SlotPolicies slot_policies_;
  // The priced rows, those whose task was not saturated at load: policy q's
  // plan columns are [priced_offsets_[q], priced_offsets_[q + 1]) of
  // priced_cols_, in row order. A column names its (task, delta).
  std::vector<std::int32_t> priced_offsets_;
  std::vector<std::int32_t> priced_cols_;
  // The neighbors enlisted at the slot (ascending ids).
  std::vector<model::ChargerIndex> slot_neighbors_;

  // This node's panel colors, hashed once per session: [slot * S + s] is its
  // color in sample s at the slot, -1 until the slot is first loaded. `panel_`
  // is the (colors, samples, seed) they were hashed for.
  std::vector<int> panel_colors_;
  core::MarginalEngine::Config panel_{0, 0, 0};

  // Stage state.
  int stage_color_ = 0;
  // Panel samples whose color at (id_, loaded_slot_) matches stage_color_ —
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
