// The HASTE-R objective machinery:
//
//  * PolicyPartition — the ground set of RP2: for each (charger, slot), the
//    scheduling policies derived from the charger's dominant task sets,
//    restricted to the tasks active in that slot.
//  * MarginalEngine — an incremental oracle for the expected charging utility
//    after S-C tuple sampling, F(Q) = E_c[f(sample_c(Q))]. The expectation
//    over colorings is estimated with a fixed panel of sampled color vectors
//    (common random numbers), so marginals are consistent across greedy steps
//    and the whole algorithm is deterministic given the seed. With C = 1 the
//    panel is a single trivial sample and the engine computes f exactly.
//
// Color vectors are derived by hashing (seed, sample, charger, slot) rather
// than drawn from a shared stream: distributed nodes can therefore agree on
// the panel without exchanging any randomness (see dist/online).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dominant_sets.hpp"
#include "core/kernels.hpp"
#include "model/network.hpp"

namespace haste::core {

/// One scheduling policy as a self-contained value: a dominant task set
/// restricted to the tasks active in one slot. This is the payload the
/// distributed negotiation ships in its HELLO/UPDATE messages; the offline
/// ground set keeps its rows in the partition's CSR arrays instead.
struct Policy {
  double orientation = 0.0;
  std::vector<model::TaskIndex> tasks;  ///< active covered tasks, sorted
  std::vector<double> slot_energy;      ///< per task: P_r(s_i, o_j) * T_s (J)
};

/// One policy of a partition: the witness orientation of its dominant task
/// set. Its (task, energy) rows are the partition's CSR range for it.
struct PartitionPolicy {
  double orientation = 0.0;
};

/// The partition Theta_{i,k}: all policies of charger `charger` at `slot`.
///
/// Every policy's (task, energy) rows are stored once, in one CSR-style flat
/// layout, so the evaluation loops walk contiguous memory. All arrays of a
/// partition (its body) sit in one immutable allocation owned by `body`;
/// the array members are read-only views into it. A charger's active rows
/// change only at slots where a covered row is released or ends, or sits at
/// or past its deadline, so build_partitions builds a body only at those
/// slots and every other slot's partition shares the previous slot's body.
/// Copying a partition copies the pointer and the views, never the rows.
struct PolicyPartition {
  model::ChargerIndex charger = 0;
  model::SlotIndex slot = 0;
  std::shared_ptr<const std::byte[]> body;    ///< owns every array below
  std::span<const PartitionPolicy> policies;  ///< one entry per policy

  // CSR rows over all policies: policy q's rows live at
  // [row_offsets[q], row_offsets[q + 1]) of flat_tasks / flat_energy.
  std::span<const std::int32_t> row_offsets;
  std::span<const model::TaskIndex> flat_tasks;  ///< ascending within a policy
  std::span<const double> flat_energy;           ///< per row: P_r(s_i, o_j) * T_s (J)
  // Partition-local column index. Within a partition every row of the same
  // task carries the same energy delta — potential_power(i, j) *
  // slot_seconds, times the slot's tardiness factor, does not depend on the
  // policy — so the flat rows collapse to the partition's distinct
  // (task, delta) columns. flat_col maps each flat row to its column; the
  // col_* arrays are the deduplicated SoA columns with each task's weight
  // and required energy gathered once. partition_marginals prices the (2-3x
  // smaller) column set once per sample and gathers per policy;
  // bit-identical because rows sharing a column have identical inputs and
  // therefore identical terms.
  std::span<const std::int32_t> flat_col;
  std::span<const model::TaskIndex> col_task;
  std::span<const double> col_delta;
  std::span<const double> col_weight;
  std::span<const double> col_required;

  /// Contiguous (task, energy) rows of policy `q`. Inline: the evaluation
  /// loops call these per candidate, so an out-of-line hop per accessor is
  /// measurable at scale.
  std::span<const model::TaskIndex> policy_tasks(std::size_t q) const {
    const auto begin = static_cast<std::size_t>(row_offsets[q]);
    const auto end = static_cast<std::size_t>(row_offsets[q + 1]);
    return {flat_tasks.data() + begin, end - begin};
  }
  std::span<const double> policy_energy(std::size_t q) const {
    const auto begin = static_cast<std::size_t>(row_offsets[q]);
    const auto end = static_cast<std::size_t>(row_offsets[q + 1]);
    return {flat_energy.data() + begin, end - begin};
  }

  /// Policy `q` as a kernel row batch.
  kernels::RowView policy_rows(std::size_t q) const {
    return kernels::RowView{policy_tasks(q), policy_energy(q), {}, {}};
  }
};

/// Builds the ground set over slots [first_slot, net.horizon()) for all
/// chargers. Dominant sets are computed once per charger from `candidates`
/// (default: every task that covers it) and filtered per slot to active
/// tasks; empty policies, duplicate task sets within a partition, and empty
/// partitions are dropped. Partitions are ordered slot-major (all chargers of
/// slot k before slot k+1), which the schedulers rely on for their
/// switch-avoiding tie-break. A charger's partition shares the body of its
/// previous-slot partition unless, at its slot, one of the charger's covered
/// rows is released or ends, or is at or past its deadline.
std::vector<PolicyPartition> build_partitions(const model::Network& net,
                                              model::SlotIndex first_slot = 0);

/// As above but restricted to the given candidate tasks (online case, where
/// only released tasks are known).
std::vector<PolicyPartition> build_partitions(const model::Network& net,
                                              model::SlotIndex first_slot,
                                              const std::vector<model::TaskIndex>& candidates);

/// The policies of one (charger, slot) in CSR form: policy q's rows are
/// [row_offsets[q], row_offsets[q + 1]) of `tasks`/`energy`. Refilled in
/// place, so a caller that builds slot after slot stops allocating once its
/// buffers are warm.
struct SlotPolicies {
  std::vector<double> orientation;        ///< per policy
  std::vector<std::int32_t> row_offsets;  ///< size() + 1 entries
  std::vector<model::TaskIndex> tasks;    ///< per row, ascending within a policy
  std::vector<double> energy;             ///< per row: P_r(s_i, o_j) * T_s (J)

  std::size_t size() const { return orientation.size(); }
  /// Empties the slot: no policy, and row_offsets holds its one leading 0.
  void clear() {
    orientation.clear();
    row_offsets.assign(1, 0);
    tasks.clear();
    energy.clear();
  }
  std::span<const model::TaskIndex> policy_tasks(std::size_t q) const {
    const auto begin = static_cast<std::size_t>(row_offsets[q]);
    return {tasks.data() + begin, static_cast<std::size_t>(row_offsets[q + 1]) - begin};
  }
  std::span<const double> policy_energy(std::size_t q) const {
    const auto begin = static_cast<std::size_t>(row_offsets[q]);
    return {energy.data() + begin, static_cast<std::size_t>(row_offsets[q + 1]) - begin};
  }
};

/// Filters one charger's dominant sets to the tasks active at `slot` into
/// `out`, deduplicating policies with identical active sets. Exposed for the
/// distributed scheduler, which builds partitions per node, and the
/// per-charger greedy baselines.
void make_slot_policies(const model::Network& net, model::ChargerIndex i,
                        const std::vector<DominantTaskSet>& dominant, model::SlotIndex slot,
                        SlotPolicies& out);

/// Incremental estimator of the expected utility after S-C tuple sampling.
class MarginalEngine {
 public:
  struct Config {
    int colors = 1;        ///< C; 1 degenerates to exact locally-greedy
    int samples = 1;       ///< color-vector panel size S (>= 1); ignored, forced
                           ///< to 1, when colors == 1
    std::uint64_t seed = 1;///< shared randomness seed for the color panel
  };

  /// `initial_energy`, when non-empty, must have one entry per task of the
  /// network: energy already harvested (online re-planning); any other size
  /// throws std::invalid_argument. `table` is the network's SoA utility
  /// table; engines of one online session share one instead of each
  /// building its own (null = build it here).
  MarginalEngine(const model::Network& net, Config config,
                 std::span<const double> initial_energy = {},
                 std::shared_ptr<const kernels::UtilityTable> table = nullptr);

  /// Color assigned to partition (charger i, slot k) in panel sample `s`.
  /// Pure function of (seed, s, i, k) so independent engines agree.
  static int panel_color(std::uint64_t seed, int sample, model::ChargerIndex i,
                         model::SlotIndex k, int colors);

  /// The color c_{i,k} drawn for the final sampling step (line 7-8 of
  /// Algorithm 2); also a pure hash so distributed nodes agree.
  static int final_color(std::uint64_t seed, model::ChargerIndex i, model::SlotIndex k,
                         int colors);

  /// Marginal gain of labeling `policy` of charger `i` at slot `k` with color
  /// `c`: the increase of the panel-averaged utility.
  double marginal(model::ChargerIndex i, model::SlotIndex k, const Policy& policy,
                  int c) const {
    return marginal(i, k, policy.tasks, policy.slot_energy, c);
  }

  /// Span-based core of `marginal`: evaluates one policy given as parallel
  /// (task, energy) rows — e.g. one CSR row range of a PolicyPartition.
  double marginal(model::ChargerIndex i, model::SlotIndex k,
                  std::span<const model::TaskIndex> tasks,
                  std::span<const double> slot_energy, int c) const {
    return marginal(i, k, kernels::RowView{tasks, slot_energy, {}, {}}, c);
  }

  /// RowView core of `marginal`.
  double marginal(model::ChargerIndex i, model::SlotIndex k,
                  const kernels::RowView& rows, int c) const;

  /// Marginals of EVERY policy of `partition` for one color c in one call:
  /// out[q] = marginal(partition.charger, partition.slot, policy q, c), bit
  /// for bit. `matching` lists, ascending, the panel samples s whose
  /// panel_color(seed(), s, partition.charger, partition.slot, colors()) is
  /// c: the offline scheduler visits every partition once per color stage,
  /// so it hashes and groups each panel once up front. This prices the
  /// partition's deduplicated (task, delta) columns across all matching
  /// samples in one panel sweep, then gather-folds each policy's row segment
  /// in row order — same per-policy accumulation order, same counter totals
  /// as the per-policy marginal() loop, a fraction of the per-call overhead
  /// and of the arithmetic. Columns whose task is saturated in a sample are
  /// not priced, and samples without a live column are not folded
  /// (kernels::row_terms_panel); the counters still count them. Returns
  /// false when no column is live in any matching sample: every out[q] is
  /// then +0.0, so no policy has a positive marginal.
  bool partition_marginals(const PolicyPartition& partition, std::span<const int> matching,
                           double* out) const;

  /// Commits the S-C tuple; returns the realized marginal. Every commit form
  /// throws std::out_of_range when `i` is not a charger of the network.
  double commit(model::ChargerIndex i, model::SlotIndex k, const Policy& policy, int c) {
    return commit(i, k, policy.tasks, policy.slot_energy, c);
  }

  /// Span-based core of `commit`.
  double commit(model::ChargerIndex i, model::SlotIndex k,
                std::span<const model::TaskIndex> tasks,
                std::span<const double> slot_energy, int c);

  /// Commit without re-evaluating the realized gain. For callers that
  /// selected the policy on an exact marginal they already hold (the
  /// distributed nodes): the gain commit() would recompute is
  /// bit for bit that value, so only the energy accumulation and the version
  /// bumps remain to be done. Identical state trajectory to commit(), zero
  /// row_term work.
  void commit_no_gain(model::ChargerIndex i, model::SlotIndex k,
                      std::span<const model::TaskIndex> tasks,
                      std::span<const double> slot_energy, int c);

  /// Energy-only commit, for a caller that holds the panel samples matching
  /// the committing (charger, slot, color) and never reads the version
  /// counters (the offline scheduler). `matching` is the list
  /// partition_marginals takes: the rows are added into each of those
  /// samples, with the energy bits commit_no_gain would produce, and the
  /// commit is counted when the list is non-empty. No utility flatness
  /// test, version bump or panel re-hash runs, so once an engine commits this
  /// way its versions no longer certify cached marginals.
  void commit_energy(std::span<const int> matching,
                     std::span<const model::TaskIndex> tasks,
                     std::span<const double> slot_energy);

  /// Current estimate of F(Q) (panel average of the weighted utility).
  double expected_value() const;

  int colors() const { return config_.colors; }
  int samples() const { return config_.samples; }
  std::uint64_t seed() const { return config_.seed; }

  // --- Per-(task, sample) dirty tracking -----------------------------------
  //
  // Every commit that changes a task's *utility in panel sample s* bumps the
  // (task, sample) version counter. A marginal for color c depends on the
  // engine state only through its tasks' utilities in the samples whose color
  // is c, so a cached marginal whose (task, relevant-sample) versions are
  // unchanged is EXACT — not just a submodular upper bound. Commits that only
  // pour energy into saturated tasks bump nothing: utility shapes are concave
  // and non-decreasing, so a task that is flat across one commit stays flat
  // for the rest of the run. The distributed nodes use this to reuse their
  // cached terms across remote commits.

  /// Number of sample-level utility changes of task `j` in sample `s`.
  std::uint64_t sample_version(int s, model::TaskIndex j) const {
    return sample_version_[static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(net_->task_count()) +
                           static_cast<std::size_t>(j)];
  }

  /// Total number of energy-changing commits so far.
  std::uint64_t commit_count() const { return commit_count_; }

  /// Accumulated relaxed energy of task `j` in panel sample `s`.
  double energy(int s, model::TaskIndex j) const {
    return energy_[static_cast<std::size_t>(s) * static_cast<std::size_t>(net_->task_count()) +
                   static_cast<std::size_t>(j)];
  }

  /// True when the shape is a built-in (UtilityTable::fast()) and task `j`
  /// holds at least its required energy E_j in every panel sample. Every
  /// term the task can add is then exactly +0.0 (DESIGN §3.19), and it stays
  /// saturated: energies only grow. The per-task count of such samples is
  /// set from the initial energies and kept by commit_no_gain (and so by
  /// commit); commit_energy leaves it alone, so after an energy-only commit
  /// this can only under-report. Never true for a kCustom shape.
  bool saturated(model::TaskIndex j) const {
    return table_->fast() && saturated_samples_[static_cast<std::size_t>(j)] == config_.samples;
  }

  /// One row of a marginal in sample `s`: the utility delta of task `j` when
  /// `delta` energy is added on top of its current accumulation. Summing
  /// row_term over a policy's rows in row order reproduces `gain_in_sample`
  /// bit for bit, which lets callers cache per-row terms and refresh only the
  /// rows whose task version moved.
  double row_term(int s, model::TaskIndex j, double delta) const;

  /// Evaluation-effort counters, updated by the const oracle methods (thread
  /// safe: the initial panel builds evaluate rows in parallel).
  struct Stats {
    std::uint64_t row_terms = 0;  ///< per-(row, sample) utility-delta evaluations
    std::uint64_t marginals = 0;  ///< full marginal() oracle calls
    std::uint64_t commits = 0;    ///< energy-changing commits
  };
  Stats stats() const {
    return {row_term_count_.load(std::memory_order_relaxed),
            marginal_count_.load(std::memory_order_relaxed), commit_count_};
  }

 private:
  double gain_in_sample(int s, const kernels::RowView& rows) const;

  /// panel_color(seed(), s, i, k, colors()) for every sample s, memoized per
  /// charger: a charger commits in up to C color stages of one slot.
  const int* commit_panel(model::ChargerIndex i, model::SlotIndex k);

  const model::Network* net_;
  Config config_;
  std::shared_ptr<const kernels::UtilityTable> table_;  // SoA utility columns
  // energy_[s * m + j]: accumulated relaxed energy of task j in sample s.
  std::vector<double> energy_;
  std::vector<std::uint64_t> sample_version_;  // [s * m + j] dirty counters
  std::vector<int> saturated_samples_;  // [j]: samples with energy >= E_j, see saturated
  std::uint64_t commit_count_ = 0;
  std::vector<int> panel_colors_;             // [i * S + s], see commit_panel
  std::vector<model::SlotIndex> panel_slot_;  // [i]: slot of panel_colors_, -1 none
  mutable std::atomic<std::uint64_t> row_term_count_{0};
  mutable std::atomic<std::uint64_t> marginal_count_{0};
};

}  // namespace haste::core
