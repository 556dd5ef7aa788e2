// Data-oriented kernels for the marginal-engine hot path.
//
// BENCH_micro shows row evaluation — the per-(row, sample) utility delta
// summed over a policy's CSR rows — is the cost driver of both schedulers at
// every instance scale. The scalar path pays, per row, two virtual
// UtilityShape::value dispatches, two bounds-checked Task loads, and a
// double-indirect weight/required fetch. This module restructures that work
// as SoA:
//
//  * UtilityTable — the network's per-task utility columns (weight, required
//    energy) plus the shape id, so a weighted utility is a division, a
//    shape-specific clamp, and a multiply on contiguous arrays.
//  * RowView — one batch of policy rows in SoA form: parallel (task, delta)
//    columns, optionally extended with per-row (weight, required) columns
//    gathered once at build_partitions (a partition's deduplicated columns)
//    so the hot loop performs a single indexed gather (the current energy)
//    instead of three.
//  * row_terms / row_term_sum — the batched alpha/(d+beta)^2-fed power-law
//    utility-delta kernel: evaluate every row of a policy (or every column
//    of a partition cache) in one flat, branch-light loop the compiler can
//    auto-vectorize, then fold in row order.
//
// Bit-identity contract: every kernel performs, per element, exactly the
// floating-point operations of the scalar reference in the same order
//
//   w * shape((e + delta) / E) - w * shape(e / E)
//
// and row_term_sum accumulates terms strictly in row order (terms are
// *computed* in blocks, but *summed* sequentially), so a kernel-path marginal
// equals the scalar-path marginal bit for bit. That is the invariant every
// differential suite enforces, and it is what lets schedules stay identical
// with the kernels on or off (util::kernels_enabled()).
#pragma once

#include <span>
#include <vector>

#include "model/network.hpp"

namespace haste::core::kernels {

/// SoA view of a network's per-task utility parameters.
struct UtilityTable {
  model::UtilityShapeKind kind = model::UtilityShapeKind::kCustom;
  double log_k = 0.0;    ///< LogBoundedShape curvature (kind == kLog)
  double log_norm = 1.0; ///< LogBoundedShape normalization (kind == kLog)
  std::vector<double> weight;    ///< per task: utility weight
  std::vector<double> required;  ///< per task: required energy E_j
  const model::UtilityShape* shape = nullptr;  ///< fallback for kCustom

  // Deadline columns (scenario diversity: deadline-driven tasks). Rows are
  // discounted at partition-construction time, so the marginal kernels above
  // never touch these; they exist so batch builders can price a whole row
  // batch's tardiness factors in one flat sweep (tardiness_factors below).
  model::DeadlinePolicy deadline_policy;
  bool has_deadlines = false;                ///< Network::has_deadlines()
  std::vector<model::SlotIndex> deadline;    ///< per task; kNoDeadline if free
  std::vector<std::uint8_t> infeasible;      ///< per task: hard-mode pruned

  /// Builds the columns from the network (one gather per task).
  static UtilityTable from(const model::Network& net);

  /// True when the shape is a built-in and rows evaluate without virtual
  /// dispatch.
  bool fast() const { return kind != model::UtilityShapeKind::kCustom; }

  /// Weighted utility of task `j` at energy `x`; bit-identical to
  /// Network::weighted_task_utility(j, x).
  double weighted_utility(model::TaskIndex j, double x) const;

  /// Deadline discount of task `j` in slot `k`; bit-identical to
  /// Network::tardiness_factor(j, k) (both reduce to
  /// model::DeadlinePolicy::slot_factor on the same inputs).
  double tardiness_factor(model::TaskIndex j, model::SlotIndex k) const {
    if (!has_deadlines) return 1.0;
    const std::size_t idx = static_cast<std::size_t>(j);
    if (infeasible[idx] != 0) return 0.0;
    return deadline_policy.slot_factor(k, deadline[idx]);
  }
};

/// One batch of policy rows in SoA form. `weight`/`required` are either
/// empty (the kernels gather them from the UtilityTable by task id) or
/// parallel to `tasks` (the pre-gathered column index of a PolicyPartition —
/// one fewer gather per row in the hot loop).
struct RowView {
  std::span<const model::TaskIndex> tasks;
  std::span<const double> delta;     ///< per row: energy added this slot (J)
  std::span<const double> weight;    ///< optional per-row task weight
  std::span<const double> required;  ///< optional per-row required energy

  std::size_t size() const { return tasks.size(); }
  RowView subview(std::size_t offset, std::size_t count) const {
    return RowView{tasks.subspan(offset, count), delta.subspan(offset, count),
                   weight.empty() ? weight : weight.subspan(offset, count),
                   required.empty() ? required : required.subspan(offset, count)};
  }
};

/// Batched utility-delta kernel: out[t] = u(j_t, e[j_t] + delta_t) -
/// u(j_t, e[j_t]) for every row, where u is the table's weighted utility and
/// `energy` is a per-task accumulation array (one engine sample). Terms are
/// independent, so this is the vectorizable part of a marginal.
void row_terms(const UtilityTable& table, const double* energy, const RowView& rows,
               double* out);

/// Sum of the row terms accumulated strictly in row order — the engine's
/// evaluation order — with the term computation batched block-wise. This is
/// the whole-policy gain in one sample, bit-identical to the scalar fold.
double row_term_sum(const UtilityTable& table, const double* energy,
                    const RowView& rows);

/// Row terms of one row batch under several energy samples in one call:
/// out[i * rows.size() + t] is the term of row t against panel sample
/// samples[i], where sample s's per-task energies start at
/// energy + s * stride. Each sample's sweep is exactly row_terms — one shape
/// dispatch for the whole panel instead of one per sample.
void row_terms_panel(const UtilityTable& table, const double* energy,
                     std::size_t stride, std::span<const int> samples,
                     const RowView& rows, double* out);

/// Batched deadline discounts: out[t] = table.tardiness_factor(tasks[t], k)
/// for every row — one flat sweep over the SoA deadline columns. The
/// partition builders instead test `k >= deadline` per row and call
/// DeadlinePolicy::slot_factor only on binding rows (the common all-inert
/// case must price nothing); this batched form stays for consumers that
/// want a whole row batch per slot, and is pinned bit-equal to the scalar
/// Network::tardiness_factor by the deadline test battery.
void tardiness_factors(const UtilityTable& table,
                       std::span<const model::TaskIndex> tasks, model::SlotIndex k,
                       double* out);

}  // namespace haste::core::kernels
