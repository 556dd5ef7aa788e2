// Data-oriented kernels for the marginal-engine hot path.
//
// BENCH_micro shows row evaluation — the per-(row, sample) utility delta
// summed over a policy's CSR rows — is the cost driver of both schedulers at
// every instance scale. Priced through Network::weighted_task_utility, each
// row pays two virtual UtilityShape::value dispatches, two bounds-checked
// Task loads, and a double-indirect weight/required fetch. This module
// restructures that work as SoA:
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
// floating-point operations of the scalar definition in the same order
//
//   w * shape((e + delta) / E) - w * shape(e / E)
//
// and row_term_sum accumulates terms strictly in row order (terms are
// *computed* in blocks, but *summed* sequentially), so a marginal equals the
// fold of Network::weighted_task_utility over the same rows bit for bit.
// That is the invariant every differential suite enforces against the
// scalar pricing oracle in tests/oracle/.
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

  /// Builds the columns from the network (one gather per task).
  static UtilityTable from(const model::Network& net);

  /// True when the shape is a built-in and rows evaluate without virtual
  /// dispatch.
  bool fast() const { return kind != model::UtilityShapeKind::kCustom; }

  /// Weighted utility of task `j` at energy `x`; bit-identical to
  /// Network::weighted_task_utility(j, x).
  double weighted_utility(model::TaskIndex j, double x) const;
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
/// the whole-policy gain in one sample, bit-identical to the row-order fold.
double row_term_sum(const UtilityTable& table, const double* energy,
                    const RowView& rows);

/// Row terms of a partition's column batch (`rows` carries the weight and
/// required columns) under several energy samples, pricing only the live
/// columns. A column whose task's energy in a sample has reached its
/// required energy (energy >= required) is saturated there: with a built-in
/// shape its term is exactly +0.0, since weights, required energies and
/// deltas are finite and non-negative (DESIGN §3.19), so it is written as
/// +0.0 without pricing. kCustom shapes price every column.
///
/// Sample s's per-task energies start at energy + s * stride. Only the
/// samples with a live column (every sample for kCustom) get a term row, in
/// sample order: out[i * rows.size() + t] is column t's term in the i-th
/// such sample. Returns the number of rows written; 0 means every marginal
/// of the batch is +0.0 for these samples.
std::size_t row_terms_panel(const UtilityTable& table, const double* energy,
                            std::size_t stride, std::span<const int> samples,
                            const RowView& rows, double* out);

}  // namespace haste::core::kernels
