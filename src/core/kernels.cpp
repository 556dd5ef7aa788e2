#include "core/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "model/utility.hpp"

namespace haste::core::kernels {

namespace {

// Shape ops, templated so row_terms dispatches on the shape kind once per
// batch instead of once per row. Each operator() is the exact floating-point
// expression of the corresponding UtilityShape::value — same operations,
// same special-case ordering — which is what keeps kernel marginals
// bit-identical to the scalar definition. Do not "simplify": e.g. folding
// Sqrt's r <= 0 guard into std::min would turn sqrt(negative) into NaN and
// std::min(1.0, NaN) into 1.0, silently changing results for depleted rows.

struct LinearShapeOp {
  double operator()(double r) const { return std::clamp(r, 0.0, 1.0); }
};

struct SqrtShapeOp {
  double operator()(double r) const {
    if (r <= 0.0) return 0.0;
    return std::min(1.0, std::sqrt(r));
  }
};

struct LogShapeOp {
  double k;
  double norm;
  double operator()(double r) const {
    if (r <= 0.0) return 0.0;
    if (r >= 1.0) return 1.0;
    return std::log1p(k * r) / norm;
  }
};

// Virtual-dispatch fallback for shapes the table cannot describe (kCustom).
struct CustomShapeOp {
  const model::UtilityShape* shape;
  double operator()(double r) const { return shape->value(r); }
};

// The per-row delta term: w * shape((e + d) / E) - w * shape(e / E). The
// two weighted utilities are formed exactly as Network::weighted_task_utility
// does (weight * shape(ratio)), subtracted in the scalar definition's order.
template <typename ShapeOp>
inline double term_for(const ShapeOp& op, double weight, double required,
                       double energy, double delta) {
  const double before = weight * op(energy / required);
  const double after = weight * op((energy + delta) / required);
  return after - before;
}

template <typename ShapeOp>
void row_terms_impl(const ShapeOp& op, const UtilityTable& table,
                    const double* energy, const RowView& rows, double* out) {
  const std::size_t n = rows.size();
  const model::TaskIndex* tasks = rows.tasks.data();
  const double* delta = rows.delta.data();
  if (!rows.weight.empty()) {
    // Pre-gathered weight/required columns (a partition's column index):
    // the loop body is one indexed gather (energy) plus contiguous loads,
    // which the compiler can unroll and vectorize around the division.
    const double* weight = rows.weight.data();
    const double* required = rows.required.data();
    for (std::size_t t = 0; t < n; ++t) {
      out[t] = term_for(op, weight[t], required[t],
                        energy[static_cast<std::size_t>(tasks[t])], delta[t]);
    }
  } else {
    const double* tw = table.weight.data();
    const double* tr = table.required.data();
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t j = static_cast<std::size_t>(tasks[t]);
      out[t] = term_for(op, tw[j], tr[j], energy[j], delta[t]);
    }
  }
}

// The panel sweep (see row_terms_panel). With `kSaturates` (false for
// kCustom) a saturated column's term is written as +0.0 without pricing, and
// a sample keeps its term row only when one of its columns is live.
template <bool kSaturates, typename ShapeOp>
std::size_t row_terms_panel_impl(const ShapeOp& op, const double* energy,
                                 std::size_t stride, std::span<const int> samples,
                                 const RowView& rows, double* out) {
  const std::size_t n = rows.size();
  const model::TaskIndex* tasks = rows.tasks.data();
  const double* delta = rows.delta.data();
  const double* weight = rows.weight.data();
  const double* required = rows.required.data();
  std::size_t kept = 0;
  for (const int s : samples) {
    const double* e = energy + static_cast<std::size_t>(s) * stride;
    double* terms = out + kept * n;
    bool live = !kSaturates;
    for (std::size_t t = 0; t < n; ++t) {
      const double x = e[static_cast<std::size_t>(tasks[t])];
      if (kSaturates && x >= required[t]) {
        terms[t] = 0.0;
        continue;
      }
      terms[t] = term_for(op, weight[t], required[t], x, delta[t]);
      live = true;
    }
    if (live) ++kept;
  }
  return kept;
}

}  // namespace

UtilityTable UtilityTable::from(const model::Network& net) {
  UtilityTable table;
  const model::UtilityShape& shape = net.utility_shape();
  table.kind = shape.kind();
  table.shape = &shape;
  if (table.kind == model::UtilityShapeKind::kLog) {
    const auto& log_shape = static_cast<const model::LogBoundedShape&>(shape);
    table.log_k = log_shape.curvature();
    table.log_norm = log_shape.norm();
  }
  const auto& tasks = net.tasks();
  table.weight.reserve(tasks.size());
  table.required.reserve(tasks.size());
  for (const auto& task : tasks) {
    table.weight.push_back(task.weight);
    table.required.push_back(task.required_energy);
  }
  return table;
}

double UtilityTable::weighted_utility(model::TaskIndex j, double x) const {
  const std::size_t idx = static_cast<std::size_t>(j);
  const double r = x / required[idx];
  double value;
  switch (kind) {
    case model::UtilityShapeKind::kLinear:
      value = LinearShapeOp{}(r);
      break;
    case model::UtilityShapeKind::kSqrt:
      value = SqrtShapeOp{}(r);
      break;
    case model::UtilityShapeKind::kLog:
      value = LogShapeOp{log_k, log_norm}(r);
      break;
    default:
      value = shape->value(r);
      break;
  }
  return weight[idx] * value;
}

void row_terms(const UtilityTable& table, const double* energy, const RowView& rows,
               double* out) {
  switch (table.kind) {
    case model::UtilityShapeKind::kLinear:
      row_terms_impl(LinearShapeOp{}, table, energy, rows, out);
      break;
    case model::UtilityShapeKind::kSqrt:
      row_terms_impl(SqrtShapeOp{}, table, energy, rows, out);
      break;
    case model::UtilityShapeKind::kLog:
      row_terms_impl(LogShapeOp{table.log_k, table.log_norm}, table, energy, rows,
                     out);
      break;
    default:
      row_terms_impl(CustomShapeOp{table.shape}, table, energy, rows, out);
      break;
  }
}

std::size_t row_terms_panel(const UtilityTable& table, const double* energy,
                            std::size_t stride, std::span<const int> samples,
                            const RowView& rows, double* out) {
  switch (table.kind) {
    case model::UtilityShapeKind::kLinear:
      return row_terms_panel_impl<true>(LinearShapeOp{}, energy, stride, samples, rows,
                                        out);
    case model::UtilityShapeKind::kSqrt:
      return row_terms_panel_impl<true>(SqrtShapeOp{}, energy, stride, samples, rows,
                                        out);
    case model::UtilityShapeKind::kLog:
      return row_terms_panel_impl<true>(LogShapeOp{table.log_k, table.log_norm}, energy,
                                        stride, samples, rows, out);
    default:
      return row_terms_panel_impl<false>(CustomShapeOp{table.shape}, energy, stride,
                                         samples, rows, out);
  }
}

double row_term_sum(const UtilityTable& table, const double* energy,
                    const RowView& rows) {
  // Compute wide, reduce in order: terms are evaluated block-wise through the
  // vectorizable kernel, then accumulated strictly sequentially so the fold
  // matches the scalar definition's left-to-right summation bit for bit. The
  // block buffer lives on the stack because marginals run concurrently from
  // util::parallel_for — the engine must stay free of shared scratch.
  constexpr std::size_t kBlock = 128;
  double terms[kBlock];
  double sum = 0.0;
  const std::size_t n = rows.size();
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t count = std::min(kBlock, n - base);
    row_terms(table, energy, rows.subview(base, count), terms);
    for (std::size_t t = 0; t < count; ++t) sum += terms[t];
  }
  return sum;
}

}  // namespace haste::core::kernels
