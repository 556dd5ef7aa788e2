#include "core/submodular.hpp"

#include <algorithm>
#include <stdexcept>

namespace haste::core {

namespace {

/// Fallback incremental evaluator: keeps the element stack and evaluates
/// from scratch on every value() query — identical cost to the historical
/// call pattern, for set functions without incremental structure.
class ScratchIncremental final : public SetFunction::Incremental {
 public:
  explicit ScratchIncremental(const SetFunction& f) : f_(&f) {}

  void push(ElementId e) override { stack_.push_back(e); }
  void pop() override { stack_.pop_back(); }
  double value() const override { return f_->value(stack_); }

 private:
  const SetFunction* f_;
  std::vector<ElementId> stack_;
};

/// Incremental HASTE-R evaluator: per-task accumulated energy plus the
/// running objective value, updated in O(|policy tasks|) per push. Undo
/// records store the exact pre-push energies and value, so pop() restores
/// the previous state bit-for-bit (no floating-point drift from reversing
/// additions).
class HasteRIncremental final : public SetFunction::Incremental {
 public:
  HasteRIncremental(const model::Network& net, const HasteRObjective& f)
      : net_(&net), f_(&f), energy_(static_cast<std::size_t>(net.task_count()), 0.0) {
    // Match the from-scratch evaluation of the empty set (utilities need not
    // vanish at zero energy for every shape).
    for (std::size_t j = 0; j < energy_.size(); ++j) {
      value_ += net_->weighted_task_utility(static_cast<model::TaskIndex>(j), 0.0);
    }
  }

  void push(ElementId e) override {
    const kernels::RowView rows = f_->rows_of(e);
    Undo undo;
    undo.value = value_;
    undo.rows.reserve(rows.size());
    for (std::size_t t = 0; t < rows.size(); ++t) {
      const auto j = static_cast<std::size_t>(rows.tasks[t]);
      undo.rows.push_back({rows.tasks[t], energy_[j]});
      const double after = energy_[j] + rows.delta[t];
      value_ += net_->weighted_task_utility(rows.tasks[t], after) -
                net_->weighted_task_utility(rows.tasks[t], energy_[j]);
      energy_[j] = after;
    }
    undo_.push_back(std::move(undo));
  }

  void pop() override {
    const Undo& undo = undo_.back();
    for (const auto& [task, previous] : undo.rows) {
      energy_[static_cast<std::size_t>(task)] = previous;
    }
    value_ = undo.value;
    undo_.pop_back();
  }

  double value() const override { return value_; }

 private:
  struct Undo {
    double value = 0.0;
    std::vector<std::pair<model::TaskIndex, double>> rows;
  };

  const model::Network* net_;
  const HasteRObjective* f_;
  std::vector<double> energy_;
  double value_ = 0.0;
  std::vector<Undo> undo_;
};

}  // namespace

std::unique_ptr<SetFunction::Incremental> SetFunction::incremental() const {
  return std::make_unique<ScratchIncremental>(*this);
}

HasteRObjective::HasteRObjective(const model::Network& net,
                                 std::span<const PolicyPartition> partitions)
    : net_(&net), partitions_(partitions) {
  elements_.resize(partitions.size());
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (std::size_t q = 0; q < partitions[p].policies.size(); ++q) {
      const auto id = static_cast<ElementId>(element_partition_.size());
      element_partition_.push_back(static_cast<std::int32_t>(p));
      element_policy_.push_back(static_cast<std::int32_t>(q));
      elements_[p].push_back(id);
    }
  }
}

kernels::RowView HasteRObjective::rows_of(ElementId e) const {
  const auto p = static_cast<std::size_t>(element_partition_.at(static_cast<std::size_t>(e)));
  const auto q = static_cast<std::size_t>(element_policy_[static_cast<std::size_t>(e)]);
  return partitions_[p].policy_rows(q);
}

double HasteRObjective::value(std::span<const ElementId> set) const {
  // Accumulate relaxed energy per task, then apply the utility. Elements in
  // the same partition both count (the set function is defined on the whole
  // ground set; the matroid constraint is handled by the maximizers).
  std::vector<double> energy(static_cast<std::size_t>(net_->task_count()), 0.0);
  for (ElementId e : set) {
    const kernels::RowView rows = rows_of(e);
    for (std::size_t t = 0; t < rows.size(); ++t) {
      energy[static_cast<std::size_t>(rows.tasks[t])] += rows.delta[t];
    }
  }
  double total = 0.0;
  for (std::size_t j = 0; j < energy.size(); ++j) {
    total += net_->weighted_task_utility(static_cast<model::TaskIndex>(j), energy[j]);
  }
  return total;
}

PartitionMatroid HasteRObjective::matroid() const {
  return PartitionMatroid::unit(element_partition_);
}

std::unique_ptr<SetFunction::Incremental> HasteRObjective::incremental() const {
  return std::make_unique<HasteRIncremental>(*net_, *this);
}

std::vector<ElementId> locally_greedy(const SetFunction& f,
                                      const std::vector<std::vector<ElementId>>& partitions) {
  std::vector<ElementId> chosen;
  const std::unique_ptr<SetFunction::Incremental> inc = f.incremental();
  double current = inc->value();
  for (const auto& partition : partitions) {
    ElementId best = -1;
    double best_value = current;
    for (ElementId e : partition) {
      inc->push(e);
      const double candidate = inc->value();
      inc->pop();
      if (candidate > best_value + 1e-15) {
        best_value = candidate;
        best = e;
      }
    }
    if (best >= 0) {
      inc->push(best);
      chosen.push_back(best);
      current = best_value;
    }
  }
  return chosen;
}

std::vector<ElementId> maximize_exhaustive(const SetFunction& f,
                                           const std::vector<std::vector<ElementId>>& partitions) {
  const std::unique_ptr<SetFunction::Incremental> inc = f.incremental();
  std::vector<ElementId> best;
  double best_value = inc->value();
  std::vector<ElementId> current;

  const std::function<void(std::size_t)> recurse = [&](std::size_t p) {
    if (p == partitions.size()) {
      const double v = inc->value();
      if (v > best_value) {
        best_value = v;
        best = current;
      }
      return;
    }
    recurse(p + 1);  // skip this partition
    for (ElementId e : partitions[p]) {
      current.push_back(e);
      inc->push(e);
      recurse(p + 1);
      inc->pop();
      current.pop_back();
    }
  };
  recurse(0);
  return best;
}

namespace {

/// Draws a random subset of the ground set with inclusion probability `p`.
std::vector<ElementId> random_subset(std::size_t ground, double p, util::Rng& rng) {
  std::vector<ElementId> set;
  for (std::size_t e = 0; e < ground; ++e) {
    if (rng.uniform() < p) set.push_back(static_cast<ElementId>(e));
  }
  return set;
}

}  // namespace

double max_monotonicity_violation(const SetFunction& f, util::Rng& rng, int trials) {
  const std::size_t ground = f.ground_size();
  if (ground == 0) return 0.0;
  double worst = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::vector<ElementId> a = random_subset(ground, rng.uniform(0.0, 0.8), rng);
    const auto e = static_cast<ElementId>(rng.uniform_index(ground));
    if (std::find(a.begin(), a.end(), e) != a.end()) continue;
    const double before = f.value(a);
    a.push_back(e);
    const double after = f.value(a);
    worst = std::max(worst, before - after);
  }
  return worst;
}

double max_submodularity_violation(const SetFunction& f, util::Rng& rng, int trials) {
  const std::size_t ground = f.ground_size();
  if (ground == 0) return 0.0;
  double worst = 0.0;
  for (int t = 0; t < trials; ++t) {
    // A subset of B: draw B, then thin it to get A.
    std::vector<ElementId> b = random_subset(ground, rng.uniform(0.2, 0.9), rng);
    std::vector<ElementId> a;
    for (ElementId e : b) {
      if (rng.uniform() < 0.5) a.push_back(e);
    }
    const auto e = static_cast<ElementId>(rng.uniform_index(ground));
    if (std::find(b.begin(), b.end(), e) != b.end()) continue;
    const double fa = f.value(a);
    const double fb = f.value(b);
    a.push_back(e);
    b.push_back(e);
    const double fae = f.value(a);
    const double fbe = f.value(b);
    worst = std::max(worst, (fbe - fb) - (fae - fa));
  }
  return worst;
}

}  // namespace haste::core
