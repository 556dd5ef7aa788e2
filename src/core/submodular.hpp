// Generic submodular-maximization framework.
//
// The production schedulers use the incremental MarginalEngine; this header
// provides the *reference* machinery the test suite uses to validate them:
// a set-function interface, a slow-but-obviously-correct HASTE-R objective
// (RP2), reference locally-greedy / exhaustive maximizers over partition
// ground sets, and property checkers for monotonicity and submodularity
// (Definition 4.2 / Lemma 4.2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/matroid.hpp"
#include "core/objective.hpp"
#include "util/rng.hpp"

namespace haste::core {

/// A real-valued set function over a dense ground set 0..n-1.
class SetFunction {
 public:
  virtual ~SetFunction() = default;
  /// f(S); `set` holds distinct element ids, order irrelevant.
  virtual double value(std::span<const ElementId> set) const = 0;
  /// Ground set size.
  virtual std::size_t ground_size() const = 0;

  /// A stack-disciplined incremental evaluator: push/pop elements and read
  /// f(current set) without paying a from-scratch evaluation per query. pop()
  /// restores the pre-push state exactly (bit-for-bit), so probing an
  /// element and backing out is side-effect free.
  class Incremental {
   public:
    virtual ~Incremental() = default;
    virtual void push(ElementId e) = 0;  ///< add e to the current set
    virtual void pop() = 0;              ///< remove the most recently pushed element
    virtual double value() const = 0;    ///< f(current set)
  };

  /// Returns an evaluator over the initially empty set. The default
  /// evaluates from scratch on every value() call (no worse than the naive
  /// loop); objectives with incremental structure override it.
  virtual std::unique_ptr<Incremental> incremental() const;
};

/// The HASTE-R objective f(X) of RP2 computed from scratch: element ids index
/// the flattened (partition, policy) pairs of a PolicyPartition vector.
class HasteRObjective final : public SetFunction {
 public:
  HasteRObjective(const model::Network& net, std::span<const PolicyPartition> partitions);

  double value(std::span<const ElementId> set) const override;
  std::size_t ground_size() const override { return element_partition_.size(); }

  /// O(|policy tasks|) push/pop via per-task accumulated energy — the same
  /// incremental scheme as the production MarginalEngine.
  std::unique_ptr<Incremental> incremental() const override;

  /// Partition index (into the PolicyPartition vector) of an element.
  std::int32_t partition_of(ElementId e) const { return element_partition_[static_cast<std::size_t>(e)]; }

  /// The (task, energy) rows of the policy an element denotes.
  kernels::RowView rows_of(ElementId e) const;

  /// Elements grouped by partition, in partition order.
  const std::vector<std::vector<ElementId>>& elements_by_partition() const {
    return elements_;
  }

  /// The matching partition matroid (capacity 1 per partition) — Lemma 4.1.
  PartitionMatroid matroid() const;

 private:
  const model::Network* net_;
  std::span<const PolicyPartition> partitions_;
  std::vector<std::int32_t> element_partition_;
  std::vector<std::int32_t> element_policy_;
  std::vector<std::vector<ElementId>> elements_;
};

/// Reference locally-greedy: visits partitions in order, adding the element
/// with the best marginal (ties -> lowest id, skip if best marginal <= 0).
/// Returns the chosen set. This is TabularGreedy with C = 1. Oracle calls go
/// through f.incremental(), so each probe costs O(|policy tasks|) for the
/// HASTE-R objective instead of a from-scratch evaluation.
std::vector<ElementId> locally_greedy(const SetFunction& f,
                                      const std::vector<std::vector<ElementId>>& partitions);

/// Reference exhaustive maximizer over "pick at most one element per
/// partition" — exponential; tiny inputs only. Returns the best set.
/// Also driven through f.incremental(): the search tree pushes and pops
/// elements instead of re-evaluating each leaf from scratch.
std::vector<ElementId> maximize_exhaustive(const SetFunction& f,
                                           const std::vector<std::vector<ElementId>>& partitions);

/// Property check: f(A + e) >= f(A) on `trials` random (A, e) pairs.
/// Returns the largest violation found (<= tolerance means pass).
double max_monotonicity_violation(const SetFunction& f, util::Rng& rng, int trials);

/// Property check: diminishing returns f(A+e) - f(A) >= f(B+e) - f(B) for
/// random A subset-of B, e outside B. Returns the largest violation found.
double max_submodularity_violation(const SetFunction& f, util::Rng& rng, int trials);

}  // namespace haste::core
