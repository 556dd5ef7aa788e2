#include "oracle/global_greedy.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>

#include "oracle/pricing.hpp"

namespace haste::oracle {

namespace {

/// Policy `policy` of partition `partition`; ids follow (partition, policy)
/// order, as in the library.
struct Element {
  std::int32_t partition;
  std::int32_t policy;
};

/// The library's heap order: gain, then the earliest deadline, then the
/// lower element id. `stamp` is the commit count the gain was priced at.
struct HeapEntry {
  double bound;
  model::SlotIndex urgency;
  std::int32_t element;
  std::uint64_t stamp = 0;

  bool operator<(const HeapEntry& other) const {
    if (bound != other.bound) return bound < other.bound;
    if (urgency != other.urgency) return urgency > other.urgency;
    return element > other.element;
  }
};

/// Eager evaluation re-prices every popped entry; lazy evaluation re-prices
/// only entries priced before the last commit, as the library does.
core::GlobalGreedyResult global_greedy(const model::Network& net,
                                       const std::vector<core::PolicyPartition>& partitions,
                                       std::span<const double> initial_energy, bool lazy,
                                       const EvaluationProbe& probe) {
  core::MarginalEngine ledger(net, core::MarginalEngine::Config{1, 1, 1}, initial_energy);
  ScalarPricing pricing(net);
  core::GlobalGreedyResult result;
  result.schedule = model::Schedule(net.charger_count(), net.horizon());

  std::vector<Element> elements;
  std::vector<model::SlotIndex> urgency;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (std::size_t q = 0; q < partitions[p].policies.size(); ++q) {
      elements.push_back(
          Element{static_cast<std::int32_t>(p), static_cast<std::int32_t>(q)});
      model::SlotIndex earliest = model::Task::kNoDeadline;
      if (net.has_deadlines()) {
        for (model::TaskIndex j : partitions[p].policy_tasks(q)) {
          earliest = std::min(earliest, net.tasks()[static_cast<std::size_t>(j)].deadline_slot);
        }
      }
      urgency.push_back(earliest);
    }
  }

  const auto evaluate = [&](std::int32_t e) {
    const Element& el = elements[static_cast<std::size_t>(e)];
    const core::PolicyPartition& partition = partitions[static_cast<std::size_t>(el.partition)];
    const auto q = static_cast<std::size_t>(el.policy);
    const double gain = pricing.marginal(ledger, partition.charger, partition.slot,
                                         partition.policy_tasks(q), partition.policy_energy(q), 0);
    if (probe) probe(ledger, partition, q, gain);
    return gain;
  };

  std::priority_queue<HeapEntry> heap;
  for (std::size_t e = 0; e < elements.size(); ++e) {
    const auto id = static_cast<std::int32_t>(e);
    heap.push(HeapEntry{evaluate(id), urgency[e], id, 0});
  }

  std::vector<bool> partition_filled(partitions.size(), false);
  std::uint64_t commits = 0;
  while (!heap.empty()) {
    HeapEntry top = heap.top();
    heap.pop();
    const Element& el = elements[static_cast<std::size_t>(top.element)];
    if (partition_filled[static_cast<std::size_t>(el.partition)]) continue;
    if (top.bound <= 0.0) break;
    if (lazy) {
      if (top.stamp != commits) {
        top.bound = evaluate(top.element);
        top.stamp = commits;
        if (top.bound <= 0.0) continue;
        // An entry that no longer beats the heap top waits its turn; one
        // that still does would pop straight back, so it commits now.
        if (!heap.empty() && !(heap.top() < top)) {
          heap.push(top);
          continue;
        }
      }
    } else {
      const double fresh = evaluate(top.element);
      if (fresh + 1e-15 < top.bound) {
        top.bound = fresh;
        if (fresh > 0.0) heap.push(top);
        continue;
      }
      if (fresh <= 0.0) continue;
    }
    const core::PolicyPartition& partition = partitions[static_cast<std::size_t>(el.partition)];
    const auto q = static_cast<std::size_t>(el.policy);
    ledger.commit_no_gain(partition.charger, partition.slot, partition.policy_tasks(q),
                          partition.policy_energy(q), 0);
    result.schedule.assign(partition.charger, partition.slot,
                           partition.policies[q].orientation);
    partition_filled[static_cast<std::size_t>(el.partition)] = true;
    ++commits;
  }
  result.planned_relaxed_utility = pricing.expected_value(ledger);
  result.evaluations = pricing.marginals();
  return result;
}

}  // namespace

core::GlobalGreedyResult eager_global_greedy(
    const model::Network& net, const std::vector<core::PolicyPartition>& partitions,
    std::span<const double> initial_energy, const EvaluationProbe& probe) {
  return global_greedy(net, partitions, initial_energy, /*lazy=*/false, probe);
}

core::GlobalGreedyResult lazy_global_greedy(
    const model::Network& net, const std::vector<core::PolicyPartition>& partitions,
    std::span<const double> initial_energy, const EvaluationProbe& probe) {
  return global_greedy(net, partitions, initial_energy, /*lazy=*/true, probe);
}

core::GlobalGreedyResult eager_global_greedy(const model::Network& net) {
  return eager_global_greedy(net, core::build_partitions(net));
}

}  // namespace haste::oracle
