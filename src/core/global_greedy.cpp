#include "core/global_greedy.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace haste::core {

namespace {

/// One element of the flattened ground set: policy `policy` of partition
/// `partition`. Element ids are assigned in (partition, policy) lexicographic
/// order, so comparing ids reproduces the historical tie order.
struct Element {
  std::int32_t partition;
  std::int32_t policy;
};

/// Heap entry: a cached gain for one element. `stamp` is the number of
/// commits made when the gain was evaluated; an entry whose stamp is older
/// than the current count holds only an upper bound (see header). `urgency` is the
/// element's earliest task deadline (Task::kNoDeadline without deadlines), a
/// static per-element property used only to break exact gain ties.
struct HeapEntry {
  double bound;
  model::SlotIndex urgency;
  std::int32_t element;
  std::uint64_t stamp;

  bool operator<(const HeapEntry& other) const {
    if (bound != other.bound) return bound < other.bound;
    // EDF-biased tie order: among equal gains, the element serving the most
    // urgent deadline wins. On a deadline-free instance every urgency is the
    // kNoDeadline sentinel, so this clause is inert and the historical order
    // is preserved.
    if (urgency != other.urgency) return urgency > other.urgency;
    // Deterministic final tie order: the lower element id — i.e. the lower
    // (partition, policy) pair — wins.
    return element > other.element;
  }
};

}  // namespace

GlobalGreedyResult schedule_global_greedy_over(
    const model::Network& net, const std::vector<PolicyPartition>& partitions,
    std::span<const double> initial_energy) {
  MarginalEngine engine(net, MarginalEngine::Config{1, 1, 1}, initial_energy);
  GlobalGreedyResult result;
  result.schedule = model::Schedule(net.charger_count(), net.horizon());

  // Flatten the ground set.
  std::vector<Element> elements;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (std::size_t q = 0; q < partitions[p].policies.size(); ++q) {
      elements.push_back(
          Element{static_cast<std::int32_t>(p), static_cast<std::int32_t>(q)});
    }
  }

  // Per-element urgency for the EDF tie-break: the earliest deadline among
  // the policy's tasks. Static (deadlines never move), so computed once.
  std::vector<model::SlotIndex> urgency(elements.size(), model::Task::kNoDeadline);
  if (net.has_deadlines()) {
    for (std::size_t e = 0; e < elements.size(); ++e) {
      const Element& el = elements[e];
      const PolicyPartition& partition =
          partitions[static_cast<std::size_t>(el.partition)];
      for (model::TaskIndex j : partition.policy_tasks(static_cast<std::size_t>(el.policy))) {
        urgency[e] = std::min(urgency[e],
                              net.tasks()[static_cast<std::size_t>(j)].deadline_slot);
      }
    }
  }

  const auto evaluate = [&](std::int32_t e) {
    const Element& el = elements[static_cast<std::size_t>(e)];
    const PolicyPartition& partition = partitions[static_cast<std::size_t>(el.partition)];
    const auto q = static_cast<std::size_t>(el.policy);
    return engine.marginal(partition.charger, partition.slot, partition.policy_rows(q), 0);
  };

  // Initial heap build: before the first commit every marginal is independent
  // of the others, so evaluate them in parallel and heapify sequentially
  // (the comparator is a strict total order, so pop order is deterministic
  // regardless of construction order).
  std::vector<double> initial_gain(elements.size());
  util::parallel_for(elements.size(), [&](std::size_t e) {
    initial_gain[e] = evaluate(static_cast<std::int32_t>(e));
  });
  result.evaluations += elements.size();

  std::priority_queue<HeapEntry> heap;
  for (std::size_t e = 0; e < elements.size(); ++e) {
    heap.push(HeapEntry{initial_gain[e], urgency[e], static_cast<std::int32_t>(e), 0});
  }

  std::vector<bool> partition_filled(partitions.size(), false);
  std::uint64_t commit_stamp = 0;

  while (!heap.empty()) {
    HeapEntry top = heap.top();
    heap.pop();
    const Element& el = elements[static_cast<std::size_t>(top.element)];
    if (partition_filled[static_cast<std::size_t>(el.partition)]) continue;
    if (top.bound <= 0.0) break;  // nothing positive remains (bounds only shrink)

    if (top.stamp != commit_stamp) {
      // Stale epoch: refresh. By submodularity the fresh value is at most
      // the stale bound, so the heap order stays sound.
      ++result.evaluations;
      top.bound = evaluate(top.element);
      top.stamp = commit_stamp;
      if (top.bound <= 0.0) continue;
      // Nothing commits between a re-queue and the next pop, so an entry
      // that still strictly beats the new heap top (same comparator, ids
      // break ties) would pop straight back: commit it now instead.
      if (!heap.empty() && !(heap.top() < top)) {
        heap.push(top);
        continue;
      }
    }

    const PolicyPartition& partition = partitions[static_cast<std::size_t>(el.partition)];
    const auto q = static_cast<std::size_t>(el.policy);
    engine.commit(partition.charger, partition.slot, partition.policy_tasks(q),
                  partition.policy_energy(q), 0);
    result.schedule.assign(partition.charger, partition.slot,
                           partition.policies[q].orientation);
    partition_filled[static_cast<std::size_t>(el.partition)] = true;
    ++commit_stamp;
  }

  result.planned_relaxed_utility = engine.expected_value();
  // Same registry mirror as the offline scheduler: greedy's row-eval effort
  // was previously invisible to profiles unless the caller plumbed
  // GlobalGreedyResult through by hand.
  const MarginalEngine::Stats stats = engine.stats();
  HASTE_OBS_COUNTER_ADD("greedy.row_evals", stats.row_terms);
  HASTE_OBS_COUNTER_ADD("greedy.marginal_evals", stats.marginals);
  HASTE_OBS_COUNTER_ADD("greedy.commits", stats.commits);
  HASTE_OBS_COUNTER_ADD("greedy.schedules", 1);
  return result;
}

GlobalGreedyResult schedule_global_greedy(const model::Network& net) {
  return schedule_global_greedy_over(net, build_partitions(net), {});
}

}  // namespace haste::core
