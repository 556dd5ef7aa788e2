#include "core/objective.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace haste::core {

void make_slot_policies(const model::Network& net, model::ChargerIndex i,
                        const std::vector<DominantTaskSet>& dominant, model::SlotIndex slot,
                        SlotPolicies& out) {
  const double slot_seconds = net.time().slot_seconds;
  const bool deadlines = net.has_deadlines();
  out.orientation.clear();
  out.tasks.clear();
  out.energy.clear();
  out.row_offsets.assign(1, 0);
  for (const DominantTaskSet& set : dominant) {
    const std::size_t begin = out.tasks.size();
    for (model::TaskIndex j : set.tasks) {
      if (net.tasks()[static_cast<std::size_t>(j)].active(slot)) {
        double energy = net.potential_power(i, j) * slot_seconds;
        if (deadlines) {
          // Deadline discount, applied at row construction so every consumer
          // (greedy, kernels, brute force, the message protocol) prices the
          // same effective energy. A zero factor (hard-tardy or infeasible
          // row) drops the row before it enters the partition; a unit factor
          // skips the multiply so pre-deadline rows stay bit-identical to
          // the deadline-free expression.
          const double factor = net.tardiness_factor(j, slot);
          if (factor == 0.0) continue;
          if (factor != 1.0) energy *= factor;
        }
        out.tasks.push_back(j);
        out.energy.push_back(energy);
      }
    }
    const std::span<const model::TaskIndex> rows(out.tasks.data() + begin,
                                                 out.tasks.size() - begin);
    // Drop empty policies and deduplicate policies whose active task sets
    // coincide (frequent once inactive tasks are dropped); the first witness
    // orientation wins.
    bool keep = !rows.empty();
    for (std::size_t q = 0; keep && q < out.size(); ++q) {
      keep = !std::ranges::equal(out.policy_tasks(q), rows);
    }
    if (!keep) {
      out.tasks.resize(begin);
      out.energy.resize(begin);
      continue;
    }
    out.orientation.push_back(set.orientation);
    out.row_offsets.push_back(static_cast<std::int32_t>(out.tasks.size()));
  }
}

namespace {

/// One partition body under assembly. The buffers stay warm across the whole
/// build; seal() then copies them into the body's single allocation.
struct StagedBody {
  std::vector<PartitionPolicy> policies;
  std::vector<std::int32_t> row_offsets;
  std::vector<model::TaskIndex> flat_tasks;
  std::vector<double> flat_energy;
  std::vector<std::int32_t> flat_col;
  std::vector<model::TaskIndex> col_task;
  std::vector<double> col_delta;
  std::vector<double> col_weight;
  std::vector<double> col_required;

  std::span<const model::TaskIndex> policy_tasks(std::size_t q) const {
    const auto begin = static_cast<std::size_t>(row_offsets[q]);
    return {flat_tasks.data() + begin, static_cast<std::size_t>(row_offsets[q + 1]) - begin};
  }
};

/// Constructs a copy of `from` in the raw storage at `cursor`, advances
/// `cursor` past it, and returns the copy.
template <class T>
std::span<const T> place(std::byte*& cursor, const std::vector<T>& from) {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "a body is released as raw bytes, without running destructors");
  T* first = reinterpret_cast<T*>(cursor);
  std::uninitialized_copy(from.begin(), from.end(), first);
  cursor += from.size() * sizeof(T);
  return {std::launder(first), from.size()};
}

/// Copies `staged` into one immutable allocation that `out.body` owns and
/// points `out`'s array views at the copies.
void seal(const StagedBody& staged, PolicyPartition& out) {
  // The 8-byte element arrays go first and the 4-byte ones after them, so
  // every array starts aligned for its type once the base is, with no
  // padding in between.
  static_assert(alignof(PartitionPolicy) == alignof(double) &&
                sizeof(PartitionPolicy) % alignof(double) == 0);
  static_assert(alignof(model::TaskIndex) == alignof(std::int32_t) &&
                alignof(std::int32_t) <= alignof(double));
  const std::size_t bytes =
      sizeof(PartitionPolicy) * staged.policies.size() +
      sizeof(double) * (staged.flat_energy.size() + staged.col_delta.size() +
                        staged.col_weight.size() + staged.col_required.size()) +
      sizeof(std::int32_t) * (staged.row_offsets.size() + staged.flat_col.size()) +
      sizeof(model::TaskIndex) * (staged.flat_tasks.size() + staged.col_task.size());
  std::size_t space = bytes + alignof(double) - 1;
  auto body = std::make_shared_for_overwrite<std::byte[]>(space);
  void* base = body.get();
  std::align(alignof(double), bytes, base, space);
  auto* cursor = static_cast<std::byte*>(base);
  out.policies = place(cursor, staged.policies);
  out.flat_energy = place(cursor, staged.flat_energy);
  out.col_delta = place(cursor, staged.col_delta);
  out.col_weight = place(cursor, staged.col_weight);
  out.col_required = place(cursor, staged.col_required);
  out.row_offsets = place(cursor, staged.row_offsets);
  out.flat_tasks = place(cursor, staged.flat_tasks);
  out.flat_col = place(cursor, staged.flat_col);
  out.col_task = place(cursor, staged.col_task);
  out.body = std::move(body);
}

std::vector<PolicyPartition> build_partitions_impl(
    const model::Network& net, model::SlotIndex first_slot,
    const std::vector<std::vector<model::TaskIndex>>& candidates_per_charger) {
  const model::ChargerIndex n = net.charger_count();
  const model::SlotIndex horizon = net.horizon();
  const double slot_seconds = net.time().slot_seconds;
  const bool deadlines = net.has_deadlines();
  // A dominant set pre-resolved once per charger: its covered rows with the
  // slot-invariant per-slot energy (the power law is fixed per (charger,
  // task)) and each row's activity window. The slot loop below then only
  // window-filters these rows instead of re-deriving power and activity per
  // (slot, charger, row) the way make_slot_policies does — same policies,
  // bit-identical energies, a fraction of the work. Deadline discounts are
  // slot-dependent and applied inside the slot loop.
  struct ResolvedSet {
    double orientation = 0.0;
    std::vector<model::TaskIndex> tasks;
    std::vector<double> energy;
    std::vector<model::SlotIndex> release;
    std::vector<model::SlotIndex> end;
    // Deadline columns, filled only when the network carries deadlines: the
    // row's deadline_slot (kNoDeadline when free — slot_factor treats that
    // as never binding) with infeasible hard-mode rows pre-collapsed to a
    // deadline of 0 so the slot loop's single `k >= deadline` test covers
    // both "tardy" and "never worth a row".
    std::vector<model::SlotIndex> deadline;
  };
  std::vector<std::vector<ResolvedSet>> resolved(static_cast<std::size_t>(n));
  // rebuild[i * stride + k] != 0: charger i's partition at slot k may differ
  // from its slot k - 1 partition. A filtered row changes only where it is
  // released or ends, and, once at or past its deadline, at every slot (the
  // tardiness factor moves slot by slot). Everywhere else the slot filter
  // below would rebuild the previous body bit for bit, so it is shared.
  const auto stride = static_cast<std::size_t>(horizon) + 1;
  const auto clamp_slot = [&](model::SlotIndex k) {
    return static_cast<std::size_t>(std::clamp<model::SlotIndex>(k, 0, horizon));
  };
  std::vector<std::uint8_t> rebuild(static_cast<std::size_t>(n) * stride, 0);
  for (model::ChargerIndex i = 0; i < n; ++i) {
    const std::vector<DominantTaskSet> dominant =
        extract_dominant_sets(net, i, candidates_per_charger[static_cast<std::size_t>(i)]);
    auto& sets = resolved[static_cast<std::size_t>(i)];
    std::uint8_t* changes = rebuild.data() + static_cast<std::size_t>(i) * stride;
    sets.reserve(dominant.size());
    for (const DominantTaskSet& set : dominant) {
      ResolvedSet rows;
      rows.orientation = set.orientation;
      rows.tasks.reserve(set.tasks.size());
      rows.energy.reserve(set.tasks.size());
      rows.release.reserve(set.tasks.size());
      rows.end.reserve(set.tasks.size());
      if (deadlines) rows.deadline.reserve(set.tasks.size());
      for (model::TaskIndex j : set.tasks) {
        const model::Task& task = net.tasks()[static_cast<std::size_t>(j)];
        rows.tasks.push_back(j);
        rows.energy.push_back(net.potential_power(i, j) * slot_seconds);
        rows.release.push_back(task.release_slot);
        rows.end.push_back(task.end_slot);
        changes[clamp_slot(task.release_slot)] = 1;
        changes[clamp_slot(task.end_slot)] = 1;
        if (deadlines) {
          const model::SlotIndex deadline =
              net.deadline_infeasible(j) ? 0 : task.deadline_slot;
          rows.deadline.push_back(deadline);
          for (std::size_t k = clamp_slot(std::max(deadline, task.release_slot));
               k < clamp_slot(task.end_slot); ++k) {
            changes[k] = 1;
          }
        }
      }
      sets.push_back(std::move(rows));
    }
  }
  const model::DeadlinePolicy& deadline_policy = net.deadline_policy();
  const auto& tasks = net.tasks();
  std::vector<PolicyPartition> partitions;
  partitions.reserve(static_cast<std::size_t>(std::max(horizon - first_slot, 0)) *
                     static_cast<std::size_t>(n));
  // current[i]: charger i's latest partition, re-emitted with its body shared
  // until the charger's rows change; a null body means no policy there.
  std::vector<PolicyPartition> current(static_cast<std::size_t>(n));
  StagedBody staged;
  // task -> its column in the partition being assembled, -1 when none yet;
  // reset column by column after every partition.
  std::vector<std::int32_t> col_of_task(static_cast<std::size_t>(net.task_count()), -1);
  for (model::SlotIndex k = first_slot; k < horizon; ++k) {
    for (model::ChargerIndex i = 0; i < n; ++i) {
      PolicyPartition& partition = current[static_cast<std::size_t>(i)];
      partition.charger = i;
      partition.slot = k;
      if (k > first_slot &&
          rebuild[static_cast<std::size_t>(i) * stride + static_cast<std::size_t>(k)] == 0) {
        if (partition.body != nullptr) partitions.push_back(partition);
        continue;
      }
      staged.policies.clear();
      staged.row_offsets.assign(1, 0);
      staged.flat_tasks.clear();
      staged.flat_energy.clear();
      for (const ResolvedSet& rows : resolved[static_cast<std::size_t>(i)]) {
        const std::size_t begin = staged.flat_tasks.size();
        for (std::size_t r = 0; r < rows.tasks.size(); ++r) {
          if (rows.release[r] <= k && k < rows.end[r]) {
            double energy = rows.energy[r];
            // Same discount rule (and bit pattern) as make_slot_policies:
            // both reduce to DeadlinePolicy::slot_factor, rows.energy holds
            // the undiscounted potential * T_s product, factor == 1 rows
            // reuse it untouched, and factor == 0 rows (hard-tardy or
            // infeasible) never enter the partition. The `k >= deadline`
            // pre-test keeps rows whose deadline never binds — including
            // every row of a deadline-free or inert-deadline instance — on
            // the exact deadline-free fast path: no factor arithmetic at
            // all, just this one comparison.
            if (deadlines && k >= rows.deadline[r]) {
              const double factor = deadline_policy.slot_factor(k, rows.deadline[r]);
              if (factor == 0.0) continue;
              if (factor != 1.0) energy *= factor;
            }
            staged.flat_tasks.push_back(rows.tasks[r]);
            staged.flat_energy.push_back(energy);
          }
        }
        // Same rules as make_slot_policies: drop empty policies, and the
        // first witness orientation wins among policies whose active task
        // sets coincide.
        const std::span<const model::TaskIndex> added(staged.flat_tasks.data() + begin,
                                                      staged.flat_tasks.size() - begin);
        bool keep = !added.empty();
        for (std::size_t q = 0; keep && q < staged.policies.size(); ++q) {
          keep = !std::ranges::equal(staged.policy_tasks(q), added);
        }
        if (!keep) {
          staged.flat_tasks.resize(begin);
          staged.flat_energy.resize(begin);
          continue;
        }
        staged.policies.push_back(PartitionPolicy{rows.orientation});
        staged.row_offsets.push_back(static_cast<std::int32_t>(staged.flat_tasks.size()));
      }
      if (staged.policies.empty()) {
        partition = PolicyPartition{};
        continue;
      }
      // Column index: dedup the rows on exact (task, delta) equality. A row
      // whose delta is NaN never matches and simply gets its own column.
      staged.flat_col.clear();
      staged.col_task.clear();
      staged.col_delta.clear();
      staged.col_weight.clear();
      staged.col_required.clear();
      for (std::size_t t = 0; t < staged.flat_tasks.size(); ++t) {
        const auto j = static_cast<std::size_t>(staged.flat_tasks[t]);
        const double delta = staged.flat_energy[t];
        std::int32_t col = col_of_task[j];
        if (col < 0 || staged.col_delta[static_cast<std::size_t>(col)] != delta) {
          col = static_cast<std::int32_t>(staged.col_task.size());
          col_of_task[j] = col;
          staged.col_task.push_back(staged.flat_tasks[t]);
          staged.col_delta.push_back(delta);
          staged.col_weight.push_back(tasks[j].weight);
          staged.col_required.push_back(tasks[j].required_energy);
        }
        staged.flat_col.push_back(col);
      }
      for (const model::TaskIndex j : staged.col_task) {
        col_of_task[static_cast<std::size_t>(j)] = -1;
      }
      seal(staged, partition);
      partitions.push_back(partition);
    }
  }
  return partitions;
}

}  // namespace

std::vector<PolicyPartition> build_partitions(const model::Network& net,
                                              model::SlotIndex first_slot) {
  std::vector<std::vector<model::TaskIndex>> candidates(
      static_cast<std::size_t>(net.charger_count()));
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    const auto span = net.coverable_tasks(i);
    candidates[static_cast<std::size_t>(i)].assign(span.begin(), span.end());
  }
  return build_partitions_impl(net, first_slot, candidates);
}

std::vector<PolicyPartition> build_partitions(const model::Network& net,
                                              model::SlotIndex first_slot,
                                              const std::vector<model::TaskIndex>& candidates) {
  std::vector<std::vector<model::TaskIndex>> per_charger(
      static_cast<std::size_t>(net.charger_count()));
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    for (model::TaskIndex j : candidates) {
      if (net.potential_power(i, j) > 0.0) {
        per_charger[static_cast<std::size_t>(i)].push_back(j);
      }
    }
  }
  return build_partitions_impl(net, first_slot, per_charger);
}

MarginalEngine::MarginalEngine(const model::Network& net, Config config,
                               std::span<const double> initial_energy,
                               std::shared_ptr<const kernels::UtilityTable> table)
    : net_(&net),
      config_(config),
      table_(table != nullptr ? std::move(table)
                              : std::make_shared<const kernels::UtilityTable>(
                                    kernels::UtilityTable::from(net))),
      // Latched once: a long-lived engine must not change evaluation path
      // mid-run under a concurrent toggle flip (results are bit-identical
      // either way, but the latch keeps the choice observable and stable).
      use_kernels_(util::kernels_enabled()) {
  if (config_.colors < 1) config_.colors = 1;
  if (config_.samples < 1) config_.samples = 1;
  if (config_.colors == 1) config_.samples = 1;  // expectation is exact
  const auto m = static_cast<std::size_t>(net.task_count());
  energy_.assign(static_cast<std::size_t>(config_.samples) * m, 0.0);
  sample_version_.assign(static_cast<std::size_t>(config_.samples) * m, 0);
  task_version_.assign(m, 0);
  const auto n = static_cast<std::size_t>(net.charger_count());
  panel_colors_.assign(n * static_cast<std::size_t>(config_.samples), 0);
  panel_slot_.assign(n, -1);
  if (!initial_energy.empty()) {
    for (int s = 0; s < config_.samples; ++s) {
      for (std::size_t j = 0; j < m; ++j) {
        energy_[static_cast<std::size_t>(s) * m + j] = initial_energy[j];
      }
    }
  }
}

namespace {

/// hashed % colors, with the division skipped for power-of-two panels (the
/// paper's C = 4): there the remainder is the low bits, so both forms agree.
int reduce_color(std::uint64_t hashed, int colors) {
  const auto c = static_cast<std::uint64_t>(colors);
  return static_cast<int>((c & (c - 1)) == 0 ? hashed & (c - 1) : hashed % c);
}

}  // namespace

int MarginalEngine::panel_color(std::uint64_t seed, int sample, model::ChargerIndex i,
                                model::SlotIndex k, int colors) {
  if (colors <= 1) return 0;
  std::uint64_t state = seed ^ 0xa02bdbf7bb3c0a7ULL;
  state ^= static_cast<std::uint64_t>(sample) * 0x9e3779b97f4a7c15ULL;
  state ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(k));
  return reduce_color(util::splitmix64(state), colors);
}

int MarginalEngine::final_color(std::uint64_t seed, model::ChargerIndex i,
                                model::SlotIndex k, int colors) {
  if (colors <= 1) return 0;
  // Different salt than panel_color so the executed coloring is independent
  // of the estimation panel.
  std::uint64_t state = seed ^ 0x5851f42d4c957f2dULL;
  state ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(k));
  return reduce_color(util::splitmix64(state), colors);
}

double MarginalEngine::gain_in_sample(int s, const kernels::RowView& rows) const {
  const auto m = static_cast<std::size_t>(net_->task_count());
  const double* energy = energy_.data() + static_cast<std::size_t>(s) * m;
  row_term_count_.fetch_add(rows.size(), std::memory_order_relaxed);
  if (use_kernels_) {
    // Compute-wide / reduce-in-order kernel; bit-identical to the reference
    // fold below (see core/kernels.hpp).
    return kernels::row_term_sum(*table_, energy, rows);
  }
  double gain = 0.0;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    const auto j = static_cast<std::size_t>(rows.tasks[t]);
    const double before = energy[j];
    const double after = before + rows.delta[t];
    gain += net_->weighted_task_utility(static_cast<model::TaskIndex>(j), after) -
            net_->weighted_task_utility(static_cast<model::TaskIndex>(j), before);
  }
  return gain;
}

double MarginalEngine::marginal(model::ChargerIndex i, model::SlotIndex k,
                                const kernels::RowView& rows, int c) const {
  marginal_count_.fetch_add(1, std::memory_order_relaxed);
  double total = 0.0;
  for (int s = 0; s < config_.samples; ++s) {
    if (panel_color(config_.seed, s, i, k, config_.colors) != c) continue;
    total += gain_in_sample(s, rows);
  }
  return total / static_cast<double>(config_.samples);
}

void MarginalEngine::partition_marginals(const PolicyPartition& partition, int c,
                                         std::span<const int> sample_colors,
                                         double* out) const {
  const std::size_t count = partition.policies.size();
  const std::size_t rows = partition.flat_tasks.size();
  if (!use_kernels_ || rows == 0) {
    // Scalar reference path (and degenerate partitions): the per-policy
    // oracle loop, each call counting itself (and re-deriving its panel
    // colors — this path is not performance-relevant).
    for (std::size_t q = 0; q < count; ++q) {
      out[q] = marginal(partition.charger, partition.slot, partition.policy_rows(q), c);
    }
    return;
  }
  marginal_count_.fetch_add(count, std::memory_order_relaxed);
  for (std::size_t q = 0; q < count; ++q) out[q] = 0.0;
  const auto m = static_cast<std::size_t>(net_->task_count());
  // Resolve the matching panel samples, then price the partition's
  // deduplicated (task, delta) columns for all of them in one panel sweep.
  // Scratch is thread_local rather than a member: the engine's const oracle
  // surface is documented concurrency-safe (the parallel panel builds rely
  // on it).
  thread_local std::vector<int> matching;
  matching.clear();
  for (int s = 0; s < config_.samples; ++s) {
    if (sample_colors[static_cast<std::size_t>(s)] == c) matching.push_back(s);
  }
  if (!matching.empty()) {
    // Counter semantics match the scalar path, which prices every flat row
    // once per matching sample — the column dedup only removes redundant
    // arithmetic, not evaluations.
    row_term_count_.fetch_add(static_cast<std::uint64_t>(rows) * matching.size(),
                              std::memory_order_relaxed);
    const std::size_t cols = partition.col_task.size();
    const kernels::RowView column_rows{partition.col_task, partition.col_delta,
                                       partition.col_weight, partition.col_required};
    thread_local std::vector<double> col_terms;
    col_terms.resize(matching.size() * cols);
    kernels::row_terms_panel(*table_, energy_.data(), m, matching, column_rows,
                             col_terms.data());
    // Segmented gather-fold: policy q's inner sum visits its rows in row
    // order (each row's term read through the column map — bit-identical,
    // since rows sharing a column share their inputs), and out[q]
    // accumulates inners in ascending sample order — exactly the
    // marginal()/gain_in_sample() accumulation trajectory per policy.
    const std::int32_t* offsets = partition.row_offsets.data();
    const std::int32_t* col_of = partition.flat_col.data();
    for (std::size_t i = 0; i < matching.size(); ++i) {
      const double* terms = col_terms.data() + i * cols;
      for (std::size_t q = 0; q < count; ++q) {
        double inner = 0.0;
        for (std::int32_t t = offsets[q]; t < offsets[q + 1]; ++t) {
          inner += terms[static_cast<std::size_t>(col_of[t])];
        }
        out[q] += inner;
      }
    }
  }
  for (std::size_t q = 0; q < count; ++q) {
    out[q] /= static_cast<double>(config_.samples);
  }
}

double MarginalEngine::commit(model::ChargerIndex i, model::SlotIndex k,
                              std::span<const model::TaskIndex> tasks,
                              std::span<const double> slot_energy, int c) {
  // Every sample's gain reads only that sample's energies, so pricing all
  // matching samples before accumulating any of them is the same arithmetic
  // as interleaving the two per sample.
  const int* colors = commit_panel(i, k);
  double total = 0.0;
  for (int s = 0; s < config_.samples; ++s) {
    if (colors[s] != c) continue;
    total += gain_in_sample(s, kernels::RowView{tasks, slot_energy, {}, {}});
  }
  commit_no_gain(i, k, tasks, slot_energy, c);
  return total / static_cast<double>(config_.samples);
}

const int* MarginalEngine::commit_panel(model::ChargerIndex i, model::SlotIndex k) {
  if (i < 0 || i >= net_->charger_count()) {
    throw std::out_of_range("MarginalEngine: commit by charger " + std::to_string(i) +
                            " outside the network");
  }
  const auto row = static_cast<std::size_t>(i) * static_cast<std::size_t>(config_.samples);
  if (panel_slot_[static_cast<std::size_t>(i)] != k) {
    for (int s = 0; s < config_.samples; ++s) {
      panel_colors_[row + static_cast<std::size_t>(s)] =
          panel_color(config_.seed, s, i, k, config_.colors);
    }
    panel_slot_[static_cast<std::size_t>(i)] = k;
  }
  return panel_colors_.data() + row;
}

void MarginalEngine::commit_no_gain(model::ChargerIndex i, model::SlotIndex k,
                                    std::span<const model::TaskIndex> tasks,
                                    std::span<const double> slot_energy, int c,
                                    std::span<const std::uint8_t> tracked) {
  const auto m = static_cast<std::size_t>(net_->task_count());
  const int* colors = commit_panel(i, k);
  bool applied = false;
  for (int s = 0; s < config_.samples; ++s) {
    if (colors[s] != c) continue;
    double* energy = energy_.data() + static_cast<std::size_t>(s) * m;
    std::uint64_t* versions = sample_version_.data() + static_cast<std::size_t>(s) * m;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const auto j = static_cast<std::size_t>(tasks[t]);
      const double before = energy[j];
      const double after = before + slot_energy[t];
      energy[j] = after;
      if (!tracked.empty() && tracked[j] == 0) continue;
      // Only rows whose *utility* moved in this sample de-certify cached
      // marginals. Utility shapes are concave and non-decreasing, so
      // u(before) == u(after) with before < after means u is flat on
      // [before, inf): every other policy's term for that (task, sample) —
      // evaluated at an energy >= before — is provably unchanged, and stays
      // unchanged for the rest of the run. In practice this means commits
      // into saturated tasks dirty nothing.
      if (weighted_utility(tasks[t], after) != weighted_utility(tasks[t], before)) {
        ++versions[j];
        ++task_version_[j];
      }
    }
    applied = true;
  }
  if (applied) ++commit_count_;
}

void MarginalEngine::commit_energy(std::span<const int> sample_colors, int c,
                                   std::span<const model::TaskIndex> tasks,
                                   std::span<const double> slot_energy) {
  const auto m = static_cast<std::size_t>(net_->task_count());
  bool applied = false;
  for (int s = 0; s < config_.samples; ++s) {
    if (sample_colors[static_cast<std::size_t>(s)] != c) continue;
    double* energy = energy_.data() + static_cast<std::size_t>(s) * m;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      energy[static_cast<std::size_t>(tasks[t])] += slot_energy[t];
    }
    applied = true;
  }
  if (applied) ++commit_count_;
}

double MarginalEngine::row_term(int s, model::TaskIndex j, double delta) const {
  row_term_count_.fetch_add(1, std::memory_order_relaxed);
  const auto m = static_cast<std::size_t>(net_->task_count());
  const double before =
      energy_[static_cast<std::size_t>(s) * m + static_cast<std::size_t>(j)];
  return weighted_utility(j, before + delta) - weighted_utility(j, before);
}

void MarginalEngine::row_terms(int s, const kernels::RowView& rows, double* out) const {
  row_term_count_.fetch_add(rows.size(), std::memory_order_relaxed);
  const auto m = static_cast<std::size_t>(net_->task_count());
  const double* energy = energy_.data() + static_cast<std::size_t>(s) * m;
  if (use_kernels_) {
    kernels::row_terms(*table_, energy, rows, out);
    return;
  }
  for (std::size_t t = 0; t < rows.size(); ++t) {
    const auto j = static_cast<std::size_t>(rows.tasks[t]);
    const double before = energy[j];
    out[t] = net_->weighted_task_utility(rows.tasks[t], before + rows.delta[t]) -
             net_->weighted_task_utility(rows.tasks[t], before);
  }
}

std::uint64_t MarginalEngine::version_sum(std::span<const model::TaskIndex> tasks) const {
  std::uint64_t sum = 0;
  for (model::TaskIndex j : tasks) sum += task_version_[static_cast<std::size_t>(j)];
  return sum;
}

double MarginalEngine::expected_value() const {
  const auto m = static_cast<std::size_t>(net_->task_count());
  double total = 0.0;
  for (int s = 0; s < config_.samples; ++s) {
    const double* energy = energy_.data() + static_cast<std::size_t>(s) * m;
    for (std::size_t j = 0; j < m; ++j) {
      total += weighted_utility(static_cast<model::TaskIndex>(j), energy[j]);
    }
  }
  return total / static_cast<double>(config_.samples);
}

}  // namespace haste::core
