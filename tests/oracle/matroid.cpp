#include "oracle/matroid.hpp"

#include <algorithm>
#include <stdexcept>

namespace haste::core {

PartitionMatroid::PartitionMatroid(std::vector<std::int32_t> partition_of,
                                   std::vector<std::int32_t> capacities)
    : partition_of_(std::move(partition_of)), capacities_(std::move(capacities)) {
  partition_sizes_.assign(capacities_.size(), 0);
  for (std::int32_t p : partition_of_) {
    if (p < 0 || static_cast<std::size_t>(p) >= capacities_.size()) {
      throw std::invalid_argument("PartitionMatroid: partition id out of range");
    }
    ++partition_sizes_[static_cast<std::size_t>(p)];
  }
  for (std::int32_t c : capacities_) {
    if (c <= 0) throw std::invalid_argument("PartitionMatroid: capacities must be positive");
  }
}

PartitionMatroid PartitionMatroid::unit(std::vector<std::int32_t> partition_of) {
  std::int32_t max_partition = -1;
  for (std::int32_t p : partition_of) max_partition = std::max(max_partition, p);
  return PartitionMatroid(std::move(partition_of),
                          std::vector<std::int32_t>(static_cast<std::size_t>(max_partition + 1), 1));
}

std::int32_t PartitionMatroid::partition_of(ElementId e) const {
  return partition_of_.at(static_cast<std::size_t>(e));
}

std::int32_t PartitionMatroid::capacity(std::int32_t partition) const {
  return capacities_.at(static_cast<std::size_t>(partition));
}

bool PartitionMatroid::is_independent(std::span<const ElementId> set) const {
  std::vector<std::int32_t> used(capacities_.size(), 0);
  for (ElementId e : set) {
    const std::int32_t p = partition_of(e);
    if (++used[static_cast<std::size_t>(p)] > capacities_[static_cast<std::size_t>(p)]) {
      return false;
    }
  }
  return true;
}

bool PartitionMatroid::can_extend(std::span<const ElementId> set, ElementId e) const {
  const std::int32_t p = partition_of(e);
  std::int32_t used = 0;
  for (ElementId existing : set) {
    if (existing == e) return false;
    if (partition_of(existing) == p) ++used;
  }
  return used < capacities_[static_cast<std::size_t>(p)];
}

std::size_t PartitionMatroid::rank() const {
  std::size_t rank = 0;
  for (std::size_t p = 0; p < capacities_.size(); ++p) {
    rank += static_cast<std::size_t>(std::min(capacities_[p], partition_sizes_[p]));
  }
  return rank;
}

}  // namespace haste::core
