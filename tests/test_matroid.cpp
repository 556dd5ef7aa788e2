// Tests for core/matroid.hpp — the partition matroid of Lemma 4.1, checked
// against the matroid axioms of Definition 4.3.
#include "oracle/matroid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace haste::core {
namespace {

TEST(PartitionMatroid, EmptySetIsIndependent) {
  const PartitionMatroid m({0, 0, 1, 1, 2}, {1, 1, 1});
  EXPECT_TRUE(m.is_independent({}));
}

TEST(PartitionMatroid, RespectsCapacityOne) {
  const PartitionMatroid m({0, 0, 1}, {1, 1});
  const std::vector<ElementId> ok = {0, 2};
  const std::vector<ElementId> bad = {0, 1};
  EXPECT_TRUE(m.is_independent(ok));
  EXPECT_FALSE(m.is_independent(bad));
}

TEST(PartitionMatroid, RespectsLargerCapacities) {
  const PartitionMatroid m({0, 0, 0, 1}, {2, 1});
  EXPECT_TRUE(m.is_independent(std::vector<ElementId>{0, 1, 3}));
  EXPECT_FALSE(m.is_independent(std::vector<ElementId>{0, 1, 2}));
}

TEST(PartitionMatroid, CanExtend) {
  const PartitionMatroid m({0, 0, 1}, {1, 1});
  const std::vector<ElementId> set = {0};
  EXPECT_FALSE(m.can_extend(set, 1));  // same partition full
  EXPECT_TRUE(m.can_extend(set, 2));
  EXPECT_FALSE(m.can_extend(set, 0));  // already present
}

TEST(PartitionMatroid, RankSumsMinOfCapacityAndSize) {
  const PartitionMatroid m({0, 0, 0, 1, 2, 2}, {2, 5, 1});
  // partition sizes: 3, 1, 2; capacities 2, 5, 1 -> rank 2 + 1 + 1 = 4.
  EXPECT_EQ(m.rank(), 4u);
}

TEST(PartitionMatroid, UnitFactory) {
  const PartitionMatroid m = PartitionMatroid::unit({0, 1, 1, 2});
  EXPECT_EQ(m.partition_count(), 3u);
  EXPECT_EQ(m.capacity(1), 1);
  EXPECT_FALSE(m.is_independent(std::vector<ElementId>{1, 2}));
}

TEST(PartitionMatroid, RejectsBadInput) {
  EXPECT_THROW(PartitionMatroid({0, 3}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(PartitionMatroid({0}, {0}), std::invalid_argument);
  EXPECT_THROW(PartitionMatroid({-1}, {1}), std::invalid_argument);
}

/// Random matroid instances for axiom checking.
class MatroidAxioms : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    util::Rng rng(GetParam());
    const int partitions = static_cast<int>(rng.uniform_int(1, 5));
    std::vector<std::int32_t> caps;
    for (int p = 0; p < partitions; ++p) {
      caps.push_back(static_cast<std::int32_t>(rng.uniform_int(1, 3)));
    }
    std::vector<std::int32_t> owner;
    const int ground = static_cast<int>(rng.uniform_int(partitions, 10));
    for (int e = 0; e < ground; ++e) {
      owner.push_back(static_cast<std::int32_t>(rng.uniform_index(partitions)));
    }
    matroid_ = std::make_unique<PartitionMatroid>(owner, caps);
    ground_ = ground;
  }

  std::vector<ElementId> random_independent(util::Rng& rng) const {
    std::vector<ElementId> set;
    std::vector<ElementId> order(static_cast<std::size_t>(ground_));
    for (int e = 0; e < ground_; ++e) order[static_cast<std::size_t>(e)] = e;
    std::shuffle(order.begin(), order.end(), rng);
    for (ElementId e : order) {
      if (rng.uniform() < 0.6 && matroid_->can_extend(set, e)) set.push_back(e);
    }
    return set;
  }

  std::unique_ptr<PartitionMatroid> matroid_;
  int ground_ = 0;
};

TEST_P(MatroidAxioms, Hereditary) {
  // Axiom 2: subsets of independent sets are independent.
  util::Rng rng(GetParam() * 31 + 1);
  for (int t = 0; t < 200; ++t) {
    const auto set = random_independent(rng);
    ASSERT_TRUE(matroid_->is_independent(set));
    std::vector<ElementId> subset;
    for (ElementId e : set) {
      if (rng.uniform() < 0.5) subset.push_back(e);
    }
    EXPECT_TRUE(matroid_->is_independent(subset));
  }
}

TEST_P(MatroidAxioms, Exchange) {
  // Axiom 3: |X| < |Y| independent -> some y in Y\X extends X.
  util::Rng rng(GetParam() * 31 + 2);
  for (int t = 0; t < 200; ++t) {
    const auto x = random_independent(rng);
    const auto y = random_independent(rng);
    if (x.size() >= y.size()) continue;
    bool extendable = false;
    for (ElementId e : y) {
      if (std::find(x.begin(), x.end(), e) != x.end()) continue;
      if (matroid_->can_extend(x, e)) {
        extendable = true;
        break;
      }
    }
    EXPECT_TRUE(extendable) << "exchange axiom violated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatroidAxioms, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace haste::core
