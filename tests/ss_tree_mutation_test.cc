// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// STR bulk loading and deletion: structural invariants under churn, and
// query equivalence against the ground truth of the surviving entries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "index/mutable_ss_tree.h"
#include "index/ss_tree.h"
#include "query/knn.h"
#include "query/mut_query.h"
#include "test_util.h"

namespace hyperdom {
namespace {

std::set<uint64_t> TreeIds(const SsTree& tree) {
  std::set<uint64_t> ids;
  if (tree.root() == nullptr) return ids;
  std::vector<const SsTreeNode*> stack = {tree.root()};
  while (!stack.empty()) {
    const SsTreeNode* node = stack.back();
    stack.pop_back();
    if (node->is_leaf()) {
      for (const auto& e : node->entries()) ids.insert(e.id);
    } else {
      for (const auto& child : node->children()) stack.push_back(child.get());
    }
  }
  return ids;
}

std::set<uint64_t> Ids(const KnnResult& result) {
  std::set<uint64_t> ids;
  for (const auto& e : result.answers) ids.insert(e.id);
  return ids;
}

// ---------------------------------------------------------------------------
// STR bulk loading
// ---------------------------------------------------------------------------

std::vector<uint64_t> OrderedIds(const KnnResult& result) {
  std::vector<uint64_t> ids;
  for (const auto& e : result.answers) ids.push_back(e.id);
  return ids;
}

// One packed build of `data`: structure, leaf-ordered slots, and ordered
// kNN answers against the insertion-built tree and the linear scan.
void CheckPackedBuild(const std::vector<Hypersphere>& data, size_t dim,
                      uint64_t query_seed) {
  SCOPED_TRACE("n = " + std::to_string(data.size()) +
               ", d = " + std::to_string(dim));
  SsTree tree(dim);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  EXPECT_EQ(tree.size(), data.size());
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  EXPECT_EQ(TreeIds(tree).size(), data.size());
  std::vector<uint32_t> expected_slots(data.size());
  std::iota(expected_slots.begin(), expected_slots.end(), 0u);
  EXPECT_EQ(test::LeafSlotsInDfsOrder(tree), expected_slots);

  SsTree insert_tree(dim);
  ASSERT_TRUE(insert_tree.BulkLoad(data).ok());
  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = 5;
  KnnSearcher searcher(&exact, options);
  const std::vector<Hypersphere> queries =
      data.empty() ? std::vector<Hypersphere>{Hypersphere(Point(dim, 0.0), 1.0)}
                   : MakeKnnQueries(data, 4, query_seed);
  for (const auto& sq : queries) {
    const std::vector<uint64_t> packed = OrderedIds(searcher.Search(tree, sq));
    EXPECT_EQ(packed, OrderedIds(searcher.Search(insert_tree, sq)));
    EXPECT_EQ(packed, OrderedIds(KnnLinearScan(data, sq, options.k, exact)));
  }
}

class StrBulkLoadTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StrBulkLoadTest, InvariantsAndCompleteness) {
  const size_t dim = GetParam();
  // Sizes around the leaf capacity (20 at the default 24 entries, 85%
  // packing) and its square, where the height steps.
  for (size_t n : {0, 1, 2, 3, 19, 20, 21, 24, 25, 399, 400, 401, 5000, 8000}) {
    SyntheticSpec spec;
    spec.n = n;
    spec.dim = dim;
    spec.radius_mean = 8.0;
    spec.seed = 7000 + 16 * n + dim;
    const auto data =
        n == 0 ? std::vector<Hypersphere>{} : GenerateSynthetic(spec);
    CheckPackedBuild(data, dim, spec.seed + 1);
  }
  // Heavy ties: centers snapped to a coarse grid, so the median cuts
  // fall back on input position.
  SyntheticSpec spec;
  spec.n = 401;
  spec.dim = dim;
  spec.radius_mean = 8.0;
  spec.seed = 7999 + dim;
  std::vector<Hypersphere> data;
  for (const Hypersphere& s : GenerateSynthetic(spec)) {
    Point center = s.center();
    for (double& c : center) c = 40.0 * std::round(c / 40.0);
    data.emplace_back(std::move(center), s.radius());
  }
  CheckPackedBuild(data, dim, spec.seed + 1);
}

INSTANTIATE_TEST_SUITE_P(Dims, StrBulkLoadTest,
                         ::testing::Values(1, 2, 4, 10));

TEST(StrBulkLoadTest, EmptyAndTiny) {
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr({}).ok());
  EXPECT_EQ(tree.size(), 0u);
  ASSERT_TRUE(tree.BulkLoadStr({Hypersphere({1.0, 2.0, 3.0}, 0.5)}).ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(StrBulkLoadTest, ReplacesPreviousContents) {
  SyntheticSpec spec;
  spec.n = 300;
  spec.dim = 2;
  spec.seed = 7001;
  SsTree tree(2);
  ASSERT_TRUE(tree.BulkLoadStr(GenerateSynthetic(spec)).ok());
  spec.n = 100;
  spec.seed = 7002;
  ASSERT_TRUE(tree.BulkLoadStr(GenerateSynthetic(spec)).ok());
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(StrBulkLoadTest, DimensionMismatchRejected) {
  SsTree tree(2);
  EXPECT_EQ(tree.BulkLoadStr({Hypersphere({1.0, 2.0, 3.0}, 0.5)}).code(),
            StatusCode::kInvalidArgument);
}

TEST(StrBulkLoadTest, QueriesMatchInsertionBuiltTree) {
  SyntheticSpec spec;
  spec.n = 4000;
  spec.dim = 4;
  spec.radius_mean = 6.0;
  spec.seed = 7003;
  const auto data = GenerateSynthetic(spec);
  SsTree str_tree(4);
  ASSERT_TRUE(str_tree.BulkLoadStr(data).ok());
  SsTree insert_tree(4);
  ASSERT_TRUE(insert_tree.BulkLoad(data).ok());

  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = 7;
  KnnSearcher searcher(&exact, options);
  for (const auto& sq : MakeKnnQueries(data, 8, 7004)) {
    EXPECT_EQ(Ids(searcher.Search(str_tree, sq)),
              Ids(searcher.Search(insert_tree, sq)));
  }
}

// The mutable store maps slots to ids through the packed leaves, not
// through input positions: with shuffled, sparse 64-bit ids, every
// removal must hide exactly its own sphere, after Build and after
// Compact alike.
TEST(StrBulkLoadTest, MutableStoreKeepsIdsThroughPackedSlots) {
  SyntheticSpec spec;
  spec.n = 700;
  spec.dim = 3;
  spec.radius_mean = 6.0;
  spec.seed = 7010;
  const auto data = GenerateSynthetic(spec);
  Rng rng(7011);
  std::vector<uint64_t> ids;
  std::set<uint64_t> seen;
  while (ids.size() < data.size()) {
    const uint64_t id = rng.NextU64() | (uint64_t{1} << 63);
    if (seen.insert(id).second) ids.push_back(id);
  }
  std::map<uint64_t, Hypersphere> live;
  for (size_t i = 0; i < data.size(); ++i) live.emplace(ids[i], data[i]);

  MutableSsTreeOptions options;
  options.auto_compact = false;
  MutableSsTree tree(spec.dim, options);
  ASSERT_TRUE(tree.Build(data, ids).ok());

  HyperbolaCriterion exact;
  KnnOptions knn;
  knn.k = 6;
  const auto queries = MakeKnnQueries(data, 3, 7012);
  auto check_live_set = [&](const std::string& stage) {
    SCOPED_TRACE(stage);
    std::vector<Hypersphere> spheres;
    std::vector<uint64_t> live_ids;
    tree.Pin().CollectLive(&spheres, &live_ids);
    ASSERT_EQ(live_ids.size(), live.size());
    for (size_t i = 0; i < live_ids.size(); ++i) {
      const auto it = live.find(live_ids[i]);
      ASSERT_NE(it, live.end()) << "id " << live_ids[i] << " is not live";
      EXPECT_TRUE(spheres[i] == it->second) << "id " << live_ids[i];
    }
    for (const auto& sq : queries) {
      std::vector<uint64_t> expected;
      for (uint64_t pos :
           OrderedIds(KnnLinearScan(spheres, sq, knn.k, exact))) {
        expected.push_back(live_ids[pos]);
      }
      EXPECT_EQ(OrderedIds(MutableKnn(tree, exact, knn, sq).result), expected);
    }
  };
  // Removes the next `count` ids of a shuffled order, checking after each.
  std::vector<uint64_t> victims = ids;
  for (size_t i = victims.size(); i > 1; --i) {
    std::swap(victims[i - 1], victims[rng.UniformU64(i)]);
  }
  size_t next_victim = 0;
  auto remove_some = [&](size_t count, const std::string& stage) {
    for (size_t r = 0; r < count; ++r) {
      const uint64_t id = victims[next_victim++];
      ASSERT_TRUE(tree.Remove(id).ok());
      live.erase(id);
      check_live_set(stage + ", removed " + std::to_string(id));
    }
  };

  check_live_set("after Build");
  remove_some(12, "after Build");
  ASSERT_TRUE(tree.Compact().ok());
  check_live_set("after Compact");
  remove_some(12, "after Compact");
}

TEST(StrBulkLoadTest, PacksTighterThanInsertion) {
  SyntheticSpec spec;
  spec.n = 20'000;
  spec.dim = 4;
  spec.seed = 7005;
  const auto data = GenerateSynthetic(spec);
  SsTree str_tree(4);
  ASSERT_TRUE(str_tree.BulkLoadStr(data).ok());
  SsTree insert_tree(4);
  ASSERT_TRUE(insert_tree.BulkLoad(data).ok());
  // STR's packed occupancy gives an equal-or-shorter tree.
  EXPECT_LE(str_tree.Height(), insert_tree.Height());
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

TEST(SsTreeDeleteTest, DeleteMissingEntryIsNotFound) {
  SsTree tree(2);
  EXPECT_EQ(tree.Delete(Hypersphere({1.0, 1.0}, 0.5), 0).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(tree.Insert(Hypersphere({1.0, 1.0}, 0.5), 0).ok());
  EXPECT_EQ(tree.Delete(Hypersphere({1.0, 1.0}, 0.5), 99).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(tree.Delete(Hypersphere({2.0, 1.0}, 0.5), 0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(SsTreeDeleteTest, DeleteToEmpty) {
  SsTree tree(2);
  ASSERT_TRUE(tree.Insert(Hypersphere({1.0, 1.0}, 0.5), 0).ok());
  ASSERT_TRUE(tree.Delete(Hypersphere({1.0, 1.0}, 0.5), 0).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.root(), nullptr);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  // Reusable afterwards.
  ASSERT_TRUE(tree.Insert(Hypersphere({2.0, 2.0}, 0.5), 1).ok());
  EXPECT_EQ(tree.size(), 1u);
}

TEST(SsTreeDeleteTest, RandomChurnKeepsInvariants) {
  Rng rng(7100);
  SyntheticSpec spec;
  spec.n = 1500;
  spec.dim = 3;
  spec.radius_mean = 6.0;
  spec.seed = 7101;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoad(data).ok());

  std::set<uint64_t> alive;
  for (uint64_t i = 0; i < data.size(); ++i) alive.insert(i);

  for (int round = 0; round < 700; ++round) {
    // Delete a random survivor.
    auto it = alive.begin();
    std::advance(it, static_cast<long>(rng.UniformU64(alive.size())));
    const uint64_t victim = *it;
    ASSERT_TRUE(tree.Delete(data[victim], victim).ok()) << "round " << round;
    alive.erase(it);
    if (round % 50 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok())
          << "round " << round << ": " << tree.CheckInvariants().ToString();
      EXPECT_EQ(TreeIds(tree), alive);
    }
  }
  EXPECT_EQ(tree.size(), alive.size());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(SsTreeDeleteTest, QueriesStayExactUnderChurn) {
  Rng rng(7200);
  SyntheticSpec spec;
  spec.n = 800;
  spec.dim = 3;
  spec.radius_mean = 5.0;
  spec.seed = 7201;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoad(data).ok());

  std::vector<bool> alive(data.size(), true);
  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = 5;
  KnnSearcher searcher(&exact, options);

  for (int round = 0; round < 10; ++round) {
    // Delete a random batch of 40.
    for (int d = 0; d < 40; ++d) {
      uint64_t victim = rng.UniformU64(data.size());
      while (!alive[victim]) victim = rng.UniformU64(data.size());
      ASSERT_TRUE(tree.Delete(data[victim], victim).ok());
      alive[victim] = false;
    }
    // Exact kNN over the survivors must match a linear scan with remapping.
    std::vector<Hypersphere> survivors;
    std::vector<uint64_t> survivor_ids;
    for (size_t i = 0; i < data.size(); ++i) {
      if (alive[i]) {
        survivors.push_back(data[i]);
        survivor_ids.push_back(static_cast<uint64_t>(i));
      }
    }
    const Hypersphere sq = survivors[rng.UniformU64(survivors.size())];
    const KnnResult scan = KnnLinearScan(survivors, sq, options.k, exact);
    std::set<uint64_t> expected;
    for (const auto& e : scan.answers) expected.insert(survivor_ids[e.id]);
    EXPECT_EQ(Ids(searcher.Search(tree, sq)), expected) << "round " << round;
  }
}

TEST(SsTreeDeleteTest, InterleavedInsertDelete) {
  Rng rng(7300);
  SsTree tree(2);
  std::set<uint64_t> alive;
  std::vector<Hypersphere> spheres;
  uint64_t next_id = 0;
  for (int round = 0; round < 3000; ++round) {
    if (alive.empty() || rng.NextDouble() < 0.6) {
      const Hypersphere s = test::RandomSphere(&rng, 2, 4.0);
      spheres.push_back(s);
      ASSERT_TRUE(tree.Insert(s, next_id).ok());
      alive.insert(next_id++);
    } else {
      auto it = alive.begin();
      std::advance(it, static_cast<long>(rng.UniformU64(alive.size())));
      ASSERT_TRUE(tree.Delete(spheres[*it], *it).ok());
      alive.erase(it);
    }
    if (round % 250 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok())
          << "round " << round << ": " << tree.CheckInvariants().ToString();
    }
  }
  EXPECT_EQ(TreeIds(tree), alive);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(SsTreeDeleteTest, WorksOnStrBuiltTrees) {
  SyntheticSpec spec;
  spec.n = 1000;
  spec.dim = 3;
  spec.seed = 7400;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Delete(data[i], i).ok()) << "i=" << i;
  }
  EXPECT_EQ(tree.size(), 700u);
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
}

}  // namespace
}  // namespace hyperdom
