// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Cross-index equivalence: all four indexes — SS-tree, R*-tree, VP-tree,
// M-tree — must return exactly the Definition-2 answer set when searched
// with the exact criterion in deferred mode, i.e. identical to each other
// and to the linear scan, for both traversal strategies.


#include <gtest/gtest.h>

#include <set>

#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "dominance/minmax.h"
#include "eval/workload.h"
#include "query/knn.h"

namespace hyperdom {
namespace {

std::set<uint64_t> Ids(const KnnResult& result) {
  std::set<uint64_t> ids;
  for (const auto& e : result.answers) ids.insert(e.id);
  return ids;
}

class IndexEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SearchStrategy, size_t>> {};

TEST_P(IndexEquivalenceTest, AllIndexesMatchLinearScan) {
  const auto [strategy, k] = GetParam();
  SyntheticSpec spec;
  spec.n = 2500;
  spec.dim = 4;
  spec.radius_mean = 8.0;
  spec.seed = 2100 + k;
  const auto data = GenerateSynthetic(spec);

  SsTree ss_tree(4);
  ASSERT_TRUE(ss_tree.BulkLoad(data).ok());
  RStarTree rstar(4);
  ASSERT_TRUE(rstar.BulkLoad(data).ok());
  VpTree vp;
  ASSERT_TRUE(vp.Build(data).ok());
  MTree mtree(4);
  ASSERT_TRUE(mtree.BulkLoad(data).ok());

  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = k;
  options.strategy = strategy;
  KnnSearcher ss_searcher(&exact, options);

  for (const auto& sq : MakeKnnQueries(data, 12, 2101)) {
    const auto truth = Ids(KnnLinearScan(data, sq, k, exact));
    EXPECT_EQ(Ids(ss_searcher.Search(ss_tree, sq)), truth) << "SS-tree";
    EXPECT_EQ(Ids(KnnSearcher(&exact, options).Search(rstar, sq)), truth)
        << "R*-tree";
    EXPECT_EQ(Ids(KnnSearcher(&exact, options).Search(vp, sq)), truth)
        << "VP-tree";
    EXPECT_EQ(Ids(KnnSearcher(&exact, options).Search(mtree, sq)), truth)
        << "M-tree";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IndexEquivalenceTest,
    ::testing::Combine(::testing::Values(SearchStrategy::kBestFirst,
                                         SearchStrategy::kDepthFirst),
                       ::testing::Values<size_t>(1, 5, 20)));

TEST(IndexKnnTest, EmptyIndexesGiveEmptyResults) {
  HyperbolaCriterion exact;
  KnnOptions options;
  const Hypersphere sq({0.0, 0.0}, 1.0);
  RStarTree rstar(2);
  EXPECT_TRUE(KnnSearcher(&exact, options).Search(rstar, sq).answers.empty());
  VpTree vp;
  ASSERT_TRUE(vp.Build({}).ok());
  EXPECT_TRUE(KnnSearcher(&exact, options).Search(vp, sq).answers.empty());
  MTree mtree(2);
  EXPECT_TRUE(KnnSearcher(&exact, options).Search(mtree, sq).answers.empty());
}

TEST(IndexKnnTest, WeakCriterionSupersetOnEveryIndex) {
  SyntheticSpec spec;
  spec.n = 2000;
  spec.dim = 3;
  spec.seed = 2102;
  const auto data = GenerateSynthetic(spec);
  RStarTree rstar(3);
  ASSERT_TRUE(rstar.BulkLoad(data).ok());
  VpTree vp;
  ASSERT_TRUE(vp.Build(data).ok());
  MTree mtree(3);
  ASSERT_TRUE(mtree.BulkLoad(data).ok());

  HyperbolaCriterion exact;
  MinMaxCriterion weak;
  KnnOptions options;
  options.k = 8;
  for (const auto& sq : MakeKnnQueries(data, 6, 2103)) {
    const auto truth = Ids(KnnLinearScan(data, sq, options.k, exact));
    for (const auto& result :
         {KnnSearcher(&weak, options).Search(rstar, sq),
          KnnSearcher(&weak, options).Search(vp, sq),
          KnnSearcher(&weak, options).Search(mtree, sq)}) {
      const auto weak_ids = Ids(result);
      for (uint64_t id : truth) {
        EXPECT_TRUE(weak_ids.count(id)) << "lost an exact answer";
      }
    }
  }
}

TEST(IndexKnnTest, StatsReflectPruning) {
  SyntheticSpec spec;
  spec.n = 5000;
  spec.dim = 4;
  spec.radius_mean = 3.0;
  spec.seed = 2104;
  const auto data = GenerateSynthetic(spec);
  RStarTree rstar(4);
  ASSERT_TRUE(rstar.BulkLoad(data).ok());
  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = 5;
  const KnnResult result = KnnSearcher(&exact, options).Search(rstar, data[0]);
  // A tight query over a large dataset must prune something and must not
  // touch every entry.
  EXPECT_GT(result.stats.nodes_pruned + result.stats.pruned_case3, 0u);
  EXPECT_LT(result.stats.entries_accessed, data.size());
  EXPECT_FALSE(result.answers.empty());
}

}  // namespace
}  // namespace hyperdom
