// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Batched-vs-serial equivalence above the span kernels: the
// DecideVerdictBatch contract for every criterion the factory produces,
// the certified engine's verdict+tier stability at batch-relevant
// (high/odd) dimensions, BestKnownList::AccessBatch against per-entry
// Access (answers AND stats), and the overlay block enumeration. Batching
// is a scheduling change — any divergence observed here is a bug in a
// batch path, not an acceptable rounding difference.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "dominance/certified.h"
#include "dominance/criterion.h"
#include "dominance/instrumented.h"
#include "index/mutable_ss_tree.h"
#include "obs/metrics.h"
#include "query/best_known_list.h"
#include "query/knn.h"
#include "storage/sphere_store.h"
#include "test_util.h"

namespace hyperdom {
namespace {

const CriterionKind kAllKinds[] = {
    CriterionKind::kMinMax,         CriterionKind::kMbr,
    CriterionKind::kGp,             CriterionKind::kTrigonometric,
    CriterionKind::kHyperbola,      CriterionKind::kNumericOracle,
    CriterionKind::kCertified,
};

class BatchedDominanceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchedDominanceTest, DecideVerdictBatchMatchesSerialAllCriteria) {
  const size_t dim = GetParam();
  Rng rng(5100 + dim);
  for (CriterionKind kind : kAllKinds) {
    // The oracle runs a 2-plane minimizer per pair; keep its share small.
    const size_t count = kind == CriterionKind::kNumericOracle ? 24 : 200;
    const auto criterion = MakeCriterion(kind);
    const Hypersphere sa = test::RandomSphere(&rng, dim, 3.0);
    const Hypersphere sq = test::RandomSphere(&rng, dim, 1.0);
    SphereStore store(dim);
    store.Reserve(count);
    std::vector<SphereView> sbs;
    for (size_t i = 0; i < count; ++i) {
      // A mix of scales so overlap, MDD-reject, and full-pipeline paths
      // all appear in one block.
      store.Add(test::RandomSphere(&rng, dim, (i % 3 == 0) ? 40.0 : 3.0));
    }
    for (uint32_t i = 0; i < count; ++i) sbs.push_back(store.view(i));

    std::vector<Verdict> batched(count);
    criterion->DecideVerdictBatch(sa.view(), sbs.data(), count, sq.view(),
                                  batched.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(batched[i], criterion->DecideVerdict(sa.view(), sbs[i],
                                                     sq.view()))
          << criterion->name() << " dim=" << dim << " candidate " << i;
    }
  }
}

TEST_P(BatchedDominanceTest, InstrumentedBatchMatchesInnerSerial) {
  // The wrapper forwards whole blocks to the inner criterion and accounts
  // once per block: verdicts must still equal the inner serial calls, and
  // the per-verdict counters and the latency histogram must each grow by
  // exactly the block size.
  const size_t dim = GetParam();
  Rng rng(5300 + dim);
  for (CriterionKind kind : kAllKinds) {
    const size_t count = kind == CriterionKind::kNumericOracle ? 24 : 200;
    const InstrumentedCriterion instrumented(MakeCriterion(kind));
    const DominanceCriterion& inner = instrumented.inner();
    const Hypersphere sa = test::RandomSphere(&rng, dim, 3.0);
    const Hypersphere sq = test::RandomSphere(&rng, dim, 1.0);
    SphereStore store(dim);
    store.Reserve(count);
    for (size_t i = 0; i < count; ++i) {
      store.Add(test::RandomSphere(&rng, dim, (i % 3 == 0) ? 40.0 : 3.0));
    }
    std::vector<SphereView> sbs;
    for (uint32_t i = 0; i < count; ++i) sbs.push_back(store.view(i));

#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
    auto& registry = obs::MetricsRegistry::Instance();
    obs::Counter* counters[3];
    const char* names[3] = {"dominates", "not_dominates", "uncertain"};
    uint64_t before[3];
    for (int v = 0; v < 3; ++v) {
      counters[v] = registry.GetCounter(
          obs::kCriterionVerdicts,
          {{"criterion", inner.name()}, {"verdict", names[v]}});
      before[v] = counters[v]->Value();
    }
    obs::Histogram* latency = registry.GetHistogram(
        obs::kCriterionDecideDuration, "criterion", inner.name());
    const uint64_t recorded_before = latency->Snapshot().count;
#endif

    std::vector<Verdict> batched(count);
    instrumented.DecideVerdictBatch(sa.view(), sbs.data(), count, sq.view(),
                                    batched.data());
    uint64_t expected[3] = {0, 0, 0};
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(batched[i], inner.DecideVerdict(sa.view(), sbs[i], sq.view()))
          << inner.name() << " dim=" << dim << " candidate " << i;
      ++expected[static_cast<int>(batched[i])];
    }

#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
    uint64_t total = 0;
    for (int v = 0; v < 3; ++v) {
      const uint64_t delta = counters[v]->Value() - before[v];
      EXPECT_EQ(delta, expected[v]) << inner.name() << " " << names[v];
      total += delta;
    }
    EXPECT_EQ(total, count) << inner.name();
    EXPECT_EQ(latency->Snapshot().count - recorded_before, count)
        << inner.name();
#else
    (void)expected;
#endif
  }
}

TEST_P(BatchedDominanceTest, CertifiedEngineStableAtBatchDims) {
  // The aos_soa_equivalence suite pins the certified engine at dims
  // {2, 3, 10}; this repeats the verdict+tier check at the high and odd
  // dims the batched leaf scans care about.
  const size_t dim = GetParam();
  Rng rng(5200 + dim);
  CertifiedDominance engine;
  SphereStore store(dim);
  const size_t n = 200;
  store.Reserve(3 * n);
  std::vector<Hypersphere> spheres;
  for (size_t i = 0; i < 3 * n; ++i) {
    spheres.push_back(test::RandomSphere(&rng, dim, (i % 5 == 0) ? 0.1 : 4.0));
    store.Add(spheres.back());
  }
  for (size_t t = 0; t < n; ++t) {
    const uint32_t base = static_cast<uint32_t>(3 * t);
    CertifiedTier tier_aos = CertifiedTier::kUnresolved;
    CertifiedTier tier_soa = CertifiedTier::kUnresolved;
    const Verdict aos = engine.Decide(spheres[3 * t], spheres[3 * t + 1],
                                      spheres[3 * t + 2], &tier_aos);
    const Verdict soa =
        engine.Decide(store.view(base), store.view(base + 1),
                      store.view(base + 2), &tier_soa);
    EXPECT_EQ(aos, soa) << "triple " << t << " dim " << dim;
    EXPECT_EQ(tier_aos, tier_soa) << "triple " << t << " dim " << dim;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BatchedDominanceTest,
                         ::testing::Values(2, 3, 8, 10, 64, 67));

// ---------------------------------------------------------------------------
// BestKnownList: AccessBatch vs per-entry Access.

struct ListOutcome {
  std::vector<DataEntry> answers;
  KnnStats stats;
  double distk = 0.0;
};

ListOutcome RunList(const DominanceCriterion* criterion,
                    const Hypersphere& sq, size_t k, KnnPruningMode mode,
                    const std::vector<EntryView>& entries, size_t batch,
                    bool within, double pending_bound) {
  ListOutcome out;
  BestKnownList list(criterion, &sq, k, mode, &out.stats);
  if (batch == 0) {
    for (const EntryView& e : entries) list.Access(e);
  } else {
    for (size_t i = 0; i < entries.size(); i += batch) {
      const size_t n = std::min(batch, entries.size() - i);
      list.AccessBatch(entries.data() + i, n);
    }
  }
  out.distk = list.DistK();
  out.answers =
      within ? list.TakeAnswersWithin(pending_bound) : list.TakeAnswers();
  return out;
}

void ExpectSameOutcome(const ListOutcome& a, const ListOutcome& b,
                       const std::string& label) {
  EXPECT_EQ(a.distk, b.distk) << label;
  ASSERT_EQ(a.answers.size(), b.answers.size()) << label;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i].id, b.answers[i].id) << label << " answer " << i;
    EXPECT_EQ(a.answers[i].sphere, b.answers[i].sphere)
        << label << " answer " << i;
  }
  EXPECT_EQ(a.stats.entries_accessed, b.stats.entries_accessed) << label;
  EXPECT_EQ(a.stats.dominance_checks, b.stats.dominance_checks) << label;
  EXPECT_EQ(a.stats.pruned_case2, b.stats.pruned_case2) << label;
  EXPECT_EQ(a.stats.pruned_case3, b.stats.pruned_case3) << label;
  EXPECT_EQ(a.stats.removed_case1, b.stats.removed_case1) << label;
  EXPECT_EQ(a.stats.uncertain_verdicts, b.stats.uncertain_verdicts) << label;
}

class BestKnownListBatchTest
    : public ::testing::TestWithParam<std::tuple<size_t, KnnPruningMode>> {};

TEST_P(BestKnownListBatchTest, AccessBatchMatchesSerialAccess) {
  const size_t dim = std::get<0>(GetParam());
  const KnnPruningMode mode = std::get<1>(GetParam());
  Rng rng(5300 + dim);
  const size_t n = 600;
  const size_t k = 10;
  SphereStore store(dim);
  store.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    store.Add(test::RandomSphere(&rng, dim, 2.0));
  }
  std::vector<EntryView> entries;
  for (uint32_t i = 0; i < n; ++i) {
    entries.push_back(EntryView{store.view(i), uint64_t{1000} + i, i});
  }
  const Hypersphere sq = test::RandomSphere(&rng, dim, 1.0);

  for (CriterionKind kind :
       {CriterionKind::kHyperbola, CriterionKind::kCertified}) {
    const auto criterion = MakeCriterion(kind);
    const ListOutcome serial =
        RunList(criterion.get(), sq, k, mode, entries, 0, false, 0.0);
    // Leaf-sized and ragged batch shapes.
    for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, n}) {
      const ListOutcome batched =
          RunList(criterion.get(), sq, k, mode, entries, batch, false, 0.0);
      ExpectSameOutcome(serial, batched,
                        std::string(criterion->name()) + " batch=" +
                            std::to_string(batch));
    }
    // Best-effort path: the batched TakeAnswersWithin filter.
    const double bound = serial.distk * 0.9;
    const ListOutcome serial_within =
        RunList(criterion.get(), sq, k, mode, entries, 0, true, bound);
    const ListOutcome batched_within =
        RunList(criterion.get(), sq, k, mode, entries, 64, true, bound);
    ExpectSameOutcome(serial_within, batched_within,
                      std::string(criterion->name()) + " within");
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndModes, BestKnownListBatchTest,
    ::testing::Combine(::testing::Values(2, 10, 67),
                       ::testing::Values(KnnPruningMode::kDeferred,
                                         KnnPruningMode::kEager)));

// ---------------------------------------------------------------------------
// Overlay: block enumeration and the batched mutable search path.

TEST(OverlayBatchTest, ForEachExtraBlockMatchesForEachExtra) {
  const size_t dim = 7;  // odd: delta-slab rows on unaligned boundaries
  Rng rng(5400);
  MutableSsTree tree(dim);
  std::vector<Hypersphere> base;
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 50; ++i) {
    base.push_back(test::RandomSphere(&rng, dim, 2.0));
    ids.push_back(i);
  }
  ASSERT_TRUE(tree.Build(base, ids).ok());
  // Cross a slab boundary (slab 0 holds 256 rows) and tombstone a few
  // delta rows so visibility filtering is exercised.
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Insert(test::RandomSphere(&rng, dim, 2.0), 100 + i).ok());
  }
  for (uint64_t i = 0; i < 300; i += 9) {
    ASSERT_TRUE(tree.Remove(100 + i).ok());
  }

  const MutableSsTree::ReadView view = tree.Pin();
  std::vector<EntryView> serial;
  view.ForEachExtra([&](const EntryView& e) { serial.push_back(e); });
  std::vector<EntryView> blocked;
  size_t calls = 0;
  view.ForEachExtraBlock([&](const EntryView* rows, size_t count) {
    ++calls;
    blocked.insert(blocked.end(), rows, rows + count);
  });

  EXPECT_GE(calls, size_t{1});
  ASSERT_EQ(serial.size(), blocked.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].id, blocked[i].id) << "row " << i;
    EXPECT_EQ(serial[i].slot, blocked[i].slot) << "row " << i;
    EXPECT_EQ(serial[i].sphere.center, blocked[i].sphere.center)
        << "row " << i;  // same pointer: same slab storage
    EXPECT_EQ(serial[i].sphere.radius, blocked[i].sphere.radius)
        << "row " << i;
  }
}

TEST(OverlayBatchTest, BatchedMutableSearchMatchesLinearScan) {
  const size_t dim = 10;
  Rng rng(5500);
  MutableSsTree tree(dim);
  std::vector<Hypersphere> base;
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 200; ++i) {
    base.push_back(test::RandomSphere(&rng, dim, 2.0));
    ids.push_back(i);
  }
  ASSERT_TRUE(tree.Build(base, ids).ok());
  for (uint64_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(tree.Insert(test::RandomSphere(&rng, dim, 2.0), 500 + i).ok());
  }
  for (uint64_t i = 0; i < 200; i += 5) {
    ASSERT_TRUE(tree.Remove(i).ok());
  }

  const auto criterion = MakeCriterion(CriterionKind::kHyperbola);
  KnnOptions options;
  options.k = 12;
  const KnnSearcher searcher(criterion.get(), options);

  const MutableSsTree::ReadView view = tree.Pin();
  std::vector<Hypersphere> live;
  std::vector<uint64_t> live_ids;
  view.CollectLive(&live, &live_ids);

  for (uint64_t qseed = 0; qseed < 8; ++qseed) {
    Rng qrng(5600 + qseed);
    const Hypersphere sq = test::RandomSphere(&qrng, dim, 1.0);
    const KnnResult tree_result = searcher.Search(view.tree(), sq, &view);
    const KnnResult scan_result =
        KnnLinearScan(live, sq, options.k, *criterion);
    ASSERT_EQ(tree_result.answers.size(), scan_result.answers.size())
        << "query " << qseed;
    for (size_t i = 0; i < tree_result.answers.size(); ++i) {
      // The scan's ids index `live`; map them back to external ids.
      EXPECT_EQ(tree_result.answers[i].id,
                live_ids[scan_result.answers[i].id])
          << "query " << qseed << " answer " << i;
    }
  }
}

}  // namespace
}  // namespace hyperdom
