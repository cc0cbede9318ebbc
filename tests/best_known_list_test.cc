// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/best_known_list.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "dominance/hyperbola.h"
#include "query/knn.h"

namespace hyperdom {
namespace {

class BestKnownListTest : public ::testing::Test {
 protected:
  // Access() retains views into the store, so the store is pre-reserved:
  // no Add below ever reallocates the arena while a list holds views.
  BestKnownListTest() { store_.Reserve(64); }

  EntryView Entry(double x, double r, uint64_t id) {
    const uint32_t slot = store_.Add(Hypersphere({x, 0.0}, r));
    return store_.Resolve(StoredEntry{slot, id});
  }

  SphereStore store_{2};
  HyperbolaCriterion criterion_;
  Hypersphere sq_{{0.0, 0.0}, 0.5};
  KnnStats stats_;
};

TEST_F(BestKnownListTest, DistKInfiniteUntilKEntries) {
  BestKnownList list(&criterion_, &sq_, 2, KnnPruningMode::kDeferred,
                     &stats_);
  EXPECT_TRUE(std::isinf(list.DistK()));
  list.Access(Entry(10.0, 1.0, 0));
  EXPECT_TRUE(std::isinf(list.DistK()));
  list.Access(Entry(20.0, 1.0, 1));
  // distk = MaxDist of the 2nd best = 20 + 1 + 0.5.
  EXPECT_DOUBLE_EQ(list.DistK(), 21.5);
}

TEST_F(BestKnownListTest, DistKTightensMonotonically) {
  BestKnownList list(&criterion_, &sq_, 1, KnnPruningMode::kDeferred,
                     &stats_);
  double prev = 1e300;
  for (double x : {50.0, 40.0, 30.0, 20.0, 10.0, 45.0}) {
    list.Access(Entry(x, 0.5, static_cast<uint64_t>(x)));
    EXPECT_LE(list.DistK(), prev);
    prev = list.DistK();
  }
  EXPECT_DOUBLE_EQ(prev, 10.0 + 0.5 + 0.5);
}

TEST_F(BestKnownListTest, Case3DropsFarEntries) {
  BestKnownList list(&criterion_, &sq_, 1, KnnPruningMode::kDeferred,
                     &stats_);
  list.Access(Entry(5.0, 0.5, 0));  // distk = 6
  list.Access(Entry(100.0, 0.5, 1));  // distmin = 99 > 6 -> case 3
  EXPECT_EQ(stats_.pruned_case3, 1u);
  const auto answers = list.TakeAnswers();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].id, 0u);
}

TEST_F(BestKnownListTest, Case2DominatedEntryDropped) {
  BestKnownList list(&criterion_, &sq_, 1, KnnPruningMode::kDeferred,
                     &stats_);
  list.Access(Entry(5.0, 0.5, 0));  // distk = 6
  // Entry at 6 with r = 0.1: distmin = 5.4 <= distk = 6 < distmax = 6.6,
  // i.e. case 2, and the Sk at 5 dominates it (the worst query point 0.5
  // toward it still leaves a margin of 1 > ra + rb = 0.6).
  list.Access(Entry(6.0, 0.1, 1));
  const auto answers = list.TakeAnswers();
  // Deferred mode judges case-2 entries once, in the final filter.
  EXPECT_EQ(stats_.pruned_case2, 1u);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].id, 0u);
}

TEST_F(BestKnownListTest, DeferredModeIsAccessOrderIndependent) {
  // The deferred final-Sk filter is exactly what makes the surviving set
  // independent of the order entries were accessed in — each order sees
  // different interim Sks, but all must converge to the Definition-2 set
  // (the linear scan's answer).
  Rng rng(4711);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Hypersphere> data;
    for (int i = 0; i < 60; ++i) {
      data.emplace_back(Point{rng.Gaussian(0.0, 20.0), rng.Gaussian(0.0, 20.0)},
                        rng.Uniform(0.0, 4.0));
    }
    const size_t k = 1 + rng.UniformU64(4);
    const auto expected = KnnLinearScan(data, sq_, k, criterion_);
    std::set<uint64_t> expected_ids;
    for (const auto& e : expected.answers) expected_ids.insert(e.id);

    SphereStore store(2);
    store.Reserve(data.size());
    std::vector<uint32_t> slots;
    for (const auto& s : data) slots.push_back(store.Add(s));

    for (int perm = 0; perm < 3; ++perm) {
      std::vector<size_t> order(data.size());
      std::iota(order.begin(), order.end(), 0);
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.UniformU64(i)]);
      }
      KnnStats stats;
      BestKnownList list(&criterion_, &sq_, k, KnnPruningMode::kDeferred,
                         &stats);
      for (size_t idx : order) {
        list.Access(store.Resolve(
            StoredEntry{slots[idx], static_cast<uint64_t>(idx)}));
      }
      std::set<uint64_t> got;
      for (const auto& e : list.TakeAnswers()) got.insert(e.id);
      EXPECT_EQ(got, expected_ids) << "trial " << trial << " perm " << perm;
    }
  }
}

TEST_F(BestKnownListTest, EagerModeNeverRevives) {
  KnnStats stats_eager;
  BestKnownList eager(&criterion_, &sq_, 1, KnnPruningMode::kEager,
                      &stats_eager);
  eager.Access(Entry(5.0, 0.1, 0));
  eager.Access(Entry(6.0, 0.1, 1));  // dominated -> discarded permanently
  const auto answers = eager.TakeAnswers();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].id, 0u);
}

TEST_F(BestKnownListTest, AnswersSortedByMaxDist) {
  BestKnownList list(&criterion_, &sq_, 3, KnnPruningMode::kDeferred,
                     &stats_);
  for (double x : {30.0, 10.0, 50.0, 20.0, 40.0}) {
    list.Access(Entry(x, 1.0, static_cast<uint64_t>(x)));
  }
  const auto answers = list.TakeAnswers();
  for (size_t i = 1; i < answers.size(); ++i) {
    EXPECT_LE(MaxDist(answers[i - 1].sphere, sq_),
              MaxDist(answers[i].sphere, sq_) + 1e-12);
  }
}

TEST_F(BestKnownListTest, TopKNeverEvicted) {
  BestKnownList list(&criterion_, &sq_, 2, KnnPruningMode::kDeferred,
                     &stats_);
  // Insert in worst-first order so every later insert triggers case 1.
  for (double x : {60.0, 50.0, 40.0, 30.0, 20.0, 10.0}) {
    list.Access(Entry(x, 0.5, static_cast<uint64_t>(x)));
  }
  const auto answers = list.TakeAnswers();
  // The final two nearest (10, 20) must be present.
  bool has10 = false, has20 = false;
  for (const auto& e : answers) {
    if (e.id == 10) has10 = true;
    if (e.id == 20) has20 = true;
  }
  EXPECT_TRUE(has10);
  EXPECT_TRUE(has20);
}

// Wraps Hyperbola and records which candidate each call judged, so a test
// can see how often, and on what, the list consulted the criterion.
class CountingCriterion final : public DominanceCriterion {
 public:
  using DominanceCriterion::Dominates;
  bool Dominates(SphereView sa, SphereView sb, SphereView sq) const override {
    judged.push_back(sb.center);
    return inner_.Dominates(sa, sb, sq);
  }
  std::string_view name() const override { return "Counting"; }
  bool is_correct() const override { return true; }
  bool is_sound() const override { return true; }

  mutable std::vector<const double*> judged;

 private:
  HyperbolaCriterion inner_;
};

TEST_F(BestKnownListTest, DeferredJudgesEachCandidateOnceAgainstFinalSk) {
  Rng rng(811);
  for (int trial = 0; trial < 30; ++trial) {
    SphereStore store(2);
    store.Reserve(80);
    std::vector<EntryView> entries;
    for (uint64_t id = 0; id < 80; ++id) {
      const uint32_t slot = store.Add(Hypersphere(
          Point{rng.Gaussian(0.0, 20.0), rng.Gaussian(0.0, 20.0)},
          rng.Uniform(0.0, 4.0)));
      entries.push_back(store.Resolve(StoredEntry{slot, id}));
    }
    const size_t k = 1 + rng.UniformU64(5);
    CountingCriterion counting;
    KnnStats stats;
    BestKnownList list(&counting, &sq_, k, KnnPruningMode::kDeferred,
                       &stats);
    for (const EntryView& e : entries) list.Access(e);
    EXPECT_EQ(stats.dominance_checks, 0u) << "no interim verdicts";
    const auto answers = list.TakeAnswers();
    // Every candidate beyond the top k, and nothing else, is judged once.
    const uint64_t candidates = stats.entries_accessed - stats.pruned_case3;
    EXPECT_EQ(stats.dominance_checks, candidates - k) << "trial " << trial;
    EXPECT_EQ(counting.judged.size(), stats.dominance_checks);
    const std::set<const double*> distinct(counting.judged.begin(),
                                           counting.judged.end());
    EXPECT_EQ(distinct.size(), counting.judged.size()) << "trial " << trial;
    EXPECT_EQ(answers.size(), candidates - stats.pruned_case2);
    EXPECT_EQ(stats.removed_case1, 0u) << "eager-only counter";
  }
}

TEST_F(BestKnownListTest, WorstFirstOrderChecksLinearly) {
  // Every access of a worst-first order displaces the k-th entry. The
  // spheres are fat enough to overlap pairwise, so nothing is ever
  // dominated: eager mode's interim sweeps re-judge the whole growing tail
  // on every access (quadratic), deferred mode judges each entry once.
  constexpr size_t kN = 40;
  constexpr size_t kK = 2;
  std::vector<EntryView> entries;
  for (size_t i = 0; i < kN; ++i) {
    entries.push_back(Entry(10.0 + 3.0 * static_cast<double>(kN - i), 100.0,
                            i));
  }
  KnnStats deferred_stats;
  BestKnownList deferred(&criterion_, &sq_, kK, KnnPruningMode::kDeferred,
                         &deferred_stats);
  KnnStats eager_stats;
  BestKnownList eager(&criterion_, &sq_, kK, KnnPruningMode::kEager,
                      &eager_stats);
  for (const EntryView& e : entries) {
    deferred.Access(e);
    eager.Access(e);
  }
  const auto deferred_answers = deferred.TakeAnswers();
  const auto eager_answers = eager.TakeAnswers();
  constexpr size_t kTail = kN - kK;
  EXPECT_EQ(deferred_stats.dominance_checks, kTail);
  EXPECT_EQ(eager_stats.dominance_checks, kTail * (kTail + 1) / 2 + kTail);
  ASSERT_EQ(deferred_answers.size(), kN);
  ASSERT_EQ(eager_answers.size(), kN);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(deferred_answers[i].id, kN - 1 - i);
    EXPECT_EQ(eager_answers[i].id, kN - 1 - i);
  }
}

TEST_F(BestKnownListTest, ExactMaxDistTiesOrderById) {
  // Four copies of one sphere tie exactly on MaxDist; whatever the access
  // order, the list ranks them by id, so Sk and the answer order agree.
  for (const std::vector<uint64_t>& order :
       {std::vector<uint64_t>{0, 1, 2, 3}, std::vector<uint64_t>{3, 2, 1, 0},
        std::vector<uint64_t>{2, 0, 3, 1}}) {
    std::vector<EntryView> views;
    for (uint64_t id : order) views.push_back(Entry(5.0, 1.0, id));
    KnnStats stats;
    BestKnownList list(&criterion_, &sq_, 2, KnnPruningMode::kDeferred,
                       &stats);
    for (const EntryView& v : views) list.Access(v);
    const auto answers = list.TakeAnswers();
    ASSERT_EQ(answers.size(), 4u);  // identical spheres overlap (Lemma 1)
    for (size_t i = 0; i < answers.size(); ++i) EXPECT_EQ(answers[i].id, i);
  }
}

}  // namespace
}  // namespace hyperdom
