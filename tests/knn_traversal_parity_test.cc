// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Traversal parity guard: pins, per index kind, what the kNN traversal
// does — not just which answer set it returns. Each cell (dataset × index
// kind × DF/HS × deferred/eager × unbounded/node budget 17) runs 16
// queries and folds the ordered answer ids, and every KnnStats field plus
// the completeness flag, into two FNV-1a digests that are compared with
// the table below. A change to visit order, pruning, budget accounting or
// the list maintenance rules moves a digest even when the answer set
// stays the same; on a mismatch the test prints the replacement row.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "index/m_tree.h"
#include "index/rstar_tree.h"
#include "index/ss_tree.h"
#include "index/vp_tree.h"
#include "query/knn.h"

namespace hyperdom {
namespace {

constexpr size_t kQueries = 16;
constexpr uint64_t kNodeBudget = 17;

struct Pinned {
  uint64_t ids;
  uint64_t stats;
};

// Recorded before the per-index traversals were merged into one DF and
// one HS driver. The vp/df rows were re-recorded at the merge: on an exact
// tie between a VP node's two child bounds the merged DF descends the
// inside child first, where the old VP stack took the outside child
// first. Every other row is unchanged.
const std::map<std::string, Pinned>& PinnedDigests() {
  static const std::map<std::string, Pinned> table = {
      {"d4/ss/df/deferred/unbounded",
       {0x7ec53bf3ada9ced2ULL, 0x0844e06eaf6976c3ULL}},
      {"d4/ss/df/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0x66a650953d025d2aULL}},
      {"d4/ss/df/eager/unbounded",
       {0x1f6ebe5db6656645ULL, 0xa5a013e5d14d6e21ULL}},
      {"d4/ss/df/eager/budget17",
       {0x8421ae126c7ced25ULL, 0xa050b140a54da46dULL}},
      {"d4/ss/hs/deferred/unbounded",
       {0x7ec53bf3ada9ced2ULL, 0x9e68aa3cb1bd22f9ULL}},
      {"d4/ss/hs/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0xb10888dcfe5d5d1bULL}},
      {"d4/ss/hs/eager/unbounded",
       {0x8229f9d593b6fd4cULL, 0x6721518b8b8eeaacULL}},
      {"d4/ss/hs/eager/budget17",
       {0x8421ae126c7ced25ULL, 0x071238d7be5309edULL}},
      {"d4/rstar/df/deferred/unbounded",
       {0x7ec53bf3ada9ced2ULL, 0xad072481dd77d374ULL}},
      {"d4/rstar/df/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0xd90b1171ac96340aULL}},
      {"d4/rstar/df/eager/unbounded",
       {0x70999d327a2129d6ULL, 0xeaa74ff3b7f4a886ULL}},
      {"d4/rstar/df/eager/budget17",
       {0x8421ae126c7ced25ULL, 0x83451b79b3d1266dULL}},
      {"d4/rstar/hs/deferred/unbounded",
       {0x7ec53bf3ada9ced2ULL, 0x9fa1154450d9b61eULL}},
      {"d4/rstar/hs/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0xc5c2423ee02f9b99ULL}},
      {"d4/rstar/hs/eager/unbounded",
       {0xc9e38967fbb51229ULL, 0x8283b9f9d0cda5c1ULL}},
      {"d4/rstar/hs/eager/budget17",
       {0x8421ae126c7ced25ULL, 0xe43929b92ca6245bULL}},
      {"d4/vp/df/deferred/unbounded",
       {0x7ec53bf3ada9ced2ULL, 0xd3ad8be94d4ac5d9ULL}},
      {"d4/vp/df/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0x6427986fe8b68b00ULL}},
      {"d4/vp/df/eager/unbounded",
       {0xcdc9ea4c58942bbfULL, 0x5c9a60896a893825ULL}},
      {"d4/vp/df/eager/budget17",
       {0x8421ae126c7ced25ULL, 0xf5fefed9b07b72f5ULL}},
      {"d4/vp/hs/deferred/unbounded",
       {0x7ec53bf3ada9ced2ULL, 0x6df0c30942f9027fULL}},
      {"d4/vp/hs/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0x8481ca1c58505480ULL}},
      {"d4/vp/hs/eager/unbounded",
       {0xa2b8ea076f949e87ULL, 0x755d4dd18648c976ULL}},
      {"d4/vp/hs/eager/budget17",
       {0x8421ae126c7ced25ULL, 0xbace68ec0a52ccb5ULL}},
      {"d4/m/df/deferred/unbounded",
       {0x7ec53bf3ada9ced2ULL, 0xf29692a7428f8bdaULL}},
      {"d4/m/df/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0x1ba42aed512379dbULL}},
      {"d4/m/df/eager/unbounded",
       {0x26691f53e7d58456ULL, 0x1ff356643486ee65ULL}},
      {"d4/m/df/eager/budget17",
       {0x8421ae126c7ced25ULL, 0x2a91c38974dcb8a7ULL}},
      {"d4/m/hs/deferred/unbounded",
       {0x7ec53bf3ada9ced2ULL, 0x7daaa3b226c29ef6ULL}},
      {"d4/m/hs/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0xdac68a765d4ba533ULL}},
      {"d4/m/hs/eager/unbounded",
       {0x3b7c966afbf2b2afULL, 0xbab05fb6af0f85a0ULL}},
      {"d4/m/hs/eager/budget17",
       {0x8421ae126c7ced25ULL, 0xb7049ff88cf4463fULL}},
      {"d10/ss/df/deferred/unbounded",
       {0xd4d0dfe8fcadf32eULL, 0x53da48d7fef615b3ULL}},
      {"d10/ss/df/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0xfc28e0175c1fa239ULL}},
      {"d10/ss/df/eager/unbounded",
       {0xe6505e61df556af5ULL, 0x9f9c2d015326c11dULL}},
      {"d10/ss/df/eager/budget17",
       {0x8421ae126c7ced25ULL, 0x7691e65020c25442ULL}},
      {"d10/ss/hs/deferred/unbounded",
       {0xd4d0dfe8fcadf32eULL, 0x169a7c322ace2fe6ULL}},
      {"d10/ss/hs/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0x9cae39bbfa341c95ULL}},
      {"d10/ss/hs/eager/unbounded",
       {0x6e718e0abd62ebe5ULL, 0xd6cab732804287c4ULL}},
      {"d10/ss/hs/eager/budget17",
       {0x8421ae126c7ced25ULL, 0x6ab7be1a6792ced5ULL}},
      {"d10/rstar/df/deferred/unbounded",
       {0xd4d0dfe8fcadf32eULL, 0xe9045b30841daf80ULL}},
      {"d10/rstar/df/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0x696f6168116ff034ULL}},
      {"d10/rstar/df/eager/unbounded",
       {0xb2f4c2da0b2ac860ULL, 0xbe36192dfb918375ULL}},
      {"d10/rstar/df/eager/budget17",
       {0x8421ae126c7ced25ULL, 0x2cd7146b01164ca6ULL}},
      {"d10/rstar/hs/deferred/unbounded",
       {0xd4d0dfe8fcadf32eULL, 0xe59ca1145d2b60deULL}},
      {"d10/rstar/hs/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0x55be6d457f308bccULL}},
      {"d10/rstar/hs/eager/unbounded",
       {0x804cb08a686da9f6ULL, 0xef7caf8690a01a98ULL}},
      {"d10/rstar/hs/eager/budget17",
       {0x8421ae126c7ced25ULL, 0x29ad71330cc6f32aULL}},
      {"d10/vp/df/deferred/unbounded",
       {0xd4d0dfe8fcadf32eULL, 0xda230cd60dea4561ULL}},
      {"d10/vp/df/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0xb9237d084b9988e3ULL}},
      {"d10/vp/df/eager/unbounded",
       {0xe2e98ae2851c2ac2ULL, 0x4e85cc1fbe1ad66cULL}},
      {"d10/vp/df/eager/budget17",
       {0x8421ae126c7ced25ULL, 0x3b9b473e6ea0ba5dULL}},
      {"d10/vp/hs/deferred/unbounded",
       {0xd4d0dfe8fcadf32eULL, 0xb74f69868bd6ef9eULL}},
      {"d10/vp/hs/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0x4a8d912aa990dd03ULL}},
      {"d10/vp/hs/eager/unbounded",
       {0xfe755f2308654ccaULL, 0xf7c08f3202c7852dULL}},
      {"d10/vp/hs/eager/budget17",
       {0x8421ae126c7ced25ULL, 0xbedcf2959a7ec84bULL}},
      {"d10/m/df/deferred/unbounded",
       {0xd4d0dfe8fcadf32eULL, 0xb82bc9ff8d6af844ULL}},
      {"d10/m/df/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0x56070de7620225fbULL}},
      {"d10/m/df/eager/unbounded",
       {0xc63a74c74f1e316fULL, 0x9aeaf9e391918d8dULL}},
      {"d10/m/df/eager/budget17",
       {0x8421ae126c7ced25ULL, 0x00869891975c7bb7ULL}},
      {"d10/m/hs/deferred/unbounded",
       {0xd4d0dfe8fcadf32eULL, 0xe087602d6eb74674ULL}},
      {"d10/m/hs/deferred/budget17",
       {0x8421ae126c7ced25ULL, 0x3f9bcf2acd465b88ULL}},
      {"d10/m/hs/eager/unbounded",
       {0xc93e97320382c715ULL, 0x610b08215ee0c785ULL}},
      {"d10/m/hs/eager/budget17",
       {0x8421ae126c7ced25ULL, 0xd7bdfd8b83b74145ULL}},
  };
  return table;
}

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

void DigestStats(const KnnResult& r, Fnv* h) {
  const KnnStats& s = r.stats;
  for (uint64_t v :
       {s.nodes_visited, s.nodes_pruned, s.entries_accessed,
        s.dominance_checks, s.pruned_case2, s.pruned_case3, s.removed_case1,
        s.uncertain_verdicts, s.nodes_deadline_skipped}) {
    h->Add(v);
  }
  h->Add(r.completeness == Completeness::kExact ? 0 : 1);
}

struct Indexes {
  explicit Indexes(const std::vector<Hypersphere>& data)
      : ss(data.front().dim()),
        rstar(data.front().dim()),
        m(data.front().dim()) {
    EXPECT_TRUE(ss.BulkLoad(data).ok());
    EXPECT_TRUE(rstar.BulkLoad(data).ok());
    EXPECT_TRUE(vp.Build(data).ok());
    EXPECT_TRUE(m.BulkLoad(data).ok());
  }
  SsTree ss;
  RStarTree rstar;
  VpTree vp;
  MTree m;
};

KnnResult RunKind(const Indexes& idx, const std::string& kind,
                  const Hypersphere& sq, const DominanceCriterion& criterion,
                  const KnnOptions& options) {
  const KnnSearcher searcher(&criterion, options);
  if (kind == "ss") return searcher.Search(idx.ss, sq);
  if (kind == "rstar") return searcher.Search(idx.rstar, sq);
  if (kind == "vp") return searcher.Search(idx.vp, sq);
  return searcher.Search(idx.m, sq);
}

class KnnTraversalParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KnnTraversalParityTest, EveryCellMatchesPinnedDigests) {
  const size_t dim = GetParam();
  SyntheticSpec spec;
  spec.n = 2'000;
  spec.dim = dim;
  spec.seed = 13'000 + dim;
  const auto data = GenerateSynthetic(spec);
  const auto queries = MakeKnnQueries(data, kQueries, 13'100 + dim);
  const Indexes idx(data);
  HyperbolaCriterion exact;

  std::string repin;
  for (const char* kind : {"ss", "rstar", "vp", "m"}) {
    for (SearchStrategy strategy :
         {SearchStrategy::kDepthFirst, SearchStrategy::kBestFirst}) {
      for (KnnPruningMode mode :
           {KnnPruningMode::kDeferred, KnnPruningMode::kEager}) {
        for (bool bounded : {false, true}) {
          KnnOptions options;
          options.strategy = strategy;
          options.pruning_mode = mode;
          if (bounded) {
            options.deadline = Deadline::WithNodeBudget(kNodeBudget);
          }
          Fnv ids, stats;
          for (const Hypersphere& sq : queries) {
            const KnnResult r = RunKind(idx, kind, sq, exact, options);
            ids.Add(r.answers.size());
            for (const DataEntry& e : r.answers) ids.Add(e.id);
            DigestStats(r, &stats);
          }
          char name[64];
          std::snprintf(
              name, sizeof(name), "d%zu/%s/%s/%s/%s", dim, kind,
              strategy == SearchStrategy::kDepthFirst ? "df" : "hs",
              mode == KnnPruningMode::kDeferred ? "deferred" : "eager",
              bounded ? "budget17" : "unbounded");
          const std::string cell = name;
          const auto it = PinnedDigests().find(cell);
          const bool ok = it != PinnedDigests().end() &&
                          it->second.ids == ids.value() &&
                          it->second.stats == stats.value();
          EXPECT_TRUE(ok) << cell;
          if (!ok) {
            char row[160];
            std::snprintf(row, sizeof(row),
                          "      {\"%s\", {0x%016llxULL, 0x%016llxULL}},\n",
                          cell.c_str(),
                          static_cast<unsigned long long>(ids.value()),
                          static_cast<unsigned long long>(stats.value()));
            repin += row;
          }
        }
      }
    }
  }
  if (!repin.empty()) std::printf("Re-pinned rows:\n%s", repin.c_str());
}

INSTANTIATE_TEST_SUITE_P(Dims, KnnTraversalParityTest,
                         ::testing::Values<size_t>(4, 10));

}  // namespace
}  // namespace hyperdom
