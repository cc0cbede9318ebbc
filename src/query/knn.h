// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The kNN query on hyperspheres (paper Section 6, Definition 2).
//
// Given a query hypersphere Sq and a dataset D of hyperspheres, the answer
// is the set of hyperspheres NOT dominated w.r.t. Sq by Sk, where Sk is the
// hypersphere with the k-th smallest MaxDist to Sq. (Under object
// uncertainty more than k objects can be possible k-nearest neighbors; the
// answer is every object that cannot be ruled out.)
//
// The searcher adapts the classical index-based kNN algorithms — DF, the
// depth-first traversal of Roussopoulos et al. [26], and HS, the best-first
// traversal of Hjaltason & Samet [15] — to hyperspheres by maintaining the
// paper's best-known list L (query/best_known_list.h). Subtrees are pruned
// when MinDist(node, Sq) > distk. The dominance criterion is pluggable;
// with a correct+sound criterion (Hyperbola) the result matches
// Definition 2 exactly, with merely-correct criteria it is a superset
// (lower precision), never a subset.
//
// One searcher serves all four indexes (SS-tree, R*-tree, VP-tree,
// M-tree): a single DF and a single HS driver run over per-index
// expanders (DESIGN.md, "One kNN traversal"). In deferred mode every
// index therefore returns the same answer set for the same criterion and
// options; they differ only in traversal cost, which is what the
// index-comparison ablation benchmark measures.

#ifndef HYPERDOM_QUERY_KNN_H_
#define HYPERDOM_QUERY_KNN_H_

#include <vector>

#include "common/deadline.h"
#include "dominance/criterion.h"
#include "index/m_tree.h"
#include "index/overlay.h"
#include "index/rstar_tree.h"
#include "index/ss_tree.h"
#include "index/vp_tree.h"
#include "query/knn_types.h"

namespace hyperdom {

class BestKnownList;

/// \brief Index-based kNN search with a pluggable dominance criterion.
///
/// The searcher borrows the criterion (not owned); it must outlive the
/// searcher. Thread-compatible: concurrent Search() calls are safe.
class KnnSearcher {
 public:
  KnnSearcher(const DominanceCriterion* criterion, KnnOptions options);

  /// \brief Runs the query against one index. The whole call runs under
  /// an epoch guard, and its counters are published under the index's
  /// tag ("ss"/"rstar"/"vp"/"m", query/knn_metrics.h).
  ///
  /// The SS-tree can also be searched through a mutability overlay
  /// (index/overlay.h): tombstoned base slots are skipped and the
  /// overlay's delta rows are scored exhaustively before the traversal
  /// (tightening distk early; the answer set is traversal-order
  /// independent). A null overlay searches the tree alone.
  KnnResult Search(const SsTree& tree, const Hypersphere& sq,
                   const SearchOverlay* overlay = nullptr) const;
  KnnResult Search(const RStarTree& tree, const Hypersphere& sq) const;
  KnnResult Search(const VpTree& tree, const Hypersphere& sq) const;
  KnnResult Search(const MTree& tree, const Hypersphere& sq) const;

  const KnnOptions& options() const { return options_; }

 private:
  const DominanceCriterion* criterion_;
  KnnOptions options_;
};

/// \brief Traversal core without finalization: runs the search for `sq`
/// into an externally owned list/stats/guard (an SS-tree overlay's delta
/// rows, if any, are scored up front exactly as in KnnSearcher::Search). The
/// caller finalizes with FinishKnn() — or merges several per-shard lists
/// first (BestKnownList::MergeFrom), which is what the scatter-gather
/// engine (src/shard/) does. The list's criterion/k/mode define the
/// pruning; `stats` must be the object the list was built with.
void KnnSearchInto(const SsTree& tree, const Hypersphere& sq,
                   SearchStrategy strategy, BestKnownList* list,
                   KnnStats* stats, TraversalGuard* guard,
                   const SearchOverlay* overlay = nullptr);
void KnnSearchInto(const RStarTree& tree, const Hypersphere& sq,
                   SearchStrategy strategy, BestKnownList* list,
                   KnnStats* stats, TraversalGuard* guard);
void KnnSearchInto(const VpTree& tree, const Hypersphere& sq,
                   SearchStrategy strategy, BestKnownList* list,
                   KnnStats* stats, TraversalGuard* guard);
void KnnSearchInto(const MTree& tree, const Hypersphere& sq,
                   SearchStrategy strategy, BestKnownList* list,
                   KnnStats* stats, TraversalGuard* guard);

/// \brief The finalize step every kNN search shares; consumes `list`.
/// Runs the final-Sk filter, or — when a deadline cut the traversal
/// short (`expired`) — the proven-subset filter below `pending_bound`
/// (the smallest bound of any skipped subtree), flagging the result
/// kBestEffort.
void FinishKnn(BestKnownList* list, bool expired, double pending_bound,
               KnnResult* result);

/// \brief Reference evaluation of Definition 2 by linear scan: find distk
/// and Sk exactly, then keep every hypersphere not dominated by Sk.
///
/// `criterion` decides the dominance filter (use Hyperbola or the oracle
/// for exact ground truth). Ids in the result index into `data`.
KnnResult KnnLinearScan(const std::vector<Hypersphere>& data,
                        const Hypersphere& sq, size_t k,
                        const DominanceCriterion& criterion);

}  // namespace hyperdom

#endif  // HYPERDOM_QUERY_KNN_H_
